//! The dense row-major matrix type.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single numeric container used throughout the MeshSlice
/// reproduction. It deliberately stays small and predictable: row-major
/// storage, no views, no strides. Distributed algorithms copy sub-matrices
/// explicitly, which mirrors the data movement they model.
///
/// # Example
///
/// ```
/// use meshslice_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f32);
/// assert_eq!(m[(0, 1)], 1.0);
/// assert_eq!(m.transpose()[(1, 0)], 1.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Creates a matrix with entries drawn uniformly from `[-1, 1)`.
    ///
    /// The generator is seeded, so results are reproducible.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        // A small xorshift generator keeps this crate's dependency on `rand`
        // out of the hot path and makes the sequence stable across versions.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map the top 24 bits to [-1, 1).
            let v = (state >> 40) as f32 / (1u64 << 23) as f32;
            v - 1.0
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(rows, cols)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.data[j * self.cols + i])
    }

    /// Copies the sub-matrix starting at `(row0, col0)` with the given size.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block ({row0}+{rows}, {col0}+{cols}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let src = &self.data[(row0 + i) * self.cols + col0..][..cols];
            out.data[i * cols..(i + 1) * cols].copy_from_slice(src);
        }
        out
    }

    /// Writes `src` into the sub-matrix starting at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` extends past the matrix bounds.
    pub(crate) fn set_block(&mut self, row0: usize, col0: usize, src: &Matrix) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "block ({row0}+{}, {col0}+{}) out of bounds for {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            let dst = &mut self.data[(row0 + i) * self.cols + col0..][..src.cols];
            dst.copy_from_slice(&src.data[i * src.cols..(i + 1) * src.cols]);
        }
    }

    /// Accumulates `src` into the sub-matrix starting at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` extends past the matrix bounds.
    pub fn add_block(&mut self, row0: usize, col0: usize, src: &Matrix) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..src.rows {
            let dst = &mut self.data[(row0 + i) * self.cols + col0..][..src.cols];
            for (d, s) in dst
                .iter_mut()
                .zip(&src.data[i * src.cols..(i + 1) * src.cols])
            {
                *d += s;
            }
        }
    }

    /// Stacks matrices vertically, in order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn vcat(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vcat of zero matrices");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "vcat with mismatched column counts"
        );
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r = 0;
        for p in parts {
            out.set_block(r, 0, p);
            r += p.rows;
        }
        out
    }

    /// Concatenates matrices horizontally, in order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hcat(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat of zero matrices");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "hcat with mismatched row counts"
        );
        let cols = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c = 0;
        for p in parts {
            out.set_block(0, c, p);
            c += p.cols;
        }
        out
    }

    /// Splits the matrix into `n` equal vertical chunks (by rows).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not divide the row count.
    pub fn vsplit(&self, n: usize) -> Vec<Matrix> {
        assert!(
            n > 0 && self.rows.is_multiple_of(n),
            "{} rows not divisible by {n}",
            self.rows
        );
        let chunk = self.rows / n;
        (0..n)
            .map(|i| self.block(i * chunk, 0, chunk, self.cols))
            .collect()
    }

    /// Splits the matrix into `n` equal horizontal chunks (by columns).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not divide the column count.
    pub fn hsplit(&self, n: usize) -> Vec<Matrix> {
        assert!(
            n > 0 && self.cols.is_multiple_of(n),
            "{} cols not divisible by {n}",
            self.cols
        );
        let chunk = self.cols / n;
        (0..n)
            .map(|j| self.block(0, j * chunk, self.rows, chunk))
            .collect()
    }

    /// Element-wise comparison with absolute-or-relative tolerance.
    ///
    /// Two entries `x` and `y` match when `|x − y| ≤ tol · max(1, |x|, |y|)`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
    }

    /// The largest absolute element-wise difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Scales every element in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// Element-wise accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.dims(), rhs.dims(), "dimension mismatch in +=");
        for (d, s) in self.data.iter_mut().zip(&rhs.data) {
            *d += s;
        }
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix {}x{}", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            writeln!(f, " [")?;
            for i in 0..self.rows {
                write!(f, "  ")?;
                for j in 0..self.cols {
                    write!(f, "{:>8.3} ", self.data[i * self.cols + j])?;
                }
                writeln!(f)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.dims(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(1, 0)], 10.0);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::random(5, 7, 42);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn block_and_set_block_round_trip() {
        let m = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(4, 6);
        z.set_block(1, 2, &b);
        assert_eq!(z[(2, 4)], m[(2, 4)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn add_block_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        let one = Matrix::from_fn(1, 1, |_, _| 1.0);
        m.add_block(0, 0, &one);
        m.add_block(0, 0, &one);
        assert_eq!(m[(0, 0)], 2.0);
    }

    #[test]
    fn vcat_vsplit_round_trip() {
        let m = Matrix::random(6, 4, 1);
        let parts = m.vsplit(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(Matrix::vcat(&parts), m);
    }

    #[test]
    fn hcat_hsplit_round_trip() {
        let m = Matrix::random(4, 6, 2);
        let parts = m.hsplit(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(Matrix::hcat(&parts), m);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-7;
        assert!(a.approx_eq(&b, 1e-6));
        b[(0, 0)] = 1.1;
        assert!(!a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Matrix::random(3, 3, 7), Matrix::random(3, 3, 7));
        assert_ne!(Matrix::random(3, 3, 7), Matrix::random(3, 3, 8));
    }

    #[test]
    fn add_assign_sums_elementwise() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f32);
        let mut b = a.clone();
        b += &a;
        assert_eq!(b[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_out_of_bounds_panics() {
        Matrix::zeros(2, 2).block(1, 1, 2, 2);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
    }
}
