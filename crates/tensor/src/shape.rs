//! GeMM problem shapes and their FLOP/byte accounting.

use std::fmt;

/// The shape of a GeMM `C[M×N] = A[M×K] · B[K×N]`.
///
/// Shapes are the currency of the timing layer: the simulator and the
/// analytical cost models work purely on shapes and byte counts, never on
/// matrix data.
///
/// # Example
///
/// ```
/// use meshslice_tensor::GemmShape;
///
/// let s = GemmShape::new(128, 64, 32);
/// assert_eq!(s.flops(), 2 * 128 * 64 * 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GemmShape {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// The contracted dimension (columns of `A`, rows of `B`).
    pub k: usize,
}

impl GemmShape {
    /// Creates a shape from `(m, n, k)`.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// The number of floating-point operations (`2·m·n·k`, multiply + add).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes of the left input `A` for the given element size.
    pub fn a_bytes(&self, elem_bytes: usize) -> u64 {
        self.m as u64 * self.k as u64 * elem_bytes as u64
    }

    /// Bytes of the right input `B` for the given element size.
    pub fn b_bytes(&self, elem_bytes: usize) -> u64 {
        self.k as u64 * self.n as u64 * elem_bytes as u64
    }

    /// Bytes of the output `C` for the given element size.
    pub fn c_bytes(&self, elem_bytes: usize) -> u64 {
        self.m as u64 * self.n as u64 * elem_bytes as u64
    }

    /// The shape of the backward-data GeMM `X' = Y'·Wᵀ` derived from a
    /// forward GeMM `Y = X·W` of this shape: `(m, k, n)`.
    pub fn backward_data(&self) -> GemmShape {
        GemmShape::new(self.m, self.k, self.n)
    }

    /// The shape of the backward-weight GeMM `W' = Xᵀ·Y'` derived from a
    /// forward GeMM `Y = X·W` of this shape: `(k, n, m)`.
    pub fn backward_weight(&self) -> GemmShape {
        GemmShape::new(self.k, self.n, self.m)
    }

    /// The shape with `m` and `n` swapped (the transposed problem).
    pub fn transposed(&self) -> GemmShape {
        GemmShape::new(self.n, self.m, self.k)
    }
}

impl fmt::Debug for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GemmShape(M={}, N={}, K={})", self.m, self.n, self.k)
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_counts_multiply_add() {
        assert_eq!(GemmShape::new(2, 3, 4).flops(), 48);
    }

    #[test]
    fn byte_accounting() {
        let s = GemmShape::new(4, 8, 2);
        assert_eq!(s.a_bytes(2), 16);
        assert_eq!(s.b_bytes(2), 32);
        assert_eq!(s.c_bytes(2), 64);
    }

    #[test]
    fn backward_shapes_follow_the_paper() {
        // Forward Y = X·W with (M, N, K); backward-data X' = Y'·Wᵀ is
        // (M, K, N); backward-weight W' = Xᵀ·Y' is (K, N, M).
        let fwd = GemmShape::new(100, 20, 30);
        assert_eq!(fwd.backward_data(), GemmShape::new(100, 30, 20));
        assert_eq!(fwd.backward_weight(), GemmShape::new(30, 20, 100));
    }

    #[test]
    fn all_three_passes_have_equal_flops() {
        let fwd = GemmShape::new(64, 32, 16);
        assert_eq!(fwd.flops(), fwd.backward_data().flops());
        assert_eq!(fwd.flops(), fwd.backward_weight().flops());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(GemmShape::new(1, 2, 3).to_string(), "1x2x3");
    }
}
