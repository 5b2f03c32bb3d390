//! Reference GeMM kernels.
//!
//! These kernels are correctness oracles for the distributed algorithms, not
//! performance kernels: the timing layer of the reproduction never touches
//! matrix data, so these only need to be fast enough for test-scale problems.

use crate::Matrix;

/// Computes `C = A · B`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use meshslice_tensor::{Matrix, gemm};
///
/// let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
/// let c = gemm::matmul(&a, &Matrix::identity(2));
/// assert_eq!(c, a);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_acc(&mut c, a, b);
    c
}

/// Computes `C += A · B`.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn matmul_acc(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "output shape mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    // i-k-j loop order keeps the inner loop streaming rows of B and C.
    for i in 0..m {
        for p in 0..k {
            let aip = a_data[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b_data[p * n..(p + 1) * n];
            let c_row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
}

/// Computes `C = A · Bᵀ` (the left-stationary partial product of Figure 5).
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "A·Bᵀ requires equal column counts: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut c = Matrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b_data[j * k..(j + 1) * k];
            let dot: f32 = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            c[(i, j)] = dot;
        }
    }
    c
}

/// Computes `C = Aᵀ · B` (the right-stationary partial product of Figure 5).
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "Aᵀ·B requires equal row counts: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for p in 0..k {
        let a_row = &a_data[p * m..(p + 1) * m];
        let b_row = &b_data[p * n..(p + 1) * n];
        for (i, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let c_row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Matrix, Matrix) {
        let a = Matrix::random(5, 7, 11);
        let b = Matrix::random(7, 3, 13);
        (a, b)
    }

    #[test]
    fn matmul_against_identity() {
        let (a, _) = small();
        assert!(matmul(&a, &Matrix::identity(7)).approx_eq(&a, 1e-6));
        assert!(matmul(&Matrix::identity(5), &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_fn(2, 2, |i, j| (2 * i + j + 1) as f32); // [1 2; 3 4]
        let b = Matrix::from_fn(2, 2, |i, j| (2 * i + j + 5) as f32); // [5 6; 7 8]
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = Matrix::random(4, 6, 1);
        let b = Matrix::random(5, 6, 2);
        assert!(matmul_a_bt(&a, &b).approx_eq(&matmul(&a, &b.transpose()), 1e-5));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = Matrix::random(6, 4, 3);
        let b = Matrix::random(6, 5, 4);
        assert!(matmul_at_b(&a, &b).approx_eq(&matmul(&a.transpose(), &b), 1e-5));
    }

    #[test]
    fn matmul_acc_accumulates() {
        let (a, b) = small();
        let mut c = matmul(&a, &b);
        matmul_acc(&mut c, &a, &b);
        let mut twice = matmul(&a, &b);
        twice.scale(2.0);
        assert!(c.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn sum_of_outer_products_equals_matmul() {
        // This is exactly the decomposition of the paper's Figure 6:
        // C = a_0·b_0 + ... + a_{K-1}·b_{K-1}.
        let (a, b) = small();
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for p in 0..a.cols() {
            let col = a.block(0, p, a.rows(), 1);
            let row = b.block(p, 0, 1, b.cols());
            matmul_acc(&mut c, &col, &row);
        }
        assert!(c.approx_eq(&matmul(&a, &b), 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_inner_dimension_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }
}
