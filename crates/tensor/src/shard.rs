//! Partitioning matrices into 2D grids of shards.
//!
//! 2D tensor parallelism stores shard `X_ij` of every matrix on the chip at
//! row `i`, column `j` of the mesh. [`ShardGrid`] owns such a grid of shards
//! and can reassemble the global matrix, which the tests use to check the
//! distributed algorithms against dense GeMM.

use crate::Matrix;

/// A `Pr × Pc` grid of equally-sized matrix shards.
///
/// # Example
///
/// ```
/// use meshslice_tensor::{Matrix, shard::ShardGrid};
///
/// let x = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
/// let grid = ShardGrid::partition(&x, 2, 3);
/// assert_eq!(grid.shard(1, 2)[(0, 0)], x[(2, 4)]);
/// assert_eq!(grid.assemble(), x);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ShardGrid {
    mesh_rows: usize,
    mesh_cols: usize,
    shard_rows: usize,
    shard_cols: usize,
    shards: Vec<Matrix>,
}

impl ShardGrid {
    /// Splits `x` into `mesh_rows × mesh_cols` equal shards.
    ///
    /// Shard `(i, j)` holds rows `[i·R/Pr, (i+1)·R/Pr)` and columns
    /// `[j·C/Pc, (j+1)·C/Pc)` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the mesh dimensions do not evenly divide the matrix.
    pub fn partition(x: &Matrix, mesh_rows: usize, mesh_cols: usize) -> Self {
        assert!(
            mesh_rows > 0 && mesh_cols > 0,
            "mesh dimensions must be positive"
        );
        assert!(
            x.rows().is_multiple_of(mesh_rows),
            "{} rows not divisible by {} mesh rows",
            x.rows(),
            mesh_rows
        );
        assert!(
            x.cols().is_multiple_of(mesh_cols),
            "{} cols not divisible by {} mesh cols",
            x.cols(),
            mesh_cols
        );
        let shard_rows = x.rows() / mesh_rows;
        let shard_cols = x.cols() / mesh_cols;
        let mut shards = Vec::with_capacity(mesh_rows * mesh_cols);
        for i in 0..mesh_rows {
            for j in 0..mesh_cols {
                shards.push(x.block(i * shard_rows, j * shard_cols, shard_rows, shard_cols));
            }
        }
        ShardGrid {
            mesh_rows,
            mesh_cols,
            shard_rows,
            shard_cols,
            shards,
        }
    }

    /// Creates a grid of zero shards with the given global and mesh shapes.
    ///
    /// # Panics
    ///
    /// Panics if the mesh dimensions do not evenly divide the global shape.
    pub fn zeros(
        global_rows: usize,
        global_cols: usize,
        mesh_rows: usize,
        mesh_cols: usize,
    ) -> Self {
        ShardGrid::partition(
            &Matrix::zeros(global_rows, global_cols),
            mesh_rows,
            mesh_cols,
        )
    }

    /// Builds a grid from per-position shards (row-major over the mesh).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, its length is not `mesh_rows · mesh_cols`,
    /// or the shards have unequal dimensions.
    pub fn from_shards(mesh_rows: usize, mesh_cols: usize, shards: Vec<Matrix>) -> Self {
        assert_eq!(
            shards.len(),
            mesh_rows * mesh_cols,
            "expected {} shards, got {}",
            mesh_rows * mesh_cols,
            shards.len()
        );
        assert!(!shards.is_empty(), "a grid needs at least one shard");
        let (shard_rows, shard_cols) = shards[0].dims();
        assert!(
            shards.iter().all(|s| s.dims() == (shard_rows, shard_cols)),
            "all shards must have equal dimensions"
        );
        ShardGrid {
            mesh_rows,
            mesh_cols,
            shard_rows,
            shard_cols,
            shards,
        }
    }

    /// Mesh rows `Pr`.
    pub fn mesh_rows(&self) -> usize {
        self.mesh_rows
    }

    /// Mesh columns `Pc`.
    pub fn mesh_cols(&self) -> usize {
        self.mesh_cols
    }

    /// Per-shard dimensions `(rows, cols)`.
    pub fn shard_dims(&self) -> (usize, usize) {
        (self.shard_rows, self.shard_cols)
    }

    /// Global matrix dimensions `(rows, cols)`.
    pub fn global_dims(&self) -> (usize, usize) {
        (
            self.shard_rows * self.mesh_rows,
            self.shard_cols * self.mesh_cols,
        )
    }

    /// Borrows shard `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the mesh.
    pub fn shard(&self, i: usize, j: usize) -> &Matrix {
        assert!(
            i < self.mesh_rows && j < self.mesh_cols,
            "shard ({i},{j}) out of bounds"
        );
        &self.shards[i * self.mesh_cols + j]
    }

    /// Reassembles the global matrix from the shards.
    pub fn assemble(&self) -> Matrix {
        let (rows, cols) = self.global_dims();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..self.mesh_rows {
            for j in 0..self.mesh_cols {
                out.set_block(i * self.shard_rows, j * self.shard_cols, self.shard(i, j));
            }
        }
        out
    }

    /// Iterates over `((i, j), shard)` in row-major mesh order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &Matrix)> {
        self.shards
            .iter()
            .enumerate()
            .map(move |(idx, s)| ((idx / self.mesh_cols, idx % self.mesh_cols), s))
    }
}

/// Splits `x` into `p` shards by rows (1D row partitioning).
///
/// # Panics
///
/// Panics if `p` does not divide `x.rows()`.
pub fn partition_rows(x: &Matrix, p: usize) -> Vec<Matrix> {
    x.vsplit(p)
}

/// Splits `x` into `p` shards by columns (1D column partitioning).
///
/// # Panics
///
/// Panics if `p` does not divide `x.cols()`.
pub fn partition_cols(x: &Matrix, p: usize) -> Vec<Matrix> {
    x.hsplit(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_assemble_round_trip() {
        let x = Matrix::random(12, 8, 77);
        for (pr, pc) in [(1, 1), (2, 2), (3, 4), (12, 8)] {
            let grid = ShardGrid::partition(&x, pr, pc);
            assert_eq!(grid.global_dims(), (12, 8));
            assert_eq!(grid.assemble(), x);
        }
    }

    #[test]
    fn shard_holds_expected_region() {
        let x = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f32);
        let grid = ShardGrid::partition(&x, 3, 2);
        // Shard (2, 1) covers rows 4..6, cols 3..6.
        assert_eq!(grid.shard(2, 1)[(0, 0)], x[(4, 3)]);
        assert_eq!(grid.shard(2, 1)[(1, 2)], x[(5, 5)]);
    }

    #[test]
    fn from_shards_matches_partition() {
        let x = Matrix::random(4, 6, 3);
        let grid = ShardGrid::partition(&x, 2, 3);
        let rebuilt = ShardGrid::from_shards(2, 3, grid.iter().map(|(_, s)| s.clone()).collect());
        assert_eq!(rebuilt, grid);
    }

    #[test]
    fn iter_yields_mesh_coordinates_in_row_major_order() {
        let grid = ShardGrid::zeros(2, 4, 2, 2);
        let coords: Vec<_> = grid.iter().map(|(c, _)| c).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_partition_panics() {
        ShardGrid::partition(&Matrix::zeros(5, 4), 2, 2);
    }

    #[test]
    fn one_d_partitions() {
        let x = Matrix::random(8, 4, 9);
        let rows = partition_rows(&x, 4);
        assert_eq!(rows.len(), 4);
        assert_eq!(Matrix::vcat(&rows), x);
        let cols = partition_cols(&x, 2);
        assert_eq!(Matrix::hcat(&cols), x);
    }
}
