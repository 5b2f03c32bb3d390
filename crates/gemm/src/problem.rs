//! Distributed GeMM problem definitions: dataflows and shard layouts.

use std::fmt;

use meshslice_mesh::{CommAxis, MeshShape, Torus2d};
use meshslice_tensor::gemm as dense;
use meshslice_tensor::shard::ShardGrid;
use meshslice_tensor::{GemmShape, Matrix};

use crate::error::{ensure_divides, GemmError};

/// The three 2D GeMM dataflows of the paper's Figure 1.
///
/// In each dataflow one matrix stays put and the other two move:
///
/// | Dataflow | Stationary | Result | `A` stored as | `B` stored as |
/// |---|---|---|---|---|
/// | `Os` (output-stationary) | `C` | `C = A·B` | `M × K` | `K × N` |
/// | `Ls` (left-stationary) | `A` | `C = A·Bᵀ` | `M × K` | `N × K` |
/// | `Rs` (right-stationary) | `B` | `C = Aᵀ·B` | `K × M` | `K × N` |
///
/// Every stored matrix is sharded rows-over-mesh-rows and
/// columns-over-mesh-columns (§3.2.1: "partition the two outermost
/// dimensions").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Output-stationary: `C` stays, `A` moves inter-column, `B` inter-row.
    Os,
    /// Left-stationary: `A` stays, `B` moves inter-row, `C` inter-column.
    Ls,
    /// Right-stationary: `B` stays, `A` moves inter-column, `C` inter-row.
    Rs,
}

impl Dataflow {
    /// All three dataflows.
    pub const ALL: [Dataflow; 3] = [Dataflow::Os, Dataflow::Ls, Dataflow::Rs];
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dataflow::Os => write!(f, "OS"),
            Dataflow::Ls => write!(f, "LS"),
            Dataflow::Rs => write!(f, "RS"),
        }
    }
}

/// A 2D distributed GeMM problem: a global shape plus a dataflow.
///
/// The logical product is always `C[M×N]` contracted over `K`; the dataflow
/// determines how `A` and `B` are stored (see [`Dataflow`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmProblem {
    /// The global `(M, N, K)`.
    pub shape: GemmShape,
    /// The dataflow (and therefore the shard layout).
    pub dataflow: Dataflow,
}

impl GemmProblem {
    /// Creates a problem.
    pub fn new(shape: GemmShape, dataflow: Dataflow) -> Self {
        GemmProblem { shape, dataflow }
    }

    /// Global storage dimensions of `A` as `(rows, cols)`.
    pub(crate) fn a_dims(&self) -> (usize, usize) {
        let GemmShape { m, n: _, k } = self.shape;
        match self.dataflow {
            Dataflow::Os | Dataflow::Ls => (m, k),
            Dataflow::Rs => (k, m),
        }
    }

    /// Global storage dimensions of `B` as `(rows, cols)`.
    pub(crate) fn b_dims(&self) -> (usize, usize) {
        let GemmShape { m: _, n, k } = self.shape;
        match self.dataflow {
            Dataflow::Os | Dataflow::Rs => (k, n),
            Dataflow::Ls => (n, k),
        }
    }

    /// Global dimensions of `C` (always `(M, N)`).
    pub(crate) fn c_dims(&self) -> (usize, usize) {
        (self.shape.m, self.shape.n)
    }

    /// The mesh axis along which `A`'s shards are communicated.
    ///
    /// `A` always flows inter-column (within a mesh row) in the dataflows
    /// where it moves; in LS it is stationary.
    pub fn a_axis(&self) -> Option<CommAxis> {
        match self.dataflow {
            Dataflow::Os | Dataflow::Rs => Some(CommAxis::InterCol),
            Dataflow::Ls => None,
        }
    }

    /// The mesh axis along which `B`'s shards are communicated (`None` when
    /// stationary).
    pub fn b_axis(&self) -> Option<CommAxis> {
        match self.dataflow {
            Dataflow::Os | Dataflow::Ls => Some(CommAxis::InterRow),
            Dataflow::Rs => None,
        }
    }

    /// The mesh axis along which `C` partials are reduced (`None` for OS).
    pub fn c_axis(&self) -> Option<CommAxis> {
        match self.dataflow {
            Dataflow::Os => None,
            Dataflow::Ls => Some(CommAxis::InterCol),
            Dataflow::Rs => Some(CommAxis::InterRow),
        }
    }

    /// Checks that the mesh evenly divides all three stored matrices.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::Indivisible`] naming the offending dimension.
    pub fn check_divisible(&self, mesh: MeshShape) -> Result<(), GemmError> {
        for (name, (r, c)) in [
            ("A", self.a_dims()),
            ("B", self.b_dims()),
            ("C", self.c_dims()),
        ] {
            ensure_divides(format_args!("{name} rows by mesh rows"), r, mesh.rows())?;
            ensure_divides(format_args!("{name} cols by mesh cols"), c, mesh.cols())?;
        }
        Ok(())
    }

    /// Local shard dimensions of `A` on a mesh.
    pub(crate) fn a_shard_dims(&self, mesh: MeshShape) -> (usize, usize) {
        let (r, c) = self.a_dims();
        (r / mesh.rows(), c / mesh.cols())
    }

    /// Local shard dimensions of `B` on a mesh.
    pub(crate) fn b_shard_dims(&self, mesh: MeshShape) -> (usize, usize) {
        let (r, c) = self.b_dims();
        (r / mesh.rows(), c / mesh.cols())
    }

    /// Local shard dimensions of `C` on a mesh.
    pub(crate) fn c_shard_dims(&self, mesh: MeshShape) -> (usize, usize) {
        let (r, c) = self.c_dims();
        (r / mesh.rows(), c / mesh.cols())
    }

    /// Bytes of one `A` shard.
    pub fn a_shard_bytes(&self, mesh: MeshShape, elem_bytes: usize) -> u64 {
        let (r, c) = self.a_shard_dims(mesh);
        (r * c * elem_bytes) as u64
    }

    /// Bytes of one `B` shard.
    pub fn b_shard_bytes(&self, mesh: MeshShape, elem_bytes: usize) -> u64 {
        let (r, c) = self.b_shard_dims(mesh);
        (r * c * elem_bytes) as u64
    }

    /// Bytes of one `C` shard.
    pub fn c_shard_bytes(&self, mesh: MeshShape, elem_bytes: usize) -> u64 {
        let (r, c) = self.c_shard_dims(mesh);
        (r * c * elem_bytes) as u64
    }

    /// Rounds the shape up so every stored matrix divides the mesh (and,
    /// optionally, a slicing `unit` such as `S·B` divides the sliced
    /// dimension), returning the padded problem and the FLOP overhead
    /// ratio the padding introduces.
    ///
    /// Real deployments zero-pad ragged dimensions rather than reject
    /// them; the overhead ratio quantifies the wasted work.
    pub fn padded_for(&self, mesh: MeshShape, unit: usize) -> (GemmProblem, f64) {
        let unit = unit.max(1);
        let round = |dim: usize, div: usize| dim.div_ceil(div) * div;
        let m = round(self.shape.m, mesh.rows() * mesh.cols());
        let n = round(self.shape.n, mesh.rows() * mesh.cols());
        // The sliced dimension additionally needs the slicing unit on both
        // of its per-chip extents.
        let k = round(self.shape.k, mesh.rows() * mesh.cols() * unit);
        let padded = GemmProblem::new(GemmShape::new(m, n, k), self.dataflow);
        let overhead = padded.shape.flops() as f64 / self.shape.flops() as f64 - 1.0;
        (padded, overhead)
    }

    /// Generates random global inputs partitioned over the mesh.
    ///
    /// # Panics
    ///
    /// Panics if the mesh does not divide the matrices (use
    /// [`check_divisible`](Self::check_divisible) first in fallible code).
    pub fn random_inputs(&self, mesh: &Torus2d, seed: u64) -> (ShardGrid, ShardGrid) {
        let (ar, ac) = self.a_dims();
        let (br, bc) = self.b_dims();
        let a = Matrix::random(ar, ac, seed);
        let b = Matrix::random(br, bc, seed.wrapping_add(1));
        (
            ShardGrid::partition(&a, mesh.rows(), mesh.cols()),
            ShardGrid::partition(&b, mesh.rows(), mesh.cols()),
        )
    }

    /// The dense reference result for globally assembled inputs.
    ///
    /// # Panics
    ///
    /// Panics if the input dimensions do not match the problem.
    pub fn reference(&self, a_global: &Matrix, b_global: &Matrix) -> Matrix {
        assert_eq!(a_global.dims(), self.a_dims(), "A dims mismatch");
        assert_eq!(b_global.dims(), self.b_dims(), "B dims mismatch");
        match self.dataflow {
            Dataflow::Os => dense::matmul(a_global, b_global),
            Dataflow::Ls => dense::matmul_a_bt(a_global, b_global),
            Dataflow::Rs => dense::matmul_at_b(a_global, b_global),
        }
    }
}

impl fmt::Display for GemmProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.dataflow, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: GemmShape = GemmShape { m: 8, n: 12, k: 4 };

    #[test]
    fn storage_dims_follow_dataflow() {
        let os = GemmProblem::new(SHAPE, Dataflow::Os);
        assert_eq!(os.a_dims(), (8, 4));
        assert_eq!(os.b_dims(), (4, 12));
        let ls = GemmProblem::new(SHAPE, Dataflow::Ls);
        assert_eq!(ls.a_dims(), (8, 4));
        assert_eq!(ls.b_dims(), (12, 4));
        let rs = GemmProblem::new(SHAPE, Dataflow::Rs);
        assert_eq!(rs.a_dims(), (4, 8));
        assert_eq!(rs.b_dims(), (4, 12));
        for df in Dataflow::ALL {
            assert_eq!(GemmProblem::new(SHAPE, df).c_dims(), (8, 12));
        }
    }

    #[test]
    fn flow_axes_match_figure_1() {
        let os = GemmProblem::new(SHAPE, Dataflow::Os);
        assert_eq!(os.a_axis(), Some(CommAxis::InterCol));
        assert_eq!(os.b_axis(), Some(CommAxis::InterRow));
        assert_eq!(os.c_axis(), None);
        let ls = GemmProblem::new(SHAPE, Dataflow::Ls);
        assert_eq!(ls.a_axis(), None);
        assert_eq!(ls.b_axis(), Some(CommAxis::InterRow));
        assert_eq!(ls.c_axis(), Some(CommAxis::InterCol));
        let rs = GemmProblem::new(SHAPE, Dataflow::Rs);
        assert_eq!(rs.a_axis(), Some(CommAxis::InterCol));
        assert_eq!(rs.b_axis(), None);
        assert_eq!(rs.c_axis(), Some(CommAxis::InterRow));
    }

    #[test]
    fn reference_matches_dense_for_all_dataflows() {
        let a = Matrix::random(8, 4, 1);
        let b = Matrix::random(4, 12, 2);
        let os = GemmProblem::new(SHAPE, Dataflow::Os).reference(&a, &b);
        let ls = GemmProblem::new(SHAPE, Dataflow::Ls).reference(&a, &b.transpose());
        let rs = GemmProblem::new(SHAPE, Dataflow::Rs).reference(&a.transpose(), &b);
        assert!(ls.approx_eq(&os, 1e-5));
        assert!(rs.approx_eq(&os, 1e-5));
    }

    #[test]
    fn divisibility_check() {
        let p = GemmProblem::new(SHAPE, Dataflow::Os);
        assert!(p.check_divisible(MeshShape::new(2, 2)).is_ok());
        assert!(p.check_divisible(MeshShape::new(3, 2)).is_err());
    }

    #[test]
    fn shard_byte_accounting() {
        let p = GemmProblem::new(SHAPE, Dataflow::Os);
        let mesh = MeshShape::new(2, 2);
        assert_eq!(p.a_shard_dims(mesh), (4, 2));
        assert_eq!(p.a_shard_bytes(mesh, 2), 16);
        assert_eq!(p.c_shard_dims(mesh), (4, 6));
    }

    #[test]
    fn padding_makes_any_shape_divisible() {
        let mesh = MeshShape::new(4, 2);
        let ragged = GemmProblem::new(GemmShape::new(100, 37, 53), Dataflow::Os);
        assert!(ragged.check_divisible(mesh).is_err());
        let (padded, overhead) = ragged.padded_for(mesh, 8);
        assert!(padded.check_divisible(mesh).is_ok());
        assert!(padded.shape.k % (4 * 2 * 8) == 0);
        assert!(overhead > 0.0);
        // Already-divisible shapes pad to themselves.
        let clean = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Ls);
        let (same, zero) = clean.padded_for(MeshShape::new(2, 2), 1);
        assert_eq!(same, clean);
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn random_inputs_partition_cleanly() {
        let mesh = Torus2d::new(2, 2);
        let p = GemmProblem::new(SHAPE, Dataflow::Ls);
        let (a, b) = p.random_inputs(&mesh, 7);
        assert_eq!(a.global_dims(), (8, 4));
        assert_eq!(b.global_dims(), (12, 4));
    }
}
