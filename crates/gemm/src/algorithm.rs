//! The common interface of distributed GeMM algorithms.

use meshslice_mesh::Torus2d;
use meshslice_sim::Program;
use meshslice_tensor::shard::ShardGrid;

use crate::error::GemmError;
use crate::plan::{Plan, PlanBuilder, Reg, FUNCTIONAL_ELEM_BYTES};
use crate::problem::GemmProblem;

/// A distributed GeMM algorithm: MeshSlice or one of the baselines.
///
/// Implementations provide one emission — [`DistributedGemm::emit`] —
/// that writes the algorithm's ops and data annotations into a
/// [`PlanBuilder`]. Every execution mode records that one emission:
///
/// - [`DistributedGemm::plan`] records every chip's ops and their data
///   annotations as a [`Plan`];
/// - [`DistributedGemm::execute`] interprets the plan functionally
///   (really moving and multiplying matrix shards, for correctness
///   testing at small scale);
/// - [`DistributedGemm::schedule`] records the timing-simulation
///   [`Program`] alone (priced at full LLM scale).
///
/// Because all of them walk the same emission, the schedule the simulator
/// prices is the computation that is verified numerically — the two
/// cannot drift.
///
/// The trait is object-safe so experiment drivers can iterate over
/// `&dyn DistributedGemm` baselines.
pub trait DistributedGemm {
    /// Short human-readable name (e.g. `"MeshSlice"`).
    fn name(&self) -> &str;

    /// Checks whether the algorithm can run this problem on this mesh.
    ///
    /// # Errors
    ///
    /// Returns the same error `plan` would.
    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError>;

    /// Emits the algorithm into `pb` (built for the target mesh) and
    /// returns the register holding the result shard grid.
    ///
    /// Every op goes inside a `for chip in pb.chips()` loop whose body
    /// emits the same ops for every chip, so that
    /// [`schedule`](Self::schedule) can record chip 0's copy alone (see
    /// [`ProgramBuilder::spmd`](meshslice_sim::ProgramBuilder::spmd)).
    /// An algorithm whose chips run different op lists overrides
    /// `schedule`.
    ///
    /// `elem_bytes` is the storage size of a matrix element (2 for bf16);
    /// it affects only the op byte counts the simulator prices, never the
    /// data annotations.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the mesh, dataflow, or dimensions are
    /// unsupported.
    fn emit(
        &self,
        pb: &mut PlanBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Reg, GemmError>;

    /// Lowers the algorithm to one data-annotated plan.
    ///
    /// `elem_bytes` is the storage size of a matrix element (2 for bf16).
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the mesh, dataflow, or dimensions are
    /// unsupported.
    fn plan(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Plan, GemmError> {
        Plan::build(mesh, |pb| self.emit(pb, problem, elem_bytes))
    }

    /// Checks that `a` and `b` match the shard layout this algorithm
    /// expects for the problem.
    ///
    /// The default is the standard 2D convention (both inputs sharded
    /// over the full mesh); the 1D baselines override it.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShardLayout`] describing the first mismatch.
    fn check_layout(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
    ) -> Result<(), GemmError> {
        check_inputs(mesh, problem, a, b)
    }

    /// Computes the distributed product over per-chip shards by
    /// interpreting the plan.
    ///
    /// `a` and `b` are sharded according to the problem's
    /// [`Dataflow`](crate::Dataflow) storage convention; the result is the
    /// `C` shard grid (`M × N` globally).
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the mesh, dataflow, dimensions, or input
    /// shard layouts are unsupported.
    fn execute(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
    ) -> Result<ShardGrid, GemmError> {
        self.check_layout(mesh, problem, a, b)?;
        let plan = self.plan(mesh, problem, FUNCTIONAL_ELEM_BYTES)?;
        Ok(plan.interpret(a, b))
    }

    /// Builds the timing-simulation task DAG: the plan's [`Program`]
    /// without its data annotations.
    ///
    /// The program is an SPMD template (chip 0's ops; see
    /// [`ProgramBuilder::spmd`](meshslice_sim::ProgramBuilder::spmd)), so
    /// scheduling costs one chip's emission and the engine lowers its
    /// fault-free representative straight from it. It equals
    /// `plan(..).into_program()` op for op.
    ///
    /// `elem_bytes` is the storage size of a matrix element (2 for bf16).
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the mesh, dataflow, or dimensions are
    /// unsupported.
    fn schedule(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Program, GemmError> {
        Plan::spmd_program(mesh, |pb| self.emit(pb, problem, elem_bytes))
    }
}

/// Checks that `a` and `b` match the problem's standard 2D shard layout
/// on `mesh`.
pub(crate) fn check_inputs(
    mesh: &Torus2d,
    problem: GemmProblem,
    a: &ShardGrid,
    b: &ShardGrid,
) -> Result<(), GemmError> {
    if a.global_dims() != problem.a_dims() {
        return Err(GemmError::ShardLayout {
            what: format!("A global dims do not match {problem}"),
            found: a.global_dims(),
            expected: problem.a_dims(),
        });
    }
    if b.global_dims() != problem.b_dims() {
        return Err(GemmError::ShardLayout {
            what: format!("B global dims do not match {problem}"),
            found: b.global_dims(),
            expected: problem.b_dims(),
        });
    }
    if (a.mesh_rows(), a.mesh_cols()) != (mesh.rows(), mesh.cols()) {
        return Err(GemmError::ShardLayout {
            what: "A shard grid does not match the mesh".to_string(),
            found: (a.mesh_rows(), a.mesh_cols()),
            expected: (mesh.rows(), mesh.cols()),
        });
    }
    if (b.mesh_rows(), b.mesh_cols()) != (mesh.rows(), mesh.cols()) {
        return Err(GemmError::ShardLayout {
            what: "B shard grid does not match the mesh".to_string(),
            found: (b.mesh_rows(), b.mesh_cols()),
            expected: (mesh.rows(), mesh.cols()),
        });
    }
    Ok(())
}
