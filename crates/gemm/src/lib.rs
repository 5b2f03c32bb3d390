//! Distributed GeMM algorithms for 2D tensor parallelism.
//!
//! This crate implements the paper's five 2D GeMM algorithms and two 1D
//! baselines. Each algorithm has **one** emission
//! ([`DistributedGemm::emit`]), recorded as a data-annotated [`Plan`]
//! from which both execution modes are derived:
//!
//! 1. **functional**: [`Plan::interpret`] walks the plan's data actions
//!    in dependency order, really computing the distributed product over
//!    per-chip matrix shards (through the ring collectives of this crate,
//!    [`all_gather`] and [`reduce_scatter`]), verified
//!    numerically against dense GeMM, and
//! 2. **timing**: [`Plan::program`] is the algorithm's per-chip task DAG
//!    (a [`Program`](meshslice_sim::Program)) with the data annotations
//!    erased, fed to the timing simulator at full LLM scale.
//!    [`DistributedGemm::schedule`] records the same program as an SPMD
//!    template — chip 0's ops alone — which the simulator expands only
//!    when a run needs every chip.
//!
//! Because both modes consume the same emission, the schedule the
//! simulator prices cannot drift from the computation that is
//! numerically verified.
//!
//! | Algorithm | Paper section | Overlap | Mesh shapes | Dataflows |
//! |---|---|---|---|---|
//! | [`MeshSlice`] | §3.1 | both directions | any | OS, LS, RS |
//! | [`Collective`] | §2.3.4 | none | any | OS, LS, RS |
//! | [`Summa`] | §2.3.3 | both (fine-grain bcast) | any | OS, LS, RS |
//! | [`Cannon`] | §2.3.2 | both (SendRecv) | square only | OS |
//! | [`Wang`] | §2.3.4 | one direction | any | OS, LS, RS |
//! | [`OneDimTp`] | §4.3 | one direction | ring | OS |
//! | [`Fsdp`] | §4.3 | one direction | ring | OS |
//! | [`TwoFiveD`] | §7 | both (Cannon per layer) | square × depth | OS |
//!
//! # Example
//!
//! ```
//! use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, MeshSlice};
//! use meshslice_mesh::Torus2d;
//! use meshslice_tensor::GemmShape;
//!
//! # fn main() -> Result<(), meshslice_gemm::GemmError> {
//! let mesh = Torus2d::new(2, 2);
//! let problem = GemmProblem::new(GemmShape::new(16, 16, 16), Dataflow::Os);
//! let algo = MeshSlice::new(2, 2); // S = 2 sub-shards, block B = 2
//!
//! // Functional: compute C = A·B distributed over 4 chips and check it.
//! let (a, b) = problem.random_inputs(&mesh, 42);
//! let c = algo.execute(&mesh, problem, &a, &b)?;
//! let expect = problem.reference(&a.assemble(), &b.assemble());
//! assert!(c.assemble().approx_eq(&expect, 1e-4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod cannon;
mod collective;
mod collectives;
mod error;
#[cfg(test)]
mod golden;
mod meshslice_algo;
mod one_d;
mod plan;
mod problem;
mod summa;
mod two_five_d;
mod wang;

pub use algorithm::DistributedGemm;
pub use cannon::Cannon;
pub use collective::Collective;
pub use collectives::{all_gather, degraded_all_gather, degraded_reduce_scatter, reduce_scatter};
pub use error::GemmError;
pub use meshslice_algo::MeshSlice;
pub use one_d::{Fsdp, OneDimTp};
pub use plan::{
    ActionId, DataOp, MatKind, MatmulStep, Plan, PlanAction, PlanBuilder, Reg, Region, TileRead,
};
pub use problem::{Dataflow, GemmProblem};
pub use summa::Summa;
pub use two_five_d::TwoFiveD;
pub use wang::{Wang, WangOverlap};
