//! Discrete-event simulator of a TPUv4-like 2D-torus accelerator cluster.
//!
//! This crate is the timing substrate of the MeshSlice reproduction. It
//! models the architecture of the paper's Figure 8:
//!
//! - per-chip **compute engine** (systolic-array GeMM with an efficiency
//!   model and kernel-launch overhead),
//! - a **NIC with four ICI link controllers** (one per [`LinkDir`]), each an
//!   exclusive, FIFO resource,
//! - **HBM** shared between the compute engine and the NIC, modeled as a
//!   fluid (processor-sharing) bandwidth resource — the only performance
//!   interference between cores and NIC, exactly as in §4.1 of the paper,
//! - ring collectives lowered to per-chip, per-step transfers whose step
//!   *k* depends on the upstream neighbor's step *k−1*, reproducing the
//!   synchronized ring of Figure 3 without a global barrier.
//!
//! The distributed GeMM algorithms (`meshslice-gemm`) build a [`Program`]
//! — a per-chip DAG of compute, slicing, and communication operations —
//! and [`Engine::run`] executes it, returning a [`SimReport`] with the
//! makespan and a launch/sync/transfer/compute time breakdown (the
//! categories of the paper's Figure 10).
//!
//! [`LinkDir`]: meshslice_mesh::LinkDir
//!
//! # Example
//!
//! ```
//! use meshslice_mesh::Torus2d;
//! use meshslice_sim::{Engine, GemmShape, ProgramBuilder, SimConfig};
//!
//! let mesh = Torus2d::new(2, 2);
//! let mut prog = ProgramBuilder::new(&mesh);
//! for chip in mesh.chips() {
//!     prog.gemm(chip, GemmShape::new(256, 256, 256), &[]);
//! }
//! let report = Engine::new(mesh, SimConfig::tpu_v4()).run(&prog.build());
//! assert!(report.makespan().as_secs() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod failure;
mod hbm;
mod lower;
mod observe;
mod perturb;
mod pod;
mod program;
mod quotient;
mod report;
mod time;

pub use config::{NetworkModel, SimConfig};
pub use engine::{Engine, LoweredProgram, RunScratch};
pub use failure::{degraded_torus_profile, AbortInfo, ChipFailure, FailureOutcome};
pub use observe::{
    EngineObserver, NodeRecord, NodeSpan, OpTrace, OpTraceRecorder, RunTimeline, SpanKind,
    SpanRecorder, SpanTrack, TimelineRecorder,
};
pub use perturb::{ClusterProfile, LinkOutage};
pub use pod::{PlaneAssignment, PodProfile};
pub use program::{CollectiveKind, OpId, OpKind, Program, ProgramBuilder};
pub use report::{SimReport, TimeBreakdown};
pub use time::{Duration, Time};

// Re-exported so programs can be built without importing the tensor crate.
pub use meshslice_tensor::GemmShape;
