//! Continuous-batching inference fleet simulation for MeshSlice serving.
//!
//! Training (the paper's focus) runs one enormous step at a time;
//! serving runs thousands of small, deadline-bound requests through the
//! same meshes. This crate closes that loop: it drives the
//! `meshslice-sim` engine with a seeded request-arrival process and
//! asks the operator's questions — what TTFT/TPOT tail latency does a
//! fleet layout deliver, how many tokens per chip per second, and does
//! it survive a chip death mid-serving?
//!
//! The pieces:
//!
//! - [`ArrivalSpec`] draws deterministic request traces: Poisson or
//!   replayed bursty/diurnal rate profiles, with per-request prompt and
//!   output lengths.
//! - [`build_replica_costs`] prices prefill and decode at power-of-two
//!   batch buckets by scheduling the FC GeMMs with MeshSlice
//!   (weight-stationary `Rs`), lowering once, and replaying the lowered
//!   plan on nominal and degraded-torus engines — the serving analog of
//!   a compiled-program cache.
//! - [`simulate_fleet`] runs the continuous-batching event loop per
//!   replica: iteration-level batch join/leave, KV-cache admission
//!   control and LIFO preemption against the HBM budget, and
//!   checkpointed-replica failover through an injected [`ChipDeath`].
//! - [`ServingTuning`] grafts two tuners onto the core
//!   [`Autotuner`](meshslice::autotuner::Autotuner):
//!   `tune_serving_mode` picks mesh shape × slice count × replica count
//!   × batch policy to maximize goodput-per-chip under a TTFT p99 SLO,
//!   and `tune_serving_resilient` ranks the same grid by tail goodput
//!   across seeded chaos draws. The default [`TuneMode::Fast`] path
//!   dedups table builds through a [`CostTableCache`], shares one
//!   `Arc`'d arrival trace across candidates, and collapses grid entries
//!   with identical tables — bit-for-bit the exhaustive result; a
//!   [`TuneMode::Screened`] stage adds successive halving on a prefix
//!   trace. Both tuners run that one screened-search pipeline and differ
//!   only in the final scorer.
//! - [`simulate_fleet_traced`] runs the same loop while recording every
//!   request lifecycle event into a
//!   [`ServingTrace`](meshslice_telemetry::ServingTrace) for JSONL /
//!   chrome-trace export and TTFT blame decomposition — tracing is
//!   observation-only and leaves the report bit-for-bit unchanged.
//!   Every report also carries a windowed per-replica time-series and,
//!   under an injected failure, the [`ServingDowntime`] breakdown.
//! - [`ChaosSpec`] replaces the single scripted death with seeded
//!   MTBF-driven chip/link death arrivals per replica (optionally
//!   repaired), [`RouterPolicy`] re-routes stranded requests onto
//!   survivor replicas with capped exponential backoff under a retry
//!   budget and deadline, and [`ShedPolicy`] sheds the newest arrivals
//!   when the backlog crosses a queue-depth or projected-TTFT
//!   threshold. All three are off by default and reproduce the nominal
//!   report byte-for-byte when idle (property-tested).
//!
//! Everything is deterministic: the same spec, seed, and thread count —
//! in fact *any* thread count — produces a bit-identical report.
//!
//! # Example
//!
//! ```
//! use meshslice::llm::LlmConfig;
//! use meshslice::{MeshShape, SimConfig};
//! use meshslice_serving::{simulate_fleet, ServingSpec};
//!
//! let model = LlmConfig {
//!     name: "tiny".to_string(),
//!     hidden: 256,
//!     heads: 4,
//!     layers: 2,
//!     ffn_mult: 4,
//! };
//! let mut spec = ServingSpec::new(model, MeshShape::new(2, 2), 2, 10.0);
//! spec.num_requests = 40;
//! let report = simulate_fleet(&spec, &SimConfig::tpu_v4()).unwrap();
//! assert_eq!(report.completed + report.rejected, 40);
//! assert!(report.goodput_tokens_per_chip_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod chaos;
mod costs;
mod fleet;
mod tune;

pub use arrival::{ArrivalSpec, LoadShape, Request, DEFAULT_SEGMENT_SECS};
pub use chaos::{ChaosSpec, RouterPolicy, ShedPolicy};
pub use costs::{
    build_replica_costs, BucketCost, CostProfile, CostTableCache, PhaseCostTable, ReplicaCosts,
    MAX_PREFILL_TOKENS, NOMINAL_KV_CONTEXT,
};
pub use fleet::{
    simulate_fleet, simulate_fleet_threads, simulate_fleet_traced, ChipDeath, FleetReport,
    OutcomeKind, ReplicaStats, RequestOutcome, ServingDowntime, ServingSpec,
};
pub use tune::{
    rank_candidates, rank_resilient_candidates, ResilienceSpec, ResilientServingCandidate,
    ResilientServingPlan, ScreenPolicy, ServingCandidate, ServingPlan, ServingTuning, TuneMode,
    CANDIDATE_MAX_BATCH, CANDIDATE_SLICE_COUNTS,
};
