//! Observability layer over the MeshSlice simulator.
//!
//! The simulator reports end-of-run totals; this crate answers *why* a
//! schedule's makespan is what it is:
//!
//! - [`CriticalPath`] walks the realized schedule backwards from the
//!   last node to finish and attributes every critical nanosecond to a
//!   `(chip, op, kind)` — plus per-node slack from a CPM-style backward
//!   pass ([`node_slacks`]), which [`RunMetrics`] reduces per op.
//! - [`RunMetrics`] aggregates a run into per-lane busy fractions,
//!   windowed utilization time series, the five Figure 10 buckets, and
//!   the overlap efficiency scalar, with JSON and Prometheus exports.
//! - [`TuneLog`] records predicted-vs-simulated makespan for every
//!   autotuner candidate (the paper's Figure 15 error analysis).
//! - [`RunDiff`] compares two metric artifacts with an ASCII per-lane
//!   utilization heatmap.
//! - [`ServingTrace`] records per-request lifecycle events from the
//!   serving fleet event loop (via the [`TraceSink`] hook), exports
//!   JSONL and chrome-trace, and decomposes tail TTFT into
//!   queueing/prefill/preemption/failover blame ([`BlameReport`]).
//! - [`ReplicaSeriesBuilder`]/[`FleetSeries`] fold the same events into
//!   windowed per-replica time-series in O(windows) memory, and
//!   [`FleetDiff`] compares two serving runs like [`RunDiff`] compares
//!   two training runs.
//!
//! Everything is built on the spans and timeline that
//! [`meshslice_sim::SpanRecorder`] and [`meshslice_sim::TimelineRecorder`]
//! record from one [`meshslice_sim::Engine::run_observed`] run, works
//! under fault profiles, and serializes through the dependency-free
//! [`Json`] value.
//!
//! # Example
//!
//! ```
//! use meshslice_mesh::{CommAxis, Torus2d};
//! use meshslice_sim::{
//!     Engine, GemmShape, ProgramBuilder, RunScratch, SimConfig, SpanRecorder, TimelineRecorder,
//! };
//! use meshslice_telemetry::{CriticalPath, RunMetrics};
//!
//! let mesh = Torus2d::new(2, 2);
//! let mut b = ProgramBuilder::new(&mesh);
//! let tag = b.next_tag();
//! for chip in mesh.chips() {
//!     let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
//!     b.gemm(chip, GemmShape::new(512, 512, 512), &[ag]);
//! }
//! let program = b.build();
//! let engine = Engine::new(mesh, SimConfig::tpu_v4());
//! let lowered = engine.lower_program(&program);
//! let mut recorders = (SpanRecorder::new(&lowered), TimelineRecorder::new(&lowered));
//! let report = engine
//!     .run_observed(&lowered, &mut RunScratch::new(), None, &mut recorders)
//!     .into_completed()
//!     .expect("no failure was injected");
//! let (spans, timeline) = (recorders.0.into_spans(), recorders.1.into_timeline());
//! let path = CriticalPath::extract(&timeline);
//! assert!((path.attribution().total() - report.makespan().as_secs()).abs() < 1e-9);
//! let metrics = RunMetrics::collect(&report, &spans, &timeline, program.len(), 16);
//! assert!(metrics.overlap_efficiency >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod critical_path;
mod diff;
mod json;
mod metrics;
mod percentile;
mod schema;
mod serving_trace;
mod timeseries;
mod tunelog;

pub use critical_path::{node_slacks, CriticalPath, PathAttribution, PathKind, PathSegment};
pub use diff::RunDiff;
pub use json::Json;
pub use metrics::{
    spans_overlap_and_buckets, Hotspot, LaneStat, RunMetrics, WindowStat, BUCKET_LABELS,
};
pub use percentile::{percentile, LatencySummary};
pub use schema::validate;
pub use serving_trace::{
    BlameBucket, BlameReport, RecordingSink, ServingEvent, ServingTrace, TraceSink, TtftBlame,
};
pub use timeseries::{
    is_serving_artifact, FleetDelta, FleetDiff, FleetSeries, ReplicaSeries, ReplicaSeriesBuilder,
    SeriesWindow,
};
pub use tunelog::{TuneCandidate, TuneLog};

#[cfg(test)]
mod test_util {
    use meshslice_sim::{
        Engine, NodeSpan, Program, RunScratch, RunTimeline, SimReport, SpanRecorder,
        TimelineRecorder,
    };

    /// Runs `program` once, recording its spans and realized timeline.
    pub(crate) fn instrumented(
        engine: &Engine,
        program: &Program,
    ) -> (SimReport, Vec<NodeSpan>, RunTimeline) {
        let lowered = engine.lower_program(program);
        let mut recorders = (SpanRecorder::new(&lowered), TimelineRecorder::new(&lowered));
        let outcome = engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut recorders);
        let (spans, timeline) = recorders;
        (
            outcome.into_completed().unwrap(),
            spans.into_spans(),
            timeline.into_timeline(),
        )
    }
}
