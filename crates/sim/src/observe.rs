//! Observing engine runs: the [`EngineObserver`] hook protocol and the
//! recorders that build op traces, lane spans and realized timelines
//! from it.
//!
//! An observer sees every schedule instant of a run but cannot change it:
//! [`Engine::run_observed`](crate::Engine::run_observed) returns the same
//! outcome whatever observer is attached, and `()` is the no-op observer
//! behind the plain run paths. Observers compose as pairs, so one run can
//! feed several recorders. A recorder is built for one
//! [`LoweredProgram`] and records one run of it.
//!
//! # Example
//!
//! ```
//! use meshslice_mesh::{ChipId, Torus2d};
//! use meshslice_sim::{
//!     Engine, GemmShape, ProgramBuilder, RunScratch, SimConfig, SpanRecorder, TimelineRecorder,
//! };
//!
//! let mesh = Torus2d::new(1, 1);
//! let mut b = ProgramBuilder::new(&mesh);
//! b.gemm(ChipId(0), GemmShape::new(512, 512, 512), &[]);
//! let engine = Engine::new(mesh, SimConfig::tpu_v4());
//! let lowered = engine.lower_program(&b.build());
//! let mut recorders = (SpanRecorder::new(&lowered), TimelineRecorder::new(&lowered));
//! let outcome = engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut recorders);
//! let report = outcome.into_completed().expect("no failure was injected");
//! let (spans, timeline) = (recorders.0.into_spans(), recorders.1.into_timeline());
//! assert_eq!(spans.len(), 1);
//! assert_eq!(timeline.nodes[timeline.finish_seq[0]].finish, report.makespan());
//! ```

use meshslice_mesh::{ChipId, LinkDir};

use crate::engine::LoweredProgram;
use crate::lower::{Category, Resource};
use crate::program::OpId;
use crate::time::Duration;

/// Observation-only hooks into one engine run.
///
/// Nodes are indices into the [`LoweredProgram`]'s full node graph;
/// times are simulation seconds. Every hook defaults to doing nothing, so
/// an observer implements only what it records, and the no-op observer
/// `()` compiles to the unobserved event loop.
pub trait EngineObserver {
    /// Whether the observer records anything. Only observers that do not
    /// (`()`, and pairs of them) let a run execute the program's symmetry
    /// quotient (see [`LoweredProgram`]); every other observer sees each
    /// chip's nodes of the full graph.
    const OBSERVES: bool = true;

    /// Every dependency of `node` completed at `t` (roots are ready at 0).
    fn node_ready(&mut self, _node: usize, _t: f64) {}

    /// `node` acquired its execution lane at `t`. `from` is the node that
    /// handed the lane over when `node` had to queue for it.
    fn resource_acquired(&mut self, _node: usize, _from: Option<usize>, _t: f64) {}

    /// `node` completed at `finish`; its busy interval began at
    /// `busy_start` (after its synchronization delay).
    fn node_completed(&mut self, _node: usize, _busy_start: f64, _finish: f64) {}
}

/// The no-op observer.
impl EngineObserver for () {
    const OBSERVES: bool = false;
}

/// Both observers see every event, the first one first.
impl<A: EngineObserver, B: EngineObserver> EngineObserver for (A, B) {
    const OBSERVES: bool = A::OBSERVES || B::OBSERVES;

    fn node_ready(&mut self, node: usize, t: f64) {
        self.0.node_ready(node, t);
        self.1.node_ready(node, t);
    }

    fn resource_acquired(&mut self, node: usize, from: Option<usize>, t: f64) {
        self.0.resource_acquired(node, from, t);
        self.1.resource_acquired(node, from, t);
    }

    fn node_completed(&mut self, node: usize, busy_start: f64, finish: f64) {
        self.0.node_completed(node, busy_start, finish);
        self.1.node_completed(node, busy_start, finish);
    }
}

/// Completion record of one program operation (from an
/// [`OpTraceRecorder`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpTrace {
    /// The operation.
    pub op: OpId,
    /// The chip it ran on.
    pub chip: ChipId,
    /// Simulation time at which the operation completed.
    pub completed: Duration,
}

/// The execution lane a trace span occupies on its chip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanTrack {
    /// The chip's compute unit.
    Compute,
    /// One of the four ICI link directions.
    Link(LinkDir),
    /// No exclusive resource (launch overheads, join points).
    Host,
}

impl SpanTrack {
    /// A stable per-chip lane index (compute, four links, host).
    pub fn lane(&self) -> usize {
        match self {
            SpanTrack::Compute => 0,
            SpanTrack::Link(dir) => 1 + dir.index(),
            SpanTrack::Host => 5,
        }
    }

    /// Human-readable lane label.
    pub fn name(&self) -> &'static str {
        match self {
            SpanTrack::Compute => "compute",
            SpanTrack::Link(LinkDir::RowPlus) => "link row+",
            SpanTrack::Link(LinkDir::RowMinus) => "link row-",
            SpanTrack::Link(LinkDir::ColPlus) => "link col+",
            SpanTrack::Link(LinkDir::ColMinus) => "link col-",
            SpanTrack::Host => "host",
        }
    }
}

/// What kind of work a trace span performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A GeMM kernel.
    Compute,
    /// A slicing / layout-change copy kernel.
    Slice,
    /// Communication launch overhead.
    CommLaunch,
    /// A ring-step (or pipelined-broadcast) transfer.
    CommTransfer,
}

impl SpanKind {
    /// Human-readable category label (matches the report buckets).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Slice => "slice",
            SpanKind::CommLaunch => "comm_launch",
            SpanKind::CommTransfer => "comm_transfer",
        }
    }
}

/// One busy interval of one execution lane, from a [`SpanRecorder`].
/// Spans carry the program op they belong to, so a timeline can be
/// labeled with op-level names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSpan {
    /// The program operation this span was lowered from.
    pub op: OpId,
    /// The chip the span ran on.
    pub chip: ChipId,
    /// The lane it occupied.
    pub track: SpanTrack,
    /// The kind of work performed.
    pub kind: SpanKind,
    /// Busy-interval start (after any synchronization delay).
    pub start: Duration,
    /// Busy-interval end.
    pub end: Duration,
}

/// The realized schedule of one lowered node, from a
/// [`TimelineRecorder`].
///
/// A record captures every instant that matters for critical-path
/// analysis: when the node's dependencies were satisfied (`ready`), when it
/// acquired its exclusive resource (`acquired`), when its synchronization
/// delay elapsed and the busy interval began (`busy_start`), and when it
/// completed (`finish`). `deps` are indices into the same record vector;
/// `res_pred` names the node that released this node's resource to it, when
/// the node had to queue for the resource.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeRecord {
    /// The program operation this node was lowered from.
    pub op: OpId,
    /// The chip the node ran on.
    pub chip: ChipId,
    /// The execution lane it occupied.
    pub track: SpanTrack,
    /// The kind of work performed while busy.
    pub kind: SpanKind,
    /// Synchronization delay paid after acquiring the resource.
    pub sync: Duration,
    /// When the last dependency completed.
    pub ready: Duration,
    /// When the node acquired its resource (equals `ready` unless it
    /// queued).
    pub acquired: Duration,
    /// When the busy interval began (`acquired` plus the sync delay).
    pub busy_start: Duration,
    /// When the node completed.
    pub finish: Duration,
    /// Dependency node indices (into [`RunTimeline::nodes`]).
    pub deps: Vec<usize>,
    /// The node that handed this node its resource, if it had to wait.
    pub res_pred: Option<usize>,
}

/// The full realized schedule of a run: one [`NodeRecord`] per lowered
/// node, in lowering order. Built by a [`TimelineRecorder`]; the raw
/// material for critical-path extraction and slack analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTimeline {
    /// Per-node records, indexed by lowered-node id.
    pub nodes: Vec<NodeRecord>,
    /// Node indices in the order they completed. A valid topological
    /// order of both dependency and resource-handoff edges; its reverse
    /// drives the backward (slack) pass.
    pub finish_seq: Vec<usize>,
}

/// The op, chip, lane and work kind of one lowered node.
fn labels(lowered: &LoweredProgram, node: usize) -> (OpId, ChipId, SpanTrack, SpanKind) {
    let graph = &lowered.full().graph;
    let n = &graph.nodes[node];
    let track = match n.resource {
        Resource::Compute => SpanTrack::Compute,
        Resource::Link(dir) => SpanTrack::Link(dir),
        Resource::None => SpanTrack::Host,
    };
    let kind = match n.category {
        Category::Compute => SpanKind::Compute,
        Category::Slice => SpanKind::Slice,
        Category::CommLaunch => SpanKind::CommLaunch,
        Category::CommTransfer => SpanKind::CommTransfer,
    };
    let op = OpId(graph.node_op[node] as usize);
    (op, ChipId(n.chip as usize), track, kind)
}

/// Records when every program operation completed — the per-op timeline
/// of the paper's Figure 4.
#[derive(Debug)]
pub struct OpTraceRecorder<'a> {
    lowered: &'a LoweredProgram,
    finish: Vec<f64>,
}

impl<'a> OpTraceRecorder<'a> {
    /// A recorder for runs of `lowered`.
    pub fn new(lowered: &'a LoweredProgram) -> Self {
        OpTraceRecorder {
            lowered,
            finish: vec![0.0; lowered.full().graph.nodes.len()],
        }
    }

    /// One trace per program operation, in op order.
    pub fn into_traces(self) -> Vec<OpTrace> {
        let graph = &self.lowered.full().graph;
        graph
            .op_exit
            .iter()
            .enumerate()
            .map(|(op, &exit)| OpTrace {
                op: OpId(op),
                // An op's nodes all run on its chip.
                chip: ChipId(graph.nodes[exit as usize].chip as usize),
                completed: Duration::from_secs(self.finish[exit as usize]),
            })
            .collect()
    }
}

impl EngineObserver for OpTraceRecorder<'_> {
    fn node_completed(&mut self, node: usize, _busy_start: f64, finish: f64) {
        self.finish[node] = finish;
    }
}

/// Records every nonempty busy interval of every execution lane (compute
/// unit, link directions, host) — the raw material for a Chrome
/// trace-event timeline.
#[derive(Debug)]
pub struct SpanRecorder<'a> {
    lowered: &'a LoweredProgram,
    spans: Vec<NodeSpan>,
}

impl<'a> SpanRecorder<'a> {
    /// A recorder for runs of `lowered`.
    pub fn new(lowered: &'a LoweredProgram) -> Self {
        SpanRecorder {
            lowered,
            spans: Vec::new(),
        }
    }

    /// The spans, stably sorted by chip, lane and start time.
    pub fn into_spans(mut self) -> Vec<NodeSpan> {
        self.spans.sort_by(|a, b| {
            (a.chip.index(), a.track.lane())
                .cmp(&(b.chip.index(), b.track.lane()))
                .then(a.start.as_secs().total_cmp(&b.start.as_secs()))
        });
        self.spans
    }
}

impl EngineObserver for SpanRecorder<'_> {
    fn node_completed(&mut self, node: usize, busy_start: f64, finish: f64) {
        if finish - busy_start > 0.0 {
            let (op, chip, track, kind) = labels(self.lowered, node);
            self.spans.push(NodeSpan {
                op,
                chip,
                track,
                kind,
                start: Duration::from_secs(busy_start),
                end: Duration::from_secs(finish),
            });
        }
    }
}

/// Records the realized schedule of every lowered node: ready, acquire,
/// busy and finish instants, dependency edges and resource handoffs —
/// everything critical-path extraction needs.
#[derive(Debug)]
pub struct TimelineRecorder {
    timeline: RunTimeline,
}

impl TimelineRecorder {
    /// A recorder for runs of `lowered`.
    pub fn new(lowered: &LoweredProgram) -> Self {
        let graph = &lowered.full().graph;
        let nodes = (0..graph.nodes.len())
            .map(|i| {
                let (op, chip, track, kind) = labels(lowered, i);
                let node = &graph.nodes[i];
                NodeRecord {
                    op,
                    chip,
                    track,
                    kind,
                    sync: Duration::from_secs(node.sync),
                    ready: Duration::ZERO,
                    acquired: Duration::ZERO,
                    busy_start: Duration::ZERO,
                    finish: Duration::ZERO,
                    deps: graph.deps(i).iter().map(|&d| d as usize).collect(),
                    res_pred: None,
                }
            })
            .collect();
        let finish_seq = Vec::with_capacity(graph.nodes.len());
        TimelineRecorder {
            timeline: RunTimeline { nodes, finish_seq },
        }
    }

    /// The recorded timeline, one record per lowered node.
    pub fn into_timeline(self) -> RunTimeline {
        self.timeline
    }
}

impl EngineObserver for TimelineRecorder {
    fn node_ready(&mut self, node: usize, t: f64) {
        self.timeline.nodes[node].ready = Duration::from_secs(t);
    }

    fn resource_acquired(&mut self, node: usize, from: Option<usize>, t: f64) {
        let record = &mut self.timeline.nodes[node];
        record.acquired = Duration::from_secs(t);
        record.res_pred = from;
    }

    fn node_completed(&mut self, node: usize, busy_start: f64, finish: f64) {
        let record = &mut self.timeline.nodes[node];
        record.busy_start = Duration::from_secs(busy_start);
        record.finish = Duration::from_secs(finish);
        self.timeline.finish_seq.push(node);
    }
}
