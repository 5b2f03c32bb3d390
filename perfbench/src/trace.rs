//! Spans and counters recorded by the traced replay.
//!
//! Every replayed operation opens one root span; each call into a layer
//! of the stack is a leaf span under it, so a leaf's duration is its
//! self time and the root's self time is the replay's own bookkeeping.
//! Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers the replay attributes time to, named after the modules
/// they call into.
pub const LAYERS: [&str; 10] = [
    "mesh",      // meshslice-mesh: candidate meshes, pod planes, plane projection
    "autotuner", // meshslice::autotuner: phase 1, legal slice counts, ranking
    "costmodel", // meshslice::costmodel via Autotuner::estimate_on_mesh
    "plan",      // meshslice-gemm: MeshSlice::schedule (Plan build + program)
    "lower",     // meshslice-sim: Engine::lower_program
    "engine",    // meshslice-sim: the event loop of a lowered program
    "merge",     // meshslice-sim: SimReport::merge_serial
    "costs",     // meshslice-serving: cost-table builds
    "arrival",   // meshslice-serving: arrival-trace draws
    "fleet",     // meshslice-serving: the fleet event loop
];

/// Work counted at the same layer boundaries.
pub const COUNTERS: [&str; 5] = [
    "candidates",    // search points the operation scores
    "lowered_nodes", // execution nodes produced by lowering
    "engine_runs",   // lowered programs simulated
    "table_builds",  // cost tables built by the serving cache
    "schedule_hits", // schedule-cache hits inside those builds
];

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    ops: usize,
    counts: [u64; COUNTERS.len()],
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            ops: 0,
            counts: [0; COUNTERS.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of one replayed operation.
    pub fn begin(&mut self) {
        assert!(self.root.is_none(), "replay spans do not nest");
        let start = self.now_ns();
        self.spans.push(Span {
            name: "replay",
            start_ns: start,
            end_ns: start,
            parent: None,
            op: self.ops,
        });
        self.root = Some(self.spans.len() - 1);
    }

    /// Closes the root span.
    pub fn end(&mut self) {
        let root = self.root.take().expect("begin() before end()");
        self.spans[root].end_ns = self.now_ns();
        self.ops += 1;
    }

    /// Runs `f` as one call into `layer`.
    pub fn layer<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans.push(Span {
            name: layer,
            start_ns: start,
            end_ns: end,
            parent: self.root,
            op: self.ops,
        });
        out
    }

    pub fn count(&mut self, counter: &'static str, n: usize) {
        let i = COUNTERS
            .iter()
            .position(|&c| c == counter)
            .unwrap_or_else(|| panic!("unknown counter {counter}"));
        self.counts[i] += n as u64;
    }

    /// Each layer's self time as a percentage of all replay time.
    pub fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(dur)
            .fold(0.0, |a, b| a + b);
        LAYERS
            .iter()
            .map(|&layer| {
                let own: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.parent.is_some() && s.name == layer)
                    .map(dur)
                    .fold(0.0, |a, b| a + b);
                (
                    layer,
                    if total > 0.0 {
                        100.0 * own / total
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Each counter's mean per replayed operation.
    pub fn counts_per_op(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        COUNTERS
            .iter()
            .zip(self.counts)
            .map(|(&c, n)| (c, n as f64 / ops))
            .collect()
    }

    /// The spans of the first `max_ops` operations in Chrome trace-event
    /// format (loadable in Perfetto).
    pub fn chrome_trace(&self, max_ops: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op >= max_ops {
                break;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
