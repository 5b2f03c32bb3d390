//! Critical-path extraction and slack analysis over a realized schedule.
//!
//! The engine's [`RunTimeline`] records, for every lowered node, when its
//! dependencies were satisfied, when it acquired its exclusive resource,
//! and when it ran. The makespan-constraining chain is recovered by
//! walking backwards from the last node to finish: at each node the
//! binding predecessor is either the resource holder that released the
//! lane to it (the node *queued*) or the dependency that finished last
//! (the node was *data-bound*). Because a released lane is handed over at
//! exactly the releasing node's finish time, and a node becomes ready at
//! exactly its last dependency's finish time, consecutive path segments
//! abut bit-for-bit and their durations telescope to the makespan.

use std::collections::HashSet;

use meshslice_mesh::ChipId;
use meshslice_sim::{OpId, RunTimeline, SpanKind};

/// What a stretch of critical-path time was spent on: one of the busy
/// [`SpanKind`]s, or the synchronization delay paid before going busy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// GeMM execution.
    Compute,
    /// Blocked slicing copies.
    Slice,
    /// Communication launch overhead.
    CommLaunch,
    /// Ring-step / pipeline synchronization delay.
    CommSync,
    /// Shard transfer occupancy.
    CommTransfer,
}

impl PathKind {
    /// Stable lowercase label, used in JSON artifacts and tables.
    pub fn label(&self) -> &'static str {
        match self {
            PathKind::Compute => "compute",
            PathKind::Slice => "slice",
            PathKind::CommLaunch => "comm_launch",
            PathKind::CommSync => "comm_sync",
            PathKind::CommTransfer => "comm_transfer",
        }
    }

    /// All kinds, in bucket order.
    pub const ALL: [PathKind; 5] = [
        PathKind::Compute,
        PathKind::Slice,
        PathKind::CommLaunch,
        PathKind::CommSync,
        PathKind::CommTransfer,
    ];
}

impl From<SpanKind> for PathKind {
    fn from(kind: SpanKind) -> Self {
        match kind {
            SpanKind::Compute => PathKind::Compute,
            SpanKind::Slice => PathKind::Slice,
            SpanKind::CommLaunch => PathKind::CommLaunch,
            SpanKind::CommTransfer => PathKind::CommTransfer,
        }
    }
}

/// One contiguous stretch of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSegment {
    /// Index of the lowered node (into [`RunTimeline::nodes`]).
    pub node: usize,
    /// The program operation the node belongs to.
    pub op: OpId,
    /// The chip the time was spent on.
    pub chip: ChipId,
    /// What the time was spent on.
    pub kind: PathKind,
    /// Segment start, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
}

impl PathSegment {
    /// Segment duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Critical-path totals per [`PathKind`], summing to the makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathAttribution {
    /// Seconds of critical-path GeMM execution.
    pub compute: f64,
    /// Seconds of critical-path slicing copies.
    pub slice: f64,
    /// Seconds of critical-path launch overhead.
    pub comm_launch: f64,
    /// Seconds of critical-path synchronization delay.
    pub comm_sync: f64,
    /// Seconds of critical-path shard transfer.
    pub comm_transfer: f64,
}

impl PathAttribution {
    /// Sum of all buckets — equals the makespan up to float rounding.
    pub fn total(&self) -> f64 {
        self.compute + self.slice + self.comm_launch + self.comm_sync + self.comm_transfer
    }

    /// The bucket for `kind`.
    pub fn get(&self, kind: PathKind) -> f64 {
        match kind {
            PathKind::Compute => self.compute,
            PathKind::Slice => self.slice,
            PathKind::CommLaunch => self.comm_launch,
            PathKind::CommSync => self.comm_sync,
            PathKind::CommTransfer => self.comm_transfer,
        }
    }

    fn add(&mut self, kind: PathKind, secs: f64) {
        match kind {
            PathKind::Compute => self.compute += secs,
            PathKind::Slice => self.slice += secs,
            PathKind::CommLaunch => self.comm_launch += secs,
            PathKind::CommSync => self.comm_sync += secs,
            PathKind::CommTransfer => self.comm_transfer += secs,
        }
    }
}

/// The extracted critical path of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Path segments in chronological order, abutting, covering
    /// `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    /// The run's makespan, seconds.
    pub makespan: f64,
}

impl CriticalPath {
    /// Extracts the makespan-constraining chain from a realized schedule.
    ///
    /// Returns an empty path for an empty timeline.
    pub fn extract(timeline: &RunTimeline) -> CriticalPath {
        let nodes = &timeline.nodes;
        if nodes.is_empty() {
            return CriticalPath {
                segments: Vec::new(),
                makespan: 0.0,
            };
        }
        // Start from the last node to finish (ties → lowest index, for
        // determinism).
        let mut current = (0..nodes.len())
            .max_by(|&a, &b| {
                nodes[a]
                    .finish
                    .as_secs()
                    .total_cmp(&nodes[b].finish.as_secs())
                    .then(b.cmp(&a))
            })
            .unwrap();
        let makespan = nodes[current].finish.as_secs();
        let mut segments = Vec::new();
        let mut visited = HashSet::new();
        loop {
            if !visited.insert(current) {
                // Defensive: the timing invariants make a cycle
                // impossible, but never loop forever on a corrupt input.
                break;
            }
            let rec = &nodes[current];
            let ready = rec.ready.as_secs();
            let acquired = rec.acquired.as_secs();
            let busy_start = rec.busy_start.as_secs();
            let finish = rec.finish.as_secs();
            // The node's own contribution: sync delay, then busy time.
            if finish > busy_start {
                segments.push(PathSegment {
                    node: current,
                    op: rec.op,
                    chip: rec.chip,
                    kind: rec.kind.into(),
                    start: busy_start,
                    end: finish,
                });
            }
            if busy_start > acquired {
                segments.push(PathSegment {
                    node: current,
                    op: rec.op,
                    chip: rec.chip,
                    kind: PathKind::CommSync,
                    start: acquired,
                    end: busy_start,
                });
            }
            // Binding predecessor: the resource holder if the node
            // queued past its ready time, else the last dependency.
            let next = if acquired > ready {
                rec.res_pred
            } else {
                rec.deps
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        nodes[a]
                            .finish
                            .as_secs()
                            .total_cmp(&nodes[b].finish.as_secs())
                            .then(b.cmp(&a))
                    })
                    .filter(|&d| nodes[d].finish.as_secs() >= ready)
            };
            match next {
                Some(p) => current = p,
                None => break,
            }
        }
        segments.reverse();
        CriticalPath { segments, makespan }
    }

    /// Critical-path time per [`PathKind`]; `total()` equals the
    /// makespan up to float rounding.
    pub fn attribution(&self) -> PathAttribution {
        let mut attr = PathAttribution::default();
        for s in &self.segments {
            attr.add(s.kind, s.duration());
        }
        attr
    }

    /// Critical-path time per `(chip, kind)`, sorted by descending
    /// duration — answers "which chip's ring sync bounds this run".
    pub(crate) fn by_chip_kind(&self) -> Vec<(ChipId, PathKind, f64)> {
        let mut acc: Vec<(ChipId, PathKind, f64)> = Vec::new();
        for s in &self.segments {
            match acc
                .iter_mut()
                .find(|(c, k, _)| *c == s.chip && *k == s.kind)
            {
                Some((_, _, d)) => *d += s.duration(),
                None => acc.push((s.chip, s.kind, s.duration())),
            }
        }
        acc.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.index().cmp(&b.0.index())));
        acc
    }
}

/// Per-node slack: how much later each node could have finished without
/// moving the makespan, given the realized resource assignment.
///
/// Computed by a single backward (CPM-style) pass over the completion
/// order, which topologically orders both dependency and
/// resource-handoff edges. Critical-path nodes get slack 0.
pub fn node_slacks(timeline: &RunTimeline) -> Vec<f64> {
    let nodes = &timeline.nodes;
    let n = nodes.len();
    if n == 0 {
        return Vec::new();
    }
    let makespan = timeline
        .finish_seq
        .last()
        .map(|&i| nodes[i].finish.as_secs())
        .unwrap_or(0.0);
    // Successor lists: dependency edges plus resource-handoff edges.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, rec) in nodes.iter().enumerate() {
        for &d in &rec.deps {
            succs[d].push(i);
        }
        if let Some(p) = rec.res_pred {
            succs[p].push(i);
        }
    }
    // Latest finish: bounded by every successor's latest acquisition.
    let mut lf = vec![f64::INFINITY; n];
    for &i in timeline.finish_seq.iter().rev() {
        let mut latest = makespan;
        for &s in &succs[i] {
            let held = nodes[s].finish.as_secs() - nodes[s].acquired.as_secs();
            latest = latest.min(lf[s] - held);
        }
        lf[i] = latest;
    }
    (0..n)
        .map(|i| (lf[i] - nodes[i].finish.as_secs()).max(0.0))
        .collect()
}

/// Minimum slack per program operation, indexed by [`OpId`].
pub(crate) fn op_slacks(timeline: &RunTimeline, num_ops: usize) -> Vec<f64> {
    let slacks = node_slacks(timeline);
    let mut per_op = vec![f64::INFINITY; num_ops];
    for (rec, s) in timeline.nodes.iter().zip(&slacks) {
        let op = rec.op.index();
        if op < num_ops {
            per_op[op] = per_op[op].min(*s);
        }
    }
    for s in &mut per_op {
        if !s.is_finite() {
            *s = 0.0;
        }
    }
    per_op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::instrumented;
    use meshslice_mesh::{CommAxis, Torus2d};
    use meshslice_sim::{Engine, GemmShape, Program, ProgramBuilder, SimConfig};

    fn ring_program(mesh: &Torus2d) -> Program {
        let mut b = ProgramBuilder::new(mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(1024, 1024, 1024), &[ag]);
        }
        b.build()
    }

    #[test]
    fn path_telescopes_to_the_makespan() {
        let mesh = Torus2d::new(4, 2);
        let program = ring_program(&mesh);
        let (report, _, timeline) = instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        let path = CriticalPath::extract(&timeline);
        assert!(!path.segments.is_empty());
        assert_eq!(path.makespan, report.makespan().as_secs());
        // Chronological, abutting, ending at the makespan.
        assert!(path.segments.first().unwrap().start.abs() < 1e-12);
        for pair in path.segments.windows(2) {
            assert!(
                (pair[0].end - pair[1].start).abs() < 1e-12,
                "gap between {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
        assert!((path.segments.last().unwrap().end - path.makespan).abs() < 1e-12);
        // Attribution telescopes.
        let total = path.attribution().total();
        assert!(
            (total - path.makespan).abs() < 1e-9 * path.makespan.max(1.0),
            "attribution {total} vs makespan {}",
            path.makespan
        );
    }

    #[test]
    fn single_gemm_path_is_pure_compute() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(
            meshslice_mesh::ChipId(0),
            GemmShape::new(2048, 2048, 2048),
            &[],
        );
        let (report, _, timeline) =
            instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &b.build());
        let path = CriticalPath::extract(&timeline);
        let attr = path.attribution();
        assert!((attr.total() - report.makespan().as_secs()).abs() < 1e-12);
        assert_eq!(attr.comm_transfer, 0.0);
        assert!(attr.compute > 0.0);
    }

    #[test]
    fn straggler_pulls_the_path_across_chips() {
        // Chip 0 computes before joining the ring, and chip 1 runs a
        // large GeMM gated on the gathered result. Chip 1's forwarding
        // steps stall on chip 0's late shard, so chip 1's GeMM finishes
        // strictly last and its chain routes back through chip 0's GeMM
        // — the path must cross chips.
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            if chip.index() == 0 {
                let g = b.gemm(chip, GemmShape::new(4096, 4096, 4096), &[]);
                b.all_gather(chip, tag, CommAxis::InterRow, 4 << 20, &[g]);
            } else {
                let ag = b.all_gather(chip, tag, CommAxis::InterRow, 4 << 20, &[]);
                if chip.index() == 1 {
                    b.gemm(chip, GemmShape::new(4096, 4096, 4096), &[ag]);
                }
            }
        }
        let (_, _, timeline) = instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &b.build());
        let path = CriticalPath::extract(&timeline);
        let chips: HashSet<usize> = path.segments.iter().map(|s| s.chip.index()).collect();
        assert!(chips.contains(&0), "path skipped the straggler: {chips:?}");
        assert!(chips.len() > 1, "path stayed on chips {chips:?}");
        let attr = path.attribution();
        assert!(attr.compute > 0.0);
        assert!(attr.comm_transfer > 0.0);
    }

    #[test]
    fn slacks_are_nonnegative_and_zero_on_the_path() {
        // Chip 0's GeMM is 8x larger than everyone else's, so the other
        // chips' compute sits off the critical path with real slack.
        let mesh = Torus2d::new(4, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            let side = if chip.index() == 0 { 4096 } else { 512 };
            b.gemm(chip, GemmShape::new(side, side, side), &[ag]);
        }
        let program = b.build();
        let (_, _, timeline) = instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        let slacks = node_slacks(&timeline);
        assert!(slacks.iter().all(|&s| s >= 0.0));
        let path = CriticalPath::extract(&timeline);
        for seg in &path.segments {
            assert!(
                slacks[seg.node] < 1e-9,
                "critical node {} has slack {}",
                seg.node,
                slacks[seg.node]
            );
        }
        // Some off-path node has real slack in this program.
        assert!(slacks.iter().any(|&s| s > 1e-9));
        let per_op = op_slacks(&timeline, program.len());
        assert_eq!(per_op.len(), program.len());
        assert!(per_op.iter().all(|&s| s >= 0.0));
    }
}
