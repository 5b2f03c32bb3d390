//! The operation-level program representation.
//!
//! A [`Program`] is a cluster-wide DAG of operations: every op belongs to
//! one chip and may depend on any other ops (including ops of other chips,
//! although the algorithms in this workspace only create cross-chip
//! dependencies implicitly, through collectives).
//!
//! Collective participation is expressed per chip: all chips taking part in
//! one logical collective use the same *tag*, and the lowering pass links
//! their ring steps together.
//!
//! An SPMD program (every chip runs a translated copy of one op list) can
//! be stored as a *template*: chip 0's ops, cut into the per-chip emission
//! loops that produced them ([`ProgramBuilder::spmd`]). The op list is then
//! a function of the template: loop by loop, chip by chip, each chip's copy
//! of the loop body, with every dependency moved to the same chip's copy of
//! its target. [`Program::ops`] expands it on first use; the engine lowers
//! chip 0 straight from the template and the whole cluster by the same
//! arithmetic, without building the op list.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use meshslice_mesh::{ChipId, CommAxis, LinkDir, Torus2d};
use meshslice_tensor::GemmShape;

/// Identifier of an operation within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The raw index of the op in its program.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which ring collective a [`OpKind::Collective`] op performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Ring AllGather: `P − 1` steps, each forwarding one shard.
    AllGather,
    /// Ring ReduceScatter: `P − 1` steps, each forwarding one partial
    /// output shard.
    ReduceScatter,
}

/// One operation of a chip.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// A local (partial) GeMM on the chip's systolic arrays.
    Gemm {
        /// Local problem shape.
        shape: GemmShape,
    },
    /// An HBM-to-HBM blocked slicing copy (`slice_col` / `slice_row`).
    SliceCopy {
        /// Bytes of the sub-shard being extracted or scattered.
        bytes: u64,
    },
    /// Participation in a ring collective.
    Collective {
        /// AllGather or ReduceScatter.
        kind: CollectiveKind,
        /// Communication direction (which rings are used).
        axis: CommAxis,
        /// Instance tag: ops with equal tags across the chips of a ring
        /// form one collective.
        tag: u64,
        /// Bytes moved per ring step (the local shard for AllGather, the
        /// scattered output shard for ReduceScatter).
        shard_bytes: u64,
        /// 1 = unidirectional ring; 2 = split the transfer over both ring
        /// directions (halving the per-step bytes), as the 1D baselines do
        /// to use both of their ICI links.
        lanes: u8,
    },
    /// A single neighbor exchange over one link (Cannon's shifts, Wang's
    /// decomposed collectives).
    SendRecv {
        /// Outgoing link.
        dir: LinkDir,
        /// Bytes sent (the chip simultaneously receives as many).
        bytes: u64,
    },
    /// A SUMMA-style pipelined one-to-all broadcast or all-to-one reduce on
    /// a ring: the shard is split into fine-grain packets streamed over
    /// `P + D − 2` pipeline stages, each paying a synchronization (§2.3.3).
    PipelinedBcast {
        /// Communication direction.
        axis: CommAxis,
        /// Total bytes of the broadcast/reduced shard.
        bytes: u64,
    },
}

/// An operation: its chip, kind, and dependencies.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// The chip executing the op.
    pub chip: ChipId,
    /// What the op does.
    pub kind: OpKind,
    /// Ops that must complete before this one starts.
    pub deps: Vec<OpId>,
}

/// A cluster-wide DAG of operations, ready for the [`Engine`].
///
/// The ops are shared, so cloning a program is O(1). A program built by
/// an SPMD builder ([`ProgramBuilder::spmd`]) holds chip 0's template and
/// expands the full op list only when [`ops`](Self::ops) is called.
///
/// [`Engine`]: crate::Engine
#[derive(Clone, Debug, Default)]
pub struct Program {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// The op list; an SPMD program expands it on first use.
    ops: OnceLock<Vec<Op>>,
    spmd: Option<Spmd>,
}

/// The template an SPMD program expands from.
#[derive(Debug)]
struct Spmd {
    /// Chip 0's ops; their dependencies index this list.
    template: Program,
    chips: usize,
    /// Per template op: the op list index of chip 0's copy, and the
    /// distance between consecutive chips' copies (its loop's body
    /// length). Chip `c`'s copy of template op `t` is op
    /// `place[t].0 + c * place[t].1`.
    place: Vec<(usize, usize)>,
}

impl Spmd {
    fn new(template: Vec<Op>, chips: usize, loops: &[usize]) -> Spmd {
        let mut place = Vec::with_capacity(template.len());
        let mut start = 0;
        for end in loops.iter().copied().chain([template.len()]) {
            // Every op before the loop has `chips` copies.
            place.extend((start..end).map(|t| (start * chips + t - start, end - start)));
            start = end;
        }
        Spmd {
            template: Program::from_ops(template),
            chips,
            place,
        }
    }

    /// Visits chip `c`'s copy of every template op, loop by loop and chip
    /// by chip: the program's op order.
    fn for_each_op(&self, mut f: impl FnMut(ChipId, &OpKind, &[OpId])) {
        let template = self.template.ops();
        let mut deps = Vec::new();
        let mut t = 0;
        while t < template.len() {
            let end = t + self.place[t].1;
            for c in 0..self.chips {
                for op in &template[t..end] {
                    deps.clear();
                    deps.extend(op.deps.iter().map(|d| self.copy(*d, c)));
                    f(ChipId(c), &op.kind, &deps);
                }
            }
            t = end;
        }
    }

    /// Chip `c`'s copy of template op `t`.
    fn copy(&self, t: OpId, c: usize) -> OpId {
        let (base, stride) = self.place[t.0];
        OpId(base + c * stride)
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.ops() == other.ops()
    }
}

impl Program {
    /// A program holding `ops` as they are.
    pub(crate) fn from_ops(ops: Vec<Op>) -> Program {
        Program {
            inner: Arc::new(Inner {
                ops: OnceLock::from(ops),
                spmd: None,
            }),
        }
    }

    /// The operations, indexed by [`OpId`]. An SPMD program expands its
    /// template here, once.
    pub fn ops(&self) -> &[Op] {
        self.inner.ops.get_or_init(|| {
            let Some(spmd) = &self.inner.spmd else {
                return Vec::new(); // `Program::default()`
            };
            let mut ops = Vec::with_capacity(spmd.template.len() * spmd.chips);
            spmd.for_each_op(|chip, kind, deps| {
                ops.push(Op {
                    chip,
                    kind: kind.clone(),
                    deps: deps.to_vec(),
                })
            });
            ops
        })
    }

    /// Visits every op in order with its chip, kind and dependencies,
    /// without expanding an SPMD template into an op list.
    pub(crate) fn for_each_op(&self, mut f: impl FnMut(ChipId, &OpKind, &[OpId])) {
        match (&self.inner.spmd, self.inner.ops.get()) {
            (Some(spmd), None) => spmd.for_each_op(f),
            _ => self
                .ops()
                .iter()
                .for_each(|op| f(op.chip, &op.kind, &op.deps)),
        }
    }

    /// Chip 0's ops as a program of their own (dependencies index that
    /// list), when this program was built from an SPMD template.
    pub(crate) fn template(&self) -> Option<&Program> {
        self.inner.spmd.as_ref().map(|spmd| &spmd.template)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        match &self.inner.spmd {
            Some(spmd) => spmd.template.len() * spmd.chips,
            None => self.ops().len(),
        }
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total FLOPs of all GeMM ops (for utilization accounting).
    pub fn total_flops(&self) -> u64 {
        if let Some(spmd) = &self.inner.spmd {
            return spmd.template.total_flops() * spmd.chips as u64;
        }
        self.ops()
            .iter()
            .map(|op| match &op.kind {
                OpKind::Gemm { shape } => shape.flops(),
                _ => 0,
            })
            .sum()
    }
}

/// Incrementally builds a [`Program`] against a mesh.
///
/// The builder validates chips and dependencies eagerly and collective
/// consistency in [`ProgramBuilder::build`].
///
/// # Example
///
/// ```
/// use meshslice_mesh::{CommAxis, Torus2d};
/// use meshslice_sim::{CollectiveKind, GemmShape, ProgramBuilder};
///
/// let mesh = Torus2d::new(2, 2);
/// let mut b = ProgramBuilder::new(&mesh);
/// let tag = b.next_tag();
/// for chip in mesh.chips() {
///     let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1024, &[]);
///     b.gemm(chip, GemmShape::new(64, 64, 64), &[ag]);
/// }
/// let program = b.build();
/// assert_eq!(program.len(), 8);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    mesh: Torus2d,
    ops: Vec<Op>,
    next_tag: u64,
    /// SPMD builders only: where each per-chip emission loop starts in
    /// the template.
    loops: Option<Vec<usize>>,
}

impl ProgramBuilder {
    /// Creates a builder for programs on `mesh`.
    pub fn new(mesh: &Torus2d) -> Self {
        ProgramBuilder {
            mesh: mesh.clone(),
            ops: Vec::new(),
            next_tag: 0,
            loops: None,
        }
    }

    /// Creates a builder for an SPMD program on `mesh`: one whose every
    /// chip runs a translated copy of chip 0's ops.
    ///
    /// Emission code is written exactly as for [`new`](Self::new), with
    /// every op inside a `for chip in b.chips()` loop. Here
    /// [`chips`](Self::chips) yields chip 0 alone, so the builder records
    /// chip 0's ops, cut into those loops: the program's template. The
    /// built program equals, op for op, what the same code emits into a
    /// [`new`](Self::new) builder, provided each loop body emits the same
    /// ops for every chip (same kinds, shapes, bytes, axes, directions,
    /// lanes and tags) and depends only on the same chip's earlier ops.
    ///
    /// ```
    /// use meshslice_mesh::{CommAxis, Torus2d};
    /// use meshslice_sim::{GemmShape, ProgramBuilder};
    ///
    /// let mesh = Torus2d::new(2, 2);
    /// let emit = |b: &mut ProgramBuilder| {
    ///     let tag = b.next_tag();
    ///     for chip in b.chips() {
    ///         let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1024, &[]);
    ///         b.gemm(chip, GemmShape::new(64, 64, 64), &[ag]);
    ///     }
    /// };
    /// let (mut full, mut spmd) = (ProgramBuilder::new(&mesh), ProgramBuilder::spmd(&mesh));
    /// emit(&mut full);
    /// emit(&mut spmd);
    /// assert_eq!(spmd.build(), full.build());
    /// ```
    pub fn spmd(mesh: &Torus2d) -> Self {
        ProgramBuilder {
            loops: Some(Vec::new()),
            ..ProgramBuilder::new(mesh)
        }
    }

    /// The mesh this program targets.
    pub fn mesh(&self) -> &Torus2d {
        &self.mesh
    }

    /// How many chips each [`chips`](Self::chips) loop emits: every chip
    /// of the mesh, or chip 0 alone in an [`spmd`](Self::spmd) builder.
    pub fn emitted_chips(&self) -> usize {
        match self.loops {
            Some(_) => 1,
            None => self.mesh.num_chips(),
        }
    }

    /// Starts one per-chip emission loop: chips `0..emitted_chips()` in
    /// order.
    pub fn chips(&mut self) -> impl Iterator<Item = ChipId> {
        if let Some(loops) = &mut self.loops {
            loops.push(self.ops.len());
        }
        (0..self.emitted_chips()).map(ChipId)
    }

    /// Returns a fresh collective tag, unique within this builder.
    pub fn next_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn push(&mut self, chip: ChipId, kind: OpKind, deps: &[OpId]) -> OpId {
        assert!(
            chip.index() < self.mesh.num_chips(),
            "{chip:?} outside the {} mesh",
            self.mesh.shape()
        );
        if let Some(loops) = &self.loops {
            assert!(
                chip == ChipId(0) && !loops.is_empty(),
                "an SPMD builder takes chip 0's ops inside a chips() loop, got {chip:?}"
            );
        }
        for d in deps {
            assert!(d.0 < self.ops.len(), "dependency {d:?} does not exist yet");
        }
        let id = OpId(self.ops.len());
        self.ops.push(Op {
            chip,
            kind,
            deps: deps.to_vec(),
        });
        id
    }

    /// Adds a local GeMM.
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn gemm(&mut self, chip: ChipId, shape: GemmShape, deps: &[OpId]) -> OpId {
        self.push(chip, OpKind::Gemm { shape }, deps)
    }

    /// Adds a blocked slicing copy of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn slice_copy(&mut self, chip: ChipId, bytes: u64, deps: &[OpId]) -> OpId {
        self.push(chip, OpKind::SliceCopy { bytes }, deps)
    }

    /// Adds an AllGather participation (unidirectional ring).
    ///
    /// `shard_bytes` is the chip's local contribution.
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn all_gather(
        &mut self,
        chip: ChipId,
        tag: u64,
        axis: CommAxis,
        shard_bytes: u64,
        deps: &[OpId],
    ) -> OpId {
        self.collective(
            chip,
            tag,
            CollectiveKind::AllGather,
            axis,
            shard_bytes,
            1,
            deps,
        )
    }

    /// Adds a ReduceScatter participation (unidirectional ring).
    ///
    /// `shard_bytes` is the scattered output shard size (input ÷ ring
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn reduce_scatter(
        &mut self,
        chip: ChipId,
        tag: u64,
        axis: CommAxis,
        shard_bytes: u64,
        deps: &[OpId],
    ) -> OpId {
        self.collective(
            chip,
            tag,
            CollectiveKind::ReduceScatter,
            axis,
            shard_bytes,
            1,
            deps,
        )
    }

    /// Adds a collective participation with explicit kind and lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not 1 or 2, the chip is outside the mesh, or a
    /// dependency does not exist.
    #[allow(clippy::too_many_arguments)]
    pub fn collective(
        &mut self,
        chip: ChipId,
        tag: u64,
        kind: CollectiveKind,
        axis: CommAxis,
        shard_bytes: u64,
        lanes: u8,
        deps: &[OpId],
    ) -> OpId {
        assert!(lanes == 1 || lanes == 2, "lanes must be 1 or 2");
        self.push(
            chip,
            OpKind::Collective {
                kind,
                axis,
                tag,
                shard_bytes,
                lanes,
            },
            deps,
        )
    }

    /// Adds a single neighbor exchange.
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn send_recv(&mut self, chip: ChipId, dir: LinkDir, bytes: u64, deps: &[OpId]) -> OpId {
        self.push(chip, OpKind::SendRecv { dir, bytes }, deps)
    }

    /// Adds a SUMMA-style pipelined broadcast or reduce.
    ///
    /// # Panics
    ///
    /// Panics if the chip is outside the mesh or a dependency does not
    /// exist.
    pub fn pipelined_bcast(
        &mut self,
        chip: ChipId,
        axis: CommAxis,
        bytes: u64,
        deps: &[OpId],
    ) -> OpId {
        self.push(chip, OpKind::PipelinedBcast { axis, bytes }, deps)
    }

    /// Finalizes the program.
    ///
    /// The result is ordered: the builder accepts only dependencies on
    /// ops that already exist, so every dependency points to an earlier op
    /// and op order is a topological order. That is the one acyclicity
    /// guarantee a program has; the lowering and the engine rely on it.
    ///
    /// # Panics
    ///
    /// Panics if any collective tag is inconsistent: members of one ring
    /// must all carry the same kind, axis, byte count, and lane count, no
    /// chip may take part twice, and every ring touched by a tag must be
    /// fully covered. The panic names the first offending op in program
    /// order.
    pub fn build(self) -> Program {
        let Some(loops) = &self.loops else {
            self.validate_collectives();
            return Program::from_ops(self.ops);
        };
        // Every chip runs each template collective once with the same
        // parameters, so each ring is complete; only a chip taking part
        // twice can break it.
        let mut tags: Vec<u64> = (self.ops.iter())
            .filter_map(|op| match op.kind {
                OpKind::Collective { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        tags.sort_unstable();
        if let Some(w) = tags.windows(2).find(|w| w[0] == w[1]) {
            panic!(
                "chip ChipId(0) participates twice in collective tag {}",
                w[0]
            );
        }
        let spmd = Spmd::new(self.ops, self.mesh.num_chips(), loops);
        Program {
            inner: Arc::new(Inner {
                ops: OnceLock::new(),
                spmd: Some(spmd),
            }),
        }
    }

    /// Checks collective membership in one pass over the ops plus one over
    /// the collectives. A ring is a cycle, so it is complete exactly when
    /// each member's forward neighbour along the axis also takes part.
    fn validate_collectives(&self) {
        let chips = self.mesh.num_chips();
        // Dense per-tag bookkeeping: each tag's group number, the group's
        // first op, and (group, chip) -> the chip's first op of the group
        // (`usize::MAX`: none).
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        let (mut first_op, mut member, mut collectives) = (Vec::new(), Vec::new(), Vec::new());
        for (i, op) in self.ops.iter().enumerate() {
            if let OpKind::Collective { tag, axis, .. } = op.kind {
                let g = *group_of.entry(tag).or_insert_with(|| {
                    first_op.push(i);
                    member.resize(member.len() + chips, usize::MAX);
                    first_op.len() - 1
                });
                let slot = &mut member[g * chips + op.chip.index()];
                *slot = i.min(*slot);
                collectives.push((i, g, tag, axis));
            }
        }
        for (i, g, tag, axis) in collectives {
            let op = &self.ops[i];
            // Equal tags, so equal kinds means equal parameters.
            assert!(
                op.kind == self.ops[first_op[g]].kind,
                "collective tag {tag} used with inconsistent parameters"
            );
            assert!(
                member[g * chips + op.chip.index()] == i,
                "chip {:?} participates twice in collective tag {tag}",
                op.chip
            );
            let next = self.mesh.neighbor_chip(op.chip, axis.forward_link());
            assert!(
                member[g * chips + next.index()] != usize::MAX,
                "collective tag {tag}: ring of {:?} is missing {next:?}",
                op.chip
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_mesh::Coord;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mesh = Torus2d::new(1, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let a = b.gemm(ChipId(0), GemmShape::new(1, 1, 1), &[]);
        let c = b.slice_copy(ChipId(1), 64, &[a]);
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        let p = b.build();
        assert_eq!(p.len(), 2);
        assert_eq!(p.ops()[1].deps, vec![a]);
    }

    #[test]
    fn the_default_program_is_empty() {
        let p = Program::default();
        assert!(p.is_empty() && p.ops().is_empty());
        assert_eq!(p, ProgramBuilder::new(&Torus2d::new(2, 2)).build());
    }

    #[test]
    fn total_flops_counts_gemms_only() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(2, 3, 4), &[]);
        b.slice_copy(ChipId(0), 1000, &[]);
        assert_eq!(b.build().total_flops(), 48);
    }

    #[test]
    fn collective_on_full_ring_validates() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        // An InterRow collective must include every chip of each column.
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 128, &[]);
        }
        b.build();
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn incomplete_ring_panics() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        b.all_gather(
            mesh.chip_at(Coord::new(0, 0)),
            tag,
            CommAxis::InterRow,
            128,
            &[],
        );
        b.build();
    }

    #[test]
    #[should_panic(expected = "inconsistent parameters")]
    fn inconsistent_tag_parameters_panic() {
        let mesh = Torus2d::new(2, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        b.all_gather(ChipId(0), tag, CommAxis::InterRow, 128, &[]);
        b.all_gather(ChipId(1), tag, CommAxis::InterRow, 256, &[]);
        b.build();
    }

    #[test]
    fn the_first_broken_collective_in_program_order_is_named() {
        // Every tag misses a ring member. Program order, not the tag value
        // or a hasher's iteration order, decides which one is named.
        let mesh = Torus2d::new(2, 2);
        let tags = [7, 3, 12, 0, 9, 5, 1, 10];
        for rot in 0..tags.len() {
            let mut b = ProgramBuilder::new(&mesh);
            for k in 0..tags.len() {
                let tag = tags[(rot + k) % tags.len()];
                b.all_gather(ChipId(k % 4), tag, CommAxis::InterRow, 64, &[]);
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.build()))
                .expect_err("broken rings are rejected");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            let want = format!("collective tag {}: ring of", tags[rot]);
            assert!(msg.starts_with(&want), "{msg}");
        }
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(1, 1, 1), &[OpId(5)]);
    }

    #[test]
    fn builder_programs_are_acyclic() {
        let mesh = Torus2d::new(2, 2);
        for mut b in [ProgramBuilder::new(&mesh), ProgramBuilder::spmd(&mesh)] {
            three_loops(&mut b);
            let p = b.build();
            // Every dependency points to an earlier op.
            for (i, op) in p.ops().iter().enumerate() {
                assert!(op.deps.iter().all(|d| d.index() < i), "op {i}");
            }
        }
    }

    #[test]
    fn tags_are_unique() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        assert_ne!(b.next_tag(), b.next_tag());
    }

    /// Three per-chip loops of different lengths, each depending on the
    /// previous loops' ops and on its own earlier ops.
    fn three_loops(b: &mut ProgramBuilder) {
        let mut last = vec![None; b.mesh().num_chips()];
        let tag = b.next_tag();
        for chip in b.chips() {
            let sc = b.slice_copy(chip, 64, &[]);
            last[chip.index()] = Some(b.all_gather(chip, tag, CommAxis::InterCol, 32, &[sc]));
        }
        for step in 0..2u64 {
            let tag = b.next_tag();
            for chip in b.chips() {
                let prev: Vec<OpId> = last[chip.index()].into_iter().collect();
                let sr = b.send_recv(chip, LinkDir::ColPlus, 16 + step, &prev);
                let rs = b.reduce_scatter(chip, tag, CommAxis::InterRow, 8, &[sr]);
                let g = b.gemm(chip, GemmShape::new(4, 4, 4), &[sr, rs]);
                last[chip.index()] = Some(g);
            }
        }
    }

    #[test]
    fn spmd_builds_expand_to_the_op_by_op_program() {
        for (rows, cols) in [(1, 1), (1, 3), (3, 1), (3, 4)] {
            let mesh = Torus2d::new(rows, cols);
            let (mut full, mut spmd) = (ProgramBuilder::new(&mesh), ProgramBuilder::spmd(&mesh));
            three_loops(&mut full);
            three_loops(&mut spmd);
            let (full, spmd) = (full.build(), spmd.build());
            assert_eq!(spmd.template().unwrap().len(), 8);
            // Read off the template, before anything expands it.
            assert_eq!(spmd.len(), full.len());
            assert_eq!(spmd.total_flops(), full.total_flops());
            let mut walked = Vec::new();
            spmd.for_each_op(|chip, kind, deps| {
                walked.push(Op {
                    chip,
                    kind: kind.clone(),
                    deps: deps.to_vec(),
                })
            });
            assert_eq!(walked, full.ops());
            assert_eq!(spmd.ops(), full.ops());
        }
    }

    #[test]
    #[should_panic(expected = "chip 0's ops inside a chips() loop")]
    fn an_spmd_builder_takes_chip_zero_only() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::spmd(&mesh);
        for _ in b.chips() {
            b.gemm(ChipId(1), GemmShape::new(1, 1, 1), &[]);
        }
    }

    #[test]
    #[should_panic(expected = "participates twice in collective tag 0")]
    fn an_spmd_template_uses_a_tag_once() {
        let mesh = Torus2d::new(2, 1);
        let mut b = ProgramBuilder::spmd(&mesh);
        let tag = b.next_tag();
        for chip in b.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 8, &[]);
            b.all_gather(chip, tag, CommAxis::InterRow, 8, &[]);
        }
        b.build();
    }
}
