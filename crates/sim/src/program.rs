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

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

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

/// A dependency cycle found by [`Program::validate_acyclic`].
///
/// Names one op caught in the cycle (its id, chip, and kind) plus a short
/// excerpt of the cycle itself so the offending dependency chain can be
/// read straight out of the error message.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleError {
    /// An op that participates in the cycle.
    pub op: OpId,
    /// The chip that op runs on.
    pub chip: ChipId,
    /// What the op does.
    pub kind: OpKind,
    /// Up to [`CycleError::EXCERPT_LEN`] consecutive ops of the cycle,
    /// starting at `op`; each waits on the next.
    pub excerpt: Vec<OpId>,
}

impl CycleError {
    /// Maximum number of cycle members reported in [`CycleError::excerpt`].
    pub const EXCERPT_LEN: usize = 8;
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependency cycle through op {} ({:?} on chip {}): ",
            self.op.index(),
            self.kind,
            self.chip.index()
        )?;
        for (i, op) in self.excerpt.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}", op.index())?;
        }
        if self.excerpt.len() == Self::EXCERPT_LEN {
            write!(f, " -> ...")?;
        }
        Ok(())
    }
}

impl Error for CycleError {}

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
/// The ops are shared, so cloning a program is O(1).
///
/// [`Engine`]: crate::Engine
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub(crate) ops: Arc<Vec<Op>>,
}

impl Program {
    /// The operations, indexed by [`OpId`].
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Checks that the op dependency graph is acyclic and returns a valid
    /// topological order of op indices.
    ///
    /// Programs built with [`ProgramBuilder`] are ordered: every
    /// dependency points to an earlier op. For them the check is one pass
    /// over the dependencies and the order is the identity. Other programs
    /// (constructed or transformed by other means) fall back to Kahn's
    /// algorithm, which also yields a clearer error than the engine's
    /// deadlock panic.
    ///
    /// # Errors
    ///
    /// Returns a [`CycleError`] naming an op that participates in a cycle,
    /// its chip and kind, and a short excerpt of the cycle.
    pub fn validate_acyclic(&self) -> Result<Vec<usize>, CycleError> {
        let n = self.ops.len();
        let ordered = self
            .ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.deps.iter().all(|d| d.0 < i));
        if ordered {
            return Ok((0..n).collect());
        }
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in self.ops.iter().enumerate() {
            indegree[i] = op.deps.len();
            for d in &op.deps {
                dependents[d.0].push(i);
            }
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(self.cycle_error(&indegree))
        }
    }

    /// Builds the [`CycleError`] for a failed topological sort.
    ///
    /// `indegree` holds each op's count of unsatisfied dependencies after
    /// Kahn's algorithm got stuck; ops with a positive count form the
    /// cyclic core (plus anything downstream of it). Following any
    /// still-pending dependency from such an op must eventually revisit an
    /// op, which yields a genuine cycle to excerpt.
    fn cycle_error(&self, indegree: &[usize]) -> CycleError {
        let start = (0..self.ops.len())
            .find(|&i| indegree[i] > 0)
            .expect("a cyclic op exists");
        // Walk pending deps until an op repeats; the repeat closes a cycle.
        let mut seen_at: HashMap<usize, usize> = HashMap::new();
        let mut walk: Vec<usize> = Vec::new();
        let mut at = start;
        let cycle_head = loop {
            if let Some(&pos) = seen_at.get(&at) {
                break pos;
            }
            seen_at.insert(at, walk.len());
            walk.push(at);
            at = self.ops[at]
                .deps
                .iter()
                .map(|d| d.0)
                .find(|&d| indegree[d] > 0)
                .expect("a stuck op has a stuck dependency");
        };
        let cycle: Vec<usize> = walk[cycle_head..].to_vec();
        let op = OpId(cycle[0]);
        CycleError {
            op,
            chip: self.ops[op.0].chip,
            kind: self.ops[op.0].kind.clone(),
            excerpt: cycle
                .into_iter()
                .take(CycleError::EXCERPT_LEN)
                .map(OpId)
                .collect(),
        }
    }

    /// Total FLOPs of all GeMM ops (for utilization accounting).
    pub fn total_flops(&self) -> u64 {
        self.ops
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
}

impl ProgramBuilder {
    /// Creates a builder for programs on `mesh`.
    pub fn new(mesh: &Torus2d) -> Self {
        ProgramBuilder {
            mesh: mesh.clone(),
            ops: Vec::new(),
            next_tag: 0,
        }
    }

    /// The mesh this program targets.
    pub fn mesh(&self) -> &Torus2d {
        &self.mesh
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
    /// and op order is a topological order (which
    /// [`Program::validate_acyclic`] and the lowering rely on).
    ///
    /// # Panics
    ///
    /// Panics if any collective tag is inconsistent: members of one ring
    /// must all carry the same kind, axis, byte count, and lane count, no
    /// chip may take part twice, and every ring touched by a tag must be
    /// fully covered. The panic names the first offending op in program
    /// order.
    pub fn build(self) -> Program {
        self.validate_collectives();
        Program {
            ops: Arc::new(self.ops),
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
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 64, &[]);
            b.gemm(chip, GemmShape::new(2, 2, 2), &[ag]);
        }
        let p = b.build();
        let order = p.validate_acyclic().expect("builder output is acyclic");
        assert_eq!(order.len(), p.len());
        // Every op appears after its dependencies.
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &op)| (op, i)).collect();
        for (i, op) in p.ops().iter().enumerate() {
            for d in &op.deps {
                assert!(pos[&d.index()] < pos[&i]);
            }
        }
    }

    #[test]
    fn hand_built_cycles_are_detected() {
        // Construct a cyclic program directly (the builder forbids this).
        let p = Program {
            ops: Arc::new(vec![
                Op {
                    chip: ChipId(0),
                    kind: OpKind::SliceCopy { bytes: 1 },
                    deps: vec![OpId(1)],
                },
                Op {
                    chip: ChipId(3),
                    kind: OpKind::Gemm {
                        shape: GemmShape::new(1, 1, 1),
                    },
                    deps: vec![OpId(0)],
                },
            ]),
        };
        let err = p.validate_acyclic().unwrap_err();
        assert_eq!(err.op, OpId(0));
        assert_eq!(err.chip, ChipId(0));
        assert_eq!(err.kind, OpKind::SliceCopy { bytes: 1 });
        assert_eq!(err.excerpt, vec![OpId(0), OpId(1)]);
        let msg = err.to_string();
        assert!(msg.contains("cycle through op 0"), "message: {msg}");
        assert!(msg.contains("chip 0"), "message: {msg}");
        assert!(msg.contains("0 -> 1"), "message: {msg}");
    }

    #[test]
    fn out_of_order_programs_fall_back_to_a_topological_sort() {
        // Op 0 waits on op 1: acyclic, but not in builder order.
        let p = Program {
            ops: Arc::new(vec![
                Op {
                    chip: ChipId(0),
                    kind: OpKind::SliceCopy { bytes: 1 },
                    deps: vec![OpId(1)],
                },
                Op {
                    chip: ChipId(0),
                    kind: OpKind::SliceCopy { bytes: 2 },
                    deps: vec![],
                },
            ]),
        };
        assert_eq!(p.validate_acyclic(), Ok(vec![1, 0]));
    }

    #[test]
    fn cycle_error_names_a_true_cycle_member() {
        // Op 0 is stuck only because it waits on the 1 <-> 2 cycle; the
        // error must point into the cycle itself, not at op 0.
        let p = Program {
            ops: Arc::new(vec![
                Op {
                    chip: ChipId(0),
                    kind: OpKind::SliceCopy { bytes: 1 },
                    deps: vec![OpId(1)],
                },
                Op {
                    chip: ChipId(1),
                    kind: OpKind::SliceCopy { bytes: 2 },
                    deps: vec![OpId(2)],
                },
                Op {
                    chip: ChipId(2),
                    kind: OpKind::SliceCopy { bytes: 3 },
                    deps: vec![OpId(1)],
                },
            ]),
        };
        let err = p.validate_acyclic().unwrap_err();
        assert!(err.op == OpId(1) || err.op == OpId(2));
        assert_eq!(err.excerpt.len(), 2);
    }

    #[test]
    fn tags_are_unique() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        assert_ne!(b.next_tag(), b.next_tag());
    }
}
