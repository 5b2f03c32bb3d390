//! The data-annotated plan IR shared by every distributed GeMM algorithm.
//!
//! A [`Plan`] is one lowered description of a distributed GeMM from which
//! **both** execution layers are derived:
//!
//! 1. the timing simulator consumes [`Plan::program`] (the op DAG, with the
//!    data annotations erased), and
//! 2. the functional interpreter ([`Plan::interpret`]) walks the plan's
//!    [`PlanAction`]s in data-dependency order, really moving [`Matrix`]
//!    shards between per-chip buffers.
//!
//! Because each algorithm emits its plan exactly once — through a
//! [`PlanBuilder`] that forwards every op to the sim's
//! [`ProgramBuilder`] while recording what data the op touches — the
//! program the simulator prices is *by construction* the program that is
//! numerically verified against dense GeMM. There is no second
//! hand-written executor that could drift.
//!
//! The timing-only schedule replays the same emission against an SPMD
//! [`ProgramBuilder::spmd`]: per-chip loops ([`PlanBuilder::chips`]) run
//! for chip 0 alone and no annotations are recorded, which yields the
//! program's template at one chip's cost.
//!
//! # Data model
//!
//! Plans name data through cluster-wide *registers* ([`Reg`]): a register
//! holds one logical matrix value per chip (the cluster-state convention
//! of the ring collectives, e.g. [`all_gather`]). Registers are write-once
//! per chip entry, except zero-initialized accumulators, which only ever
//! receive commutative `+=` contributions — so any order respecting the
//! read-after-write edges computes the same result.
//!
//! Every annotation is fully concrete (chip ids, element offsets, slice
//! indices): a plan is built for one mesh and one problem, so nothing is
//! symbolic.

use meshslice_mesh::{ChipId, CommAxis, Torus2d};
use meshslice_sim::{OpId, Program, ProgramBuilder};
use meshslice_tensor::gemm as dense;
use meshslice_tensor::shard::ShardGrid;
use meshslice_tensor::slice::{
    slice_cols, slice_rows, unslice_cols_into, unslice_rows_into, SliceSpec,
};
use meshslice_tensor::Matrix;

use crate::collectives::{all_gather, reduce_scatter};
use crate::error::GemmError;

/// Element size used when a plan is interpreted functionally.
///
/// Byte counts only affect timing, never numerics, so the functional
/// `execute` path fixes them to f32 width.
pub(crate) const FUNCTIONAL_ELEM_BYTES: usize = 4;

/// A cluster-wide register: one logical matrix value per chip, in
/// [`ChipId`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(usize);

impl Reg {
    /// The raw index of the register in its plan.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A rectangular region of a register entry, in elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First row.
    pub row0: usize,
    /// First column.
    pub col0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

/// A read of one tile: a register entry on a specific chip, optionally
/// restricted to a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileRead {
    /// The register.
    pub reg: Reg,
    /// Whose entry is read. Reading another chip's entry models data that
    /// physically arrived there through the transport ops the annotation
    /// is anchored to (a rotated shard, a broadcast panel).
    pub chip: ChipId,
    /// `None` reads the whole entry.
    pub region: Option<Region>,
}

impl TileRead {
    /// Reads chip `chip`'s whole entry of `reg`.
    pub fn whole(reg: Reg, chip: ChipId) -> Self {
        TileRead {
            reg,
            chip,
            region: None,
        }
    }

    /// Reads a rectangular region of chip `chip`'s entry of `reg`.
    pub fn region(
        reg: Reg,
        chip: ChipId,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        TileRead {
            reg,
            chip,
            region: Some(Region {
                row0,
                col0,
                rows,
                cols,
            }),
        }
    }
}

/// Operand orientation of a [`MatmulStep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatKind {
    /// `dst += lhs · rhs`
    Ab,
    /// `dst += lhs · rhsᵀ`
    Abt,
    /// `dst += lhsᵀ · rhs`
    Atb,
}

/// One tile-level multiply-accumulate of a compute op.
///
/// The product of the two read tiles is added into `dst`'s entry on
/// `dst_chip` at offset `dst_off`. Cross-chip destinations are allowed
/// for accumulators (the adds commute), modeling compute-interleaved
/// reductions such as SUMMA's all-to-one reduce or Wang's ring
/// reduce-scatter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatmulStep {
    /// Operand orientation.
    pub kind: MatKind,
    /// Left operand tile.
    pub lhs: TileRead,
    /// Right operand tile.
    pub rhs: TileRead,
    /// Destination accumulator register.
    pub dst: Reg,
    /// Whose accumulator entry receives the product.
    pub dst_chip: ChipId,
    /// `(row, col)` element offset of the product within the destination.
    pub dst_off: (usize, usize),
}

/// The data semantics of one [`PlanAction`].
#[derive(Clone, Debug, PartialEq)]
pub enum DataOp {
    /// One or more tile multiply-accumulates (several when the schedule
    /// merges panels into one unrolled GeMM op).
    Compute {
        /// The accumulated tile products.
        steps: Vec<MatmulStep>,
    },
    /// `dst[chip] = slice_cols(src[chip], spec, index)` — a blocked
    /// column sub-shard extraction.
    SliceCols {
        /// The slicing chip.
        chip: ChipId,
        /// Source register.
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Blocked slicing geometry.
        spec: SliceSpec,
        /// Which of the `S` sub-shards is extracted.
        index: usize,
    },
    /// `dst[chip] = slice_rows(src[chip], spec, index)`.
    SliceRows {
        /// The slicing chip.
        chip: ChipId,
        /// Source register.
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Blocked slicing geometry.
        spec: SliceSpec,
        /// Which of the `S` sub-shards is extracted.
        index: usize,
    },
    /// Scatters `src[chip]`'s columns into slice `index` of `dst[chip]`
    /// (the inverse of [`DataOp::SliceCols`]).
    UnsliceCols {
        /// The scattering chip.
        chip: ChipId,
        /// Source register (one sub-shard).
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Blocked slicing geometry.
        spec: SliceSpec,
        /// Which of the `S` sub-shards is written.
        index: usize,
    },
    /// Scatters `src[chip]`'s rows into slice `index` of `dst[chip]`.
    UnsliceRows {
        /// The scattering chip.
        chip: ChipId,
        /// Source register (one sub-shard).
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Blocked slicing geometry.
        spec: SliceSpec,
        /// Which of the `S` sub-shards is written.
        index: usize,
    },
    /// Ring AllGather over `axis`: every chip's `dst` entry becomes the
    /// concatenation of its ring's `src` entries. Anchored to all
    /// participating collective ops.
    AllGather {
        /// Source register (per-chip shards).
        src: Reg,
        /// Destination register (per-chip gathered matrices).
        dst: Reg,
        /// Ring direction.
        axis: CommAxis,
    },
    /// Ring ReduceScatter over `axis`: the ring-wise sum of `src` entries
    /// is split evenly and chip at ring position `p` receives part `p`.
    ReduceScatter {
        /// Source register (per-chip full-size partials).
        src: Reg,
        /// Destination register (per-chip scattered shards).
        dst: Reg,
        /// Ring direction.
        axis: CommAxis,
    },
    /// Pure transport: the anchored op carries `tile` towards its
    /// consumers (a Cannon shift payload, a rotated Wang shard, a SUMMA
    /// broadcast panel). The interpreter does nothing — the consuming
    /// [`DataOp::Compute`] reads the tile straight from its home chip —
    /// but the label documents what the wire traffic is.
    Carries {
        /// The tile the op's traffic pertains to.
        tile: TileRead,
    },
}

impl DataOp {
    /// Tiles this action reads (whole entries for collectives).
    fn reads(&self, mesh: &Torus2d) -> Vec<TileRead> {
        match self {
            DataOp::Compute { steps } => steps.iter().flat_map(|s| [s.lhs, s.rhs]).collect(),
            DataOp::SliceCols { chip, src, .. }
            | DataOp::SliceRows { chip, src, .. }
            | DataOp::UnsliceCols { chip, src, .. }
            | DataOp::UnsliceRows { chip, src, .. } => vec![TileRead::whole(*src, *chip)],
            DataOp::AllGather { src, .. } | DataOp::ReduceScatter { src, .. } => mesh
                .chips()
                .map(|chip| TileRead::whole(*src, chip))
                .collect(),
            DataOp::Carries { .. } => Vec::new(),
        }
    }

    /// `(register, chip)` entries this action writes (or accumulates
    /// into).
    fn writes(&self, mesh: &Torus2d) -> Vec<(Reg, ChipId)> {
        match self {
            DataOp::Compute { steps } => steps.iter().map(|s| (s.dst, s.dst_chip)).collect(),
            DataOp::SliceCols { chip, dst, .. }
            | DataOp::SliceRows { chip, dst, .. }
            | DataOp::UnsliceCols { chip, dst, .. }
            | DataOp::UnsliceRows { chip, dst, .. } => vec![(*dst, *chip)],
            DataOp::AllGather { dst, .. } | DataOp::ReduceScatter { dst, .. } => {
                mesh.chips().map(|chip| (*dst, chip)).collect()
            }
            DataOp::Carries { .. } => Vec::new(),
        }
    }
}

/// A data action anchored to one or more program ops.
///
/// Per-chip actions (compute, slicing) anchor to a single op; cluster
/// actions (collectives) anchor to every participating op.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanAction {
    /// The program ops this action annotates.
    pub ops: Vec<OpId>,
    /// What the ops do to the data.
    pub data: DataOp,
}

/// Handle to a [`PlanAction`] while a plan is being built (for anchoring
/// several ops to one cluster action).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionId(usize);

/// How a register's per-chip entries come into existence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegInit {
    /// Pre-loaded from the `A` input shard grid.
    InputA,
    /// Pre-loaded from the `B` input shard grid.
    InputB,
    /// Zero-initialized accumulator (written by `+=` contributions).
    Zeros,
    /// Materialized by the first write (collectives, slicing).
    Empty,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RegInfo {
    rows: usize,
    cols: usize,
    init: RegInit,
}

/// One data-annotated plan: a lowered [`Program`] plus the data actions
/// that give each op its meaning.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    mesh: Torus2d,
    program: Program,
    actions: Vec<PlanAction>,
    regs: Vec<RegInfo>,
    result: Reg,
}

impl Plan {
    /// Builds a plan by running `emit` against a fresh [`PlanBuilder`];
    /// `emit` returns the register holding the result shard grid.
    ///
    /// # Errors
    ///
    /// Propagates `emit`'s error.
    pub fn build(
        mesh: &Torus2d,
        emit: impl FnOnce(&mut PlanBuilder) -> Result<Reg, GemmError>,
    ) -> Result<Plan, GemmError> {
        let mut sim = ProgramBuilder::new(mesh);
        let mut pb = PlanBuilder::new(&mut sim);
        let result = emit(&mut pb)?;
        let (regs, actions) = pb.finish();
        Ok(Plan {
            mesh: mesh.clone(),
            program: sim.build(),
            actions,
            regs,
            result,
        })
    }

    /// Runs `emit` against an SPMD builder ([`ProgramBuilder::spmd`]) and
    /// returns the program alone: chip 0's ops as a template, with no data
    /// annotations recorded (they name concrete chips).
    ///
    /// # Errors
    ///
    /// Propagates `emit`'s error.
    pub(crate) fn spmd_program(
        mesh: &Torus2d,
        emit: impl FnOnce(&mut PlanBuilder) -> Result<Reg, GemmError>,
    ) -> Result<Program, GemmError> {
        let mut sim = ProgramBuilder::spmd(mesh);
        let mut pb = PlanBuilder::unannotated(&mut sim);
        emit(&mut pb)?;
        Ok(sim.build())
    }

    /// The lowered op DAG (data annotations erased) — what the timing
    /// simulator executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Consumes the plan, keeping only the lowered program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// The data actions anchored to `op` (empty for ops whose data
    /// semantics live on a sibling — none in the built-in algorithms).
    pub fn annotations_for(&self, op: OpId) -> Vec<&PlanAction> {
        self.actions
            .iter()
            .filter(|a| a.ops.contains(&op))
            .collect()
    }

    /// Functionally interprets the plan: really moves and multiplies the
    /// input shard grids, producing the result shard grid.
    ///
    /// Actions run in data-dependency order: an action fires once every
    /// tile it reads is materialized and has no outstanding writers.
    /// Registers are write-once (or commutative accumulators), so any
    /// such order is equivalent; ties resolve in emission order, which
    /// keeps the interpreter deterministic. The lowered program needs no
    /// check of its own: a [`ProgramBuilder`] accepts only dependencies on
    /// earlier ops, so its op order is already a topological order.
    ///
    /// # Panics
    ///
    /// Panics if the data actions deadlock or read unwritten registers —
    /// impossible for plans emitted by the built-in algorithms, but
    /// reachable from a hand-built inconsistent plan.
    pub fn interpret(&self, a: &ShardGrid, b: &ShardGrid) -> ShardGrid {
        let chips = self.mesh.num_chips();
        let mut state: Vec<Vec<Option<Matrix>>> = self
            .regs
            .iter()
            .map(|info| match info.init {
                RegInit::InputA => a.iter().map(|(_, s)| Some(s.clone())).collect(),
                RegInit::InputB => b.iter().map(|(_, s)| Some(s.clone())).collect(),
                RegInit::Zeros => vec![Some(Matrix::zeros(info.rows, info.cols)); chips],
                RegInit::Empty => vec![None; chips],
            })
            .collect();
        // Outstanding writer counts per (register, chip) entry.
        let mut writers: Vec<Vec<usize>> = self.regs.iter().map(|_| vec![0usize; chips]).collect();
        for action in &self.actions {
            for (reg, chip) in action.data.writes(&self.mesh) {
                writers[reg.0][chip.index()] += 1;
            }
        }
        let mut done = vec![false; self.actions.len()];
        let mut remaining = self.actions.len();
        while remaining > 0 {
            let mut progressed = false;
            for (i, action) in self.actions.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let ready = action.data.reads(&self.mesh).iter().all(|t| {
                    writers[t.reg.0][t.chip.index()] == 0
                        && state[t.reg.0][t.chip.index()].is_some()
                });
                if !ready {
                    continue;
                }
                self.run_action(&action.data, &mut state);
                for (reg, chip) in action.data.writes(&self.mesh) {
                    writers[reg.0][chip.index()] -= 1;
                }
                done[i] = true;
                remaining -= 1;
                progressed = true;
            }
            assert!(
                progressed,
                "plan data actions deadlock: {remaining} actions cannot fire"
            );
        }
        let shards: Vec<Matrix> = state[self.result.0]
            .iter()
            .map(|m| m.clone().expect("result register is materialized"))
            .collect();
        ShardGrid::from_shards(self.mesh.rows(), self.mesh.cols(), shards)
    }

    fn run_action(&self, data: &DataOp, state: &mut [Vec<Option<Matrix>>]) {
        let read = |state: &[Vec<Option<Matrix>>], t: TileRead| -> Matrix {
            let m = state[t.reg.0][t.chip.index()]
                .as_ref()
                .expect("read tile is materialized");
            match t.region {
                None => m.clone(),
                Some(r) => m.block(r.row0, r.col0, r.rows, r.cols),
            }
        };
        match data {
            DataOp::Compute { steps } => {
                for step in steps {
                    let lhs = read(state, step.lhs);
                    let rhs = read(state, step.rhs);
                    let product = match step.kind {
                        MatKind::Ab => dense::matmul(&lhs, &rhs),
                        MatKind::Abt => dense::matmul_a_bt(&lhs, &rhs),
                        MatKind::Atb => dense::matmul_at_b(&lhs, &rhs),
                    };
                    let dst = state[step.dst.0][step.dst_chip.index()]
                        .as_mut()
                        .expect("compute destination is a materialized accumulator");
                    dst.add_block(step.dst_off.0, step.dst_off.1, &product);
                }
            }
            DataOp::SliceCols {
                chip,
                src,
                dst,
                spec,
                index,
            } => {
                let v = slice_cols(
                    state[src.0][chip.index()].as_ref().expect("slice source"),
                    *spec,
                    *index,
                );
                state[dst.0][chip.index()] = Some(v);
            }
            DataOp::SliceRows {
                chip,
                src,
                dst,
                spec,
                index,
            } => {
                let v = slice_rows(
                    state[src.0][chip.index()].as_ref().expect("slice source"),
                    *spec,
                    *index,
                );
                state[dst.0][chip.index()] = Some(v);
            }
            DataOp::UnsliceCols {
                chip,
                src,
                dst,
                spec,
                index,
            } => {
                let sub = state[src.0][chip.index()]
                    .as_ref()
                    .expect("unslice source")
                    .clone();
                let out = state[dst.0][chip.index()]
                    .as_mut()
                    .expect("unslice destination is materialized");
                unslice_cols_into(out, *spec, *index, &sub);
            }
            DataOp::UnsliceRows {
                chip,
                src,
                dst,
                spec,
                index,
            } => {
                let sub = state[src.0][chip.index()]
                    .as_ref()
                    .expect("unslice source")
                    .clone();
                let out = state[dst.0][chip.index()]
                    .as_mut()
                    .expect("unslice destination is materialized");
                unslice_rows_into(out, *spec, *index, &sub);
            }
            DataOp::AllGather { src, dst, axis } => {
                let shards: Vec<Matrix> = state[src.0]
                    .iter()
                    .map(|m| m.clone().expect("all-gather source"))
                    .collect();
                for (chip, v) in all_gather(&self.mesh, *axis, &shards)
                    .into_iter()
                    .enumerate()
                {
                    state[dst.0][chip] = Some(v);
                }
            }
            DataOp::ReduceScatter { src, dst, axis } => {
                let partials: Vec<Matrix> = state[src.0]
                    .iter()
                    .map(|m| m.clone().expect("reduce-scatter source"))
                    .collect();
                for (chip, v) in reduce_scatter(&self.mesh, *axis, &partials)
                    .into_iter()
                    .enumerate()
                {
                    state[dst.0][chip] = Some(v);
                }
            }
            DataOp::Carries { .. } => {}
        }
    }
}

/// Records data annotations while forwarding op emission to the sim's
/// [`ProgramBuilder`].
///
/// The builder deliberately does **not** wrap the `ProgramBuilder` API:
/// emission code calls [`PlanBuilder::sim`] for ops (the exact calls the
/// old schedule builders made, so lowered programs stay bit-for-bit
/// identical) and [`PlanBuilder::anchor`] (plus the crate-internal
/// `attach`) for the data side.
#[derive(Debug)]
pub struct PlanBuilder<'a> {
    sim: &'a mut ProgramBuilder,
    mesh: Torus2d,
    regs: Vec<RegInfo>,
    actions: Vec<PlanAction>,
    /// Whether data actions are recorded (see [`PlanBuilder::unannotated`]).
    annotate: bool,
}

impl<'a> PlanBuilder<'a> {
    /// Wraps an existing program builder.
    pub(crate) fn new(sim: &'a mut ProgramBuilder) -> Self {
        let mesh = sim.mesh().clone();
        PlanBuilder {
            sim,
            mesh,
            regs: Vec::new(),
            actions: Vec::new(),
            annotate: true,
        }
    }

    /// Wraps an existing program builder, recording ops and registers
    /// but no data actions: for SPMD templates and chained passes, whose
    /// annotations nothing reads.
    pub(crate) fn unannotated(sim: &'a mut ProgramBuilder) -> Self {
        PlanBuilder {
            annotate: false,
            ..PlanBuilder::new(sim)
        }
    }

    /// The mesh the plan targets.
    pub fn mesh(&self) -> &Torus2d {
        &self.mesh
    }

    /// The wrapped program builder, for op emission.
    pub fn sim(&mut self) -> &mut ProgramBuilder {
        self.sim
    }

    /// Starts one per-chip emission loop (see [`ProgramBuilder::chips`]):
    /// every chip in a plan, chip 0 alone in a schedule's template.
    pub fn chips(&mut self) -> impl Iterator<Item = ChipId> {
        self.sim.chips()
    }

    fn new_reg(&mut self, rows: usize, cols: usize, init: RegInit) -> Reg {
        let id = Reg(self.regs.len());
        self.regs.push(RegInfo { rows, cols, init });
        id
    }

    /// A register pre-loaded from the `A` input shard grid
    /// (`rows × cols` per chip).
    pub(crate) fn input_a(&mut self, rows: usize, cols: usize) -> Reg {
        self.new_reg(rows, cols, RegInit::InputA)
    }

    /// A register pre-loaded from the `B` input shard grid.
    pub(crate) fn input_b(&mut self, rows: usize, cols: usize) -> Reg {
        self.new_reg(rows, cols, RegInit::InputB)
    }

    /// A zero-initialized accumulator register.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Reg {
        self.new_reg(rows, cols, RegInit::Zeros)
    }

    /// An empty register, materialized by its first write.
    pub fn reg(&mut self, rows: usize, cols: usize) -> Reg {
        self.new_reg(rows, cols, RegInit::Empty)
    }

    /// An empty register shaped like the AllGather of `src` over `axis`.
    pub fn gathered(&mut self, src: Reg, axis: CommAxis) -> Reg {
        let info = self.regs[src.0];
        let (rows, cols) = match axis {
            CommAxis::InterRow => (info.rows * self.mesh.rows(), info.cols),
            CommAxis::InterCol => (info.rows, info.cols * self.mesh.cols()),
        };
        self.new_reg(rows, cols, RegInit::Empty)
    }

    /// Creates an action with no anchored ops yet (for cluster actions
    /// spanning the per-chip emission loop).
    pub(crate) fn action(&mut self, data: DataOp) -> ActionId {
        let id = ActionId(self.actions.len());
        if self.annotate {
            self.actions.push(PlanAction {
                ops: Vec::new(),
                data,
            });
        }
        id
    }

    /// Anchors `op` to an existing action.
    pub fn anchor(&mut self, action: ActionId, op: OpId) {
        if self.annotate {
            self.actions[action.0].ops.push(op);
        }
    }

    /// Creates an action anchored to a single op.
    pub(crate) fn attach(&mut self, op: OpId, data: DataOp) {
        if self.annotate {
            self.actions.push(PlanAction {
                ops: vec![op],
                data,
            });
        }
    }

    fn finish(self) -> (Vec<RegInfo>, Vec<PlanAction>) {
        (self.regs, self.actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_sim::CollectiveKind;
    use meshslice_tensor::GemmShape;

    /// Hand-builds a 1D tensor-parallel plan on a 1×2 mesh: all-gather the
    /// column-sharded A, then each chip multiplies by its own B shard.
    /// Also returns the emitted collective op ids.
    fn tiny_plan(mesh: &Torus2d) -> (Plan, Vec<OpId>) {
        let mut ag_ops = Vec::new();
        let plan = Plan::build(mesh, |pb| {
            let a = pb.input_a(2, 2);
            let b = pb.input_b(4, 2);
            let ga = pb.gathered(a, CommAxis::InterCol);
            let c = pb.zeros(2, 2);
            let ag = pb.action(DataOp::AllGather {
                src: a,
                dst: ga,
                axis: CommAxis::InterCol,
            });
            let tag = pb.sim().next_tag();
            for chip in pb.mesh().clone().chips() {
                let op = pb.sim().collective(
                    chip,
                    tag,
                    CollectiveKind::AllGather,
                    CommAxis::InterCol,
                    16,
                    2,
                    &[],
                );
                ag_ops.push(op);
                pb.anchor(ag, op);
                let g = pb.sim().gemm(chip, GemmShape::new(2, 2, 4), &[op]);
                pb.attach(
                    g,
                    DataOp::Compute {
                        steps: vec![MatmulStep {
                            kind: MatKind::Ab,
                            lhs: TileRead::whole(ga, chip),
                            rhs: TileRead::whole(b, chip),
                            dst: c,
                            dst_chip: chip,
                            dst_off: (0, 0),
                        }],
                    },
                );
            }
            Ok(c)
        })
        .unwrap();
        (plan, ag_ops)
    }

    #[test]
    fn hand_built_plan_interprets_to_dense_gemm() {
        let mesh = Torus2d::new(1, 2);
        let (plan, _) = tiny_plan(&mesh);
        assert_eq!(plan.program().len(), 4);
        let a_global = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f32);
        let b_global = Matrix::from_fn(4, 4, |i, j| (j * 4 + i) as f32);
        let a = ShardGrid::partition(&a_global, 1, 2);
        let b = ShardGrid::partition(&b_global, 1, 2);
        let got = plan.interpret(&a, &b).assemble();
        let expect = dense::matmul(&a_global, &b_global);
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn annotations_anchor_to_ops() {
        let mesh = Torus2d::new(1, 2);
        let (plan, ag_ops) = tiny_plan(&mesh);
        assert_eq!(ag_ops.len(), 2);
        let anns = plan.annotations_for(ag_ops[0]);
        assert_eq!(anns.len(), 1);
        assert!(matches!(anns[0].data, DataOp::AllGather { .. }));
        // The cluster action is anchored to both chips' collective ops.
        assert_eq!(anns[0].ops, ag_ops);
    }
}
