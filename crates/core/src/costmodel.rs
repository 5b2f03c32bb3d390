//! Analytical cost models (§3.2.2, §4.5).
//!
//! The communication model is the paper's linear formula
//!
//! ```text
//! cost_op = t_launch + (P − 1) · (t_sync + sizeof(shard)/bw)
//! ```
//!
//! which fits ring AllGather/ReduceScatter well because ring steps are
//! synchronized and contention-free. The compute model divides FLOPs by an
//! effective throughput measured per shape (the same throughput curve the
//! simulator's compute engine uses — standing in for the paper's
//! "benchmark a few GeMM operations on a single accelerator chip").
//!
//! On top of the per-operation costs, [`CostModel`] provides per-algorithm
//! execution-time estimates built from the prologue / steady-state /
//! epilogue decomposition of each algorithm's software pipeline. The
//! estimates are deliberately simpler than the event-driven simulator (no
//! HBM contention, no straggler propagation, no queueing), which is what
//! makes the Figure 13–15 estimate-vs-simulation comparisons meaningful.

use meshslice_gemm::{Dataflow, GemmProblem};
use meshslice_mesh::{CommAxis, MeshShape};
use meshslice_sim::{Duration, SimConfig};
use meshslice_tensor::GemmShape;

/// Analytical cost model over a hardware configuration.
///
/// # Example
///
/// ```
/// use meshslice::costmodel::CostModel;
/// use meshslice_sim::SimConfig;
///
/// let model = CostModel::new(SimConfig::tpu_v4());
/// // A 7-step ring AllGather of 1 MiB shards over both ring directions.
/// let t = model.collective_time(8, 1 << 20);
/// assert!(t.as_micros() > 75.0);
/// ```
#[derive(Clone, Debug)]
pub struct CostModel {
    cfg: SimConfig,
}

/// One direction's communication in a 2D GeMM: a ring collective moving
/// per-chip shards of `bytes` over a ring of `ring` chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CommChain {
    ring: usize,
    bytes: u64,
}

/// The per-dataflow structure of a 2D GeMM on a mesh: which collectives
/// run before the local GeMM (gathers) and after it (the reduce-scatter),
/// plus the local GeMM shape.
#[derive(Clone, Debug)]
struct GemmStructure {
    gathers: Vec<CommChain>,
    reduce: Option<CommChain>,
    local: GemmShape,
    /// Which local-GeMM dimension the MeshSlice slicing divides.
    sliced_dim: SlicedDim,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlicedDim {
    K,
    N,
    M,
}

impl CostModel {
    /// Creates a model from the hardware configuration.
    pub fn new(cfg: SimConfig) -> Self {
        CostModel { cfg }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The paper's linear collective cost: `t_launch + (P−1)(t_sync +
    /// bytes/bw)`, with `bw` the bandwidth of both ring directions —
    /// AG/RdS split each shard over the two links of the ring, per step.
    /// Rings of one chip are free.
    pub fn collective_time(&self, ring: usize, step_bytes: u64) -> Duration {
        if ring <= 1 {
            return Duration::ZERO;
        }
        let steps = (ring - 1) as f64;
        Duration::from_secs(
            self.cfg.t_launch.as_secs()
                + steps
                    * (self.cfg.t_sync.as_secs()
                        + step_bytes as f64 / (2.0 * self.cfg.link_bandwidth)),
        )
    }

    /// One SendRecv exchange: launch + sync + transfer.
    pub(crate) fn sendrecv_time(&self, bytes: u64) -> Duration {
        Duration::from_secs(
            self.cfg.t_launch.as_secs()
                + self.cfg.t_sync.as_secs()
                + bytes as f64 / self.cfg.link_bandwidth,
        )
    }

    /// A SUMMA pipelined broadcast/reduce of `bytes` on a `ring`-chip ring:
    /// `P + D − 2` stages, each paying a synchronization and a packet
    /// transfer (§2.3.3).
    pub(crate) fn pipelined_bcast_time(&self, ring: usize, bytes: u64) -> Duration {
        if ring <= 1 {
            return Duration::ZERO;
        }
        let d = self.cfg.summa_packets.max(1) as f64;
        let stages = (ring as f64) + d - 2.0;
        let packet = bytes as f64 / d;
        Duration::from_secs(
            self.cfg.t_launch.as_secs()
                + stages * (self.cfg.t_sync.as_secs() + packet / self.cfg.link_bandwidth),
        )
    }

    /// Local GeMM time: kernel launch plus FLOPs over the effective
    /// throughput for the shape.
    pub fn gemm_time(&self, shape: GemmShape) -> Duration {
        Duration::from_secs(
            self.cfg.t_kernel_launch.as_secs() + self.cfg.gemm_flop_time(shape).as_secs(),
        )
    }

    /// A blocked slicing copy of `bytes` (HBM read + write).
    pub(crate) fn slice_time(&self, bytes: u64) -> Duration {
        Duration::from_secs(
            self.cfg.t_kernel_launch.as_secs() + 2.0 * bytes as f64 / self.cfg.hbm_bandwidth,
        )
    }

    fn chain_ring(&self, mesh: MeshShape, axis: CommAxis) -> usize {
        match axis {
            CommAxis::InterRow => mesh.rows(),
            CommAxis::InterCol => mesh.cols(),
        }
    }

    fn structure(&self, mesh: MeshShape, problem: GemmProblem, eb: usize) -> GemmStructure {
        let GemmShape { m, n, k } = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let chain = |axis: Option<CommAxis>, bytes: u64| {
            axis.map(|a| CommChain {
                ring: self.chain_ring(mesh, a),
                bytes,
            })
        };
        let a = chain(problem.a_axis(), problem.a_shard_bytes(mesh, eb));
        let b = chain(problem.b_axis(), problem.b_shard_bytes(mesh, eb));
        let c = chain(problem.c_axis(), problem.c_shard_bytes(mesh, eb));
        match problem.dataflow {
            Dataflow::Os => GemmStructure {
                gathers: vec![a.unwrap(), b.unwrap()],
                reduce: None,
                local: GemmShape::new(m / pr, n / pc, k),
                sliced_dim: SlicedDim::K,
            },
            Dataflow::Ls => GemmStructure {
                gathers: vec![b.unwrap()],
                reduce: c,
                local: GemmShape::new(m / pr, n, k / pc),
                sliced_dim: SlicedDim::N,
            },
            Dataflow::Rs => GemmStructure {
                gathers: vec![a.unwrap()],
                reduce: c,
                local: GemmShape::new(m, n / pc, k / pr),
                sliced_dim: SlicedDim::M,
            },
        }
    }

    fn sliced_local(local: GemmShape, dim: SlicedDim, s: usize) -> GemmShape {
        match dim {
            SlicedDim::K => GemmShape::new(local.m, local.n, local.k / s),
            SlicedDim::N => GemmShape::new(local.m, local.n / s, local.k),
            SlicedDim::M => GemmShape::new(local.m / s, local.n, local.k),
        }
    }

    /// Estimated execution time of the MeshSlice algorithm with slice
    /// count `s`: `prologue + (S−1)·steady + epilogue` (§3.2.2).
    pub fn meshslice_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        s: usize,
        elem_bytes: usize,
    ) -> Duration {
        let st = self.structure(mesh, problem, elem_bytes);
        let s64 = s as u64;
        let gather_iter: Vec<Duration> = st
            .gathers
            .iter()
            .map(|g| self.collective_time(g.ring, g.bytes / s64))
            .collect();
        let reduce_iter = st
            .reduce
            .map(|r| self.collective_time(r.ring, r.bytes / s64))
            .unwrap_or(Duration::ZERO);
        // Compute chain per iteration: the partial GeMM plus the slicing
        // copies sharing the compute unit (skipped when S = 1).
        let mut compute_iter = self.gemm_time(Self::sliced_local(st.local, st.sliced_dim, s));
        if s > 1 {
            for g in &st.gathers {
                compute_iter += self.slice_time(g.bytes / s64);
            }
            if let Some(r) = st.reduce {
                compute_iter += self.slice_time(r.bytes / s64);
            }
        }
        let prologue = gather_iter.iter().copied().max().unwrap_or(Duration::ZERO);
        let steady = gather_iter
            .iter()
            .copied()
            .chain([reduce_iter, compute_iter])
            .max()
            .unwrap_or(Duration::ZERO);
        let epilogue = compute_iter + reduce_iter;
        prologue + Duration::from_secs(steady.as_secs() * (s as f64 - 1.0)) + epilogue
    }

    /// Estimated time of the Collective algorithm (`S = 1`, no slicing).
    pub(crate) fn collective_algo_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Duration {
        let st = self.structure(mesh, problem, elem_bytes);
        let gathers = st
            .gathers
            .iter()
            .map(|g| self.collective_time(g.ring, g.bytes))
            .max()
            .unwrap_or(Duration::ZERO);
        let reduce = st
            .reduce
            .map(|r| self.collective_time(r.ring, r.bytes))
            .unwrap_or(Duration::ZERO);
        gathers + self.gemm_time(st.local) + reduce
    }

    /// Estimated time of Wang's algorithm: the larger direction's
    /// collective is decomposed into SendRecv steps overlapped with
    /// `unroll` grouped partial GeMMs; the other direction stays exposed.
    pub(crate) fn wang_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        unroll: usize,
        elem_bytes: usize,
    ) -> Duration {
        let st = self.structure(mesh, problem, elem_bytes);
        // Candidate chains: all gathers plus the reduce.
        let mut chains: Vec<(CommChain, bool)> = st.gathers.iter().map(|g| (*g, false)).collect();
        if let Some(r) = st.reduce {
            chains.push((r, true));
        }
        // Overlap the chain with the larger traffic (paper's choice).
        let traffic = |c: &CommChain| (c.ring as u64 - 1) * c.bytes;
        let overlapped_idx = (0..chains.len())
            .max_by_key(|&i| traffic(&chains[i].0))
            .expect("at least one chain");
        let overlapped = chains[overlapped_idx];
        let ring = overlapped.0.ring;
        let groups = if unroll == 0 || !ring.is_multiple_of(unroll) || unroll > ring {
            ring
        } else {
            unroll
        };
        let per_group = ring / groups;
        // The rotation splits one dimension of the local GeMM by `groups`.
        let group_gemm = self.gemm_time(Self::sliced_local(st.local, st.sliced_dim, groups));
        // Bidirectional rotation: two arrivals per exchange interval.
        let comm_iter = Duration::from_secs(
            self.sendrecv_time(overlapped.0.bytes).as_secs() * per_group as f64 / 2.0,
        );
        // Exposed chains run whole, but on *other* link directions, so
        // they only gate the first GeMM (prologue); a trailing
        // ReduceScatter is a true epilogue.
        let exposed_is_reduce = !overlapped.1 && st.reduce.is_some();
        let exposed: Duration = chains
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != overlapped_idx)
            .map(|(_, (c, _))| self.collective_time(c.ring, c.bytes))
            .fold(Duration::ZERO, |acc, d| acc + d);
        let steady = comm_iter.max(group_gemm);
        let (prologue, epilogue) = if exposed_is_reduce {
            (comm_iter, group_gemm + exposed)
        } else {
            (exposed.max(comm_iter), group_gemm)
        };
        prologue + Duration::from_secs(steady.as_secs() * (groups as f64 - 1.0)) + epilogue
    }

    /// Estimated time of SUMMA with `panels` iterations of pipelined
    /// broadcast/reduce.
    pub fn summa_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        panels: usize,
        elem_bytes: usize,
    ) -> Duration {
        let GemmShape { m, n, k } = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let eb = elem_bytes as u64;
        let p = panels.max(1);
        let (ops, local): (Vec<Duration>, GemmShape) = match problem.dataflow {
            Dataflow::Os => {
                let a_bytes = (m / pr * (k / p)) as u64 * eb;
                let b_bytes = ((k / p) * (n / pc)) as u64 * eb;
                (
                    vec![
                        self.pipelined_bcast_time(pc, a_bytes),
                        self.pipelined_bcast_time(pr, b_bytes),
                    ],
                    GemmShape::new(m / pr, n / pc, k / p),
                )
            }
            Dataflow::Ls => {
                let b_bytes = ((n / p) * (k / pc)) as u64 * eb;
                let c_bytes = (m / pr * (n / p)) as u64 * eb;
                (
                    vec![
                        self.pipelined_bcast_time(pr, b_bytes),
                        self.pipelined_bcast_time(pc, c_bytes),
                    ],
                    GemmShape::new(m / pr, n / p, k / pc),
                )
            }
            Dataflow::Rs => {
                let a_bytes = ((k / pr) * (m / p)) as u64 * eb;
                let c_bytes = ((m / p) * (n / pc)) as u64 * eb;
                (
                    vec![
                        self.pipelined_bcast_time(pc, a_bytes),
                        self.pipelined_bcast_time(pr, c_bytes),
                    ],
                    GemmShape::new(m / p, n / pc, k / pr),
                )
            }
        };
        let gemm = self.gemm_time(local);
        let steady = ops.iter().copied().chain([gemm]).max().unwrap();
        let prologue = ops.iter().copied().max().unwrap();
        prologue + Duration::from_secs(steady.as_secs() * (p as f64 - 1.0)) + gemm
    }

    /// Estimated time of Cannon's algorithm on a square mesh: the skew
    /// prologue plus `P` systolic steps overlapping shifts with GeMMs.
    ///
    /// Returns `None` for non-square meshes or non-OS dataflows.
    pub(crate) fn cannon_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Option<Duration> {
        if !mesh.is_square() || problem.dataflow != Dataflow::Os {
            return None;
        }
        let p = mesh.rows();
        let GemmShape { m, n, k } = problem.shape;
        let a_bytes = problem.a_shard_bytes(mesh, elem_bytes);
        let b_bytes = problem.b_shard_bytes(mesh, elem_bytes);
        // Worst chip shifts P−1 times in each direction (parallel links).
        let skew = Duration::from_secs(
            self.sendrecv_time(a_bytes.max(b_bytes)).as_secs() * (p as f64 - 1.0),
        );
        let local = GemmShape::new(m / p, n / p, k / p);
        let gemm = self.gemm_time(local);
        let shift = self.sendrecv_time(a_bytes.max(b_bytes));
        let steady = gemm.max(shift);
        Some(skew + Duration::from_secs(steady.as_secs() * (p as f64 - 1.0)) + gemm)
    }

    /// Estimated time of the 1D baselines on a ring of `n` chips.
    ///
    /// `gathered_bytes` is the matrix each chip must collect (activations
    /// for 1D TP, weights for FSDP), rotated bidirectionally over the two
    /// ring links; `per_arrival` is the partial GeMM per received shard.
    pub(crate) fn one_d_time(
        &self,
        n: usize,
        shard_bytes: u64,
        per_arrival: GemmShape,
        unroll: usize,
    ) -> Duration {
        if n <= 1 {
            return self.gemm_time(per_arrival);
        }
        let steps = (n - 1).div_ceil(2) as f64;
        let comm = Duration::from_secs(self.sendrecv_time(shard_bytes).as_secs() * steps);
        let groups = if unroll == 0 || !n.is_multiple_of(unroll) || unroll > n {
            n
        } else {
            unroll
        };
        let merged = GemmShape::new(per_arrival.m * (n / groups), per_arrival.n, per_arrival.k);
        let compute = Duration::from_secs(self.gemm_time(merged).as_secs() * groups as f64);
        comm.max(compute) + self.sendrecv_time(shard_bytes) + self.gemm_time(merged)
    }

    /// Total per-chip communication time of MeshSlice for one problem —
    /// the quantity of Figure 15: the busy time of the chip's links
    /// (overlapped plus non-overlapped), summed over both lanes of every
    /// partial collective.
    pub fn meshslice_comm_time(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        s: usize,
        elem_bytes: usize,
    ) -> Duration {
        let st = self.structure(mesh, problem, elem_bytes);
        let s64 = s as u64;
        let busy = |ring: usize, step_bytes: u64| -> f64 {
            if ring <= 1 {
                return 0.0;
            }
            let steps = (ring - 1) as f64;
            // Two lanes: each pays t_sync per step and carries half the
            // bytes; their busy times add.
            self.cfg.t_launch.as_secs()
                + steps
                    * (2.0 * self.cfg.t_sync.as_secs()
                        + step_bytes as f64 / self.cfg.link_bandwidth)
        };
        let per_iter: f64 = st
            .gathers
            .iter()
            .map(|g| busy(g.ring, g.bytes / s64))
            .chain(st.reduce.map(|r| busy(r.ring, r.bytes / s64)))
            .sum();
        Duration::from_secs(per_iter * s as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(SimConfig::tpu_v4())
    }

    fn os_problem() -> GemmProblem {
        // GPT-3 FF1 forward under weak scaling at 256 chips: comm and
        // compute are comparable, so overlap pays off.
        GemmProblem::new(GemmShape::new(262144, 49152, 12288), Dataflow::Os)
    }

    #[test]
    fn collective_time_is_linear_in_ring_and_bytes() {
        let m = model();
        let base = m.collective_time(2, 1 << 20).as_secs();
        let four = m.collective_time(4, 1 << 20).as_secs();
        // 3 steps vs 1 step, same launch.
        let launch = SimConfig::tpu_v4().t_launch.as_secs();
        assert!(((four - launch) / (base - launch) - 3.0).abs() < 1e-9);
        assert_eq!(m.collective_time(1, 1 << 20), Duration::ZERO);
    }

    #[test]
    fn summa_bcast_costs_more_than_collective_step() {
        let m = model();
        // Same bytes on the same ring: the pipelined bcast pays stage
        // synchronizations and bubbles.
        let coll = m.collective_time(16, 1 << 20);
        let bcast = m.pipelined_bcast_time(16, 15 << 20);
        assert!(bcast > coll);
    }

    #[test]
    fn meshslice_has_an_interior_optimum_in_s() {
        let m = model();
        let mesh = MeshShape::new(32, 8);
        let p = os_problem();
        let t1 = m.meshslice_time(mesh, p, 1, 2);
        let t8 = m.meshslice_time(mesh, p, 8, 2);
        let t64 = m.meshslice_time(mesh, p, 64, 2);
        assert!(t8 < t1, "S=8 {t8} should beat S=1 {t1}");
        assert!(t8 < t64, "S=8 {t8} should beat S=64 {t64}");
    }

    #[test]
    fn meshslice_s1_matches_collective_estimate() {
        let m = model();
        let mesh = MeshShape::new(16, 16);
        let p = os_problem();
        let ms = m.meshslice_time(mesh, p, 1, 2);
        let coll = m.collective_algo_time(mesh, p, 2);
        assert!((ms.as_secs() - coll.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn wang_beats_collective_when_overlap_pays() {
        // With communication comparable to computation, hiding the larger
        // direction behind the GeMMs pays; when communication dominates
        // completely, Wang degenerates to Collective (Figure 12).
        let m = CostModel::new(SimConfig {
            link_bandwidth: 30e9,
            ..SimConfig::tpu_v4()
        });
        let mesh = MeshShape::new(32, 8);
        let p = os_problem();
        let wang = m.wang_time(mesh, p, 8, 2);
        let coll = m.collective_algo_time(mesh, p, 2);
        assert!(wang < coll, "wang {wang} vs collective {coll}");
    }

    #[test]
    fn meshslice_beats_wang_at_tuned_s() {
        let m = model();
        let mesh = MeshShape::new(32, 8);
        let p = os_problem();
        let best_ms = (1..=64)
            .filter(|s| 12288 % (s * 8) == 0)
            .map(|s| m.meshslice_time(mesh, p, s, 2))
            .min()
            .unwrap();
        let best_wang = [1, 2, 4, 8, 16, 32]
            .iter()
            .map(|&u| m.wang_time(mesh, p, u, 2))
            .min()
            .unwrap();
        assert!(best_ms < best_wang, "{best_ms} vs {best_wang}");
    }

    #[test]
    fn summa_sync_overhead_grows_with_mesh() {
        let m = model();
        // Keep per-chip work constant while growing the mesh: SUMMA's
        // relative cost explodes with ring length.
        let p16 = GemmProblem::new(GemmShape::new(4096, 4096, 4096), Dataflow::Os);
        let t_small = m.summa_time(MeshShape::new(4, 4), p16, 16, 2);
        let p256 = GemmProblem::new(GemmShape::new(16384, 16384, 16384), Dataflow::Os);
        let t_big = m.summa_time(MeshShape::new(16, 16), p256, 64, 2);
        let comp_small = m.gemm_time(GemmShape::new(1024, 1024, 4096));
        let comp_big = m.gemm_time(GemmShape::new(1024, 1024, 16384));
        let rel_small = t_small.as_secs() / comp_small.as_secs();
        let rel_big = t_big.as_secs() / comp_big.as_secs();
        assert!(rel_big > rel_small);
    }

    #[test]
    fn cannon_requires_square_os() {
        let m = model();
        assert!(m
            .cannon_time(MeshShape::new(4, 2), os_problem(), 2)
            .is_none());
        let ls = GemmProblem::new(os_problem().shape, Dataflow::Ls);
        assert!(m.cannon_time(MeshShape::new(4, 4), ls, 2).is_none());
        assert!(m
            .cannon_time(MeshShape::new(16, 16), os_problem(), 2)
            .is_some());
    }

    #[test]
    fn one_d_is_comm_bound_at_scale() {
        let m = model();
        // 256-chip ring gathering a 6.4 GB activation matrix.
        let shard = (16384u64 * 2048 / 256) * 12288 * 2 / 256;
        let per = GemmShape::new(16384 * 2048 / 256 / 256, 12288 / 256, 12288);
        let t = m.one_d_time(256, shard, per, 8);
        let compute_total = m.gemm_time(GemmShape::new(16384 * 2048 / 256, 12288 / 256, 12288));
        assert!(t.as_secs() > 2.0 * compute_total.as_secs());
    }

    #[test]
    fn comm_only_estimate_grows_with_slice_count() {
        // Same bytes, more launches and synchronizations: the total
        // communication time (overlapped + exposed) rises with S.
        let m = model();
        let mesh = MeshShape::new(4, 4);
        let p = os_problem();
        let c1 = m.meshslice_comm_time(mesh, p, 1, 2);
        let c8 = m.meshslice_comm_time(mesh, p, 8, 2);
        assert!(c8 > c1);
        assert!(c8.as_secs() > 0.0);
    }
}
