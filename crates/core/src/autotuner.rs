//! The MeshSlice LLM autotuner (§3.2).
//!
//! **Phase 1** picks, for every FC layer, the dataflow that keeps the
//! *largest* of the three matrices stationary, then derives the dataflows
//! of the two backward GeMMs from the same row of Table 1 — so the big
//! matrix never moves, gradients flow the same way as their values, and no
//! transposition is needed between passes. The sharding follows from the
//! dataflow (matrix rows over mesh rows, columns over mesh columns).
//!
//! **Phase 2** co-optimizes the cluster mesh shape and the per-layer slice
//! count `S` with the analytical cost models: an exhaustive search over
//! the (small) space of mesh factorizations and legal slice counts.
//!
//! The autotuner also tunes the baseline algorithms (their own optimal
//! mesh shapes and iteration counts) so the evaluation comparisons are
//! fair, as required by §4.2.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::{Arc, Mutex};

use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, MeshSlice};
use meshslice_mesh::{ChipId, MeshPlane, MeshShape, MeshView, Torus2d, MAX_AXES};
use meshslice_sim::{
    ClusterProfile, Duration, Engine, LoweredProgram, PodProfile, RunScratch, SimConfig, SimReport,
};
use meshslice_telemetry::{percentile, TuneCandidate, TuneLog};
use meshslice_tensor::slice::SliceSpec;
use meshslice_tensor::GemmShape;

use crate::costmodel::CostModel;
use crate::llm::{FcLayer, LlmConfig, Pass, TrainingSetup};
use crate::par;

/// Which matrix of `Y = X·W` stays stationary (the rows of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stationary {
    /// Output-stationary training: fwd `OS`, bwd-data `LS`, bwd-weight `RS`.
    Y,
    /// Input-stationary: fwd `LS`, bwd-data `OS`, bwd-weight `RS` (on
    /// `W'ᵀ`); `W` is stored pre-transposed.
    X,
    /// Weight-stationary: fwd `RS`, bwd-data `LS` (on `X'ᵀ`), bwd-weight
    /// `OS`; `X` is stored pre-transposed.
    W,
}

impl Stationary {
    /// All three rows of Table 1.
    pub const ALL: [Stationary; 3] = [Stationary::Y, Stationary::X, Stationary::W];
}

/// Builds the three training GeMM problems of an FC layer under a chosen
/// stationary matrix, per Table 1.
///
/// `tokens` is `B·S` (the `M` of the forward GeMM); `input_dim`/`output_dim`
/// are the layer's `K` and `N`.
pub fn pass_problems(
    stationary: Stationary,
    tokens: usize,
    input_dim: usize,
    output_dim: usize,
) -> [GemmProblem; 3] {
    let (m, k, n) = (tokens, input_dim, output_dim);
    match stationary {
        // Y = OS(X, W); X' = LS(Y', W); W' = RS(X, Y').
        Stationary::Y => [
            GemmProblem::new(GemmShape::new(m, n, k), Dataflow::Os),
            GemmProblem::new(GemmShape::new(m, k, n), Dataflow::Ls),
            GemmProblem::new(GemmShape::new(k, n, m), Dataflow::Rs),
        ],
        // Y = LS(X, Wᵀ); X' = OS(Y', Wᵀ); W'ᵀ = RS(Y', X).
        Stationary::X => [
            GemmProblem::new(GemmShape::new(m, n, k), Dataflow::Ls),
            GemmProblem::new(GemmShape::new(m, k, n), Dataflow::Os),
            GemmProblem::new(GemmShape::new(n, k, m), Dataflow::Rs),
        ],
        // Y = RS(Xᵀ, W); X'ᵀ = LS(W, Y'); W' = OS(Xᵀ, Y').
        Stationary::W => [
            GemmProblem::new(GemmShape::new(m, n, k), Dataflow::Rs),
            GemmProblem::new(GemmShape::new(k, m, n), Dataflow::Ls),
            GemmProblem::new(GemmShape::new(k, n, m), Dataflow::Os),
        ],
    }
}

/// Phase-1 choice: the stationary matrix is the largest of `X`
/// (`tokens × in`), `W` (`in × out`), and `Y` (`tokens × out`).
pub fn choose_stationary(tokens: usize, input_dim: usize, output_dim: usize) -> Stationary {
    let x = tokens as u64 * input_dim as u64;
    let w = input_dim as u64 * output_dim as u64;
    let y = tokens as u64 * output_dim as u64;
    if y >= x && y >= w {
        Stationary::Y
    } else if x >= w {
        Stationary::X
    } else {
        Stationary::W
    }
}

/// The tuned plan of one training GeMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassPlan {
    /// Which pass this is.
    pub pass: Pass,
    /// The distributed GeMM problem (shape + dataflow).
    pub problem: GemmProblem,
    /// The tuned MeshSlice slice count `S`.
    pub slice_count: usize,
}

/// The tuned plan of one FC layer: dataflow row + per-pass slice counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerPlan {
    /// The FC layer.
    pub layer: FcLayer,
    /// Which matrix stays stationary (Table 1 row).
    pub stationary: Stationary,
    /// The three passes in order fwd, bwd-data, bwd-weight.
    pub passes: [PassPlan; 3],
}

/// The full autotuner output for a cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct TunePlan {
    /// The chosen mesh shape.
    pub mesh_shape: MeshShape,
    /// Per-layer plans (four FC layers).
    pub layers: Vec<LayerPlan>,
    /// Estimated FC time of one transformer block (all twelve GeMMs).
    pub estimated_block_time: Duration,
}

/// The autotuner's placement of MeshSlice onto one 2D plane of an N-D
/// pod: which plane won, how its chips map to the logical torus, and the
/// tuned per-layer plans.
#[derive(Clone, Debug, PartialEq)]
pub struct PodTunePlan {
    /// The winning plane (spanning axes + fixed coordinates).
    pub plane: MeshPlane,
    /// The logical 2D mesh shape MeshSlice runs on.
    pub mesh_shape: MeshShape,
    /// `physical_chips[i]` is the pod chip playing logical chip `i`.
    pub physical_chips: Vec<ChipId>,
    /// Per-layer plans (four FC layers), tuned on the logical mesh.
    pub layers: Vec<LayerPlan>,
    /// Analytical fault-free FC block time on the logical mesh.
    pub estimated_block_time: Duration,
    /// Simulated FC block time under the plane's projected fault profile —
    /// the quantity planes are ranked by.
    pub simulated_block_time: Duration,
}

/// The MeshSlice LLM autotuner.
///
/// # Example
///
/// ```
/// use meshslice::autotuner::Autotuner;
/// use meshslice::llm::{LlmConfig, TrainingSetup};
/// use meshslice_sim::SimConfig;
///
/// let tuner = Autotuner::new(SimConfig::tpu_v4());
/// let plan = tuner.tune(&LlmConfig::gpt3(), TrainingSetup::weak_scaling(32), 32);
/// assert_eq!(plan.layers.len(), 4);
/// assert!(plan.layers.iter().all(|l| l.passes.iter().all(|p| p.slice_count >= 1)));
/// ```
#[derive(Clone, Debug)]
pub struct Autotuner {
    cost: CostModel,
    block: usize,
    max_slice_count: usize,
}

impl Autotuner {
    /// Creates an autotuner over a hardware configuration, with the TPU
    /// block size (`B = 8`) and a slice-count cap of 64.
    pub fn new(cfg: SimConfig) -> Self {
        Autotuner {
            cost: CostModel::new(cfg),
            block: 8,
            max_slice_count: 64,
        }
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The slicing block size `B`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Candidate mesh shapes for a chip count: every factorization with
    /// both dimensions at least 2 (a physical torus needs distinct wrap
    /// links), falling back to all factorizations for tiny clusters.
    pub fn candidate_meshes(chips: usize) -> Vec<MeshShape> {
        let min2 = MeshShape::factorizations_min(chips, 2);
        if min2.is_empty() {
            MeshShape::factorizations(chips)
        } else {
            min2
        }
    }

    /// N-D candidate mesh shapes for a chip count: every factorization of
    /// rank `2..=max_rank` (capped at [`MAX_AXES`]) whose axes are all at
    /// least 2, in (rank, lexicographic) order. The rank-2 prefix is
    /// exactly [`candidate_meshes`](Self::candidate_meshes), so `max_rank
    /// = 2` degenerates to the 2D search space; higher ranks append the
    /// genuinely N-D pod shapes (e.g. `4x4x4` for 64 chips).
    pub fn candidate_meshes_nd(chips: usize, max_rank: usize) -> Vec<MeshShape> {
        let cap = max_rank.clamp(2, MAX_AXES);
        let mut out = Vec::new();
        for rank in 2..=cap {
            let shapes = MeshShape::factorizations_nd(chips, rank).unwrap_or_default();
            out.extend(
                shapes
                    .into_iter()
                    .filter(|s| s.axes().iter().all(|a| a.size() >= 2)),
            );
        }
        if out.is_empty() {
            Self::candidate_meshes(chips)
        } else {
            out
        }
    }

    /// The legal MeshSlice slice counts of a problem on a mesh: divisors
    /// of both sliced extents over the block size, capped.
    pub fn legal_slice_counts(&self, mesh: MeshShape, problem: GemmProblem) -> Vec<usize> {
        let (e1, e2) = sliced_extents(mesh, problem);
        let s1 = SliceSpec::legal_slice_counts(e1, self.block);
        let s2 = SliceSpec::legal_slice_counts(e2, self.block);
        s1.into_iter()
            .filter(|s| *s <= self.max_slice_count && s2.contains(s))
            .collect()
    }

    /// The MeshSlice instance a requested slice count runs as on a mesh —
    /// the one owner of the clamp-and-block rule every simulation path
    /// shares: `S` is the largest legal count not above `requested_s`
    /// (else 1, the collective fallback), at the autotuner's block size
    /// where that `S` is legal and at block 1 otherwise. Tuned counts are
    /// legal or 1, so they pass through unchanged.
    pub fn meshslice_for(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        requested_s: usize,
    ) -> MeshSlice {
        let legal = self.legal_slice_counts(mesh, problem);
        let s = legal
            .iter()
            .copied()
            .filter(|&s| s <= requested_s)
            .max()
            .unwrap_or(1);
        let block = if legal.contains(&s) { self.block } else { 1 };
        MeshSlice::new(s, block)
    }

    /// Tunes the slice count of one problem on one mesh; returns
    /// `(S, estimated time)`.
    ///
    /// Falls back to `S = 1` when no slice count is legal (e.g. extents
    /// not divisible by the block size), matching MeshSlice's collective
    /// fallback.
    pub fn best_slice_count(
        &self,
        mesh: MeshShape,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> (usize, Duration) {
        let mut best = (1, self.cost.meshslice_time(mesh, problem, 1, elem_bytes));
        for s in self.legal_slice_counts(mesh, problem) {
            let t = self.cost.meshslice_time(mesh, problem, s, elem_bytes);
            if t < best.1 {
                best = (s, t);
            }
        }
        best
    }

    /// Phase 1: the stationary choice of every FC layer.
    pub fn phase1(&self, model: &LlmConfig, setup: TrainingSetup) -> Vec<(FcLayer, Stationary)> {
        Self::layer_problems(model, setup, None)
            .into_iter()
            .map(|(layer, stationary, _)| (layer, stationary))
            .collect()
    }

    /// Runs both phases: dataflow selection, then mesh-shape and
    /// slice-count co-optimization over all candidate meshes.
    ///
    /// # Panics
    ///
    /// Panics if no candidate mesh divides the model's FC GeMMs (cannot
    /// happen for power-of-two clusters and standard LLM dimensions).
    pub fn tune(&self, model: &LlmConfig, setup: TrainingSetup, chips: usize) -> TunePlan {
        self.tune_with(model, setup, chips, None)
    }

    /// Like [`tune`](Self::tune), but rejecting mesh shapes whose per-chip
    /// training memory footprint (weights, gradients, optimizer state,
    /// checkpointed activations, and MeshSlice workspace) exceeds
    /// `hbm_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if no candidate mesh fits the budget.
    pub fn tune_within_memory(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        chips: usize,
        hbm_capacity: u64,
    ) -> TunePlan {
        let layer_problems = Self::layer_problems(model, setup, None);
        Self::candidate_meshes(chips)
            .into_iter()
            .filter(|&mesh| {
                crate::memory::training_footprint(model, setup, mesh, 8).total() <= hbm_capacity
            })
            .filter_map(|mesh| self.plan_on_mesh(&layer_problems, mesh))
            .min_by_key(|plan| plan.estimated_block_time)
            .expect("no mesh shape fits the per-chip memory budget")
    }

    /// Like [`tune`](Self::tune), but forcing one Table-1 row for every
    /// layer (the "not optimized" Y-stationary configuration of Table 2).
    pub(crate) fn tune_forced(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        chips: usize,
        stationary: Stationary,
    ) -> TunePlan {
        self.tune_with(model, setup, chips, Some(stationary))
    }

    /// The per-layer (stationary, three pass problems) of a model under a
    /// training setup — invariant across candidate meshes, so tune loops
    /// compute it once instead of once per mesh.
    fn layer_problems(
        model: &LlmConfig,
        setup: TrainingSetup,
        force: Option<Stationary>,
    ) -> Vec<(FcLayer, Stationary, [GemmProblem; 3])> {
        model
            .fc_layers()
            .into_iter()
            .map(|layer| {
                let stationary = force.unwrap_or(choose_stationary(
                    setup.tokens(),
                    layer.input_dim,
                    layer.output_dim,
                ));
                let problems = pass_problems(
                    stationary,
                    setup.tokens(),
                    layer.input_dim,
                    layer.output_dim,
                );
                (layer, stationary, problems)
            })
            .collect()
    }

    fn tune_with(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        chips: usize,
        force: Option<Stationary>,
    ) -> TunePlan {
        let layer_problems = Self::layer_problems(model, setup, force);
        Self::candidate_meshes(chips)
            .into_iter()
            .filter_map(|mesh| self.plan_on_mesh(&layer_problems, mesh))
            .min_by_key(|plan| plan.estimated_block_time)
            .expect("no feasible mesh shape for this model and chip count")
    }

    /// Estimates the FC block time of a [`TunePlan`] on a *different* mesh
    /// shape (used by the Figure 13 sweep).
    pub fn estimate_on_mesh(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        mesh: MeshShape,
    ) -> Option<(Duration, Vec<LayerPlan>)> {
        let plan = self.plan_on_mesh(&Self::layer_problems(model, setup, None), mesh)?;
        Some((plan.estimated_block_time, plan.layers))
    }

    /// The per-mesh analytic evaluator behind every search: tunes each
    /// pass's slice count on `mesh` and sums the estimated block time.
    /// `None` if any pass does not divide over the mesh.
    fn plan_on_mesh(
        &self,
        layer_problems: &[(FcLayer, Stationary, [GemmProblem; 3])],
        mesh: MeshShape,
    ) -> Option<TunePlan> {
        let eb = self.cost.config().elem_bytes;
        let mut total = Duration::ZERO;
        let mut layers = Vec::new();
        // Mirrored layers repeat problems: tune each distinct problem's
        // slice count once per mesh, not once per layer pass.
        let mut best_memo: Vec<(GemmProblem, (usize, Duration))> = Vec::new();
        for &(layer, stationary, problems) in layer_problems {
            let mut passes = Vec::new();
            for (pass, problem) in Pass::ALL.into_iter().zip(problems) {
                problem.check_divisible(mesh).ok()?;
                let (s, t) = match best_memo.iter().find(|(p, _)| *p == problem) {
                    Some(&(_, hit)) => hit,
                    None => {
                        let computed = self.best_slice_count(mesh, problem, eb);
                        best_memo.push((problem, computed));
                        computed
                    }
                };
                total += t;
                passes.push(PassPlan {
                    pass,
                    problem,
                    slice_count: s,
                });
            }
            layers.push(LayerPlan {
                layer,
                stationary,
                passes: [passes[0], passes[1], passes[2]],
            });
        }
        Some(TunePlan {
            mesh_shape: mesh,
            layers,
            estimated_block_time: total,
        })
    }

    /// Tunes MeshSlice onto an N-D pod: enumerates every 2D plane of the
    /// pod ([`MeshView::planes`]), projects the pod's fault condition onto
    /// each plane ([`PodProfile::project`]), tunes dataflows and slice
    /// counts on the plane's logical mesh, and *simulates* the FC block
    /// under the plane-local profile — so the tuner steers MeshSlice away
    /// from planes containing stragglers or degraded links. Planes are
    /// ranked by simulated block time; ties keep the first plane in
    /// enumeration order, so the result is deterministic.
    ///
    /// Planes are candidates of one [`simulated_search`] keyed by (logical
    /// mesh shape, projected profile): the block is simulated once per
    /// distinct key (every clean plane of a shape projects to the same
    /// ideal profile), and congruent planes share its lowered programs
    /// through the search's [`SpecMemo`]. The plan is bit-for-bit the one
    /// tuning each plane afresh gives.
    ///
    /// On an ideal pod every congruent plane prices identically and the
    /// winner is simply the best plane *shape* (e.g. the 4×4 planes of a
    /// 4×4×2 pod beat the 4×2 ones for square GeMMs).
    ///
    /// Returns `None` if no plane divides the model's FC GeMMs.
    pub fn tune_pod(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        pod: &PodProfile,
    ) -> Option<PodTunePlan> {
        let planes: Vec<_> = MeshView::full(pod.shape())
            .planes()
            .into_iter()
            .filter_map(|plane| Some((pod.project(&plane.view).ok()?, plane)))
            .collect();
        let keys: Vec<(MeshShape, &ClusterProfile)> = planes
            .iter()
            .map(|(assign, _)| (assign.torus.shape(), &assign.profile))
            .collect();
        let ranked = simulated_search(
            self.cost.config(),
            1,
            &keys,
            |&(mesh_shape, profile), memo, scratch| {
                let (analytic, layers) = self.estimate_on_mesh(model, setup, mesh_shape)?;
                let block = self.meshslice_block(memo, mesh_shape, plan_passes(&layers))?;
                Some((
                    block.run(Some(profile), scratch).makespan(),
                    analytic,
                    layers,
                ))
            },
            |a, b| a.0.cmp(&b.0),
        );
        let (i, (simulated, analytic, layers)) = ranked.into_iter().next()?;
        let (assign, plane) = planes.into_iter().nth(i)?;
        Some(PodTunePlan {
            plane,
            mesh_shape: assign.torus.shape(),
            physical_chips: assign.physical,
            layers,
            estimated_block_time: analytic,
            simulated_block_time: simulated,
        })
    }

    /// Phase 2 on a fixed mesh, with full cost-model attribution: every
    /// legal slice count of every FC pass is priced analytically *and*
    /// simulated, and both numbers land in a [`TuneLog`] — the paper's
    /// Figure 15 predicted-vs-measured error analysis as a queryable
    /// artifact. The chosen candidate per pass is the analytical argmin,
    /// exactly matching [`best_slice_count`](Self::best_slice_count).
    ///
    /// Candidates are keyed by (problem, S) in one [`simulated_search`]:
    /// mirrored layers log the same simulation under different labels, and
    /// the search runs it once on `threads` workers and places it by index,
    /// so the log is in candidate order and identical at any thread count.
    ///
    /// Returns `None` if any pass does not divide over the mesh.
    pub fn tune_on_mesh_logged(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        mesh_shape: MeshShape,
        threads: usize,
    ) -> Option<(Vec<LayerPlan>, TuneLog)> {
        let eb = self.cost.config().elem_bytes;
        let (_, layers) = self.estimate_on_mesh(model, setup, mesh_shape)?;
        // Every logged candidate: each pass's legal slice counts plus the
        // S = 1 fallback, with its label and whether the plan chose it.
        let mut keys: Vec<(GemmProblem, usize)> = Vec::new();
        let mut labels: Vec<(String, bool)> = Vec::new();
        for layer in &layers {
            for plan in &layer.passes {
                let mut candidates = self.legal_slice_counts(mesh_shape, plan.problem);
                if !candidates.contains(&1) {
                    candidates.insert(0, 1);
                }
                for s in candidates {
                    keys.push((plan.problem, s));
                    labels.push((
                        format!("{}/{}", layer.layer.name, plan.pass),
                        s == plan.slice_count,
                    ));
                }
            }
        }
        let sims = simulated_search(
            self.cost.config(),
            threads,
            &keys,
            |&(problem, s), memo, scratch| {
                let block = self.meshslice_block(memo, mesh_shape, [(problem, s)])?;
                Some(block.run(None, scratch))
            },
            |_, _| Ordering::Equal,
        );
        if sims.len() < keys.len() {
            return None;
        }
        let mut log = TuneLog::default();
        for ((i, report), (label, chosen)) in sims.into_iter().zip(labels) {
            let (problem, s) = keys[i];
            log.push(TuneCandidate {
                mesh_rows: mesh_shape.rows(),
                mesh_cols: mesh_shape.cols(),
                label,
                dataflow: problem.dataflow.to_string(),
                slice_count: s,
                predicted: self
                    .cost
                    .meshslice_time(mesh_shape, problem, s, eb)
                    .as_secs(),
                simulated: report.makespan().as_secs(),
                predicted_comm: self
                    .cost
                    .meshslice_comm_time(mesh_shape, problem, s, eb)
                    .as_secs(),
                simulated_comm: report.totals().comm_total().as_secs(),
                chosen,
            });
        }
        Some((layers, log))
    }

    /// Simulates one transformer block's twelve FC GeMMs with MeshSlice at
    /// a requested slice count (clamped per pass to the largest legal
    /// value), serially merged. Returns `None` if any pass does not divide
    /// over the mesh.
    ///
    /// The simulation runs under `cfg`, which may carry a
    /// [`ClusterProfile`] — this is the primitive the robustness-aware
    /// tuning scores candidates with.
    pub fn simulate_block(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        mesh_shape: MeshShape,
        requested_s: usize,
        cfg: &SimConfig,
    ) -> Option<SimReport> {
        let memo = SpecMemo::new(cfg.clone());
        let block = self.fc_block(&memo, model, setup, mesh_shape, requested_s)?;
        Some(block.run(None, &mut RunScratch::new()))
    }

    /// Simulates the twelve FC GeMMs of tuned layer plans on a mesh under
    /// `cfg`, each pass scheduled at its tuned slice count (see
    /// [`meshslice_for`](Self::meshslice_for)) and the reports serially
    /// merged — bit-for-bit the per-pass `Engine::run` + `merge_serial`
    /// loop. `None` if a pass does not divide over the mesh or fails to
    /// schedule.
    pub fn simulate_plan(
        &self,
        mesh_shape: MeshShape,
        layers: &[LayerPlan],
        cfg: &SimConfig,
    ) -> Option<SimReport> {
        let memo = SpecMemo::new(cfg.clone());
        let block = self.meshslice_block(&memo, mesh_shape, plan_passes(layers))?;
        Some(block.run(None, &mut RunScratch::new()))
    }

    /// One FC block at a uniform requested slice count, lowered through
    /// `memo` (see [`meshslice_block`](Self::meshslice_block)). `None` if
    /// a pass does not divide over the mesh.
    pub fn fc_block(
        &self,
        memo: &SpecMemo,
        model: &LlmConfig,
        setup: TrainingSetup,
        mesh_shape: MeshShape,
        requested_s: usize,
    ) -> Option<LoweredBlock> {
        let passes = Self::layer_problems(model, setup, None)
            .into_iter()
            .flat_map(|(_, _, problems)| problems.map(|p| (p, requested_s)));
        self.meshslice_block(memo, mesh_shape, passes)
    }

    /// Lowers `(problem, requested slice count)` passes on a mesh through
    /// `memo`, each run as the MeshSlice instance
    /// [`meshslice_for`](Self::meshslice_for) picks. `None` if a pass does
    /// not divide over the mesh or fails to schedule.
    pub fn meshslice_block(
        &self,
        memo: &SpecMemo,
        mesh_shape: MeshShape,
        passes: impl IntoIterator<Item = (GemmProblem, usize)>,
    ) -> Option<LoweredBlock> {
        let passes = passes
            .into_iter()
            .map(|(problem, requested_s)| {
                problem.check_divisible(mesh_shape).ok()?;
                Some((
                    problem,
                    self.meshslice_for(mesh_shape, problem, requested_s),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        memo.block(mesh_shape, &passes)
    }

    /// Robustness-aware phase 2: scores every (mesh shape, slice count)
    /// candidate by *simulating* the FC block under each perturbation
    /// profile and ranking by the chosen objective, instead of trusting
    /// the fault-free analytical model.
    ///
    /// Dataflows still come from phase 1; `s_values` is the requested
    /// slice-count grid (clamped per pass). Candidates are scored by one
    /// [`simulated_search`] on `threads` workers, so the plan is identical
    /// at any thread count. Candidates are returned sorted, best first.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or no candidate is feasible.
    #[allow(clippy::too_many_arguments)]
    pub fn tune_robust_threads(
        &self,
        model: &LlmConfig,
        setup: TrainingSetup,
        chips: usize,
        s_values: &[usize],
        profiles: &[ClusterProfile],
        objective: RobustObjective,
        threads: usize,
    ) -> RobustPlan {
        assert!(
            !profiles.is_empty(),
            "robust tuning needs at least one perturbation draw"
        );
        let candidates: Vec<RobustCandidate> = simulated_search(
            self.cost.config(),
            threads,
            &Self::mesh_slice_grid(chips, s_values),
            |&(mesh_shape, s), memo, scratch| {
                let block = self.fc_block(memo, model, setup, mesh_shape, s)?;
                let (nominal, per_draw) = block.makespans(profiles, scratch);
                Some(RobustCandidate {
                    mesh_shape,
                    requested_s: s,
                    nominal,
                    score: objective.score(&per_draw),
                    per_draw,
                })
            },
            |a, b| {
                a.score
                    .cmp(&b.score)
                    .then(a.nominal.cmp(&b.nominal))
                    .then(a.requested_s.cmp(&b.requested_s))
            },
        )
        .into_iter()
        .map(|(_, c)| c)
        .collect();
        assert!(
            !candidates.is_empty(),
            "no feasible (mesh, slice count) candidate for this model"
        );
        RobustPlan {
            objective,
            candidates,
        }
    }

    /// The (mesh shape, requested slice count) grid of the simulated
    /// tuners: every [`candidate_meshes`](Self::candidate_meshes) shape
    /// crossed with `s_values`, meshes outer.
    pub fn mesh_slice_grid(chips: usize, s_values: &[usize]) -> Vec<(MeshShape, usize)> {
        Self::candidate_meshes(chips)
            .into_iter()
            .flat_map(|mesh| s_values.iter().map(move |&s| (mesh, s)))
            .collect()
    }
}

/// How [`Autotuner::tune_robust_threads`] aggregates per-draw makespans into one
/// candidate score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobustObjective {
    /// Worst-case makespan across draws.
    Worst,
    /// 95th-percentile makespan across draws.
    P95,
    /// Mean makespan across draws.
    Mean,
}

impl RobustObjective {
    /// Aggregates a non-empty sample of makespans.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn score(&self, samples: &[Duration]) -> Duration {
        assert!(!samples.is_empty(), "cannot score zero samples");
        match self {
            RobustObjective::Worst => *samples.iter().max().expect("non-empty"),
            RobustObjective::Mean => Duration::from_secs(
                samples.iter().map(|d| d.as_secs()).sum::<f64>() / samples.len() as f64,
            ),
            RobustObjective::P95 => {
                let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs()).collect();
                secs.sort_by(f64::total_cmp);
                Duration::from_secs(percentile(&secs, 0.95))
            }
        }
    }

    /// Short label (for tables and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            RobustObjective::Worst => "worst",
            RobustObjective::P95 => "p95",
            RobustObjective::Mean => "mean",
        }
    }
}

/// One scored (mesh shape, slice count) candidate of a robust tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustCandidate {
    /// The candidate mesh shape.
    pub mesh_shape: MeshShape,
    /// The requested slice count (clamped per pass when simulating).
    pub requested_s: usize,
    /// Simulated fault-free FC block makespan.
    pub nominal: Duration,
    /// The objective's aggregate over the perturbation draws.
    pub score: Duration,
    /// Simulated makespan under each draw, in profile order.
    pub per_draw: Vec<Duration>,
}

impl RobustCandidate {
    /// The candidate's slowdown under perturbation relative to its own
    /// fault-free makespan (`score / nominal`, `>= 1` in practice).
    pub fn degradation(&self) -> f64 {
        self.score.as_secs() / self.nominal.as_secs()
    }
}

/// The result of [`Autotuner::tune_robust_threads`]: all feasible candidates,
/// scored and sorted (best first).
#[derive(Clone, Debug, PartialEq)]
pub struct RobustPlan {
    /// The objective candidates were ranked by.
    pub objective: RobustObjective,
    /// Scored candidates, best first.
    pub candidates: Vec<RobustCandidate>,
}

impl RobustPlan {
    /// The winning candidate.
    pub fn best(&self) -> &RobustCandidate {
        &self.candidates[0]
    }
}

/// The lowered-spec memo of one simulated search: maps (mesh shape,
/// problem, algorithm) to the [`LoweredProgram`] its schedule lowers to
/// under the memo's [`SimConfig`], so every candidate, plane, severity row
/// or cost-table bucket that repeats a spec schedules and lowers it once.
/// Lowering does not depend on [`SimConfig::faults`], so one memo serves
/// runs under any fault profile, and a hit returns the program a fresh
/// lowering builds — results are unchanged bit for bit.
///
/// A memo lives for one [`simulated_search`] call or one serving
/// cost-table cache, never longer. It is `Sync`: every worker of a search
/// shares it.
pub struct SpecMemo<A = MeshSlice> {
    cfg: SimConfig,
    lowered: Mutex<HashMap<(MeshShape, GemmProblem, A), Arc<LoweredProgram>>>,
    hits: AtomicUsize,
    builds: AtomicUsize,
}

impl<A: DistributedGemm + Clone + Eq + Hash> SpecMemo<A> {
    /// An empty memo lowering under `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        SpecMemo {
            cfg,
            lowered: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
        }
    }

    /// `(hits, builds)`: lookups served from the memo, and specs lowered
    /// afresh (including the losers of insert races).
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(atomic::Ordering::Relaxed),
            self.builds.load(atomic::Ordering::Relaxed),
        )
    }

    /// The [`LoweredBlock`] of a `(problem, algorithm)` pass list on a
    /// mesh: each distinct spec looked up in (or scheduled and lowered
    /// into) the memo. `None` if a pass fails to schedule; failures are
    /// not memoized.
    pub fn block(
        &self,
        mesh_shape: MeshShape,
        passes: &[(GemmProblem, A)],
    ) -> Option<LoweredBlock> {
        let (distinct, slot_of) = dedup_slots(passes);
        let engine = Engine::new(Torus2d::from_shape(mesh_shape), self.cfg.clone());
        let lowered = distinct
            .into_iter()
            .map(|(problem, algo)| self.lowered(&engine, *problem, algo))
            .collect::<Option<_>>()?;
        Some(LoweredBlock {
            engine,
            lowered,
            slot_of,
        })
    }

    fn lowered(
        &self,
        engine: &Engine,
        problem: GemmProblem,
        algo: &A,
    ) -> Option<Arc<LoweredProgram>> {
        let key = (engine.mesh().shape(), problem, algo.clone());
        if let Some(hit) = self.lowered.lock().expect("spec memo poisoned").get(&key) {
            self.hits.fetch_add(1, atomic::Ordering::Relaxed);
            return Some(hit.clone());
        }
        // Schedule and lower outside the lock: that is the expensive
        // part, and a duplicate build under a race is the same program.
        let program = algo
            .schedule(engine.mesh(), problem, self.cfg.elem_bytes)
            .ok()?;
        let lowered = Arc::new(engine.lower_program(&program));
        self.builds.fetch_add(1, atomic::Ordering::Relaxed);
        let mut memo = self.lowered.lock().expect("spec memo poisoned");
        Some(memo.entry(key).or_insert(lowered).clone())
    }
}

/// One pass list on one mesh, each *distinct* spec lowered once through
/// a [`SpecMemo`]. Identical programs under an identical config produce
/// identical reports, so each distinct report is fanned out to every
/// pass that repeats it (mirrored layers repeat specs).
///
/// This is the one "schedule → lower → run → merge serially" path: every
/// simulated search, the block simulators, the serving cost tables and
/// [`simulate_fc_step`](crate::training::simulate_fc_step) for all seven
/// GeMM families go through it.
pub struct LoweredBlock {
    /// Engine on the block's mesh under the memo's config.
    engine: Engine,
    /// The lowered program of each distinct spec, in first-appearance order.
    lowered: Vec<Arc<LoweredProgram>>,
    /// `slot_of[i]` indexes `lowered` for the block's `i`-th pass.
    slot_of: Vec<usize>,
}

impl LoweredBlock {
    /// Runs each distinct program under `faults` (the memo config's own
    /// profile if `None`), recycling run state through `scratch`, and
    /// merges the full pass list serially: bit-for-bit the per-pass
    /// `Engine::run` + [`SimReport::merge_serial`] loop.
    pub fn run(&self, faults: Option<&ClusterProfile>, scratch: &mut RunScratch) -> SimReport {
        let faulted = faults.map(|p| self.engine.with_faults(p.clone()));
        let engine = faulted.as_ref().unwrap_or(&self.engine);
        let distinct: Vec<SimReport> = self
            .lowered
            .iter()
            .map(|l| engine.run_lowered_with_scratch(l, scratch))
            .collect();
        let reports: Vec<SimReport> = self.slot_of.iter().map(|&k| distinct[k].clone()).collect();
        SimReport::merge_serial(&reports)
    }

    /// The block's makespan under the memo's config, and under each of
    /// `profiles` in order.
    pub fn makespans(
        &self,
        profiles: &[ClusterProfile],
        scratch: &mut RunScratch,
    ) -> (Duration, Vec<Duration>) {
        let nominal = self.run(None, scratch).makespan();
        let per_draw = profiles
            .iter()
            .map(|p| self.run(Some(p), scratch).makespan())
            .collect();
        (nominal, per_draw)
    }
}

/// The one simulated search loop. `keys` are the enumerated candidates,
/// `score` prices one of them with the search's [`SpecMemo`] (lowering
/// under `cfg`) and a worker's [`RunScratch`] — `None` if it is
/// infeasible — and `rank` totally orders the scores.
///
/// Each distinct key is scored once on `threads` workers (one scratch
/// each, one memo for all), and its score is placed at the index of every
/// key that repeats it, so the outcome is identical at any thread count.
/// Infeasible candidates are dropped and the rest sorted stably by `rank`:
/// the result is `(candidate index, score)` pairs, best first.
pub fn simulated_search<K, R>(
    cfg: &SimConfig,
    threads: usize,
    keys: &[K],
    score: impl Fn(&K, &SpecMemo, &mut RunScratch) -> Option<R> + Sync,
    rank: impl Fn(&R, &R) -> Ordering,
) -> Vec<(usize, R)>
where
    K: PartialEq + Sync,
    R: Clone + Send,
{
    let (distinct, slot_of) = dedup_slots(keys);
    let memo = SpecMemo::new(cfg.clone());
    let scores = par::parallel_map_with(threads, &distinct, RunScratch::new, |scratch, key| {
        score(key, &memo, scratch)
    });
    let mut ranked: Vec<(usize, R)> = slot_of
        .into_iter()
        .enumerate()
        .filter_map(|(i, k)| Some((i, scores[k].clone()?)))
        .collect();
    ranked.sort_by(|a, b| rank(&a.1, &b.1));
    ranked
}

/// The `(problem, tuned slice count)` passes of layer plans, in order.
fn plan_passes(layers: &[LayerPlan]) -> impl Iterator<Item = (GemmProblem, usize)> + '_ {
    layers
        .iter()
        .flat_map(|l| l.passes.map(|p| (p.problem, p.slice_count)))
}

/// Simulates a `(problem, algorithm)` pass list once under `cfg` through
/// a fresh memo's [`LoweredBlock`]. `None` if a pass fails to schedule.
pub(crate) fn simulate_passes<A: DistributedGemm + Clone + Eq + Hash>(
    mesh_shape: MeshShape,
    passes: impl IntoIterator<Item = (GemmProblem, A)>,
    cfg: &SimConfig,
) -> Option<SimReport> {
    let passes: Vec<_> = passes.into_iter().collect();
    let block = SpecMemo::new(cfg.clone()).block(mesh_shape, &passes)?;
    Some(block.run(None, &mut RunScratch::new()))
}

/// Splits a list into its distinct elements, in first-appearance order,
/// and each element's slot among them. Quadratic, for short lists.
fn dedup_slots<T: PartialEq>(items: &[T]) -> (Vec<&T>, Vec<usize>) {
    let mut distinct: Vec<&T> = Vec::new();
    let slot_of = items
        .iter()
        .map(|item| match distinct.iter().position(|d| *d == item) {
            Some(k) => k,
            None => {
                distinct.push(item);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, slot_of)
}

/// The two local extents MeshSlice slices, per dataflow (mirrors
/// `MeshSlice::check` in `meshslice-gemm`).
fn sliced_extents(mesh: MeshShape, problem: GemmProblem) -> (usize, usize) {
    let GemmShape { m, n, k } = problem.shape;
    match problem.dataflow {
        Dataflow::Os => (k / mesh.cols(), k / mesh.rows()),
        Dataflow::Ls => (n / mesh.rows(), n / mesh.cols()),
        Dataflow::Rs => (m / mesh.cols(), m / mesh.rows()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_have_the_right_dataflows() {
        let [fwd, bd, bw] = pass_problems(Stationary::Y, 64, 8, 16);
        assert_eq!(fwd.dataflow, Dataflow::Os);
        assert_eq!(bd.dataflow, Dataflow::Ls);
        assert_eq!(bw.dataflow, Dataflow::Rs);
        // All three passes perform the same FLOPs.
        assert_eq!(fwd.shape.flops(), bd.shape.flops());
        assert_eq!(fwd.shape.flops(), bw.shape.flops());
        for st in Stationary::ALL {
            let ps = pass_problems(st, 64, 8, 16);
            assert!(ps.iter().all(|p| p.shape.flops() == fwd.shape.flops()));
        }
    }

    #[test]
    fn largest_matrix_becomes_stationary() {
        // Y (tokens x out) largest.
        assert_eq!(choose_stationary(1000, 10, 100), Stationary::Y);
        // X (tokens x in) largest.
        assert_eq!(choose_stationary(1000, 100, 10), Stationary::X);
        // W (in x out) largest.
        assert_eq!(choose_stationary(4, 1000, 1000), Stationary::W);
    }

    #[test]
    fn llm_layers_prefer_stationary_activations_at_large_batch() {
        // With weak scaling at 256 chips, tokens >> H, so X or Y dominates.
        let model = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(256);
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        for (layer, st) in tuner.phase1(&model, setup) {
            assert_ne!(
                st,
                Stationary::W,
                "layer {} should not be W-stationary",
                layer.name
            );
        }
    }

    #[test]
    fn candidate_meshes_exclude_rings() {
        let meshes = Autotuner::candidate_meshes(256);
        assert!(meshes.iter().all(|m| m.rows() >= 2 && m.cols() >= 2));
        assert_eq!(meshes.len(), 7); // 2x128 ... 128x2
    }

    #[test]
    fn candidate_meshes_nd_degenerates_to_2d() {
        assert_eq!(
            Autotuner::candidate_meshes_nd(256, 2),
            Autotuner::candidate_meshes(256)
        );
        // Higher ranks keep the 2D shapes as a prefix and append N-D ones.
        let nd = Autotuner::candidate_meshes_nd(64, 3);
        let d2 = Autotuner::candidate_meshes(64);
        assert_eq!(&nd[..d2.len()], &d2[..]);
        let pod = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 4)]).unwrap();
        assert!(nd.contains(&pod));
        assert!(nd.iter().all(|m| m.axes().iter().all(|a| a.size() >= 2)));
        // All shapes multiply out to the chip count and none repeat.
        assert!(nd.iter().all(|m| m.num_chips() == 64));
        let mut dedup = nd.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), nd.len());
    }

    #[test]
    fn tune_pod_prefers_a_clean_plane() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = tiny();
        let setup = TrainingSetup::weak_scaling(4);
        let shape = MeshShape::nd(&[("x", 2), ("y", 2), ("z", 2)]).unwrap();
        // Chip (0,0,0) is a 4x straggler: every plane through it loses.
        let pod = PodProfile::ideal(shape).with_compute_slowdown(meshslice_mesh::ChipId(0), 4.0);
        let plan = tuner.tune_pod(&model, setup, &pod).unwrap();
        assert_eq!(plan.layers.len(), 4);
        assert_eq!(plan.mesh_shape.num_chips(), 4);
        assert!(
            !plan.physical_chips.contains(&meshslice_mesh::ChipId(0)),
            "winner {} should avoid the straggler",
            plan.plane
        );
        // The clean plane simulates strictly faster than any plane through
        // the straggler.
        let through: Vec<_> = MeshView::full(shape)
            .planes()
            .into_iter()
            .filter(|p| p.view.chips().contains(&meshslice_mesh::ChipId(0)))
            .collect();
        assert!(!through.is_empty());
        let cfg = tuner.cost_model().config();
        for p in through {
            let assign = pod.project(&p.view).unwrap();
            let mesh = assign.torus.shape();
            let (_, layers) = tuner.estimate_on_mesh(&model, setup, mesh).unwrap();
            let memo = SpecMemo::new(cfg.clone());
            let block = tuner.meshslice_block(&memo, mesh, plan_passes(&layers));
            let t = block
                .unwrap()
                .run(Some(&assign.profile), &mut RunScratch::new());
            assert!(t.makespan() > plan.simulated_block_time, "plane {}", p);
        }
    }

    #[test]
    fn tune_pod_on_an_ideal_pod_is_deterministic() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = tiny();
        let setup = TrainingSetup::weak_scaling(4);
        let shape = MeshShape::nd(&[("x", 2), ("y", 2), ("z", 2)]).unwrap();
        let pod = PodProfile::ideal(shape);
        let plan = tuner.tune_pod(&model, setup, &pod).unwrap();
        // All planes are congruent 2x2 meshes: ties keep the first plane
        // in enumeration order.
        let first = &MeshView::full(shape).planes()[0];
        assert_eq!(plan.plane, *first);
        assert_eq!(plan.physical_chips, first.view.chips());
        // A second run reproduces the same plan bit-for-bit.
        assert_eq!(tuner.tune_pod(&model, setup, &pod).unwrap(), plan);
    }

    #[test]
    fn legal_slice_counts_respect_both_extents() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let mesh = MeshShape::new(4, 2);
        // OS slices K/Pc = 64 and K/Pr = 32; with B = 8 that is 8 and 4
        // blocks: legal S = divisors of 4.
        let problem = GemmProblem::new(GemmShape::new(64, 64, 128), Dataflow::Os);
        assert_eq!(tuner.legal_slice_counts(mesh, problem), vec![1, 2, 4]);
    }

    #[test]
    fn tune_finds_a_nontrivial_plan_for_gpt3() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let plan = tuner.tune(&LlmConfig::gpt3(), TrainingSetup::weak_scaling(16), 16);
        assert_eq!(plan.mesh_shape.num_chips(), 16);
        assert_eq!(plan.layers.len(), 4);
        // At least one pass should benefit from slicing.
        assert!(plan
            .layers
            .iter()
            .any(|l| l.passes.iter().any(|p| p.slice_count > 1)));
    }

    #[test]
    fn memory_constrained_tuning_respects_the_budget() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(256);
        // A generous budget returns the unconstrained optimum.
        let free = tuner.tune_within_memory(&model, setup, 256, u64::MAX);
        let unconstrained = tuner.tune(&model, setup, 256);
        assert_eq!(free.mesh_shape, unconstrained.mesh_shape);
        // The 32 GiB TPUv4 budget is satisfiable at 256 chips.
        let fits = tuner.tune_within_memory(&model, setup, 256, 32 << 30);
        let footprint = crate::memory::training_footprint(&model, setup, fits.mesh_shape, 8);
        assert!(footprint.total() <= 32 << 30);
    }

    #[test]
    #[should_panic(expected = "no mesh shape fits")]
    fn impossible_memory_budget_panics() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = LlmConfig::megatron_nlg();
        let setup = TrainingSetup::weak_scaling(16);
        tuner.tune_within_memory(&model, setup, 16, 1 << 30);
    }

    #[test]
    fn forced_y_stationary_is_no_better_than_tuned() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(64);
        let tuned = tuner.tune(&model, setup, 64);
        let forced = tuner.tune_forced(&model, setup, 64, Stationary::Y);
        assert!(tuned.estimated_block_time <= forced.estimated_block_time);
    }

    #[test]
    fn estimate_on_mesh_matches_tune_for_the_chosen_shape() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(64);
        let plan = tuner.tune(&model, setup, 64);
        let (t, _) = tuner
            .estimate_on_mesh(&model, setup, plan.mesh_shape)
            .unwrap();
        assert_eq!(t, plan.estimated_block_time);
    }

    fn tiny() -> LlmConfig {
        LlmConfig {
            name: "Tiny".to_string(),
            hidden: 256,
            heads: 4,
            layers: 2,
            ffn_mult: 4,
        }
    }

    #[test]
    fn logged_tuning_records_every_candidate() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = tiny();
        let setup = TrainingSetup::weak_scaling(4);
        let mesh = MeshShape::new(2, 2);
        let (layers, log) = tuner.tune_on_mesh_logged(&model, setup, mesh, 1).unwrap();
        assert_eq!(layers.len(), 4);
        // Every (layer, pass) contributed at least the S=1 candidate, and
        // exactly one candidate per (layer, pass) is marked chosen.
        for layer in &layers {
            for plan in &layer.passes {
                let label = format!("{}/{}", layer.layer.name, plan.pass);
                let of_pass: Vec<_> = log.candidates.iter().filter(|c| c.label == label).collect();
                assert!(!of_pass.is_empty(), "no candidates for {label}");
                assert_eq!(
                    of_pass.iter().filter(|c| c.chosen).count(),
                    1,
                    "chosen count for {label}"
                );
                // The chosen candidate matches the plan's slice count.
                let chosen = of_pass.iter().find(|c| c.chosen).unwrap();
                assert_eq!(chosen.slice_count, plan.slice_count);
            }
        }
        // Every candidate has both a prediction and a simulation.
        for c in &log.candidates {
            assert!(c.predicted > 0.0, "{}: no prediction", c.label);
            assert!(c.simulated > 0.0, "{}: no simulation", c.label);
            assert!(c.rel_error().is_finite());
        }
    }

    #[test]
    fn logged_tuning_matches_the_analytical_plan() {
        // The chosen S per pass must agree with tune()'s choice for the
        // same mesh.
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let model = tiny();
        let setup = TrainingSetup::weak_scaling(4);
        let mesh = MeshShape::new(2, 2);
        let (layers, _) = tuner.tune_on_mesh_logged(&model, setup, mesh, 1).unwrap();
        let (_, expected) = tuner.estimate_on_mesh(&model, setup, mesh).unwrap();
        for (got, want) in layers.iter().zip(&expected) {
            for (g, w) in got.passes.iter().zip(&want.passes) {
                assert_eq!(g.slice_count, w.slice_count);
            }
        }
    }

    #[test]
    fn robust_objective_scores_samples() {
        let samples: Vec<Duration> = [3.0, 1.0, 2.0, 4.0]
            .iter()
            .map(|&s| Duration::from_secs(s))
            .collect();
        assert_eq!(
            RobustObjective::Worst.score(&samples),
            Duration::from_secs(4.0)
        );
        assert_eq!(
            RobustObjective::P95.score(&samples),
            Duration::from_secs(4.0)
        );
        assert_eq!(
            RobustObjective::Mean.score(&samples),
            Duration::from_secs(2.5)
        );
    }

    #[test]
    #[should_panic(expected = "cannot score zero samples")]
    fn robust_objective_rejects_empty_samples() {
        RobustObjective::Worst.score(&[]);
    }

    #[test]
    fn ideal_profiles_score_exactly_the_nominal_makespan() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let setup = TrainingSetup::weak_scaling(4);
        let profiles = vec![ClusterProfile::ideal(4); 2];
        let plan = tuner.tune_robust_threads(
            &tiny(),
            setup,
            4,
            &[1, 2],
            &profiles,
            RobustObjective::Worst,
            1,
        );
        assert!(!plan.candidates.is_empty());
        for c in &plan.candidates {
            // An ideal profile takes the exact no-fault engine path, so
            // every draw reproduces the nominal run bit-for-bit.
            assert_eq!(c.score, c.nominal, "{:?} S={}", c.mesh_shape, c.requested_s);
            assert_eq!(c.degradation(), 1.0);
        }
    }

    #[test]
    fn straggler_profiles_raise_the_robust_score() {
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let setup = TrainingSetup::weak_scaling(4);
        let profiles = vec![ClusterProfile::ideal(4).with_compute_slowdown(0, 2.0)];
        let plan = tuner.tune_robust_threads(
            &tiny(),
            setup,
            4,
            &[1, 2],
            &profiles,
            RobustObjective::P95,
            1,
        );
        let best = plan.best();
        assert!(
            best.score > best.nominal,
            "score {} vs nominal {}",
            best.score,
            best.nominal
        );
        assert!(best.degradation() > 1.0);
        // Candidates come back sorted by score.
        for pair in plan.candidates.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
    }
}
