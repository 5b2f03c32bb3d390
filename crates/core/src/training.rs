//! Simulating one training step of an LLM's FC layers with any
//! distributed GeMM algorithm.
//!
//! A training step of one transformer block runs twelve GeMMs (four FC
//! layers × three passes). Each GeMM is simulated as its own program —
//! the passes are serially dependent in real training — and the reports
//! are merged. Every algorithm gets its own tuned mesh shape and
//! iteration-count parameters (§4.2: "for fairness, we compare the
//! performance with optimal mesh shapes for each algorithm"), derived from
//! the analytical cost models.

use std::fmt;

use meshslice_gemm::{
    Cannon, Collective, Dataflow, DistributedGemm, Fsdp, GemmProblem, OneDimTp, Summa, Wang,
};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{Duration, Engine, SimConfig, SimReport};
use meshslice_tensor::GemmShape;

use crate::autotuner::{Autotuner, LayerPlan};
use crate::costmodel::CostModel;
use crate::llm::{LlmConfig, TrainingSetup};

/// The distributed GeMM algorithms under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution (§3.1).
    MeshSlice,
    /// Collective 2D GeMM (§2.3.4).
    Collective,
    /// Wang et al.'s one-direction overlap (state of the art).
    Wang,
    /// SUMMA (§2.3.3).
    Summa,
    /// Cannon's algorithm (§2.3.2); square meshes only.
    Cannon,
    /// 1D tensor parallelism with sequence parallelism (§4.3).
    OneDimTp,
    /// Fully-sharded data parallelism (§4.3).
    Fsdp,
}

impl Algorithm {
    /// All seven algorithms of the weak-scaling study (Figure 9).
    pub const ALL: [Algorithm; 7] = [
        Algorithm::MeshSlice,
        Algorithm::Collective,
        Algorithm::Wang,
        Algorithm::Summa,
        Algorithm::Cannon,
        Algorithm::OneDimTp,
        Algorithm::Fsdp,
    ];

    /// The five 2D algorithms (Figure 11).
    pub const TWO_D: [Algorithm; 5] = [
        Algorithm::MeshSlice,
        Algorithm::Collective,
        Algorithm::Wang,
        Algorithm::Summa,
        Algorithm::Cannon,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::MeshSlice => "MeshSlice",
            Algorithm::Collective => "Collective",
            Algorithm::Wang => "Wang",
            Algorithm::Summa => "SUMMA",
            Algorithm::Cannon => "Cannon",
            Algorithm::OneDimTp => "1DTP",
            Algorithm::Fsdp => "FSDP",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Result of simulating one block's FC layers with one algorithm.
#[derive(Clone, Debug)]
pub struct FcStepResult {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// The mesh shape the algorithm ran on.
    pub mesh_shape: MeshShape,
    /// Merged simulation report of the twelve GeMMs.
    pub report: SimReport,
}

impl FcStepResult {
    /// FC-layer FLOP utilization (the y-axis of Figures 9 and 12).
    pub fn utilization(&self) -> f64 {
        self.report.flop_utilization()
    }

    /// FC time of one transformer block.
    pub fn block_time(&self) -> Duration {
        self.report.makespan()
    }
}

/// Simulates one block's twelve FC GeMMs with the given algorithm, using
/// per-algorithm tuned mesh shapes and parameters.
///
/// Returns `None` when the algorithm cannot run this configuration at all
/// (e.g. Cannon on a non-square chip count).
pub fn simulate_fc_step(
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    algorithm: Algorithm,
    cfg: &SimConfig,
) -> Option<FcStepResult> {
    let tuner = Autotuner::new(cfg.clone());
    match algorithm {
        Algorithm::MeshSlice => {
            let plan = tuner.tune(model, setup, chips);
            Some(FcStepResult {
                algorithm,
                mesh_shape: plan.mesh_shape,
                report: tuner.simulate_plan(plan.mesh_shape, &plan.layers, cfg)?,
            })
        }
        Algorithm::Collective => {
            let (mesh_shape, layers) = tune_mesh(&tuner, model, setup, chips, |cm, mesh, p, _| {
                Some(cm.collective_algo_time(mesh, p, cm.config().elem_bytes))
            })?;
            let mesh = Torus2d::from_shape(mesh_shape);
            let reports = run_plan(&mesh, cfg, &layers, |_, _| Box::new(Collective))?;
            Some(result(algorithm, mesh_shape, reports))
        }
        Algorithm::Wang => {
            let (mesh_shape, layers) = tune_mesh(&tuner, model, setup, chips, |cm, mesh, p, s| {
                Some(cm.wang_time(mesh, p, s, cm.config().elem_bytes))
            })?;
            let mesh = Torus2d::from_shape(mesh_shape);
            let reports = run_plan(&mesh, cfg, &layers, |_, s| {
                Box::new(Wang::new().with_unroll(s))
            })?;
            Some(result(algorithm, mesh_shape, reports))
        }
        Algorithm::Summa => {
            let (mesh_shape, layers) = tune_mesh(&tuner, model, setup, chips, |cm, mesh, p, s| {
                let panels = summa_panels(mesh, p, s)?;
                Some(cm.summa_time(mesh, p, panels, cm.config().elem_bytes))
            })?;
            let mesh = Torus2d::from_shape(mesh_shape);
            let reports = run_plan(&mesh, cfg, &layers, |problem, s| {
                let panels = summa_panels(mesh_shape, problem, s)
                    .expect("tuning already validated the panel count");
                Box::new(Summa::new(panels))
            })?;
            Some(result(algorithm, mesh_shape, reports))
        }
        Algorithm::Cannon => {
            let mesh_shape = MeshShape::square(chips)?;
            let mesh = Torus2d::from_shape(mesh_shape);
            // Cannon is OS-only: every pass runs output-stationary.
            let mut reports = Vec::new();
            for g in model.fc_gemms(setup) {
                let problem = GemmProblem::new(g.shape, Dataflow::Os);
                let program = Cannon.schedule(&mesh, problem, cfg.elem_bytes).ok()?;
                reports.push(Engine::new(mesh.clone(), cfg.clone()).run(&program));
            }
            Some(result(algorithm, mesh_shape, reports))
        }
        Algorithm::OneDimTp | Algorithm::Fsdp => {
            let mesh_shape = MeshShape::new(chips, 1);
            let mesh = Torus2d::from_shape(mesh_shape);
            let cm = CostModel::new(cfg.clone());
            let mut reports = Vec::new();
            for g in model.fc_gemms(setup) {
                let problem = GemmProblem::new(g.shape, Dataflow::Os);
                let unroll = tune_one_d_unroll(&cm, chips, g.shape, algorithm, cfg.elem_bytes);
                let algo: Box<dyn DistributedGemm> = match algorithm {
                    Algorithm::OneDimTp => Box::new(OneDimTp::with_unroll(unroll)),
                    _ => Box::new(Fsdp::with_unroll(unroll)),
                };
                let program = algo.schedule(&mesh, problem, cfg.elem_bytes).ok()?;
                reports.push(Engine::new(mesh.clone(), cfg.clone()).run(&program));
            }
            Some(result(algorithm, mesh_shape, reports))
        }
    }
}

/// Simulates one block's twelve FC GeMMs as a *single fused program*: the
/// partial GeMMs of consecutive passes are chained in compute order (data
/// flow), but slicing and communication prefetch freely across pass
/// boundaries — amortizing every pass's prologue/epilogue under the
/// neighboring pass's compute. This is an upper bound on cross-pass
/// pipelining; [`simulate_fc_step`] models the passes as strictly serial.
///
/// Returns `None` if a tuned pass cannot be scheduled (should not happen
/// for the standard models).
pub fn simulate_fused_block(
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    cfg: &SimConfig,
) -> Option<FcStepResult> {
    let tuner = Autotuner::new(cfg.clone());
    let plan = tuner.tune(model, setup, chips);
    let mesh = Torus2d::from_shape(plan.mesh_shape);
    let mut b = meshslice_sim::ProgramBuilder::new(&mesh);
    let mut prev: Vec<meshslice_sim::OpId> = Vec::new();
    let mut prev2: Vec<meshslice_sim::OpId> = Vec::new();
    for layer in &plan.layers {
        for pass in &layer.passes {
            let algo = tuner.meshslice_for(plan.mesh_shape, pass.problem, pass.slice_count);
            let gemms = algo
                .schedule_chained(&mut b, pass.problem, cfg.elem_bytes, &prev, &prev2)
                .ok()?;
            prev2 = std::mem::replace(&mut prev, gemms);
        }
    }
    let report = Engine::new(mesh, cfg.clone()).run(&b.build());
    Some(FcStepResult {
        algorithm: Algorithm::MeshSlice,
        mesh_shape: plan.mesh_shape,
        report,
    })
}

/// End-to-end step time: FC block time plus the non-FC block time, scaled
/// to the whole model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// FC time per block.
    pub fc_block: Duration,
    /// Non-FC time per block (identical for all algorithms).
    pub non_fc_block: Duration,
    /// Full-model step time (`layers × (fc + non_fc)`).
    pub step: Duration,
}

/// Combines an FC result with the analytical non-FC model.
pub fn end_to_end(
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    fc: &FcStepResult,
    cfg: &SimConfig,
) -> EndToEnd {
    let non_fc = model.non_fc_block_time(setup, chips, cfg);
    let per_block = fc.block_time() + non_fc;
    EndToEnd {
        fc_block: fc.block_time(),
        non_fc_block: non_fc,
        step: Duration::from_secs(per_block.as_secs() * model.layers as f64),
    }
}

fn result(algorithm: Algorithm, mesh_shape: MeshShape, reports: Vec<SimReport>) -> FcStepResult {
    FcStepResult {
        algorithm,
        mesh_shape,
        report: SimReport::merge_serial(&reports),
    }
}

/// Runs the twelve GeMMs of a layer plan, constructing the algorithm per
/// pass from its problem and tuned slice count.
fn run_plan(
    mesh: &Torus2d,
    cfg: &SimConfig,
    layers: &[LayerPlan],
    make: impl Fn(GemmProblem, usize) -> Box<dyn DistributedGemm>,
) -> Option<Vec<SimReport>> {
    let mut reports = Vec::new();
    for layer in layers {
        for pass in &layer.passes {
            let algo = make(pass.problem, pass.slice_count);
            let program = algo.schedule(mesh, pass.problem, cfg.elem_bytes).ok()?;
            reports.push(Engine::new(mesh.clone(), cfg.clone()).run(&program));
        }
    }
    Some(reports)
}

/// Per-algorithm mesh-shape tuning: evaluates every candidate mesh with
/// the algorithm's own cost estimator (the per-pass MeshSlice slice count
/// is still tuned first, since the paper derives the baselines' iteration
/// counts from it).
fn tune_mesh(
    tuner: &Autotuner,
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    estimate: impl Fn(&CostModel, MeshShape, GemmProblem, usize) -> Option<Duration>,
) -> Option<(MeshShape, Vec<LayerPlan>)> {
    let cm = tuner.cost_model();
    Autotuner::candidate_meshes(chips)
        .into_iter()
        .filter_map(|mesh| {
            let (_, layers) = tuner.estimate_on_mesh(model, setup, mesh)?;
            let total = layers
                .iter()
                .flat_map(|l| l.passes)
                .try_fold(Duration::ZERO, |total, pass| {
                    Some(total + estimate(cm, mesh, pass.problem, pass.slice_count)?)
                })?;
            Some((total, mesh, layers))
        })
        .min_by_key(|&(total, _, _)| total)
        .map(|(_, mesh, layers)| (mesh, layers))
}

/// SUMMA's panel count: the smallest multiple of `lcm(Pr, Pc)` that is at
/// least the MeshSlice slice count (the paper's unrolling parity) and
/// divides the paneled dimension.
pub fn summa_panels(mesh: MeshShape, problem: GemmProblem, slice_count: usize) -> Option<usize> {
    let gcd = {
        fn g(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                g(b, a % b)
            }
        }
        g(mesh.rows(), mesh.cols())
    };
    let lcm = mesh.rows() / gcd * mesh.cols();
    let dim = match problem.dataflow {
        Dataflow::Os => problem.shape.k,
        Dataflow::Ls => problem.shape.n,
        Dataflow::Rs => problem.shape.m,
    };
    let mut panels = lcm * slice_count.div_ceil(lcm).max(1);
    // Search upward for a divisor of the paneled dimension.
    for _ in 0..16 {
        if dim % panels == 0 {
            return Some(panels);
        }
        panels += lcm;
    }
    // Fall back to the smallest legal panel count.
    (dim % lcm == 0).then_some(lcm)
}

/// Tunes the unroll factor of the 1D baselines with the cost model.
fn tune_one_d_unroll(
    cm: &CostModel,
    chips: usize,
    shape: GemmShape,
    algorithm: Algorithm,
    elem_bytes: usize,
) -> usize {
    let (shard, per_arrival) = one_d_parameters(chips, shape, algorithm, elem_bytes);
    let mut best = (chips, cm.one_d_time(chips, shard, per_arrival, chips));
    let mut u = 1;
    while u <= chips {
        if chips.is_multiple_of(u) {
            let t = cm.one_d_time(chips, shard, per_arrival, u);
            if t < best.1 {
                best = (u, t);
            }
        }
        u *= 2;
    }
    best.0
}

/// The rotated shard bytes and per-arrival GeMM of a 1D baseline.
fn one_d_parameters(
    chips: usize,
    shape: GemmShape,
    algorithm: Algorithm,
    elem_bytes: usize,
) -> (u64, GemmShape) {
    let GemmShape { m, n, k } = shape;
    match algorithm {
        Algorithm::OneDimTp => (
            (m / chips * k * elem_bytes) as u64,
            GemmShape::new(m / chips, n / chips, k),
        ),
        _ => (
            (k / chips * n * elem_bytes) as u64,
            GemmShape::new(m / chips, n, k / chips),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small model that keeps test simulations fast.
    fn tiny_model() -> LlmConfig {
        LlmConfig {
            name: "Tiny".to_string(),
            hidden: 512,
            heads: 8,
            layers: 4,
            ffn_mult: 4,
        }
    }

    fn setup() -> TrainingSetup {
        TrainingSetup {
            batch: 4,
            seq_len: 256,
        }
    }

    #[test]
    fn meshslice_step_runs_and_reports_utilization() {
        let r = simulate_fc_step(
            &tiny_model(),
            setup(),
            8,
            Algorithm::MeshSlice,
            &SimConfig::tpu_v4(),
        )
        .unwrap();
        assert!(r.utilization() > 0.002 && r.utilization() <= 1.0);
        assert_eq!(r.mesh_shape.num_chips(), 8);
    }

    #[test]
    fn all_algorithms_run_on_a_square_cluster() {
        for algo in Algorithm::ALL {
            let r = simulate_fc_step(&tiny_model(), setup(), 4, algo, &SimConfig::tpu_v4());
            let r = r.unwrap_or_else(|| panic!("{algo} failed"));
            assert!(r.utilization() > 0.0, "{algo}");
        }
    }

    #[test]
    fn cannon_skips_non_square_chip_counts() {
        assert!(simulate_fc_step(
            &tiny_model(),
            setup(),
            8,
            Algorithm::Cannon,
            &SimConfig::tpu_v4()
        )
        .is_none());
    }

    #[test]
    fn meshslice_is_fastest_on_a_comm_bound_cluster() {
        // Make communication expensive so overlap matters.
        let cfg = SimConfig {
            link_bandwidth: 10e9,
            ..SimConfig::tpu_v4()
        };
        let ms = simulate_fc_step(&tiny_model(), setup(), 8, Algorithm::MeshSlice, &cfg).unwrap();
        let coll =
            simulate_fc_step(&tiny_model(), setup(), 8, Algorithm::Collective, &cfg).unwrap();
        assert!(
            ms.block_time() <= coll.block_time(),
            "MeshSlice {} vs Collective {}",
            ms.block_time(),
            coll.block_time()
        );
    }

    #[test]
    fn fused_block_is_no_slower_than_serial_passes() {
        let cfg = SimConfig::tpu_v4();
        let serial =
            simulate_fc_step(&tiny_model(), setup(), 8, Algorithm::MeshSlice, &cfg).unwrap();
        let fused = simulate_fused_block(&tiny_model(), setup(), 8, &cfg).unwrap();
        assert!(
            fused.block_time() <= serial.block_time(),
            "fused {} vs serial {}",
            fused.block_time(),
            serial.block_time()
        );
        // Same work either way.
        assert_eq!(fused.report.total_flops(), serial.report.total_flops());
    }

    #[test]
    fn end_to_end_adds_non_fc_time() {
        let model = tiny_model();
        let cfg = SimConfig::tpu_v4();
        let fc = simulate_fc_step(&model, setup(), 4, Algorithm::Collective, &cfg).unwrap();
        let e2e = end_to_end(&model, setup(), 4, &fc, &cfg);
        assert!(e2e.step.as_secs() > fc.block_time().as_secs());
        assert!(e2e.non_fc_block.as_secs() > 0.0);
    }

    #[test]
    fn summa_panels_prefers_lcm_multiples() {
        let mesh = MeshShape::new(4, 2);
        let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
        // lcm = 4; slice count 6 rounds up to 8, which divides K = 64.
        assert_eq!(summa_panels(mesh, problem, 6), Some(8));
        assert_eq!(summa_panels(mesh, problem, 1), Some(4));
    }

    #[test]
    fn one_d_parameters_match_the_gathered_matrix() {
        let (shard_tp, per_tp) =
            one_d_parameters(4, GemmShape::new(64, 32, 16), Algorithm::OneDimTp, 2);
        assert_eq!(shard_tp, (64 / 4 * 16 * 2) as u64);
        assert_eq!(per_tp, GemmShape::new(16, 8, 16));
        let (shard_fsdp, per_fsdp) =
            one_d_parameters(4, GemmShape::new(64, 32, 16), Algorithm::Fsdp, 2);
        assert_eq!(shard_fsdp, (16 / 4 * 32 * 2) as u64);
        assert_eq!(per_fsdp, GemmShape::new(16, 32, 4));
    }
}
