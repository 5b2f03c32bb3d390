//! Experiment drivers regenerating every table and figure of §5 (plus the
//! §7 traffic example).
//!
//! Each function returns typed rows; the `meshslice-bench` crate wraps
//! them in printable harnesses. `DESIGN.md` maps every paper figure/table
//! to its driver, and `EXPERIMENTS.md` records paper-vs-measured values.

use std::cmp::Ordering;

use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{Duration, Engine, SimConfig, SimReport};
use meshslice_tensor::GemmShape;

use crate::autotuner::{pass_problems, simulated_search, Autotuner, RobustObjective, Stationary};
use crate::llm::{LlmConfig, TrainingSetup};
use crate::par;
use crate::training::{simulate_fc_step, Algorithm};

/// One point of the weak/strong scaling studies (Figures 9 and 12).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Cluster size.
    pub chips: usize,
    /// Per-algorithm FC FLOP utilization (`None` when the algorithm
    /// cannot run, e.g. Cannon off square counts).
    pub utilization: Vec<(Algorithm, Option<f64>)>,
}

/// Figure 9: FC-layer FLOP utilization under weak scaling
/// (batch = chips/2) for all seven algorithms.
pub fn weak_scaling(
    model: &LlmConfig,
    chip_counts: &[usize],
    cfg: &SimConfig,
) -> Vec<ScalingPoint> {
    scaling(model, chip_counts, cfg, TrainingSetup::weak_scaling)
}

/// Figure 12: FC-layer FLOP utilization under strong scaling (batch fixed
/// at 32). FSDP is excluded — data parallelism cannot strong-scale.
pub fn strong_scaling(
    model: &LlmConfig,
    chip_counts: &[usize],
    cfg: &SimConfig,
) -> Vec<ScalingPoint> {
    let mut points = scaling(model, chip_counts, cfg, |_| TrainingSetup::strong_scaling());
    for p in &mut points {
        for (algo, util) in &mut p.utilization {
            if *algo == Algorithm::Fsdp {
                *util = None;
            }
        }
    }
    points
}

fn scaling(
    model: &LlmConfig,
    chip_counts: &[usize],
    cfg: &SimConfig,
    setup_for: impl Fn(usize) -> TrainingSetup,
) -> Vec<ScalingPoint> {
    chip_counts
        .iter()
        .map(|&chips| {
            let setup = setup_for(chips);
            let utilization = Algorithm::ALL
                .into_iter()
                .map(|algo| {
                    let u =
                        simulate_fc_step(model, setup, chips, algo, cfg).map(|r| r.utilization());
                    (algo, u)
                })
                .collect();
            ScalingPoint { chips, utilization }
        })
        .collect()
}

/// One bar of Figure 10: an algorithm's communication time relative to
/// its own computation time, broken into launch / transfer / sync.
#[derive(Clone, Debug)]
pub struct CommBreakdown {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Launch overhead ÷ compute time.
    pub launch: f64,
    /// Transfer time ÷ compute time.
    pub transfer: f64,
    /// Synchronization time ÷ compute time.
    pub sync: f64,
}

impl CommBreakdown {
    /// Total relative communication time.
    pub fn total(&self) -> f64 {
        self.launch + self.transfer + self.sync
    }
}

/// Figure 10: communication-time breakdown of the FC layers at one
/// cluster size (the paper uses 256 chips).
pub fn comm_breakdown(model: &LlmConfig, chips: usize, cfg: &SimConfig) -> Vec<CommBreakdown> {
    let setup = TrainingSetup::weak_scaling(chips);
    Algorithm::ALL
        .into_iter()
        .filter_map(|algo| {
            let r = simulate_fc_step(model, setup, chips, algo, cfg)?;
            let (launch, transfer, sync) = r.report.comm_relative_to_compute();
            Some(CommBreakdown {
                algorithm: algo,
                launch,
                transfer,
                sync,
            })
        })
        .collect()
}

/// One group of Figure 11: a distinct FC GeMM shape and the utilization
/// of each 2D algorithm on it.
#[derive(Clone, Debug)]
pub struct MatrixShapePoint {
    /// The global GeMM shape.
    pub shape: GemmShape,
    /// Per-algorithm utilization.
    pub utilization: Vec<(Algorithm, Option<f64>)>,
}

/// Figure 11: FLOP utilization of the distinct FC GeMMs (eight per model)
/// for the five 2D algorithms at one cluster size.
pub fn matrix_shapes(model: &LlmConfig, chips: usize, cfg: &SimConfig) -> Vec<MatrixShapePoint> {
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    model
        .distinct_gemms(setup)
        .into_iter()
        .map(|shape| {
            let utilization = Algorithm::TWO_D
                .into_iter()
                .map(|algo| {
                    let problem = GemmProblem::new(shape, Dataflow::Os);
                    let report = simulate_tuned_gemm(&tuner, problem, chips, algo, cfg);
                    (algo, report.map(|r| r.flop_utilization()))
                })
                .collect();
            MatrixShapePoint { shape, utilization }
        })
        .collect()
}

/// Simulates one GeMM with an algorithm on its analytically best mesh,
/// with the baselines' iteration counts derived from the tuned MeshSlice
/// slice count. `None` if the algorithm cannot run the problem.
fn simulate_tuned_gemm(
    tuner: &Autotuner,
    problem: GemmProblem,
    chips: usize,
    algorithm: Algorithm,
    cfg: &SimConfig,
) -> Option<SimReport> {
    let cm = tuner.cost_model();
    let eb = cfg.elem_bytes;
    let meshes: Vec<MeshShape> = match algorithm {
        Algorithm::Cannon => vec![MeshShape::square(chips)?],
        _ => Autotuner::candidate_meshes(chips),
    };
    let (mesh_shape, s) = meshes
        .into_iter()
        .filter(|&mesh| problem.check_divisible(mesh).is_ok())
        .filter_map(|mesh| {
            let (s, _) = tuner.best_slice_count(mesh, problem, eb);
            let t = match algorithm {
                Algorithm::MeshSlice => cm.meshslice_time(mesh, problem, s, eb),
                Algorithm::Collective => cm.collective_algo_time(mesh, problem, eb),
                Algorithm::Wang => cm.wang_time(mesh, problem, s, eb),
                Algorithm::Summa => cm.summa_time(mesh, problem, mesh.rows().max(mesh.cols()), eb),
                Algorithm::Cannon => cm.cannon_time(mesh, problem, eb)?,
                Algorithm::OneDimTp | Algorithm::Fsdp => return None,
            };
            Some((t, mesh, s))
        })
        .min_by_key(|&(t, _, _)| t)
        .map(|(_, mesh, s)| (mesh, s))?;
    let mesh = Torus2d::from_shape(mesh_shape);
    let algo: Box<dyn DistributedGemm> = match algorithm {
        Algorithm::MeshSlice => Box::new(tuner.meshslice_for(mesh_shape, problem, s)),
        Algorithm::Collective => Box::new(meshslice_gemm::Collective),
        Algorithm::Wang => Box::new(meshslice_gemm::Wang::new().with_unroll(s)),
        Algorithm::Summa => {
            let panels = crate::training::summa_panels(mesh_shape, problem, s)?;
            Box::new(meshslice_gemm::Summa::new(panels))
        }
        Algorithm::Cannon => Box::new(meshslice_gemm::Cannon),
        Algorithm::OneDimTp | Algorithm::Fsdp => return None,
    };
    let program = algo.schedule(&mesh, problem, eb).ok()?;
    Some(Engine::new(mesh, cfg.clone()).run(&program))
}

/// Table 2: FC utilization without (all-Y-stationary) and with the
/// phase-1 dataflow optimization.
#[derive(Clone, Debug)]
pub struct DataflowAblation {
    /// Model name.
    pub model: String,
    /// Utilization with the default Y-stationary dataflows.
    pub not_optimized: f64,
    /// Utilization with the autotuned dataflows.
    pub optimized: f64,
}

impl DataflowAblation {
    /// Speedup of the optimized dataflows.
    pub fn speedup(&self) -> f64 {
        self.optimized / self.not_optimized - 1.0
    }
}

/// Runs the Table 2 ablation for one model.
pub fn dataflow_ablation(model: &LlmConfig, chips: usize, cfg: &SimConfig) -> DataflowAblation {
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    let run = |plan: &crate::autotuner::TunePlan| -> f64 {
        tuner
            .simulate_plan(plan.mesh_shape, &plan.layers, cfg)
            .expect("tuned plan must be schedulable")
            .flop_utilization()
    };
    let optimized_plan = tuner.tune(model, setup, chips);
    let forced_plan = tuner.tune_forced(model, setup, chips, Stationary::Y);
    DataflowAblation {
        model: model.name.clone(),
        not_optimized: run(&forced_plan),
        optimized: run(&optimized_plan),
    }
}

/// One mesh shape of the Figure 13 sweep.
#[derive(Clone, Debug)]
pub struct MeshShapePoint {
    /// The mesh shape.
    pub mesh: MeshShape,
    /// Utilization predicted by the analytical cost models.
    pub estimated: Option<f64>,
    /// Utilization measured by simulation.
    pub simulated: Option<f64>,
}

/// Figure 13: estimated vs simulated FC utilization across every mesh
/// shape of a cluster.
pub fn mesh_shape_sweep(model: &LlmConfig, chips: usize, cfg: &SimConfig) -> Vec<MeshShapePoint> {
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    let ideal = ideal_block_time(model, setup, chips, cfg);
    Autotuner::candidate_meshes(chips)
        .into_iter()
        .map(|mesh_shape| {
            let Some((est, layers)) = tuner.estimate_on_mesh(model, setup, mesh_shape) else {
                return MeshShapePoint {
                    mesh: mesh_shape,
                    estimated: None,
                    simulated: None,
                };
            };
            let estimated = Some(ideal.as_secs() / est.as_secs());
            let simulated = tuner
                .simulate_plan(mesh_shape, &layers, cfg)
                .map(|r| r.flop_utilization());
            MeshShapePoint {
                mesh: mesh_shape,
                estimated,
                simulated,
            }
        })
        .collect()
}

/// The ideal (all-compute-at-peak) time of one block's FC GeMMs.
fn ideal_block_time(
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    cfg: &SimConfig,
) -> Duration {
    let flops: u64 = model.fc_gemms(setup).iter().map(|g| g.shape.flops()).sum();
    Duration::from_secs(flops as f64 / (cfg.peak_flops * chips as f64))
}

/// One slice count of the Figure 14 sweep.
#[derive(Clone, Debug)]
pub struct SliceCountPoint {
    /// The slice count applied to every FC GeMM (clamped per pass to the
    /// largest legal value).
    pub requested_s: usize,
    /// Cost-model utilization.
    pub estimated: f64,
    /// Simulated utilization.
    pub simulated: f64,
}

/// Figure 14: estimated vs simulated utilization across slice counts on a
/// fixed mesh (the paper uses 32×8).
pub fn slice_count_sweep(
    model: &LlmConfig,
    mesh_shape: MeshShape,
    s_values: &[usize],
    cfg: &SimConfig,
) -> Vec<SliceCountPoint> {
    let chips = mesh_shape.num_chips();
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    let ideal = ideal_block_time(model, setup, chips, cfg);
    s_values
        .iter()
        .map(|&s| {
            let mut est_total = Duration::ZERO;
            for layer in model.fc_layers() {
                let stationary = crate::autotuner::choose_stationary(
                    setup.tokens(),
                    layer.input_dim,
                    layer.output_dim,
                );
                for problem in pass_problems(
                    stationary,
                    setup.tokens(),
                    layer.input_dim,
                    layer.output_dim,
                ) {
                    let actual = tuner.meshslice_for(mesh_shape, problem, s).slice_count();
                    est_total += tuner.cost_model().meshslice_time(
                        mesh_shape,
                        problem,
                        actual,
                        cfg.elem_bytes,
                    );
                }
            }
            let report = tuner
                .simulate_block(model, setup, mesh_shape, s, cfg)
                .expect("legal slice count must schedule");
            SliceCountPoint {
                requested_s: s,
                estimated: ideal.as_secs() / est_total.as_secs(),
                simulated: report.flop_utilization(),
            }
        })
        .collect()
}

/// Table 3: FC utilization on the "real" 4×4 TPUv4 cluster, where AG/RdS
/// cannot overlap with computation.
#[derive(Clone, Debug)]
pub struct RealHwPoint {
    /// Model name.
    pub model: String,
    /// Collective utilization.
    pub collective: f64,
    /// Wang utilization.
    pub wang: f64,
    /// MeshSlice utilization (no overlap possible).
    pub meshslice: f64,
    /// Cost-model estimate of MeshSlice *with* overlap.
    pub meshslice_overlap_estimate: f64,
}

/// Runs the Table 3 study: a 4×4 mesh with the no-overlap hardware model.
pub fn real_hw(model: &LlmConfig, cfg_real: &SimConfig) -> RealHwPoint {
    let chips = 16;
    let setup = TrainingSetup::weak_scaling(chips);
    let util = |algo: Algorithm| {
        simulate_fc_step(model, setup, chips, algo, cfg_real)
            .map(|r| r.utilization())
            .unwrap_or(0.0)
    };
    // Overlap estimate: the analytical pipeline model on the same
    // hardware constants (which assumes overlap).
    let tuner = Autotuner::new(cfg_real.clone());
    let plan = tuner.tune(model, setup, chips);
    let ideal = ideal_block_time(model, setup, chips, cfg_real);
    RealHwPoint {
        model: model.name.clone(),
        collective: util(Algorithm::Collective),
        wang: util(Algorithm::Wang),
        meshslice: util(Algorithm::MeshSlice),
        meshslice_overlap_estimate: ideal.as_secs() / plan.estimated_block_time.as_secs(),
    }
}

/// One FC layer of the Figure 15 comparison: estimated vs simulated total
/// communication time of one forward + backward pass.
#[derive(Clone, Debug)]
pub struct CommModelPoint {
    /// Model and layer, e.g. `"GPT-3 FF1"`.
    pub label: String,
    /// Cost-model communication time (seconds).
    pub estimated: f64,
    /// Simulated communication time (seconds, per chip).
    pub simulated: f64,
}

impl CommModelPoint {
    /// Relative estimation error.
    pub fn error(&self) -> f64 {
        (self.estimated - self.simulated).abs() / self.simulated
    }
}

/// Figure 15: communication cost model validation over the FC layers of
/// the given models (8 layers for the paper's two LLMs) on a 4×4 mesh.
pub fn comm_model_validation(models: &[LlmConfig], cfg: &SimConfig) -> Vec<CommModelPoint> {
    let chips = 16;
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    let mut out = Vec::new();
    for model in models {
        let plan = tuner.tune(model, setup, chips);
        let mesh = Torus2d::from_shape(plan.mesh_shape);
        for layer in &plan.layers {
            let mut est = 0.0;
            let mut sim = 0.0;
            for pass in &layer.passes {
                est += tuner
                    .cost_model()
                    .meshslice_comm_time(
                        plan.mesh_shape,
                        pass.problem,
                        pass.slice_count,
                        cfg.elem_bytes,
                    )
                    .as_secs();
                let algo = tuner.meshslice_for(plan.mesh_shape, pass.problem, pass.slice_count);
                let program = algo
                    .schedule(&mesh, pass.problem, cfg.elem_bytes)
                    .expect("tuned plan must schedule");
                let report = Engine::new(mesh.clone(), cfg.clone()).run(&program);
                sim += report.per_chip().comm_total().as_secs();
            }
            out.push(CommModelPoint {
                label: format!("{} {}", model.name, layer.layer.name),
                estimated: est,
                simulated: sim,
            });
        }
    }
    out
}

/// The prompt length [`inference_study`] prices the prefill phase at.
pub const DEFAULT_PROMPT_LEN: usize = 512;

/// One point of the §6 inference extension: per-phase latency of one
/// transformer block with a 2D GeMM algorithm.
#[derive(Clone, Debug)]
pub struct InferencePoint {
    /// Batch size (concurrent sequences).
    pub batch: usize,
    /// Per-algorithm *prefill* latency of one block, seconds — the whole
    /// prompt in one pass, `M = batch × prompt_len` (`None` = unsupported).
    pub prefill_latency: Vec<(Algorithm, Option<f64>)>,
    /// Per-algorithm *decode*-step latency of one block, seconds —
    /// `M = batch` (`None` = unsupported).
    pub block_latency: Vec<(Algorithm, Option<f64>)>,
}

/// §6 extension: autoregressive inference on a 2D mesh, priced per phase.
/// Prefill processes the whole prompt at once (`M = batch × prompt_len`),
/// so it behaves like a training forward pass: compute-bound, overlap
/// matters. Each decode step's FC GeMMs have only `M = batch` rows, so
/// they are memory-bound (the full weight shards stream from HBM every
/// step) and the fixed communication overheads — launch and
/// synchronization latency, not bandwidth — dominate. Both phases keep
/// the weights stationary (W-stationary RS dataflow, per Table 1): in a
/// serving fleet the weight shards stay resident across requests, and
/// re-sharding them between phases would cost a cross-mesh resharding.
pub fn inference_study(
    model: &LlmConfig,
    chips: usize,
    batches: &[usize],
    prompt_len: usize,
    cfg: &SimConfig,
) -> Vec<InferencePoint> {
    let tuner = Autotuner::new(cfg.clone());
    let phase = |gemms: &[crate::llm::FcGemm]| -> Vec<(Algorithm, Option<f64>)> {
        [Algorithm::MeshSlice, Algorithm::Collective, Algorithm::Wang]
            .into_iter()
            .map(|algo| {
                let mut total = 0.0f64;
                let mut ok = true;
                for g in gemms {
                    let problem = GemmProblem::new(g.shape, Dataflow::Rs);
                    match simulate_tuned_gemm(&tuner, problem, chips, algo, cfg) {
                        Some(r) => total += r.makespan().as_secs(),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                (algo, ok.then_some(total))
            })
            .collect()
    };
    batches
        .iter()
        .map(|&batch| InferencePoint {
            batch,
            prefill_latency: phase(&model.prefill_gemms(batch, prompt_len)),
            block_latency: phase(&model.decode_gemms(batch)),
        })
        .collect()
}

/// One point of the §6 extension study: MeshSlice on a *logical* mesh
/// over a shared fabric instead of a physical torus.
#[derive(Clone, Debug)]
pub struct LogicalMeshPoint {
    /// Network description.
    pub network: String,
    /// FC FLOP utilization of MeshSlice.
    pub utilization: f64,
}

/// §6 extension: how MeshSlice degrades when the 2D mesh is logical —
/// mapped onto a switched GPU-style fabric where collectives contend for
/// bisection bandwidth — at several fabric capacities (expressed as a
/// fraction of the aggregate dedicated-link bandwidth of the torus).
pub fn logical_mesh_study(
    model: &LlmConfig,
    chips: usize,
    fabric_fractions: &[f64],
    cfg: &SimConfig,
) -> Vec<LogicalMeshPoint> {
    let setup = TrainingSetup::weak_scaling(chips);
    let mut out = Vec::new();
    if let Some(r) = simulate_fc_step(model, setup, chips, Algorithm::MeshSlice, cfg) {
        out.push(LogicalMeshPoint {
            network: "physical torus".to_string(),
            utilization: r.utilization(),
        });
    }
    // Aggregate dedicated bandwidth of the torus: 4 links per chip.
    let dedicated = 4.0 * cfg.link_bandwidth * chips as f64;
    for &f in fabric_fractions {
        let fabric_cfg = SimConfig {
            network: meshslice_sim::NetworkModel::SharedFabric {
                bisection_bandwidth: dedicated * f,
            },
            ..cfg.clone()
        };
        if let Some(r) = simulate_fc_step(model, setup, chips, Algorithm::MeshSlice, &fabric_cfg) {
            out.push(LogicalMeshPoint {
                network: format!("fabric {:.0}% of dedicated", f * 100.0),
                utilization: r.utilization(),
            });
        }
    }
    out
}

/// The §7 example: per-chip communication traffic of 2.5D GeMM vs
/// MeshSlice + DP on a 1024-chip 3D cluster.
#[derive(Clone, Debug)]
pub struct Traffic25dPoint {
    /// Method name.
    pub method: String,
    /// 3D torus shape description.
    pub torus: String,
    /// Per-chip communication traffic in bytes.
    pub per_chip_bytes: u64,
}

/// Computes the §7 traffic comparison analytically for GPT-3's FF2 layer
/// (`(M, N, K) = (1024K, 12K, 48K)`) on 1024 chips.
pub fn traffic_25d_example(elem_bytes: usize) -> Vec<Traffic25dPoint> {
    let (m, n, k) = (1024 * 1024usize, 12 * 1024usize, 48 * 1024usize);
    let eb = elem_bytes as u64;

    // 2.5D GeMM: c = 4 copies over a 16x16 Cannon base mesh (the only
    // legal square base for 1024 chips at this depth).
    let (p, c) = (16usize, 4usize);
    let algo_25d = meshslice_gemm::TwoFiveD::new(p, c);
    let traffic_25d = algo_25d.traffic_per_chip(GemmShape::new(m, n, k), elem_bytes);

    // MeshSlice + DP: 4-way DP over 32x8 meshes; the paper's phase-1
    // choice keeps the huge activation matrix stationary (X-stationary,
    // LS dataflow), so only W (inter-row) and C (inter-column) move.
    let (pr, pc, dp) = (32usize, 8usize, 4usize);
    let m_dp = m / dp;
    let w_shard = (k / pr) as u64 * (n / pc) as u64 * eb;
    let c_shard_ms = (m_dp / pr) as u64 * (n / pc) as u64 * eb;
    let traffic_ms = (pr as u64 - 1) * w_shard + (pc as u64 - 1) * c_shard_ms;

    vec![
        Traffic25dPoint {
            method: "2.5D GeMM (Cannon-based)".to_string(),
            torus: format!("{p}x{p}x{c}"),
            per_chip_bytes: traffic_25d,
        },
        Traffic25dPoint {
            method: "MeshSlice + DP".to_string(),
            torus: format!("{pr}x{pc}x{dp}"),
            per_chip_bytes: traffic_ms,
        },
    ]
}

/// One cell of the straggler-sensitivity grid: a (severity, slice count)
/// pair with simulated makespans across seeded straggler draws.
#[derive(Clone, Debug)]
pub struct StragglerPoint {
    /// Straggler compute-slowdown factor (1.0 = fault-free row).
    pub severity: f64,
    /// Requested MeshSlice slice count (clamped per pass).
    pub requested_s: usize,
    /// Fault-free FC block makespan at this slice count.
    pub nominal: Duration,
    /// 95th-percentile makespan across the seeded draws.
    pub p95: Duration,
    /// Worst-case makespan across the seeded draws.
    pub worst: Duration,
}

/// Straggler-severity × slice-count sensitivity grid: for each severity, a
/// single straggler chip (location drawn per seed) slows its compute by
/// the factor, and every slice count is scored by p95/worst simulated
/// makespan of one FC block on the fixed mesh. Rows share seeds, so the
/// per-row argmin shows how the simulated-optimal `S` shifts as the
/// cluster gets noisier.
///
/// Results are grouped by severity in the order given; within a row, by
/// slice count in the order given.
pub fn straggler_sensitivity(
    model: &LlmConfig,
    mesh_shape: MeshShape,
    s_values: &[usize],
    severities: &[f64],
    num_seeds: usize,
    base_seed: u64,
    cfg: &SimConfig,
) -> Vec<StragglerPoint> {
    let chips = mesh_shape.num_chips();
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());
    // Each severity row shares one profile sample. Cells come back in grid
    // order (severities outer, slice counts inner), and the rows share the
    // search's lowered programs: each slice count's block is lowered once.
    let profiles_by_row: Vec<_> = severities
        .iter()
        .map(|&severity| {
            meshslice_faults::FaultSpec::stragglers(1, severity)
                .sample_profiles(chips, base_seed, num_seeds)
        })
        .collect();
    let cells: Vec<(usize, usize)> = (0..severities.len())
        .flat_map(|row| s_values.iter().map(move |&s| (row, s)))
        .collect();
    let points = simulated_search(
        cfg,
        par::threads(),
        &cells,
        |&(row, s), memo, scratch| {
            let (nominal, draws) = tuner
                .fc_block(memo, model, setup, mesh_shape, s)
                .expect("grid mesh must divide the model's FC GeMMs")
                .makespans(&profiles_by_row[row], scratch);
            Some(StragglerPoint {
                severity: severities[row],
                requested_s: s,
                nominal,
                p95: RobustObjective::P95.score(&draws),
                worst: RobustObjective::Worst.score(&draws),
            })
        },
        |_, _| Ordering::Equal,
    );
    points.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LlmConfig {
        LlmConfig {
            name: "Tiny".to_string(),
            hidden: 256,
            heads: 4,
            layers: 2,
            ffn_mult: 4,
        }
    }

    fn fast_cfg() -> SimConfig {
        SimConfig::tpu_v4()
    }

    #[test]
    fn weak_scaling_produces_points_for_all_algorithms() {
        let pts = weak_scaling(&tiny(), &[4], &fast_cfg());
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].utilization.len(), 7);
        // On 4 chips (square), everything should run.
        assert!(pts[0].utilization.iter().all(|(_, u)| u.is_some()));
    }

    #[test]
    fn strong_scaling_excludes_fsdp() {
        let pts = strong_scaling(&tiny(), &[4], &fast_cfg());
        let fsdp = pts[0]
            .utilization
            .iter()
            .find(|(a, _)| *a == Algorithm::Fsdp)
            .unwrap();
        assert!(fsdp.1.is_none());
    }

    #[test]
    fn comm_breakdown_has_positive_components() {
        let rows = comm_breakdown(&tiny(), 4, &fast_cfg());
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.total() > 0.0, "{}", row.algorithm);
        }
    }

    #[test]
    fn matrix_shapes_covers_distinct_gemms() {
        let rows = matrix_shapes(&tiny(), 4, &fast_cfg());
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn dataflow_ablation_reports_speedup() {
        let row = dataflow_ablation(&tiny(), 8, &fast_cfg());
        assert!(row.optimized > 0.0 && row.not_optimized > 0.0);
        assert!(row.optimized >= row.not_optimized * 0.9);
    }

    #[test]
    fn mesh_shape_sweep_has_estimates_and_sims() {
        let rows = mesh_shape_sweep(&tiny(), 8, &fast_cfg());
        assert!(rows
            .iter()
            .any(|r| r.estimated.is_some() && r.simulated.is_some()));
    }

    #[test]
    fn slice_count_sweep_tracks_estimate_and_sim() {
        let rows = slice_count_sweep(&tiny(), MeshShape::new(4, 2), &[1, 2, 4], &fast_cfg());
        assert_eq!(rows.len(), 3);
        for r in rows {
            assert!(r.estimated > 0.0 && r.simulated > 0.0);
        }
    }

    #[test]
    fn comm_model_is_reasonably_accurate() {
        let rows = comm_model_validation(&[tiny()], &fast_cfg());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.error() < 0.35,
                "{}: est {} vs sim {}",
                r.label,
                r.estimated,
                r.simulated
            );
        }
    }

    #[test]
    fn straggler_sensitivity_grid_is_complete_and_ordered() {
        let pts = straggler_sensitivity(
            &tiny(),
            MeshShape::new(2, 2),
            &[1, 2],
            &[1.0, 2.0],
            2,
            7,
            &fast_cfg(),
        );
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.nominal > Duration::ZERO);
            // The worst draw is at least as slow as the 95th percentile,
            // which is at least as slow as the fault-free run.
            assert!(p.worst >= p.p95);
            assert!(p.p95 >= p.nominal);
        }
        // Severity 1.0 means the sampled profiles are ideal, so the
        // seeded draws reproduce the nominal run exactly.
        for p in pts.iter().filter(|p| p.severity == 1.0) {
            assert_eq!(p.p95, p.nominal);
        }
        // A 2x straggler must actually hurt.
        for p in pts.iter().filter(|p| p.severity == 2.0) {
            assert!(p.worst > p.nominal);
        }
    }

    #[test]
    fn traffic_example_matches_paper_magnitudes() {
        let rows = traffic_25d_example(2);
        let t25 = rows[0].per_chip_bytes as f64;
        let tms = rows[1].per_chip_bytes as f64;
        // Paper: ~1.6 GB vs ~336 MB — MeshSlice+DP moves several times
        // less data.
        assert!(t25 > 1.2e9 && t25 < 2.2e9, "2.5D traffic {t25}");
        assert!(tms > 2.2e8 && tms < 4.5e8, "MeshSlice traffic {tms}");
        assert!(t25 / tms > 3.0);
    }
}
