//! Reference pins for every simulated search that lowers MeshSlice
//! passes through the autotuner's shared spec memo: the serving cost
//! tables (direct builds and one `CostTableCache` shared across meshes,
//! slice counts and caps), the logged per-candidate tuner, and the
//! robust and resilient tuners. Each output must equal, bit for bit, a
//! naive reference that schedules every GeMM at `meshslice_for` and
//! runs it afresh through the public `Engine` API — so a memo that
//! confuses two specs, or a build that skips a replay, fails here.

use meshslice::autotuner::{Autotuner, RobustCandidate, RobustObjective};
use meshslice::llm::{FcGemm, LlmConfig, TrainingSetup};
use meshslice::memory::{inference_footprint, kv_bytes_per_token, HBM_BYTES};
use meshslice::{Dataflow, DistributedGemm, Engine, GemmProblem, MeshShape, SimConfig};
use meshslice_faults::{FailureSpec, FaultSpec};
use meshslice_mesh::Torus2d;
use meshslice_recovery::tune_resilient;
use meshslice_serving::{
    build_replica_costs, BucketCost, CostProfile, CostTableCache, PhaseCostTable, ReplicaCosts,
    MAX_PREFILL_TOKENS, NOMINAL_KV_CONTEXT,
};
use meshslice_sim::{degraded_torus_profile, Duration};
use meshslice_telemetry::{TuneCandidate, TuneLog};

fn tiny_training() -> LlmConfig {
    LlmConfig {
        name: "Tiny".to_string(),
        hidden: 256,
        heads: 4,
        layers: 2,
        ffn_mult: 4,
    }
}

/// One phase table priced GeMM by GeMM: each FC GeMM is scheduled
/// weight-stationary at `meshslice_for` and run on a fresh engine, and
/// (when `full`) again under the centre-chip degraded torus. A bucket
/// is dropped when any of its GeMMs does not divide or schedule.
#[allow(clippy::too_many_arguments)]
fn reference_phase(
    tuner: &Autotuner,
    model: &LlmConfig,
    mesh: MeshShape,
    requested_s: usize,
    full: bool,
    sizes: impl Iterator<Item = usize>,
    gemms_of: impl Fn(usize) -> Vec<FcGemm>,
    non_fc_of: impl Fn(usize) -> f64,
) -> PhaseCostTable {
    let cfg = tuner.cost_model().config();
    let torus = Torus2d::from_shape(mesh);
    let nominal = Engine::new(torus.clone(), cfg.clone());
    let degraded = nominal.with_faults(degraded_torus_profile(&torus, mesh.num_chips() / 2));
    let mut buckets = Vec::new();
    'bucket: for size in sizes {
        let (mut nominal_secs, mut degraded_secs) = (0.0, 0.0);
        for gemm in gemms_of(size) {
            let problem = GemmProblem::new(gemm.shape, Dataflow::Rs);
            if problem.check_divisible(mesh).is_err() {
                continue 'bucket;
            }
            let algo = tuner.meshslice_for(mesh, problem, requested_s);
            let Ok(program) = algo.schedule(&torus, problem, cfg.elem_bytes) else {
                continue 'bucket;
            };
            let secs = nominal.run(&program).makespan().as_secs();
            nominal_secs += secs;
            degraded_secs += if full {
                degraded.run(&program).makespan().as_secs()
            } else {
                secs
            };
        }
        let non_fc = non_fc_of(size);
        let layers = model.layers as f64;
        buckets.push(BucketCost {
            size,
            nominal_secs: nominal_secs * layers + non_fc,
            degraded_secs: degraded_secs * layers + non_fc,
        });
    }
    PhaseCostTable { buckets }
}

/// The replica tables `build_replica_costs` documents, priced through
/// the public API only.
fn reference_costs(
    model: &LlmConfig,
    mesh: MeshShape,
    requested_s: usize,
    max_batch: usize,
    full: bool,
) -> Option<ReplicaCosts> {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let cfg = tuner.cost_model().config().clone();
    let chips = mesh.num_chips();
    let kv_budget =
        inference_footprint(model, mesh, requested_s, MAX_PREFILL_TOKENS).kv_budget(HBM_BYTES);
    let per_token = kv_bytes_per_token(model, chips, cfg.elem_bytes);
    if kv_budget < per_token {
        return None;
    }
    let layers = model.layers as f64;
    let fwd_non_fc = |batch: usize, seq_len: usize| {
        let setup = TrainingSetup { batch, seq_len };
        model.non_fc_block_time(setup, chips, &cfg).as_secs() / 3.0 * layers
    };
    let kv_stream = |batch: usize| {
        let bytes =
            (batch * NOMINAL_KV_CONTEXT) as f64 * 2.0 * model.hidden as f64 * cfg.elem_bytes as f64
                / chips as f64;
        bytes / cfg.hbm_bandwidth * layers
    };
    let decode = reference_phase(
        &tuner,
        model,
        mesh,
        requested_s,
        full,
        (0..).map(|i| 1 << i).take_while(|&b| b <= max_batch),
        |b| model.decode_gemms(b),
        |b| fwd_non_fc(b, 1) + kv_stream(b),
    );
    let prefill = reference_phase(
        &tuner,
        model,
        mesh,
        requested_s,
        full,
        (8..)
            .map(|i| 1 << i)
            .take_while(|&t| t <= MAX_PREFILL_TOKENS),
        |t| model.prefill_gemms(1, t),
        |t| fwd_non_fc(1, t),
    );
    if decode.buckets.is_empty() || prefill.buckets.is_empty() {
        return None;
    }
    Some(ReplicaCosts {
        mesh,
        slice_count: requested_s,
        max_batch,
        prefill,
        decode,
        kv_bytes_per_token: per_token,
        kv_budget_bytes: kv_budget,
        degraded_priced: full,
    })
}

/// The serving layouts the table pins cover for each model: three
/// meshes, two slice counts, two batch caps.
fn serving_layouts() -> Vec<(MeshShape, usize, usize)> {
    let mut layouts = Vec::new();
    for mesh in [
        MeshShape::new(2, 2),
        MeshShape::new(2, 4),
        MeshShape::new(4, 4),
    ] {
        for s in [1, 4] {
            for cap in [8, 32] {
                layouts.push((mesh, s, cap));
            }
        }
    }
    layouts
}

#[test]
fn full_cost_tables_match_the_per_gemm_reference() {
    let cfg = SimConfig::tpu_v4();
    for model in [LlmConfig::tiny(), LlmConfig::gpt3()] {
        let mut feasible = 0;
        for (mesh, s, cap) in serving_layouts() {
            let built = build_replica_costs(&model, mesh, s, cap, &cfg);
            let expected = reference_costs(&model, mesh, s, cap, true);
            assert_eq!(built, expected, "{} {mesh} S={s} cap {cap}", model.name);
            feasible += usize::from(built.is_some());
        }
        assert!(
            feasible >= 4,
            "{}: only {feasible} layouts serve",
            model.name
        );
    }
}

#[test]
fn one_shared_nominal_cache_matches_the_per_gemm_reference() {
    let cfg = SimConfig::tpu_v4();
    for model in [LlmConfig::tiny(), LlmConfig::gpt3()] {
        // One cache across every mesh, slice count and cap: its memo sees
        // the same GeMM under different meshes and algorithms.
        let cache = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        for (mesh, s, cap) in serving_layouts() {
            let cached = cache.replica_costs(&model, mesh, s, cap);
            let expected = reference_costs(&model, mesh, s, cap, false);
            assert_eq!(
                cached.as_deref(),
                expected.as_ref(),
                "{} {mesh} S={s} cap {cap}",
                model.name
            );
        }
    }
}

/// Every legal slice count (plus the `S = 1` fallback) of every pass,
/// priced analytically and simulated afresh, in plan order.
fn reference_log(tuner: &Autotuner, model: &LlmConfig, mesh: MeshShape) -> TuneLog {
    let setup = TrainingSetup::weak_scaling(mesh.num_chips());
    let cost = tuner.cost_model();
    let eb = cost.config().elem_bytes;
    let torus = Torus2d::from_shape(mesh);
    let engine = Engine::new(torus.clone(), cost.config().clone());
    let (_, layers) = tuner
        .estimate_on_mesh(model, setup, mesh)
        .expect("feasible");
    let mut log = TuneLog::default();
    for layer in &layers {
        for plan in &layer.passes {
            let mut counts = tuner.legal_slice_counts(mesh, plan.problem);
            if !counts.contains(&1) {
                counts.insert(0, 1);
            }
            for s in counts {
                let program = tuner
                    .meshslice_for(mesh, plan.problem, s)
                    .schedule(&torus, plan.problem, eb)
                    .expect("legal slice counts schedule");
                let report = engine.run(&program);
                log.push(TuneCandidate {
                    mesh_rows: mesh.rows(),
                    mesh_cols: mesh.cols(),
                    label: format!("{}/{}", layer.layer.name, plan.pass),
                    dataflow: plan.problem.dataflow.to_string(),
                    slice_count: s,
                    predicted: cost.meshslice_time(mesh, plan.problem, s, eb).as_secs(),
                    simulated: report.makespan().as_secs(),
                    predicted_comm: cost
                        .meshslice_comm_time(mesh, plan.problem, s, eb)
                        .as_secs(),
                    simulated_comm: report.totals().comm_total().as_secs(),
                    chosen: s == plan.slice_count,
                });
            }
        }
    }
    log
}

#[test]
fn logged_tuning_matches_the_per_candidate_reference() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    for (model, mesh) in [
        (tiny_training(), MeshShape::new(2, 2)),
        (tiny_training(), MeshShape::new(4, 2)),
        (LlmConfig::gpt3(), MeshShape::new(2, 2)),
    ] {
        let setup = TrainingSetup::weak_scaling(mesh.num_chips());
        let expected = reference_log(&tuner, &model, mesh);
        let (_, planned) = tuner.estimate_on_mesh(&model, setup, mesh).unwrap();
        for threads in [1, 2] {
            let (layers, log) = tuner
                .tune_on_mesh_logged(&model, setup, mesh, threads)
                .expect("feasible");
            assert_eq!(layers, planned, "{} {mesh} threads {threads}", model.name);
            assert_eq!(log, expected, "{} {mesh} threads {threads}", model.name);
        }
    }
}

#[test]
fn robust_tuning_matches_the_serial_block_reference() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let base = tuner.cost_model().config().clone();
    let model = tiny_training();
    let chips = 8;
    let setup = TrainingSetup::weak_scaling(chips);
    let s_values = [1, 2, 4, 8];
    let profiles = FaultSpec::stragglers(1, 1.7).sample_profiles(chips, 11, 3);
    for objective in [RobustObjective::P95, RobustObjective::Worst] {
        let mut expected = Vec::new();
        for mesh in Autotuner::candidate_meshes(chips) {
            for &s in &s_values {
                let block = |cfg: &SimConfig| {
                    tuner
                        .simulate_block(&model, setup, mesh, s, cfg)
                        .map(|r| r.makespan())
                };
                let Some(nominal) = block(&base) else {
                    continue;
                };
                let per_draw: Vec<Duration> = profiles
                    .iter()
                    .map(|p| block(&base.clone().with_faults(p.clone())).unwrap())
                    .collect();
                expected.push(RobustCandidate {
                    mesh_shape: mesh,
                    requested_s: s,
                    nominal,
                    score: objective.score(&per_draw),
                    per_draw,
                });
            }
        }
        expected.sort_by(|a, b| {
            a.score
                .cmp(&b.score)
                .then(a.nominal.cmp(&b.nominal))
                .then(a.requested_s.cmp(&b.requested_s))
        });
        for threads in [1, 2] {
            let plan = tuner.tune_robust_threads(
                &model, setup, chips, &s_values, &profiles, objective, threads,
            );
            assert_eq!(plan.objective, objective);
            assert_eq!(plan.candidates, expected, "{objective:?} threads {threads}");
        }
    }
}

#[test]
fn resilient_tuning_blocks_match_the_serial_block_reference() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let base = tuner.cost_model().config().clone();
    let model = tiny_training();
    let chips = 8;
    let setup = TrainingSetup::weak_scaling(chips);
    let s_values = [1, 2, 4];
    let mut expected = Vec::new();
    for mesh in Autotuner::candidate_meshes(chips) {
        let torus = Torus2d::from_shape(mesh);
        let degraded = base
            .clone()
            .with_faults(degraded_torus_profile(&torus, chips / 2));
        for &s in &s_values {
            let block = |cfg: &SimConfig| {
                tuner
                    .simulate_block(&model, setup, mesh, s, cfg)
                    .map(|r| r.makespan())
            };
            if let Some(nominal) = block(&base) {
                expected.push((mesh, s, nominal, block(&degraded).unwrap()));
            }
        }
    }
    let spec = FailureSpec::chip_mtbf(3600.0, 86_400.0);
    for threads in [1, 2] {
        let plan = tune_resilient(&tuner, &model, setup, chips, &s_values, &spec, threads)
            .expect("valid failure spec");
        let mut got: Vec<_> = plan
            .candidates
            .iter()
            .map(|c| {
                (
                    c.mesh_shape,
                    c.requested_s,
                    c.nominal_block,
                    c.degraded_block,
                )
            })
            .collect();
        got.sort_by_key(|&(mesh, s, _, _)| (mesh, s));
        expected.sort_by_key(|&(mesh, s, _, _)| (mesh, s));
        assert_eq!(got, expected, "threads {threads}");
    }
}
