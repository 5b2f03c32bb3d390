//! Sweep-path performance harness: times the robustness-aware autotuner
//! end to end against the legacy per-draw loop it replaced, checks that
//! parallel and serial sweeps produce bit-identical plans, and writes the
//! numbers to `BENCH_sweeps.json` at the workspace root.
//!
//! The legacy loop below re-schedules and re-lowers every pass for every
//! fault draw with a fresh engine per run — the algorithm the seed's
//! robust tuner used. The tuned path (`tune_robust_threads`) lowers each
//! distinct pass spec once per search, replays the lowered graphs
//! across draws with recycled run state, and fans candidates out across
//! worker threads. Both paths must agree bit for bit; any divergence
//! exits nonzero so CI can gate on it.
//!
//! `MESHSLICE_BENCH_SCALE=quick` shrinks the workload (16 chips, 2 draws)
//! for smoke runs; the committed artifact uses the full workload (GPT-3,
//! 64 chips, 8 draws).

use std::time::Instant;

use meshslice::autotuner::{Autotuner, RobustObjective, RobustPlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::par;
use meshslice_bench::{banner, quick_mode, sim_config};
use meshslice_faults::{FaultSpec, JitterModel};
use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, MeshSlice};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{ClusterProfile, Duration, Engine, RunScratch};
use meshslice_telemetry::Json;
use meshslice_tensor::GemmShape;

/// Wall-clock of the robust tuner on this workload at the v0 seed commit
/// (2209972), measured on the same container as the committed artifact.
/// The in-binary legacy loop below under-states the seed's cost because
/// it shares the engine-level improvements (wake queue, event layout);
/// this constant is the honest "before".
const SEED_WALL_SECS: f64 = 15.62;

struct Workload {
    model: LlmConfig,
    chips: usize,
    draws: usize,
    s_values: [usize; 4],
    profiles: Vec<ClusterProfile>,
}

fn workload() -> Workload {
    let (chips, draws) = if quick_mode() { (16, 2) } else { (64, 8) };
    let spec = FaultSpec::stragglers(1, 1.5)
        .with_jitter(JitterModel::LogNormal { sigma: 0.05 })
        .with_link_degradation(0.25, 0.7);
    Workload {
        model: LlmConfig::gpt3(),
        chips,
        draws,
        s_values: [1, 2, 4, 8],
        profiles: spec.sample_profiles(chips, 42, draws),
    }
}

/// The seed's algorithm: schedule + lower + fresh engine for every
/// (candidate, draw) pair. Returns the same per-candidate scores as
/// `tune_robust_threads` for the cross-check.
fn legacy_scores(
    tuner: &Autotuner,
    w: &Workload,
) -> Vec<(MeshShape, usize, Duration, Vec<Duration>)> {
    let setup = TrainingSetup::weak_scaling(w.chips);
    let base = tuner.cost_model().config().clone();
    let mut scores = Vec::new();
    for mesh in Autotuner::candidate_meshes(w.chips) {
        for &s in &w.s_values {
            let Some(nominal) = tuner.simulate_block(&w.model, setup, mesh, s, &base) else {
                continue;
            };
            let per_draw: Vec<_> = w
                .profiles
                .iter()
                .map(|p| {
                    let cfg = base.clone().with_faults(p.clone());
                    tuner
                        .simulate_block(&w.model, setup, mesh, s, &cfg)
                        .expect("feasible under the nominal config implies feasible under faults")
                        .makespan()
                })
                .collect();
            scores.push((mesh, s, nominal.makespan(), per_draw));
        }
    }
    scores
}

/// Dies with a nonzero exit if the tuned plan disagrees with the legacy
/// scores or with a plan computed at a different thread count.
fn check_determinism(
    legacy: &[(MeshShape, usize, Duration, Vec<Duration>)],
    serial: &RobustPlan,
    parallel: &RobustPlan,
) {
    if serial != parallel {
        eprintln!("FAIL: parallel sweep diverges from the serial sweep");
        std::process::exit(1);
    }
    let mut cands = serial.candidates.clone();
    cands.sort_by(|a, b| {
        (a.mesh_shape.rows(), a.mesh_shape.cols(), a.requested_s).cmp(&(
            b.mesh_shape.rows(),
            b.mesh_shape.cols(),
            b.requested_s,
        ))
    });
    let mut legacy = legacy.to_vec();
    legacy.sort_by_key(|a| (a.0.rows(), a.0.cols(), a.1));
    if legacy.len() != cands.len() {
        eprintln!(
            "FAIL: candidate count mismatch (legacy {}, tuned {})",
            legacy.len(),
            cands.len()
        );
        std::process::exit(1);
    }
    for ((mesh, s, nominal, per_draw), cand) in legacy.iter().zip(cands.iter()) {
        if (*mesh, *s) != (cand.mesh_shape, cand.requested_s)
            || *nominal != cand.nominal
            || *per_draw != cand.per_draw
        {
            eprintln!("FAIL: tuned sweep diverges from the legacy loop at mesh {mesh} S={s}");
            std::process::exit(1);
        }
    }
}

/// Times one closure, returning (result, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Engine-level scratch microbench: the same program run with a fresh
/// engine per run, with recycled run state, and with recycled run state
/// on a pre-lowered graph.
fn scratch_microbench(iters: usize) -> Json {
    let mesh = Torus2d::new(4, 4);
    let cfg = sim_config();
    let problem = GemmProblem::new(GemmShape::new(8192, 8192, 8192), Dataflow::Os);
    let program = MeshSlice::new(8, 8)
        .schedule(&mesh, problem, cfg.elem_bytes)
        .expect("8192^3 divides a 4x4 mesh");
    let engine = Engine::new(mesh, cfg);
    let lowered = engine.lower_program(&program);
    let mut scratch = RunScratch::new();

    let (fresh_report, fresh) = timed(|| {
        let mut last = engine.run(&program);
        for _ in 1..iters {
            last = engine.run(&program);
        }
        last
    });
    // Lowering on every run, reusing only the scratch buffers.
    let (scratch_report, with_scratch) = timed(|| {
        let mut last =
            engine.run_lowered_with_scratch(&engine.lower_program(&program), &mut scratch);
        for _ in 1..iters {
            last = engine.run_lowered_with_scratch(&engine.lower_program(&program), &mut scratch);
        }
        last
    });
    let (lowered_report, prelowered) = timed(|| {
        let mut last = engine.run_lowered_with_scratch(&lowered, &mut scratch);
        for _ in 1..iters {
            last = engine.run_lowered_with_scratch(&lowered, &mut scratch);
        }
        last
    });
    if scratch_report != fresh_report || lowered_report != fresh_report {
        eprintln!("FAIL: scratch-reuse run diverges from a fresh run");
        std::process::exit(1);
    }
    Json::obj(vec![
        ("iters", Json::Num(iters as f64)),
        ("fresh_run_secs", Json::Num(fresh)),
        ("run_with_scratch_secs", Json::Num(with_scratch)),
        ("run_lowered_with_scratch_secs", Json::Num(prelowered)),
    ])
}

fn main() {
    let w = workload();
    let scale = if quick_mode() { "quick" } else { "full" };
    banner(
        "Sweeps",
        &format!(
            "robust-autotune throughput, {} on {} chips, {} draws ({scale})",
            w.model.name, w.chips, w.draws
        ),
    );
    let tuner = Autotuner::new(sim_config());
    let setup = TrainingSetup::weak_scaling(w.chips);

    let (legacy, legacy_secs) = timed(|| legacy_scores(&tuner, &w));
    println!("legacy per-draw loop:      {legacy_secs:.2} s");

    let (serial, serial_secs) = timed(|| {
        tuner.tune_robust_threads(
            &w.model,
            setup,
            w.chips,
            &w.s_values,
            &w.profiles,
            RobustObjective::P95,
            1,
        )
    });
    println!("tune_robust (1 thread):    {serial_secs:.2} s");

    let threads = par::threads().max(2);
    let (parallel, parallel_secs) = timed(|| {
        tuner.tune_robust_threads(
            &w.model,
            setup,
            w.chips,
            &w.s_values,
            &w.profiles,
            RobustObjective::P95,
            threads,
        )
    });
    println!("tune_robust ({threads} threads):   {parallel_secs:.2} s");

    check_determinism(&legacy, &serial, &parallel);
    println!("determinism: serial == parallel == legacy scores (bit for bit)");

    let micro = scratch_microbench(if quick_mode() { 5 } else { 20 });

    let doc = Json::obj(vec![
        ("bench", Json::Str("sweeps".to_string())),
        ("scale", Json::Str(scale.to_string())),
        (
            "workload",
            Json::obj(vec![
                ("model", Json::Str(w.model.name.to_string())),
                ("chips", Json::Num(w.chips as f64)),
                ("draws", Json::Num(w.draws as f64)),
                (
                    "s_values",
                    Json::Arr(w.s_values.iter().map(|&s| Json::Num(s as f64)).collect()),
                ),
                ("objective", Json::Str("p95".to_string())),
            ]),
        ),
        (
            "seed_baseline",
            Json::obj(vec![
                ("wall_secs", Json::Num(SEED_WALL_SECS)),
                (
                    "note",
                    Json::Str(
                        "tune_robust wall-clock at the v0 seed commit on the full \
                         workload; valid comparison point for full scale only"
                            .to_string(),
                    ),
                ),
            ]),
        ),
        (
            "runs",
            Json::obj(vec![
                ("legacy_per_draw_secs", Json::Num(legacy_secs)),
                ("tuned_serial_secs", Json::Num(serial_secs)),
                ("tuned_parallel_secs", Json::Num(parallel_secs)),
                ("parallel_threads", Json::Num(threads as f64)),
            ]),
        ),
        (
            "speedup",
            Json::obj(vec![
                (
                    "tuned_vs_legacy_in_binary",
                    Json::Num(legacy_secs / serial_secs),
                ),
                (
                    "tuned_vs_seed_recorded",
                    if quick_mode() {
                        Json::Null
                    } else {
                        Json::Num(SEED_WALL_SECS / serial_secs)
                    },
                ),
            ]),
        ),
        ("scratch_microbench", micro),
        (
            "determinism",
            Json::obj(vec![
                ("serial_equals_parallel", Json::Bool(true)),
                ("tuned_equals_legacy", Json::Bool(true)),
            ]),
        ),
    ]);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_sweeps.json");
    let mut text = doc.to_string_pretty();
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => println!(
            "(written to {})",
            path.canonicalize().unwrap_or(path.clone()).display()
        ),
        Err(e) => {
            eprintln!("FAIL: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
