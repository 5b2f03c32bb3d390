//! Resilience performance harness: sweeps a chip-MTBF ladder through
//! `tune_resilient` (joint plan + Young–Daly checkpoint-interval choice),
//! replays one seeded failure draw per rung through checkpoint/restart,
//! gates on thread-count determinism, and writes the MTBF→goodput
//! trajectory to `BENCH_resilience.json` at the workspace root.
//!
//! `MESHSLICE_BENCH_SCALE=quick` shrinks the workload (16 chips, 3 MTBF
//! rungs) for smoke runs; the committed artifact uses the full workload
//! (GPT-3, 64 chips, 5 rungs).

use std::time::Instant;

use meshslice::autotuner::Autotuner;
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::par;
use meshslice_bench::{banner, quick_mode, sim_config};
use meshslice_faults::FailureSpec;
use meshslice_recovery::{simulate_recovery, tune_resilient, RecoveryParams, DEFAULT_DETECT_SECS};
use meshslice_telemetry::Json;

struct Workload {
    model: LlmConfig,
    chips: usize,
    steps: usize,
    s_values: [usize; 4],
    mtbf_hours: Vec<f64>,
    seed: u64,
}

fn workload() -> Workload {
    let (chips, steps, mtbf_hours) = if quick_mode() {
        (16, 50, vec![24.0, 6.0, 1.5])
    } else {
        (64, 500, vec![96.0, 24.0, 6.0, 1.5, 0.5])
    };
    Workload {
        model: LlmConfig::gpt3(),
        chips,
        steps,
        s_values: [1, 2, 4, 8],
        mtbf_hours,
        seed: 42,
    }
}

/// Times one closure, returning (result, seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn main() {
    let w = workload();
    let scale = if quick_mode() { "quick" } else { "full" };
    banner(
        "Resilience",
        &format!(
            "MTBF -> goodput sweep, {} on {} chips, {}-step runs ({scale})",
            w.model.name, w.chips, w.steps
        ),
    );
    let tuner = Autotuner::new(sim_config());
    let setup = TrainingSetup::weak_scaling(w.chips);
    let threads = par::threads().max(2);
    // Every spec below has a positive MTBF and horizon.
    let tune = |spec: &FailureSpec, threads: usize| {
        tune_resilient(&tuner, &w.model, setup, w.chips, &w.s_values, spec, threads)
            .expect("the bench builds only valid failure specs")
    };

    // The failure-free plan prices the modeled horizon: `steps` nominal
    // training steps.
    let calm = tune(&FailureSpec::none(), threads);
    let step0 = calm.best().nominal_block.as_secs() * w.model.layers as f64;
    let horizon = (w.steps as f64 * step0).max(1.0);
    println!("nominal run: {horizon:.1} s ({step0:.3} s/step)");

    let mut rungs = Vec::new();
    for &hours in &w.mtbf_hours {
        let spec = FailureSpec::chip_mtbf(hours * 3600.0, horizon);
        let (serial, serial_secs) = timed(|| tune(&spec, 1));
        let (parallel, parallel_secs) = timed(|| tune(&spec, threads));
        if serial != parallel {
            eprintln!("FAIL: parallel resilient sweep diverges from serial at MTBF {hours} h");
            std::process::exit(1);
        }
        let best = serial.best();
        let step_secs = best.nominal_block.as_secs() * w.model.layers as f64;
        let ckpt_every = if best.checkpoint_interval_secs.is_finite() && step_secs > 0.0 {
            ((best.checkpoint_interval_secs / step_secs).round() as usize).max(1)
        } else {
            0
        };
        let params = RecoveryParams {
            step_secs,
            degraded_step_secs: (best.degraded_block.as_secs() * w.model.layers as f64)
                .max(step_secs),
            num_steps: w.steps,
            checkpoint_every: ckpt_every,
            checkpoint_secs: best.checkpoint_secs,
            restore_secs: best.checkpoint_secs,
            detect_secs: DEFAULT_DETECT_SECS,
        };
        let draw = spec.sample(best.mesh_shape.num_chips(), w.seed);
        let report = simulate_recovery(&params, &draw);
        println!(
            "MTBF {hours:>6.2} h: mesh {} S={} ckpt every {ckpt_every:>3} steps | \
             expected {:.4} simulated {:.4} ({} failures) | tune {serial_secs:.2} s / \
             {parallel_secs:.2} s ({threads} threads)",
            best.mesh_shape,
            best.requested_s,
            best.expected_goodput,
            report.goodput(),
            report.failures_hit,
        );
        rungs.push(Json::obj(vec![
            ("mtbf_hours", Json::Num(hours)),
            ("mesh", Json::Str(best.mesh_shape.to_string())),
            ("s", Json::Num(best.requested_s as f64)),
            (
                "checkpoint_interval_s",
                Json::Num(best.checkpoint_interval_secs),
            ),
            ("checkpoint_write_s", Json::Num(best.checkpoint_secs)),
            ("checkpoint_every_steps", Json::Num(ckpt_every as f64)),
            ("expected_goodput", Json::Num(best.expected_goodput)),
            ("simulated_goodput", Json::Num(report.goodput())),
            ("failures_hit", Json::Num(report.failures_hit as f64)),
            ("tune_serial_secs", Json::Num(serial_secs)),
            ("tune_parallel_secs", Json::Num(parallel_secs)),
        ]));
    }
    println!("determinism: serial == parallel plans at every rung (bit for bit)");

    let doc = Json::obj(vec![
        ("bench", Json::Str("resilience".to_string())),
        ("scale", Json::Str(scale.to_string())),
        (
            "workload",
            Json::obj(vec![
                ("model", Json::Str(w.model.name.to_string())),
                ("chips", Json::Num(w.chips as f64)),
                ("steps", Json::Num(w.steps as f64)),
                (
                    "s_values",
                    Json::Arr(w.s_values.iter().map(|&s| Json::Num(s as f64)).collect()),
                ),
                ("seed", Json::Num(w.seed as f64)),
                ("horizon_s", Json::Num(horizon)),
                ("detect_s", Json::Num(DEFAULT_DETECT_SECS)),
            ]),
        ),
        ("rungs", Json::Arr(rungs)),
        (
            "determinism",
            Json::obj(vec![("serial_equals_parallel", Json::Bool(true))]),
        ),
        ("parallel_threads", Json::Num(threads as f64)),
    ]);

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_resilience.json");
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
