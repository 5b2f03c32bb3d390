//! Robustness-aware autotuning under injected cluster faults: sample
//! seeded fault profiles (a straggler chip plus heavy-tailed compute
//! jitter and degraded links), score every (mesh, slice count) candidate
//! by its p95 makespan across the draws, and compare the robust choice
//! against the fault-free optimum.
//!
//! ```text
//! cargo run --release --example fault_sweep [gpt3|megatron]
//! ```

use meshslice::autotuner::{Autotuner, RobustObjective};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::report::Table;
use meshslice::SimConfig;
use meshslice_faults::{FaultSpec, JitterModel};

fn main() {
    let model = match std::env::args().nth(1).as_deref() {
        Some("megatron") => LlmConfig::megatron_nlg(),
        _ => LlmConfig::gpt3(),
    };
    let chips = 16;
    let seeds = 4;
    let cfg = SimConfig::tpu_v4();
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(cfg.clone());

    let spec = FaultSpec::stragglers(1, 1.5)
        .with_jitter(JitterModel::LogNormal { sigma: 0.05 })
        .with_link_degradation(0.25, 0.7);
    let profiles = spec.sample_profiles(chips, 42, seeds);

    println!(
        "{model} on {chips} chips, {seeds} seeded fault draws \
         (1.5x straggler, lognormal jitter, degraded links):"
    );
    println!();

    let plan = tuner.tune_robust_threads(
        &model,
        setup,
        chips,
        &[1, 2, 4, 8],
        &profiles,
        RobustObjective::P95,
        meshslice::par::threads(),
    );
    let mut t = Table::new(vec![
        "mesh".into(),
        "S".into(),
        "nominal".into(),
        "p95".into(),
        "degradation".into(),
    ]);
    for c in plan.candidates.iter().take(8) {
        t.row(vec![
            c.mesh_shape.to_string(),
            c.requested_s.to_string(),
            format!("{:.3} ms", c.nominal.as_secs() * 1e3),
            format!("{:.3} ms", c.score.as_secs() * 1e3),
            format!("{:.2}x", c.degradation()),
        ]);
    }
    println!("{t}");

    let best = plan.best();
    let nominal_best = plan
        .candidates
        .iter()
        .min_by(|a, b| a.nominal.as_secs().total_cmp(&b.nominal.as_secs()))
        .unwrap();
    println!(
        "robust choice: mesh {} S={} ({:.3} ms p95)",
        best.mesh_shape,
        best.requested_s,
        best.score.as_secs() * 1e3
    );
    println!(
        "fault-free optimum: mesh {} S={} ({:.3} ms p95 under faults)",
        nominal_best.mesh_shape,
        nominal_best.requested_s,
        nominal_best.score.as_secs() * 1e3
    );
}
