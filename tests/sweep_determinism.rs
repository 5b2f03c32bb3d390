//! Determinism contract of the sweep fast paths: thread-count invariance
//! of the parallel drivers, and bit-identical reports from scratch reuse
//! and pre-lowered replay.

use meshslice::autotuner::{Autotuner, RobustObjective, SpecMemo};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{Dataflow, DistributedGemm, GemmProblem, GemmShape, MeshShape, MeshSlice};
use meshslice_faults::{FailureSpec, FaultSpec, JitterModel};
use meshslice_mesh::Torus2d;
use meshslice_recovery::tune_resilient;
use meshslice_sim::{Engine, RunScratch, SimConfig};

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
fn tune_robust_is_thread_count_invariant() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let model = tiny();
    let chips = 4;
    let setup = TrainingSetup::weak_scaling(chips);
    let spec = FaultSpec::stragglers(1, 1.6)
        .with_jitter(JitterModel::LogNormal { sigma: 0.05 })
        .with_link_degradation(0.25, 0.7);
    let profiles = spec.sample_profiles(chips, 42, 3);
    let plans: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            tuner.tune_robust_threads(
                &model,
                setup,
                chips,
                &[1, 2, 4],
                &profiles,
                RobustObjective::P95,
                threads,
            )
        })
        .collect();
    assert_eq!(plans[0], plans[1], "2 threads diverge from serial");
    assert_eq!(plans[0], plans[2], "8 threads diverge from serial");
}

#[test]
fn tune_resilient_is_thread_count_invariant() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let model = tiny();
    let chips = 4;
    let setup = TrainingSetup::weak_scaling(chips);
    let spec = FailureSpec::chip_mtbf(3600.0, 86_400.0).with_link_mtbf(7200.0);
    let plans: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            tune_resilient(&tuner, &model, setup, chips, &[1, 2, 4], &spec, threads)
                .expect("valid failure spec")
        })
        .collect();
    assert_eq!(plans[0], plans[1], "2 threads diverge from serial");
    assert_eq!(plans[0], plans[2], "8 threads diverge from serial");
}

#[test]
fn logged_tuning_is_thread_count_invariant() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let model = tiny();
    let setup = TrainingSetup::weak_scaling(4);
    let mesh = MeshShape::new(2, 2);
    let outputs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            tuner
                .tune_on_mesh_logged(&model, setup, mesh, threads)
                .expect("tiny model divides a 2x2 mesh")
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "2 threads diverge from serial");
    assert_eq!(outputs[0], outputs[2], "8 threads diverge from serial");
}

#[test]
fn scratch_reuse_matches_fresh_runs() {
    let mesh = Torus2d::new(2, 2);
    let cfg = SimConfig::tpu_v4();
    let engine = Engine::new(mesh.clone(), cfg.clone());
    let problems = [
        GemmProblem::new(GemmShape::new(256, 256, 256), Dataflow::Os),
        GemmProblem::new(GemmShape::new(512, 128, 256), Dataflow::Ls),
    ];
    let mut scratch = RunScratch::new();
    for problem in problems {
        let program = MeshSlice::new(2, 4)
            .schedule(&mesh, problem, cfg.elem_bytes)
            .expect("divisible by construction");
        let fresh = engine.run(&program);
        // Reuse the same scratch across programs and back-to-back runs:
        // recycled state must never leak between runs.
        let reused_a =
            engine.run_lowered_with_scratch(&engine.lower_program(&program), &mut scratch);
        let reused_b =
            engine.run_lowered_with_scratch(&engine.lower_program(&program), &mut scratch);
        assert_eq!(fresh, reused_a);
        assert_eq!(fresh, reused_b);
        let lowered = engine.lower_program(&program);
        let replayed = engine.run_lowered_with_scratch(&lowered, &mut scratch);
        assert_eq!(fresh, replayed);
    }
}

#[test]
fn block_draws_match_per_draw_block_simulations() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let model = tiny();
    let chips = 4;
    let setup = TrainingSetup::weak_scaling(chips);
    let mesh = MeshShape::new(2, 2);
    let profiles = FaultSpec::stragglers(1, 1.5).sample_profiles(chips, 7, 3);
    let base = tuner.cost_model().config().clone();
    let mut scratch = RunScratch::new();
    for s in [1usize, 2, 4] {
        let (nominal, per_draw) = tuner
            .fc_block(&SpecMemo::new(base.clone()), &model, setup, mesh, s)
            .expect("tiny model divides a 2x2 mesh")
            .makespans(&profiles, &mut scratch);
        let expected_nominal = tuner
            .simulate_block(&model, setup, mesh, s, &base)
            .unwrap()
            .makespan();
        assert_eq!(nominal, expected_nominal, "S={s} nominal mismatch");
        for (i, p) in profiles.iter().enumerate() {
            let cfg = base.clone().with_faults(p.clone());
            let expected = tuner
                .simulate_block(&model, setup, mesh, s, &cfg)
                .unwrap()
                .makespan();
            assert_eq!(per_draw[i], expected, "S={s} draw {i} mismatch");
        }
    }
}
