//! End-to-end resilience: a chip dies mid-run, the engine detects it via
//! the neighbor-sync watchdog, and the training run completes through
//! checkpoint/restart with goodput < 1 — plus the degraded-collectives
//! numerical contract against the dense single-chip reference, and the
//! zero-failure bit-for-bit guarantee.

use meshslice::checkpoint::young_daly_interval;
use meshslice_faults::FailureSpec;
use meshslice_gemm::{degraded_all_gather, degraded_reduce_scatter};
use meshslice_mesh::{ChipId, CommAxis, Torus2d};
use meshslice_recovery::{simulate_recovery, RecoveryParams};
use meshslice_sim::{
    degraded_torus_profile, ChipFailure, Engine, FailureOutcome, GemmShape, Program,
    ProgramBuilder, RunScratch, SimConfig,
};
use meshslice_tensor::Matrix;
use proptest::prelude::*;

/// One "training step" program: a ring all-gather feeding a GeMM on every
/// chip, so every chip both computes and synchronizes with neighbors.
fn step_program(mesh: &Torus2d) -> Program {
    let mut b = ProgramBuilder::new(mesh);
    let tag = b.next_tag();
    for chip in mesh.chips() {
        let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
        b.gemm(chip, GemmShape::new(512, 512, 512), &[ag]);
    }
    b.build()
}

/// Runs `program` on fresh scratch with `failure` injected mid-run.
fn run_with_failure(
    engine: &Engine,
    program: &Program,
    failure: ChipFailure,
    sync_timeout: f64,
) -> FailureOutcome {
    let lowered = engine.lower_program(program);
    engine.run_observed(
        &lowered,
        &mut RunScratch::new(),
        Some((failure, sync_timeout)),
        &mut (),
    )
}

#[test]
fn chip_death_mid_run_completes_via_checkpoint_restart_with_goodput_below_one() {
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let program = step_program(&mesh);
    let engine = Engine::new(mesh.clone(), cfg.clone());

    let baseline = engine.run(&program);
    let step_secs = baseline.makespan().as_secs();
    assert!(step_secs > 0.0);

    // A failure spec whose horizon is the modeled run: 50 steps.
    let num_steps = 50usize;
    let horizon = num_steps as f64 * step_secs;
    let spec = FailureSpec::chip_mtbf(4.0 * horizon, horizon);
    let draw = spec.sample(mesh.num_chips(), 42);
    let first = draw
        .first_chip_failure()
        .expect("cluster MTBF of horizon/4 fails within the horizon at seed 42");

    // Kill that chip mid-step at the engine level: the run aborts, and the
    // watchdog's detection instant trails the failure by at least the
    // neighbor-sync timeout.
    let sync_timeout = 1e-4 * step_secs;
    let failure = ChipFailure {
        chip: first.chip,
        at: 0.35 * step_secs,
    };
    let outcome = run_with_failure(&engine, &program, failure, sync_timeout);
    let abort = outcome.aborted().expect("mid-step failure aborts the run");
    assert!(abort.detected_at.as_secs() >= failure.at + sync_timeout);
    assert!(abort.completed_nodes < abort.total_nodes);
    let detect_secs = abort.detected_at.as_secs() - failure.at;

    // Continuation runs on the degraded torus: rings route around the
    // dead chip at the extra-hop bandwidth cost.
    let degraded_profile = degraded_torus_profile(&mesh, first.chip);
    let degraded = Engine::new(mesh.clone(), cfg.clone().with_faults(degraded_profile))
        .run(&program)
        .makespan()
        .as_secs();
    assert!(degraded >= step_secs);

    // Checkpoint at the Young–Daly interval for this cluster's MTBF, then
    // replay the sampled failures through checkpoint/restart.
    let checkpoint_secs = 2.0 * step_secs;
    let tau = young_daly_interval(checkpoint_secs, spec.cluster_mtbf(mesh.num_chips()));
    let checkpoint_every = ((tau / step_secs).round() as usize).clamp(1, num_steps);
    let params = RecoveryParams {
        step_secs,
        degraded_step_secs: degraded,
        num_steps,
        checkpoint_every,
        checkpoint_secs,
        restore_secs: checkpoint_secs,
        detect_secs,
    };
    let report = simulate_recovery(&params, &draw);

    // The run completes every step despite the failure, at goodput < 1.
    assert_eq!(report.steps, num_steps);
    assert!(report.failures_hit >= 1);
    assert!(
        report.goodput() < 1.0,
        "goodput {} should be sub-unity",
        report.goodput()
    );
    assert!(report.goodput() > 0.0);
    assert!(report.lost > 0.0 || report.detection > 0.0);
    let buckets = report.useful
        + report.degraded_excess
        + report.checkpoint
        + report.lost
        + report.detection
        + report.restore;
    assert!(
        (buckets - report.wall_clock).abs() < 1e-9 * report.wall_clock.max(1.0),
        "buckets {buckets} vs wall clock {}",
        report.wall_clock
    );
}

#[test]
fn zero_failure_spec_is_bit_for_bit_identical_to_the_baseline() {
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let program = step_program(&mesh);
    let engine = Engine::new(mesh.clone(), cfg);

    let baseline = engine.run(&program);
    let draw = FailureSpec::none().sample(mesh.num_chips(), 7);
    assert!(draw.is_empty());

    // With no failure inside the run, the failure path must reproduce the
    // baseline report exactly.
    let beyond = ChipFailure {
        chip: 0,
        at: 2.0 * baseline.makespan().as_secs(),
    };
    let outcome = run_with_failure(&engine, &program, beyond, 1e-6);
    assert_eq!(outcome.completed(), Some(&baseline));

    // And the recovery walk of an empty draw is pure useful time.
    let params = RecoveryParams {
        step_secs: 1.0,
        degraded_step_secs: 1.0,
        num_steps: 10,
        checkpoint_every: 0,
        checkpoint_secs: 1.0,
        restore_secs: 1.0,
        detect_secs: 1.0,
    };
    let report = simulate_recovery(&params, &draw);
    assert_eq!(report.goodput(), 1.0);
    assert_eq!(report.failures_hit, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Degraded all-gather equals the dense reference: every survivor of
    /// the re-formed ring holds exactly the concatenation of the
    /// survivors' shards (the redistributed global matrix), healthy rings
    /// are untouched, and the dead slot passes through.
    #[test]
    fn degraded_all_gather_matches_the_dense_reference(
        ring_len in 2usize..5, other in 1usize..4,
        shard_rows in 1usize..4, shard_cols in 1usize..4,
        inter_row in any::<bool>(),
        dead_pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let (mesh, axis) = if inter_row {
            (Torus2d::new(ring_len, other), CommAxis::InterRow)
        } else {
            (Torus2d::new(other, ring_len), CommAxis::InterCol)
        };
        let n = mesh.num_chips();
        let dead = ChipId(dead_pick % n);
        let shards: Vec<Matrix> = (0..n)
            .map(|i| Matrix::random(shard_rows, shard_cols, seed ^ (i as u64) << 8))
            .collect();
        let out = degraded_all_gather(&mesh, axis, dead, &shards);
        for ring in mesh.rings(axis) {
            let live: Vec<ChipId> = ring
                .members()
                .iter()
                .copied()
                .filter(|&c| c != dead)
                .collect();
            if live.is_empty() {
                continue;
            }
            let parts: Vec<Matrix> = live.iter().map(|&c| shards[c.index()].clone()).collect();
            // The dense single-chip reference: the ring's matrix assembled
            // in one place from the shards that survive.
            let dense = match axis {
                CommAxis::InterRow => Matrix::vcat(&parts),
                CommAxis::InterCol => Matrix::hcat(&parts),
            };
            for &chip in &live {
                prop_assert_eq!(&out[chip.index()], &dense);
            }
        }
        prop_assert_eq!(&out[dead.index()], &shards[dead.index()]);
    }

    /// Degraded reduce-scatter followed by degraded all-gather equals the
    /// dense single-chip sum of the survivors' partials, on every survivor
    /// of every ring.
    #[test]
    fn degraded_reduce_scatter_matches_the_dense_sum(
        ring_len in 2usize..5, other in 1usize..4,
        rows_unit in 1usize..3, cols in 1usize..4,
        inter_row in any::<bool>(),
        dead_pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let (mesh, axis) = if inter_row {
            (Torus2d::new(ring_len, other), CommAxis::InterRow)
        } else {
            (Torus2d::new(other, ring_len), CommAxis::InterCol)
        };
        let n = mesh.num_chips();
        let dead = ChipId(dead_pick % n);
        // Split dimension divisible by both the healthy ring length and
        // the survivor count, so every ring scatters evenly.
        let split = ring_len * (ring_len - 1) * rows_unit;
        let (r, c) = match axis {
            CommAxis::InterRow => (split, cols),
            CommAxis::InterCol => (cols, split),
        };
        let partials: Vec<Matrix> = (0..n)
            .map(|i| Matrix::random(r, c, seed ^ (i as u64) << 8))
            .collect();
        let scattered = degraded_reduce_scatter(&mesh, axis, dead, &partials);
        let gathered = degraded_all_gather(&mesh, axis, dead, &scattered);
        for ring in mesh.rings(axis) {
            let live: Vec<ChipId> = ring
                .members()
                .iter()
                .copied()
                .filter(|&c| c != dead)
                .collect();
            if live.is_empty() {
                continue;
            }
            // The dense single-chip reference: sum the surviving partials
            // in one place.
            let mut dense = partials[live[0].index()].clone();
            for &chip in &live[1..] {
                dense += &partials[chip.index()];
            }
            for &chip in &live {
                prop_assert!(
                    gathered[chip.index()].approx_eq(&dense, 1e-5),
                    "survivor {} diverges from the dense sum by {}",
                    chip.index(),
                    gathered[chip.index()].max_abs_diff(&dense)
                );
            }
        }
        prop_assert_eq!(&scattered[dead.index()], &partials[dead.index()]);
    }
}
