//! Checkpoint/restart recovery for MeshSlice training runs.
//!
//! `meshslice-faults` draws *when* chips and links die
//! ([`FailureSpec`]); the sim engine models
//! *how* a run aborts (freeze → stall → neighbor-sync watchdog →
//! [`AbortInfo`](meshslice_sim::AbortInfo)). This crate closes the loop:
//!
//! - [`simulate_recovery`] walks a whole training run against a sampled
//!   [`FailureDraw`], charging checkpoint writes, detection latency,
//!   restore time, and replayed lost work, and continuing on the
//!   degraded torus (rings routed around the dead chip) after the first
//!   failure. The result is a [`RecoveryReport`] whose buckets account
//!   every wall-clock second and whose [`goodput`](RecoveryReport::goodput)
//!   is exactly 1 for a failure-free, checkpoint-free run.
//! - [`tune_resilient`] drives an [`Autotuner`] to jointly pick the
//!   (mesh, slice count) plan *and* the checkpoint interval that maximize
//!   expected goodput under a failure spec, reusing the deterministic
//!   parallel-sweep infrastructure (results are placed by input index, so
//!   plans are bit-identical at any thread count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use meshslice::autotuner::{simulated_search, Autotuner, LoweredBlock};
use meshslice::checkpoint::{expected_goodput, young_daly_interval, CheckpointModel};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice_faults::{FailureDraw, FailureSpec, FaultSpecError};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{degraded_torus_profile, Duration, RunScratch};

/// Default failure-detection latency, seconds: the neighbor-sync timeout
/// a survivor waits before declaring a silent peer dead.
pub const DEFAULT_DETECT_SECS: f64 = 1.0;

/// One training run's recovery parameters, all in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryParams {
    /// Nominal (failure-free) time of one training step.
    pub step_secs: f64,
    /// Step time on the degraded torus after a permanent failure (rings
    /// route around the dead chip at the extra-hop bandwidth cost); at
    /// least `step_secs`.
    pub degraded_step_secs: f64,
    /// Training steps the run must commit.
    pub num_steps: usize,
    /// Steps between checkpoints; `0` disables checkpointing (a failure
    /// then replays the run from the start).
    pub checkpoint_every: usize,
    /// Time to write one checkpoint.
    pub checkpoint_secs: f64,
    /// Time to restore model state from the last checkpoint.
    pub restore_secs: f64,
    /// Failure-detection latency charged per failure.
    pub detect_secs: f64,
}

impl RecoveryParams {
    fn validate(&self) {
        for (name, v) in [
            ("step time", self.step_secs),
            ("degraded step time", self.degraded_step_secs),
            ("checkpoint cost", self.checkpoint_secs),
            ("restore cost", self.restore_secs),
            ("detection latency", self.detect_secs),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} {v} must be finite and non-negative"
            );
        }
        assert!(
            self.degraded_step_secs >= self.step_secs,
            "degraded step time {} cannot beat the nominal step time {}",
            self.degraded_step_secs,
            self.step_secs
        );
    }
}

/// Wall-clock accounting of one recovered training run. Every second of
/// [`wall_clock`](Self::wall_clock) lands in exactly one bucket:
/// `useful + degraded_excess + checkpoint + lost + detection + restore`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Total wall-clock seconds from start to the last committed step.
    pub wall_clock: f64,
    /// Useful work: the committed steps at their *nominal* step time.
    pub useful: f64,
    /// Extra time the committed steps took because they ran on the
    /// degraded torus.
    pub degraded_excess: f64,
    /// Committed checkpoint writes.
    pub checkpoint: f64,
    /// Replayed work: everything between the last safe point and each
    /// failure (discarded steps, partial steps, torn checkpoint writes).
    pub lost: f64,
    /// Failure-detection latency across all failures.
    pub detection: f64,
    /// Checkpoint-restore time across all failures.
    pub restore: f64,
    /// Failures that actually interrupted the run.
    pub failures_hit: usize,
    /// Steps committed (always `num_steps` — the run retries to completion).
    pub steps: usize,
}

impl RecoveryReport {
    /// Useful compute divided by wall-clock; exactly 1 for a failure-free,
    /// checkpoint-free run, and in `[0, 1]` always.
    pub fn goodput(&self) -> f64 {
        if self.wall_clock <= 0.0 {
            return 1.0;
        }
        (self.useful / self.wall_clock).clamp(0.0, 1.0)
    }

    /// Wall-clock seconds that were not useful work.
    pub fn downtime(&self) -> f64 {
        (self.wall_clock - self.useful).max(0.0)
    }
}

/// Walks a training run of `params.num_steps` steps through the failures
/// of `draw`, modeling checkpoint/restart: a failure discards everything
/// since the last committed checkpoint, costs `detect_secs` to notice and
/// `restore_secs` to restore, and leaves the cluster on the degraded
/// torus (every later step runs at `degraded_step_secs`).
///
/// Failure instants that land while the run is already down (inside a
/// detection or restore window) are absorbed into the ongoing recovery —
/// the restored configuration replaces the one they targeted.
///
/// The walk is a pure function of its inputs: the same `(params, draw)`
/// produces a bit-identical report.
///
/// # Panics
///
/// Panics if a cost field of `params` is negative, NaN, or infinite, or
/// if `degraded_step_secs < step_secs`.
pub fn simulate_recovery(params: &RecoveryParams, draw: &FailureDraw) -> RecoveryReport {
    params.validate();
    let events = draw.event_times();
    let mut fi = 0usize;

    let mut wall = 0.0f64;
    let mut step = 0usize;
    let mut since_ckpt = 0usize;
    let mut ckpt_step = 0usize; // committed step count at the last safe point
    let mut last_safe = 0.0f64; // wall time of the last safe point
    let mut checkpoint = 0.0f64;
    let mut lost = 0.0f64;
    let mut detection = 0.0f64;
    let mut restore = 0.0f64;
    let mut degraded = false;
    let mut failures_hit = 0usize;

    // The next failure instant inside `[wall, wall + secs)`, consuming
    // (without counting) instants the run already slept through.
    let next_failure = |fi: &mut usize, wall: f64, secs: f64| -> Option<f64> {
        while let Some(&at) = events.get(*fi) {
            if at < wall {
                *fi += 1; // struck while already down: absorbed
                continue;
            }
            if at < wall + secs {
                *fi += 1;
                return Some(at);
            }
            return None;
        }
        None
    };

    while step < params.num_steps {
        let step_secs = if degraded {
            params.degraded_step_secs
        } else {
            params.step_secs
        };
        if let Some(at) = next_failure(&mut fi, wall, step_secs) {
            failures_hit += 1;
            lost += at - last_safe;
            wall = at + params.detect_secs + params.restore_secs;
            detection += params.detect_secs;
            restore += params.restore_secs;
            step = ckpt_step;
            since_ckpt = 0;
            degraded = true;
            last_safe = wall;
            continue;
        }
        wall += step_secs;
        step += 1;
        since_ckpt += 1;

        if params.checkpoint_every > 0
            && since_ckpt >= params.checkpoint_every
            && step < params.num_steps
        {
            if let Some(at) = next_failure(&mut fi, wall, params.checkpoint_secs) {
                // The write tore: the checkpoint never commits.
                failures_hit += 1;
                lost += at - last_safe;
                wall = at + params.detect_secs + params.restore_secs;
                detection += params.detect_secs;
                restore += params.restore_secs;
                step = ckpt_step;
                since_ckpt = 0;
                degraded = true;
                last_safe = wall;
                continue;
            }
            wall += params.checkpoint_secs;
            checkpoint += params.checkpoint_secs;
            since_ckpt = 0;
            ckpt_step = step;
            last_safe = wall;
        }
    }

    let useful = params.num_steps as f64 * params.step_secs;
    let committed = wall - checkpoint - detection - restore - lost;
    RecoveryReport {
        wall_clock: wall,
        useful,
        degraded_excess: (committed - useful).max(0.0),
        checkpoint,
        lost,
        detection,
        restore,
        failures_hit,
        steps: params.num_steps,
    }
}

/// The outage a serving replica takes when a chip dies mid-request:
/// detection (neighbor-sync watchdog), then a weights-only restore from a
/// checkpointed peer replica — no optimizer state, and the KV cache is
/// rebuilt by re-running prefill, not restored. After the outage the
/// replica keeps serving on the degraded torus (rings routed around the
/// dead chip), so fleet goodput drops but never hits zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingFailover {
    /// Failure-detection latency, seconds.
    pub detect_secs: f64,
    /// Weights-only restore from the checkpointed replica, seconds.
    pub restore_secs: f64,
}

impl ServingFailover {
    /// Prices the failover of `model` served on `mesh`:
    /// [`DEFAULT_DETECT_SECS`] of detection plus the
    /// [`CheckpointModel::for_inference`] restore time.
    pub fn for_model(model: &LlmConfig, mesh: MeshShape) -> ServingFailover {
        ServingFailover {
            detect_secs: DEFAULT_DETECT_SECS,
            restore_secs: CheckpointModel::for_inference(model, mesh).restore_secs(),
        }
    }

    /// Total wall-clock seconds the replica is out of service per failure.
    pub fn outage_secs(&self) -> f64 {
        self.detect_secs + self.restore_secs
    }
}

/// Repair/replacement time model for chaos-mode serving: after a chip
/// death's failover outage, the dead chip is swapped and the replica
/// returns to nominal pricing once the repair completes. Repair times
/// are exponential with the given mean; the *draw* itself is exposed as
/// a pure map from a uniform variate so callers (the serving chaos
/// scheduler) own the RNG stream and stay deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairModel {
    /// Mean repair/replacement time, seconds.
    pub mean_secs: f64,
}

impl RepairModel {
    /// An exponential repair model with the given mean, seconds.
    pub fn exponential(mean_secs: f64) -> RepairModel {
        RepairModel { mean_secs }
    }

    /// Checks field ranges.
    ///
    /// # Errors
    ///
    /// Describes the invalid mean.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mean_secs.is_finite() && self.mean_secs > 0.0) {
            return Err(format!(
                "repair mean {} s must be finite and positive",
                self.mean_secs
            ));
        }
        Ok(())
    }

    /// Maps a uniform variate `u ∈ [0, 1)` to an exponential repair-time
    /// draw (inverse-CDF), seconds. Deterministic in `(self, u)`.
    pub fn repair_secs(&self, u: f64) -> f64 {
        -self.mean_secs * (1.0 - u.clamp(0.0, 1.0 - f64::EPSILON)).ln()
    }
}

/// One (mesh, slice count, checkpoint interval) candidate of
/// [`tune_resilient`], scored by expected goodput.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientCandidate {
    /// The cluster mesh shape.
    pub mesh_shape: MeshShape,
    /// The requested slice count `S`.
    pub requested_s: usize,
    /// Failure-free makespan of one FC block.
    pub nominal_block: Duration,
    /// Block makespan on the degraded torus (one dead chip).
    pub degraded_block: Duration,
    /// The chosen checkpoint interval, seconds (infinite when failures
    /// are impossible: never checkpoint).
    pub checkpoint_interval_secs: f64,
    /// Per-checkpoint write time, seconds.
    pub checkpoint_secs: f64,
    /// Expected goodput of the candidate under the failure spec, in
    /// `(0, 1]`.
    pub expected_goodput: f64,
}

/// The ranked outcome of [`tune_resilient`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientPlan {
    /// Every feasible candidate, best (highest expected goodput) first.
    pub candidates: Vec<ResilientCandidate>,
}

impl ResilientPlan {
    /// The goodput-maximizing candidate.
    pub fn best(&self) -> &ResilientCandidate {
        &self.candidates[0]
    }
}

/// Goodput-aware autotuning under a permanent-failure spec: jointly
/// picks the (mesh shape, slice count) plan and the checkpoint interval
/// maximizing expected goodput under `spec`, sweeping
/// [`Autotuner::candidate_meshes`] × `s_values`.
///
/// Per candidate: one fault-free and one degraded-torus replay of its FC
/// block ([`Autotuner::fc_block`]), a [`CheckpointModel`] priced from the
/// candidate's own memory footprint, and a Young–Daly interval refined
/// over a small neighborhood. The expected goodput folds in the
/// probability-weighted degraded-mode slowdown over the spec's horizon.
///
/// Candidates are scored by one [`simulated_search`] on `threads`
/// workers, so the plan is bit-identical at any thread count.
///
/// # Errors
///
/// Returns the [`FaultSpecError`] of an invalid `spec`.
///
/// # Panics
///
/// Panics if no candidate is feasible.
pub fn tune_resilient(
    tuner: &Autotuner,
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    s_values: &[usize],
    spec: &FailureSpec,
    threads: usize,
) -> Result<ResilientPlan, FaultSpecError> {
    spec.validate()?;
    let candidates: Vec<ResilientCandidate> = simulated_search(
        tuner.cost_model().config(),
        threads,
        &Autotuner::mesh_slice_grid(chips, s_values),
        |&(mesh, s), memo, scratch| {
            let block = tuner.fc_block(memo, model, setup, mesh, s)?;
            Some(price_resilient_candidate(
                model, setup, mesh, s, spec, &block, scratch,
            ))
        },
        |a, b| {
            b.expected_goodput
                .total_cmp(&a.expected_goodput)
                .then(a.nominal_block.cmp(&b.nominal_block))
                .then(a.mesh_shape.rows().cmp(&b.mesh_shape.rows()))
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
    Ok(ResilientPlan { candidates })
}

/// The chip whose death the degraded-torus pricing assumes: a fixed,
/// parameter-free choice (the middle chip) keeps the sweep deterministic.
fn priced_dead_chip(num_chips: usize) -> usize {
    num_chips / 2
}

fn price_resilient_candidate(
    model: &LlmConfig,
    setup: TrainingSetup,
    mesh: MeshShape,
    s: usize,
    spec: &FailureSpec,
    block: &LoweredBlock,
    scratch: &mut RunScratch,
) -> ResilientCandidate {
    let torus = Torus2d::from_shape(mesh);
    let degraded_profile = degraded_torus_profile(&torus, priced_dead_chip(mesh.num_chips()));
    let (nominal, per_draw) = block.makespans(&[degraded_profile], scratch);
    let degraded = per_draw[0];

    // A training step touches every transformer block once.
    let step_secs = nominal.as_secs() * model.layers as f64;
    let degraded_step_secs = degraded.as_secs() * model.layers as f64;

    let ckpt = CheckpointModel::for_training(model, setup, mesh, s);
    let c = ckpt.write_secs();
    let r = ckpt.restore_secs();
    let mtbf = spec.cluster_mtbf(mesh.num_chips());

    // Expected fraction of the horizon spent on the degraded torus: the
    // first failure arrives Exp(1/M), so over horizon H the mean degraded
    // fraction is 1 − (M/H)(1 − e^{−H/M}).
    let degraded_frac = if mtbf.is_infinite() {
        0.0
    } else {
        1.0 - (mtbf / spec.horizon) * (1.0 - (-spec.horizon / mtbf).exp())
    };
    let step_ratio = if step_secs > 0.0 {
        degraded_step_secs / step_secs
    } else {
        1.0
    };
    let degraded_slowdown = 1.0 + degraded_frac * (step_ratio - 1.0);

    // Young–Daly optimum, refined over a small neighborhood (the
    // first-order formula ignores detection/restore); intervals shorter
    // than one step are meaningless.
    let tau = young_daly_interval(c, mtbf).max(step_secs.max(f64::MIN_POSITIVE));
    let mut best_interval = tau;
    let mut best_goodput = f64::NEG_INFINITY;
    for factor in [0.5, 1.0, 2.0] {
        let interval = (tau * factor).max(step_secs.max(f64::MIN_POSITIVE));
        let g = expected_goodput(interval, c, r, DEFAULT_DETECT_SECS, mtbf) / degraded_slowdown;
        if g > best_goodput {
            best_goodput = g;
            best_interval = interval;
        }
    }

    ResilientCandidate {
        mesh_shape: mesh,
        requested_s: s,
        nominal_block: nominal,
        degraded_block: degraded,
        checkpoint_interval_secs: best_interval,
        checkpoint_secs: c,
        expected_goodput: best_goodput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RecoveryParams {
        RecoveryParams {
            step_secs: 1.0,
            degraded_step_secs: 1.25,
            num_steps: 100,
            checkpoint_every: 10,
            checkpoint_secs: 2.0,
            restore_secs: 2.0,
            detect_secs: 0.5,
        }
    }

    fn draw_at(times: &[f64]) -> FailureDraw {
        FailureDraw {
            chip_failures: times
                .iter()
                .map(|&at| meshslice_sim::ChipFailure { chip: 0, at })
                .collect(),
            link_failures: Vec::new(),
        }
    }

    #[test]
    fn failure_free_run_has_goodput_one_without_checkpoints() {
        let p = RecoveryParams {
            checkpoint_every: 0,
            ..params()
        };
        let r = simulate_recovery(&p, &FailureDraw::default());
        assert_eq!(r.wall_clock, 100.0);
        assert_eq!(r.goodput(), 1.0);
        assert_eq!(r.failures_hit, 0);
        assert_eq!(r.downtime(), 0.0);
    }

    #[test]
    fn checkpoints_alone_cost_their_write_time() {
        let r = simulate_recovery(&params(), &FailureDraw::default());
        // 100 steps, a checkpoint after every 10th except the last.
        assert_eq!(r.checkpoint, 9.0 * 2.0);
        assert_eq!(r.wall_clock, 100.0 + 18.0);
        assert!(r.goodput() < 1.0);
        assert_eq!(r.lost, 0.0);
    }

    #[test]
    fn a_failure_replays_work_since_the_last_checkpoint() {
        // Fail mid-step-16: steps 11..15 plus half a step are lost.
        let r = simulate_recovery(&params(), &draw_at(&[17.5]));
        assert_eq!(r.failures_hit, 1);
        // Last safe point: step 10 + 1 checkpoint = t 12.
        assert!((r.lost - 5.5).abs() < 1e-9, "lost {}", r.lost);
        assert_eq!(r.detection, 0.5);
        assert_eq!(r.restore, 2.0);
        assert!(r.goodput() < 1.0);
        // Replayed steps run degraded afterwards.
        assert!(r.degraded_excess > 0.0);
        assert_eq!(r.steps, 100);
    }

    #[test]
    fn buckets_account_every_wall_clock_second() {
        for times in [
            vec![],
            vec![17.5],
            vec![17.5, 40.0, 41.0],
            vec![0.0],
            vec![111.9],
        ] {
            let r = simulate_recovery(&params(), &draw_at(&times));
            let sum =
                r.useful + r.degraded_excess + r.checkpoint + r.lost + r.detection + r.restore;
            assert!(
                (sum - r.wall_clock).abs() < 1e-9,
                "buckets {sum} vs wall {} for {times:?}",
                r.wall_clock
            );
        }
    }

    #[test]
    fn failure_during_downtime_is_absorbed() {
        // Second failure strikes during the first one's restore window.
        let r = simulate_recovery(&params(), &draw_at(&[17.5, 18.0]));
        assert_eq!(r.failures_hit, 1);
    }

    #[test]
    fn without_checkpoints_a_failure_replays_from_the_start() {
        let p = RecoveryParams {
            checkpoint_every: 0,
            ..params()
        };
        let r = simulate_recovery(&p, &draw_at(&[50.0]));
        assert_eq!(r.lost, 50.0);
        assert_eq!(r.failures_hit, 1);
    }

    #[test]
    fn more_failures_mean_lower_goodput() {
        let one = simulate_recovery(&params(), &draw_at(&[30.0]));
        let three = simulate_recovery(&params(), &draw_at(&[30.0, 60.0, 90.0]));
        assert!(three.goodput() < one.goodput());
        assert!(one.goodput() < 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot beat the nominal")]
    fn degraded_faster_than_nominal_panics() {
        let p = RecoveryParams {
            degraded_step_secs: 0.5,
            ..params()
        };
        simulate_recovery(&p, &FailureDraw::default());
    }

    #[test]
    fn serving_failover_is_cheaper_than_a_training_restore() {
        let model = LlmConfig::gpt3();
        let mesh = MeshShape::new(4, 4);
        let failover = ServingFailover::for_model(&model, mesh);
        assert_eq!(failover.detect_secs, DEFAULT_DETECT_SECS);
        assert!(failover.restore_secs > 0.0);
        assert!(failover.outage_secs() > failover.restore_secs);
        let training =
            CheckpointModel::for_training(&model, TrainingSetup::weak_scaling(16), mesh, 8);
        assert!(failover.restore_secs < training.restore_secs());
    }

    #[test]
    fn tune_resilient_prefers_checkpointing_and_reports_sub_unity_goodput() {
        let model = LlmConfig {
            name: "Tiny".to_string(),
            hidden: 256,
            heads: 4,
            layers: 2,
            ffn_mult: 4,
        };
        let setup = TrainingSetup::weak_scaling(4);
        let tuner = Autotuner::new(meshslice_sim::SimConfig::tpu_v4());
        let spec = FailureSpec::chip_mtbf(3600.0, 86_400.0);
        let plan = tune_resilient(&tuner, &model, setup, 4, &[1, 2], &spec, 1).unwrap();
        let best = plan.best();
        assert!(best.expected_goodput > 0.0 && best.expected_goodput < 1.0);
        assert!(best.checkpoint_interval_secs.is_finite());
        assert!(best.degraded_block.as_secs() >= best.nominal_block.as_secs());

        // No failures -> goodput exactly 1, never checkpoint.
        let calm = tune_resilient(&tuner, &model, setup, 4, &[1, 2], &FailureSpec::none(), 1);
        let calm = calm.unwrap();
        assert_eq!(calm.best().expected_goodput, 1.0);
        assert!(calm.best().checkpoint_interval_secs.is_infinite());
    }

    #[test]
    fn tune_resilient_rejects_an_invalid_spec() {
        let tuner = Autotuner::new(meshslice_sim::SimConfig::tpu_v4());
        let setup = TrainingSetup::weak_scaling(4);
        let spec = FailureSpec::chip_mtbf(-1.0, 10.0);
        let got = tune_resilient(&tuner, &LlmConfig::gpt3(), setup, 4, &[1], &spec, 1);
        assert!(
            matches!(got, Err(FaultSpecError::Mtbf(m)) if m == -1.0),
            "{got:?}"
        );
    }

    #[test]
    fn repair_model_draws_are_deterministic_and_mean_scaled() {
        let fast = RepairModel::exponential(10.0);
        let slow = RepairModel::exponential(100.0);
        fast.validate().expect("positive mean is valid");
        assert!(RepairModel::exponential(0.0).validate().is_err());
        assert!(RepairModel::exponential(f64::NAN).validate().is_err());
        // Inverse-CDF: u = 0 draws 0, the median draw is mean·ln 2, and
        // the same u under a 10x mean is exactly the 10x draw.
        assert_eq!(fast.repair_secs(0.0), 0.0);
        assert!((fast.repair_secs(0.5) - 10.0 * 2.0_f64.ln()).abs() < 1e-12);
        assert!((slow.repair_secs(0.7) - 10.0 * fast.repair_secs(0.7)).abs() < 1e-12);
        // u -> 1 stays finite (clamped off the singularity).
        assert!(fast.repair_secs(1.0).is_finite());
    }
}
