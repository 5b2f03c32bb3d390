//! Checkpoint cost model and Young–Daly optimal-interval solver.
//!
//! Production-scale training (the regime of §5) survives permanent chip
//! failures by periodically writing the model state to durable storage and
//! restarting from the last checkpoint when a chip dies. This module
//! prices those mechanisms:
//!
//! - [`CheckpointModel`] derives the per-checkpoint write and restore
//!   times from the bytes each chip must persist — the weight shards and
//!   optimizer state already accounted by [`memory::training_footprint`]
//!   (activations and workspace are *not* checkpointed: they are
//!   recomputed from the last step boundary) — and a host/storage
//!   bandwidth.
//! - [`young_daly_interval`] solves for the checkpoint interval
//!   `τ = sqrt(2 · C · M)` that balances checkpoint overhead (`C/τ` per
//!   unit time) against expected lost work (`τ/2` per failure, failures
//!   every `M` seconds) — Young's first-order optimum, refined by Daly.
//! - [`expected_goodput`] evaluates the resulting useful-work fraction so
//!   the resilient autotuner can compare (plan, interval) candidates
//!   without simulating every failure realization.
//!
//! [`memory::training_footprint`]: crate::memory::training_footprint

use meshslice_mesh::MeshShape;

use crate::llm::{LlmConfig, TrainingSetup};
use crate::memory::training_footprint;

/// Default per-chip checkpoint bandwidth, bytes/second.
///
/// Checkpoints leave HBM over the host link (PCIe/DMA to the host, then to
/// durable storage); 25 GB/s per chip is a PCIe-4.0-x16-class figure, far
/// below the ~1.2 TB/s HBM stream rate, so the host link is the
/// bottleneck the model charges.
pub(crate) const DEFAULT_CHECKPOINT_BANDWIDTH: f64 = 25e9;

/// Per-run checkpoint/restore cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckpointModel {
    /// Bytes each chip persists per checkpoint (weights + optimizer).
    pub bytes_per_chip: u64,
    /// Host/storage bandwidth per chip, bytes/second.
    pub bandwidth: f64,
}

impl CheckpointModel {
    /// Prices checkpoints of `model` trained on `mesh` with slice count
    /// `s`, at the default 25 GB/s per-chip host-link bandwidth.
    ///
    /// Only the durable training state is persisted: bf16 weight shards
    /// plus fp32 optimizer state (master weights + two Adam moments).
    /// Activation checkpoints, gradients, and collective workspace are
    /// reconstructed after a restart, not written.
    pub fn for_training(
        model: &LlmConfig,
        setup: TrainingSetup,
        mesh: MeshShape,
        s: usize,
    ) -> CheckpointModel {
        let footprint = training_footprint(model, setup, mesh, s);
        CheckpointModel {
            bytes_per_chip: footprint.weights + footprint.optimizer,
            bandwidth: DEFAULT_CHECKPOINT_BANDWIDTH,
        }
    }

    /// Prices checkpoints of `model` *served* on `mesh`, at the default
    /// 25 GB/s per-chip host-link bandwidth: only the bf16 weight shards are
    /// persisted — a serving replica has no optimizer state, and the KV
    /// cache is rebuilt by re-running prefill after a failover, not
    /// restored. This is what a replacement replica pulls from a
    /// checkpointed peer when a chip dies mid-serving.
    pub fn for_inference(model: &LlmConfig, mesh: MeshShape) -> CheckpointModel {
        let footprint = crate::memory::inference_footprint(model, mesh, 1, mesh.rows());
        CheckpointModel {
            bytes_per_chip: footprint.weights,
            bandwidth: DEFAULT_CHECKPOINT_BANDWIDTH,
        }
    }

    /// Time to write one checkpoint, seconds. All chips write their shards
    /// in parallel, so the cluster-wide write time equals the per-chip
    /// write time.
    pub fn write_secs(&self) -> f64 {
        self.bytes_per_chip as f64 / self.bandwidth
    }

    /// Time to restore from a checkpoint, seconds. Reads move the same
    /// bytes back over the same host link.
    pub fn restore_secs(&self) -> f64 {
        self.write_secs()
    }
}

/// The Young–Daly first-order optimal checkpoint interval `sqrt(2·C·M)`
/// for a per-checkpoint cost `C = checkpoint_secs` and a cluster MTBF of
/// `mtbf_secs`, both in seconds.
///
/// An infinite MTBF (no failures expected) returns `f64::INFINITY`:
/// checkpointing is pure overhead, so never checkpoint.
///
/// # Panics
///
/// Panics if `checkpoint_secs` is not finite and non-negative, or if
/// `mtbf_secs` is NaN or non-positive.
pub fn young_daly_interval(checkpoint_secs: f64, mtbf_secs: f64) -> f64 {
    assert!(
        checkpoint_secs.is_finite() && checkpoint_secs >= 0.0,
        "checkpoint cost {checkpoint_secs} must be finite and non-negative"
    );
    assert!(
        mtbf_secs > 0.0 && !mtbf_secs.is_nan(),
        "MTBF {mtbf_secs} must be positive"
    );
    if mtbf_secs.is_infinite() {
        return f64::INFINITY;
    }
    (2.0 * checkpoint_secs * mtbf_secs).sqrt()
}

/// First-order expected goodput of checkpoint/restart with interval
/// `interval_secs`: useful work divided by wall-clock, i.e.
/// `1 / (1 + w)` for the waste rate
///
/// `w = C/τ + (τ/2 + D + R) / M`
///
/// where `C = checkpoint_secs` is paid every interval, and each failure
/// (every `M = mtbf_secs`) loses half an interval of work on average plus
/// the detection latency `D = detect_secs` and restore time
/// `R = restore_secs`.
///
/// An infinite MTBF with an infinite interval returns exactly 1 (never
/// checkpoint, never fail). Returns a value in `(0, 1]`.
///
/// # Panics
///
/// Panics unless `interval_secs` is positive, the costs are finite and
/// non-negative, and `mtbf_secs` is positive.
pub fn expected_goodput(
    interval_secs: f64,
    checkpoint_secs: f64,
    restore_secs: f64,
    detect_secs: f64,
    mtbf_secs: f64,
) -> f64 {
    assert!(
        interval_secs > 0.0 && !interval_secs.is_nan(),
        "interval {interval_secs} must be positive"
    );
    for (name, v) in [
        ("checkpoint cost", checkpoint_secs),
        ("restore cost", restore_secs),
        ("detection latency", detect_secs),
    ] {
        assert!(
            v.is_finite() && v >= 0.0,
            "{name} {v} must be finite and non-negative"
        );
    }
    assert!(
        mtbf_secs > 0.0 && !mtbf_secs.is_nan(),
        "MTBF {mtbf_secs} must be positive"
    );
    let ckpt_rate = if interval_secs.is_infinite() {
        0.0
    } else {
        checkpoint_secs / interval_secs
    };
    let failure_rate = if mtbf_secs.is_infinite() {
        0.0
    } else {
        let lost = if interval_secs.is_infinite() {
            // Without checkpoints every failure loses the whole run; the
            // first-order model has no run length, so treat the loss as one
            // full MTBF of work.
            mtbf_secs
        } else {
            interval_secs / 2.0
        };
        (lost + detect_secs + restore_secs) / mtbf_secs
    };
    1.0 / (1.0 + ckpt_rate + failure_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (LlmConfig, TrainingSetup) {
        (LlmConfig::gpt3(), TrainingSetup::weak_scaling(64))
    }

    #[test]
    fn checkpoint_bytes_are_weights_plus_optimizer() {
        let (m, setup) = model();
        let mesh = MeshShape::new(8, 8);
        let ckpt = CheckpointModel::for_training(&m, setup, mesh, 8);
        let f = training_footprint(&m, setup, mesh, 8);
        assert_eq!(ckpt.bytes_per_chip, f.weights + f.optimizer);
        // Gradients / activations / workspace are never persisted.
        assert!(ckpt.bytes_per_chip < f.total());
        assert!(ckpt.write_secs() > 0.0);
        assert_eq!(ckpt.write_secs(), ckpt.restore_secs());
    }

    #[test]
    fn inference_checkpoints_persist_weights_only() {
        let (m, setup) = model();
        let mesh = MeshShape::new(8, 8);
        let serving = CheckpointModel::for_inference(&m, mesh);
        let training = CheckpointModel::for_training(&m, setup, mesh, 8);
        let f = training_footprint(&m, setup, mesh, 8);
        assert_eq!(serving.bytes_per_chip, f.weights);
        // No fp32 optimizer state: a failover restore is 4x cheaper
        // (bf16 weights vs weights + 3 fp32 tensors).
        assert!(serving.bytes_per_chip < training.bytes_per_chip / 3);
        assert!(serving.restore_secs() > 0.0);
    }

    #[test]
    fn bandwidth_scales_write_time() {
        let (m, setup) = model();
        let ckpt = CheckpointModel::for_training(&m, setup, MeshShape::new(8, 8), 8);
        let fast = CheckpointModel {
            bandwidth: ckpt.bandwidth * 2.0,
            ..ckpt
        };
        assert!((fast.write_secs() - ckpt.write_secs() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn young_daly_matches_closed_form() {
        // C = 50 s, M = 10000 s -> sqrt(2 * 50 * 10000) = 1000 s.
        assert!((young_daly_interval(50.0, 10_000.0) - 1000.0).abs() < 1e-9);
        assert_eq!(young_daly_interval(50.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(young_daly_interval(0.0, 100.0), 0.0);
    }

    #[test]
    fn young_daly_interval_maximizes_expected_goodput() {
        let (c, r, d, m) = (50.0, 50.0, 5.0, 10_000.0);
        let opt = young_daly_interval(c, m);
        let best = expected_goodput(opt, c, r, d, m);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            let other = expected_goodput(opt * factor, c, r, d, m);
            assert!(
                best >= other,
                "interval {opt} ({best}) beaten by {} ({other})",
                opt * factor
            );
        }
    }

    #[test]
    fn goodput_without_failures_is_one() {
        assert_eq!(
            expected_goodput(f64::INFINITY, 50.0, 50.0, 5.0, f64::INFINITY),
            1.0
        );
        // Checkpointing anyway still costs something.
        let g = expected_goodput(1000.0, 50.0, 50.0, 5.0, f64::INFINITY);
        assert!(g < 1.0 && g > 0.9);
    }

    #[test]
    fn goodput_degrades_with_shorter_mtbf() {
        let at = |mtbf: f64| {
            let tau = young_daly_interval(50.0, mtbf);
            expected_goodput(tau, 50.0, 50.0, 5.0, mtbf)
        };
        let g_long = at(100_000.0);
        let g_short = at(1_000.0);
        assert!(g_long > g_short, "{g_long} vs {g_short}");
        assert!(g_short > 0.0 && g_long < 1.0);
    }

    #[test]
    #[should_panic(expected = "MTBF")]
    fn non_positive_mtbf_panics() {
        young_daly_interval(50.0, 0.0);
    }
}
