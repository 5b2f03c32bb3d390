//! Per-request latency samples → percentile summaries.
//!
//! The serving fleet simulator records one span per request (arrival,
//! first token, completion); what operators act on are the order
//! statistics — p50/p95/p99 TTFT and TPOT against an SLO target. This
//! module reduces a sample vector to a [`LatencySummary`] with the
//! deterministic nearest-rank method, so identical runs serialize to
//! identical artifacts.
//!
//! Both entry points are total: empty inputs yield `0.0` (a fleet that
//! completed no request still serializes a well-formed artifact), a
//! single sample is every percentile, and non-finite samples are
//! dropped before summarizing so a stray `NaN` cannot silently poison
//! the tail statistics an SLO gate reads.

use crate::json::Json;

/// The nearest-rank percentile of an ascending-sorted sample slice:
/// the smallest value with at least `q·n` samples at or below it
/// (`q` in `[0, 1]`). Deterministic — no interpolation, so results are
/// bit-identical across platforms.
///
/// Total by construction: an empty slice yields `0.0` (there is no
/// order statistic to report, and the zero sentinel matches the
/// all-zero [`LatencySummary`] of an empty run), and `q` is clamped
/// into `[0, 1]` with a non-finite `q` reading the conservative tail
/// (`q = 1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = if q.is_finite() {
        q.clamp(0.0, 1.0)
    } else {
        1.0
    };
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(n - 1)]
}

/// Order statistics of one latency metric (seconds): the percentiles the
/// serving artifact reports, plus mean and max for sanity checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of (finite) samples summarized.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile — the tail SLOs are written against.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a sample vector (need not be sorted). Non-finite
    /// samples (`NaN`, `±inf`) are dropped first — `count` reflects the
    /// samples actually summarized — and an empty (or fully non-finite)
    /// vector yields the all-zero summary with `count == 0`, so a fleet
    /// that completed no request still serializes a well-formed
    /// artifact.
    pub fn from_unsorted(samples: Vec<f64>) -> LatencySummary {
        let mut samples: Vec<f64> = samples.into_iter().filter(|s| s.is_finite()).collect();
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        LatencySummary {
            count,
            p50: percentile(&samples, 0.50),
            p95: percentile(&samples, 0.95),
            p99: percentile(&samples, 0.99),
            mean: samples.iter().sum::<f64>() / count as f64,
            max: samples[count - 1],
        }
    }

    /// Serializes the summary with every value multiplied by `scale`
    /// (e.g. `1e3` to report seconds as milliseconds).
    pub fn to_json_scaled(&self, scale: f64) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("p50", Json::Num(self.p50 * scale)),
            ("p95", Json::Num(self.p95 * scale)),
            ("p99", Json::Num(self.p99 * scale)),
            ("mean", Json::Num(self.mean * scale)),
            ("max", Json::Num(self.max * scale)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Nearest rank ⌈0.05·n⌉ is 1 — the smallest sample — for every
        // n ≤ 20, and 2 from n = 21 (the chaos tuner's p95 goodput).
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.05), 0.0);
        let twenty_one: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(percentile(&twenty_one, 0.05), 1.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], q), 7.0);
        }
        let s = LatencySummary::from_unsorted(vec![7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(
            (s.p50, s.p95, s.p99, s.mean, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = LatencySummary::from_unsorted(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        let b = LatencySummary::from_unsorted(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 3.0);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.mean, 3.0);
        assert_eq!(a.count, 5);
    }

    #[test]
    fn empty_samples_summarize_to_zeros() {
        let s = LatencySummary::from_unsorted(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn empty_percentile_is_zero_not_a_panic() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
    }

    #[test]
    fn out_of_range_or_non_finite_quantiles_are_clamped() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -0.5), 1.0);
        assert_eq!(percentile(&v, 1.5), 3.0);
        assert_eq!(percentile(&v, f64::NAN), 3.0, "NaN reads the tail");
        assert_eq!(percentile(&v, f64::INFINITY), 3.0);
    }

    #[test]
    fn non_finite_samples_are_dropped_not_propagated() {
        let s = LatencySummary::from_unsorted(vec![
            1.0,
            f64::NAN,
            2.0,
            f64::INFINITY,
            3.0,
            f64::NEG_INFINITY,
        ]);
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
        assert!(s.mean.is_finite());
        // All-NaN input degrades to the empty summary, not NaN fields.
        let bad = LatencySummary::from_unsorted(vec![f64::NAN, f64::NAN]);
        assert_eq!(bad.count, 0);
        assert_eq!(bad.p99, 0.0);
    }

    #[test]
    fn json_scaling_converts_units() {
        let s = LatencySummary::from_unsorted(vec![0.1, 0.2]);
        let j = s.to_json_scaled(1e3);
        assert_eq!(j.get("p50").and_then(Json::as_f64), Some(100.0));
        assert_eq!(j.get("count").and_then(Json::as_usize), Some(2));
    }
}
