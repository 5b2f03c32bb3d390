//! Seeded request-arrival processes.
//!
//! A serving fleet is driven by an *offered load*: requests arriving at
//! stochastic times with stochastic prompt and output lengths. This
//! module generates such traces deterministically from a seed, so every
//! fleet simulation — and therefore every latency percentile and
//! goodput figure — is reproducible bit-for-bit.
//!
//! Two load shapes are supported:
//!
//! - [`LoadShape::Steady`]: a homogeneous Poisson process at the mean
//!   rate (exponential inter-arrival times).
//! - [`LoadShape::Replay`]: a non-homogeneous Poisson process whose rate
//!   follows a piecewise-constant multiplier trace replayed cyclically —
//!   this is how bursty and diurnal workloads are expressed (and how
//!   `--trace FILE` replays an operator-supplied rate profile).
//!
//! Draw structure is parameter-independent, following the
//! `meshslice-faults` convention: every request consumes exactly three
//! uniform draws (inter-arrival, prompt length, output length) in a
//! fixed order, so changing only the rate or the token ranges rescales
//! the same underlying randomness instead of re-rolling it.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One inference request of the offered-load trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Position in the trace (0-based); also the dispatch key.
    pub id: usize,
    /// Arrival time, seconds from the start of the simulation.
    pub arrival_secs: f64,
    /// Prompt tokens to prefill.
    pub prompt_tokens: usize,
    /// Tokens to generate (including the first token produced by
    /// prefill).
    pub output_tokens: usize,
}

impl Request {
    /// Peak KV-cache tokens this request pins when fully generated.
    pub(crate) fn peak_kv_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }
}

/// The time profile of the offered load.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadShape {
    /// Homogeneous Poisson arrivals at the mean rate.
    Steady,
    /// Piecewise-constant rate multipliers replayed cyclically, one per
    /// [`ArrivalSpec::segment_secs`] window. Multipliers are normalized
    /// to mean 1 at generation time, so the configured QPS stays the
    /// *average* rate whatever the shape.
    Replay(Vec<f64>),
}

impl LoadShape {
    /// A built-in two-level burst profile: alternating quiet and 3x-hot
    /// segments.
    pub fn bursty() -> LoadShape {
        LoadShape::Replay(vec![0.5, 0.5, 3.0, 0.5, 0.5])
    }
}

/// A seeded offered-load description; [`ArrivalSpec::generate`] draws a
/// concrete request trace from it.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Mean arrival rate, requests per second.
    pub qps: f64,
    /// Rate profile over time.
    pub shape: LoadShape,
    /// Duration of one [`LoadShape::Replay`] multiplier segment, seconds.
    pub segment_secs: f64,
    /// Inclusive prompt-length range, tokens.
    pub prompt_range: (usize, usize),
    /// Inclusive output-length range, tokens.
    pub output_range: (usize, usize),
}

/// Default inclusive prompt-length range, tokens.
pub(crate) const DEFAULT_PROMPT_RANGE: (usize, usize) = (32, 1024);
/// Default inclusive output-length range, tokens.
pub(crate) const DEFAULT_OUTPUT_RANGE: (usize, usize) = (16, 256);
/// Default [`LoadShape::Replay`] segment length, seconds.
pub const DEFAULT_SEGMENT_SECS: f64 = 30.0;

impl ArrivalSpec {
    /// Steady Poisson arrivals at `qps` with the default token ranges.
    pub fn poisson(qps: f64) -> ArrivalSpec {
        ArrivalSpec {
            qps,
            shape: LoadShape::Steady,
            segment_secs: DEFAULT_SEGMENT_SECS,
            prompt_range: DEFAULT_PROMPT_RANGE,
            output_range: DEFAULT_OUTPUT_RANGE,
        }
    }

    /// Trace-replay arrivals averaging `qps`, cycling through
    /// `multipliers` (one per `segment_secs` window).
    pub fn replay(qps: f64, multipliers: Vec<f64>, segment_secs: f64) -> ArrivalSpec {
        ArrivalSpec {
            qps,
            shape: LoadShape::Replay(multipliers),
            segment_secs,
            ..ArrivalSpec::poisson(qps)
        }
    }

    /// Validates the spec, returning the first problem found.
    ///
    /// # Errors
    ///
    /// Describes the offending field: non-positive or non-finite rate,
    /// empty or non-positive multiplier trace, non-positive segment
    /// length, or an empty/inverted token range.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.qps.is_finite() && self.qps > 0.0) {
            return Err(format!("qps {} must be finite and positive", self.qps));
        }
        if let LoadShape::Replay(m) = &self.shape {
            if m.is_empty() {
                return Err("rate trace must have at least one segment".into());
            }
            if let Some(bad) = m.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
                return Err(format!("rate multiplier {bad} must be finite and positive"));
            }
            if !(self.segment_secs.is_finite() && self.segment_secs > 0.0) {
                return Err(format!(
                    "segment length {} must be finite and positive",
                    self.segment_secs
                ));
            }
        }
        for (name, (lo, hi)) in [("prompt", self.prompt_range), ("output", self.output_range)] {
            if lo == 0 || hi < lo {
                return Err(format!("{name} token range [{lo}, {hi}] is empty"));
            }
        }
        Ok(())
    }

    /// Draws a trace of `n` requests, sorted by arrival time (ties
    /// impossible: inter-arrival draws exclude zero).
    ///
    /// Deterministic: the same `(spec, n, seed)` always yields the same
    /// trace, and the draw structure does not depend on the continuous
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not [`validate`](Self::validate).
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Request> {
        self.validate().expect("invalid arrival spec");
        let mut rng = StdRng::seed_from_u64(seed);
        // Normalize Replay multipliers to mean 1 so `qps` is the average
        // rate of any shape.
        let multipliers: Vec<f64> = match &self.shape {
            LoadShape::Steady => vec![1.0],
            LoadShape::Replay(m) => {
                let mean = m.iter().sum::<f64>() / m.len() as f64;
                m.iter().map(|x| x / mean).collect()
            }
        };
        let segment_secs = match self.shape {
            LoadShape::Steady => f64::INFINITY,
            LoadShape::Replay(_) => self.segment_secs,
        };

        let mut requests = Vec::with_capacity(n);
        let mut t = 0.0_f64;
        let mut segment = 0usize; // index into the cyclic multiplier trace
        let mut segment_end = segment_secs;
        for id in 0..n {
            // Unit-rate exponential, thinned through the piecewise-constant
            // rate by inverting the cumulative intensity segment by
            // segment: a draw of `e` units of "expected arrivals" at rate
            // r covers e / r seconds of wall-clock.
            let mut budget = -unit_open(&mut rng).ln();
            loop {
                let rate = self.qps * multipliers[segment % multipliers.len()];
                let dt = budget / rate;
                if t + dt <= segment_end {
                    t += dt;
                    break;
                }
                budget -= (segment_end - t) * rate;
                t = segment_end;
                segment += 1;
                segment_end += segment_secs;
            }
            let prompt_tokens = range_draw(&mut rng, self.prompt_range);
            let output_tokens = range_draw(&mut rng, self.output_range);
            requests.push(Request {
                id,
                arrival_secs: t,
                prompt_tokens,
                output_tokens,
            });
        }
        requests
    }
}

/// A uniform draw in the open interval `(0, 1)` — the `meshslice-faults`
/// idiom, safe to pass to `ln()`.
fn unit_open(rng: &mut StdRng) -> f64 {
    loop {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u > 0.0 {
            return u;
        }
    }
}

/// A uniform integer draw in the inclusive range.
fn range_draw(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    let span = (hi - lo + 1) as u64;
    lo + (rng.next_u64() % span) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let spec = ArrivalSpec::poisson(10.0);
        assert_eq!(spec.generate(100, 7), spec.generate(100, 7));
        assert_ne!(spec.generate(100, 7), spec.generate(100, 8));
    }

    #[test]
    fn arrivals_are_sorted_and_lengths_in_range() {
        let spec = ArrivalSpec::poisson(25.0);
        let trace = spec.generate(500, 3);
        for w in trace.windows(2) {
            assert!(w[0].arrival_secs < w[1].arrival_secs);
        }
        for r in &trace {
            assert!((32..=1024).contains(&r.prompt_tokens));
            assert!((16..=256).contains(&r.output_tokens));
        }
    }

    #[test]
    fn mean_rate_is_respected() {
        let spec = ArrivalSpec::poisson(40.0);
        let trace = spec.generate(4000, 11);
        let rate = trace.len() as f64 / trace.last().unwrap().arrival_secs;
        assert!((rate - 40.0).abs() / 40.0 < 0.1, "rate {rate}");
    }

    #[test]
    fn replay_normalizes_to_the_same_mean_rate() {
        let steady = ArrivalSpec::poisson(40.0).generate(4000, 11);
        // Short segments so the ~100 s trace spans many whole cycles and
        // the partial final cycle cannot bias the average. The shape is a
        // smooth day: trough, ramp, peak, ramp.
        let diurnal = ArrivalSpec {
            shape: LoadShape::Replay(vec![0.4, 0.6, 1.0, 1.5, 1.9, 1.5, 1.0, 0.6]),
            segment_secs: 2.0,
            ..ArrivalSpec::poisson(40.0)
        }
        .generate(4000, 11);
        let r_s = steady.len() as f64 / steady.last().unwrap().arrival_secs;
        let r_d = diurnal.len() as f64 / diurnal.last().unwrap().arrival_secs;
        assert!((r_s - r_d).abs() / r_s < 0.1, "{r_s} vs {r_d}");
    }

    #[test]
    fn bursty_trace_concentrates_arrivals_in_hot_segments() {
        let spec = ArrivalSpec {
            shape: LoadShape::bursty(),
            segment_secs: 10.0,
            ..ArrivalSpec::poisson(20.0)
        };
        let trace = spec.generate(2000, 5);
        // Hot segment (index 2 of 5, 3x rate) vs quiet (index 0, 0.5x).
        let cycle = 50.0;
        let in_segment = |r: &Request, k: usize| {
            let phase = r.arrival_secs % cycle;
            phase >= 10.0 * k as f64 && phase < 10.0 * (k + 1) as f64
        };
        let hot = trace.iter().filter(|r| in_segment(r, 2)).count();
        let quiet = trace.iter().filter(|r| in_segment(r, 0)).count();
        assert!(hot > 3 * quiet, "hot {hot} vs quiet {quiet}");
    }

    #[test]
    fn rate_only_rescales_the_draws() {
        // Parameter independence: doubling the rate halves every
        // inter-arrival gap but preserves token lengths draw-for-draw.
        let slow = ArrivalSpec::poisson(10.0).generate(50, 9);
        let fast = ArrivalSpec::poisson(20.0).generate(50, 9);
        for (a, b) in slow.iter().zip(&fast) {
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.output_tokens, b.output_tokens);
            assert!((a.arrival_secs - 2.0 * b.arrival_secs).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(ArrivalSpec::poisson(0.0).validate().is_err());
        assert!(ArrivalSpec::replay(10.0, vec![], 30.0).validate().is_err());
        assert!(ArrivalSpec::replay(10.0, vec![1.0, -1.0], 30.0)
            .validate()
            .is_err());
        assert!(ArrivalSpec::replay(10.0, vec![1.0], 0.0)
            .validate()
            .is_err());
        let mut bad = ArrivalSpec::poisson(1.0);
        bad.prompt_range = (8, 4);
        assert!(bad.validate().is_err());
    }
}
