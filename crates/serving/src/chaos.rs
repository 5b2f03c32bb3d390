//! Chaos-mode fault injection and fleet-level resilience policies.
//!
//! PRs 6–8 inject at most one scripted [`ChipDeath`](crate::ChipDeath)
//! per run. This module drives the fleet from the seeded MTBF machinery
//! of `meshslice-faults` instead: a [`ChaosSpec`] draws exponential
//! chip/link death arrivals per replica over the trace horizon, so a
//! long trace can see zero, one, or several deaths per replica, each
//! optionally followed by a repair that returns the replica to nominal
//! pricing.
//!
//! Two fleet-level policies ride along:
//!
//! - [`RouterPolicy`]: requests whose round-robin home replica sits
//!   inside a failover blackout window are re-enqueued with capped
//!   exponential backoff onto the first open replica (home preferred),
//!   under a per-request retry budget and deadline. The routing pass is
//!   a deterministic *pre-pass* over the arrival trace — it plans
//!   against the scheduled outage windows, never against simulation
//!   state — so per-replica timelines stay independent and the report
//!   stays bit-identical at any thread count.
//! - [`ShedPolicy`]: SLO-aware admission control inside each replica
//!   sheds the newest arrivals when the windowed queue depth or the
//!   projected TTFT of the backlog crosses a threshold, and can switch
//!   prefill admission to a degraded batch cap while overloaded.
//!
//! Everything here is a pure function of `(spec, seed)`: chaos draws
//! derive a per-replica seed by mixing the replica index into the chaos
//! seed, and the router consumes no randomness at all.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use meshslice_faults::FailureSpec;
use meshslice_recovery::RepairModel;
use meshslice_telemetry::ServingEvent;

use crate::arrival::Request;

/// Backoff growth cap: the retry backoff doubles per attempt but never
/// exceeds this multiple of [`RouterPolicy::backoff_secs`].
pub(crate) const BACKOFF_CAP_FACTOR: f64 = 8.0;

/// Default [`ShedPolicy::ttft_factor`]: shed when the backlog projects
/// to more than this multiple of the TTFT SLO.
pub(crate) const DEFAULT_SHED_TTFT_FACTOR: f64 = 4.0;

/// Stochastic multi-fault injection for a serving fleet: each replica
/// draws seeded exponential chip/link death arrivals from `failures`
/// over the spec's horizon, optionally followed by an exponential
/// repair that returns the replica to nominal pricing.
///
/// `None` chaos (the spec default) reproduces the single-scripted-death
/// behavior bit-for-bit; a zero-rate chaos spec (infinite MTBFs) draws
/// no deaths and is property-tested byte-identical to the nominal path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Per-chip / per-link MTBF machinery; `horizon` bounds the window
    /// deaths are sampled over (normally the arrival-trace span).
    pub failures: FailureSpec,
    /// Repair/replacement model; `None` means a dead replica serves
    /// degraded forever (the scripted-death behavior).
    pub repair: Option<RepairModel>,
    /// Chaos seed, independent of the arrival seed.
    pub seed: u64,
}

impl ChaosSpec {
    /// A chaos spec with no repair.
    pub fn new(failures: FailureSpec, seed: u64) -> ChaosSpec {
        ChaosSpec {
            failures,
            repair: None,
            seed,
        }
    }

    /// Adds a repair model.
    pub fn with_repair(self, repair: RepairModel) -> ChaosSpec {
        ChaosSpec {
            repair: Some(repair),
            ..self
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.failures.validate().map_err(|e| e.to_string())?;
        if let Some(repair) = &self.repair {
            repair.validate()?;
        }
        Ok(())
    }

    /// Draws one replica's death schedule, sorted by time: every chip
    /// and link failure of a `num_chips`-chip replica becomes a replica
    /// death (a chip death knocks the whole replica out for the
    /// failover outage; a link death degrades the torus the same way).
    ///
    /// Deterministic in `(self, replica, num_chips)`: the replica index
    /// is mixed into the seed (splitmix-style), so schedules are
    /// independent of how replicas are scheduled onto worker threads.
    /// With a repair model, each death consumes one extra uniform draw
    /// and `repaired_at = at + outage_secs + repair draw`.
    pub(crate) fn replica_deaths(
        &self,
        replica: usize,
        num_chips: usize,
        outage_secs: f64,
    ) -> Vec<DeathEvent> {
        let seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(replica as u64 + 1));
        let draw = self.failures.sample(num_chips, seed);
        let times = draw.event_times();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5265_7061_6972_5253); // "RepairRS"
        times
            .into_iter()
            .map(|at| {
                let repaired_at = match &self.repair {
                    Some(m) => at + outage_secs + m.repair_secs(unit(&mut rng)),
                    None => f64::INFINITY,
                };
                DeathEvent { at, repaired_at }
            })
            .collect()
    }
}

/// One scheduled replica death of a chaos draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct DeathEvent {
    /// Death instant, seconds from simulation start.
    pub at: f64,
    /// When the replica returns to nominal pricing (`at` + failover
    /// outage + repair draw); `f64::INFINITY` without a repair model.
    pub repaired_at: f64,
}

/// A uniform draw in `[0, 1)` — 53 random mantissa bits.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Cross-replica failover routing: retry/backoff knobs for requests
/// stranded on a replica inside a failover blackout window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterPolicy {
    /// Retry budget per request: each retry waits one backoff and then
    /// probes for an open replica.
    pub max_retries: usize,
    /// Initial backoff, seconds; doubles per attempt, capped at 8 times
    /// this.
    pub backoff_secs: f64,
    /// Per-request deadline, seconds past arrival: a retry that would
    /// land beyond it times the request out instead.
    pub deadline_secs: f64,
}

impl RouterPolicy {
    /// A policy proportioned to the TTFT SLO: 3 retries, half-SLO
    /// initial backoff, 60-SLO deadline.
    pub fn for_slo(slo_secs: f64) -> RouterPolicy {
        RouterPolicy {
            max_retries: 3,
            backoff_secs: slo_secs / 2.0,
            deadline_secs: 60.0 * slo_secs,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Describes the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_retries == 0 {
            return Err("router needs at least one retry".into());
        }
        if !(self.backoff_secs.is_finite() && self.backoff_secs > 0.0) {
            return Err(format!(
                "router backoff {} s must be finite and positive",
                self.backoff_secs
            ));
        }
        if !(self.deadline_secs.is_finite() && self.deadline_secs > 0.0) {
            return Err(format!(
                "router deadline {} s must be finite and positive",
                self.deadline_secs
            ));
        }
        Ok(())
    }
}

/// SLO-aware graceful degradation: shed the newest arrivals (lowest
/// priority) when the replica's backlog crosses a threshold, and
/// optionally gate prefill admission behind a degraded batch cap while
/// overloaded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedPolicy {
    /// Shed arrivals while the waiting queue holds at least this many
    /// requests.
    pub queue_depth: usize,
    /// ... or while the backlog's projected TTFT (queued tokens priced
    /// at the nominal largest-bucket prefill rate) exceeds this
    /// multiple of the SLO.
    pub ttft_factor: f64,
    /// While overloaded, cap prefill admission at this batch size
    /// instead of the policy cap (decode drains down to it naturally).
    pub degraded_max_batch: Option<usize>,
}

impl ShedPolicy {
    /// Queue-depth shedding with the default projected-TTFT factor and
    /// no degraded cap.
    pub fn for_queue_depth(queue_depth: usize) -> ShedPolicy {
        ShedPolicy {
            queue_depth,
            ttft_factor: DEFAULT_SHED_TTFT_FACTOR,
            degraded_max_batch: None,
        }
    }

    /// Adds a degraded batch cap for overload periods.
    pub fn with_degraded_cap(self, cap: usize) -> ShedPolicy {
        ShedPolicy {
            degraded_max_batch: Some(cap),
            ..self
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Describes the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth == 0 {
            return Err("shed queue depth must be at least 1".into());
        }
        if !(self.ttft_factor.is_finite() && self.ttft_factor > 0.0) {
            return Err(format!(
                "shed TTFT factor {} must be finite and positive",
                self.ttft_factor
            ));
        }
        if self.degraded_max_batch == Some(0) {
            return Err("degraded batch cap must be at least 1".into());
        }
        Ok(())
    }
}

/// A request the router gave up on: every candidate replica stayed
/// blacked out through the retry budget or deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RouterTimeout {
    pub id: usize,
    /// Original arrival time, seconds.
    pub arrival_secs: f64,
    /// When the budget/deadline expired, seconds.
    pub at: f64,
    /// Retries spent before giving up.
    pub retries: usize,
}

/// A routed request that landed: the fleet merge restores the original
/// arrival (kept here so the restoration is bit-exact, not recomputed
/// from the effective arrival) and folds the routing delay into TTFT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RoutedRequest {
    pub id: usize,
    /// Original (pre-backoff) arrival time, seconds.
    pub arrival_secs: f64,
    /// Backoff delay the router added before the request landed.
    pub delay_secs: f64,
    /// Retries spent before landing.
    pub retries: usize,
}

/// The routing pre-pass output: per-replica request streams (sorted by
/// effective arrival), the router's trace events per home replica, and
/// the bookkeeping the fleet merge needs to restore user-perceived
/// arrival times.
pub(crate) struct RoutedTrace {
    /// Per-replica streams, sorted by `(arrival_secs, id)`. Routed
    /// requests carry their *effective* (post-backoff) arrival.
    pub streams: Vec<Vec<Request>>,
    /// Router events (`Retried`/`Redistributed`/`TimedOut`), attached
    /// to the request's home replica.
    pub events: Vec<Vec<ServingEvent>>,
    /// Every routed request that landed, in trace order.
    pub routed: Vec<RoutedRequest>,
    /// Requests that never landed.
    pub timeouts: Vec<RouterTimeout>,
    /// Total retry decisions.
    pub retries: usize,
    /// Requests landed off their home replica.
    pub redistributed: usize,
}

/// Routes the arrival trace around the scheduled blackout windows.
///
/// A request whose home replica (`id % replicas`) is open at its
/// arrival passes through untouched — with no blackouts the output
/// streams equal plain round-robin dispatch exactly. A stranded request
/// retries with doubling (capped) backoff; each retry probes replicas
/// in `home, home+1, …` order and lands on the first open one,
/// emitting [`ServingEvent::Retried`] per attempt and
/// [`ServingEvent::Redistributed`] when it lands off-home. Exhausting
/// the budget or deadline emits [`ServingEvent::TimedOut`].
///
/// Deterministic and simulation-state independent: blackouts are the
/// *scheduled* outage windows `[death, death + outage]`, so this runs
/// as a pre-pass before the per-replica simulations fan out.
pub(crate) fn route_requests(
    trace: &[Request],
    replicas: usize,
    blackouts: &[Vec<(f64, f64)>],
    policy: &RouterPolicy,
) -> RoutedTrace {
    let in_blackout = |r: usize, t: f64| blackouts[r].iter().any(|&(s, e)| t >= s && t < e);
    let mut out = RoutedTrace {
        streams: vec![Vec::new(); replicas],
        events: vec![Vec::new(); replicas],
        routed: Vec::new(),
        timeouts: Vec::new(),
        retries: 0,
        redistributed: 0,
    };
    for req in trace {
        let home = req.id % replicas;
        if !in_blackout(home, req.arrival_secs) {
            out.streams[home].push(*req);
            continue;
        }
        let deadline = req.arrival_secs + policy.deadline_secs;
        let max_backoff = policy.backoff_secs * BACKOFF_CAP_FACTOR;
        let mut t = req.arrival_secs;
        let mut backoff = policy.backoff_secs;
        let mut landed = None;
        let mut timed_out_at = None;
        let mut attempts = 0;
        for attempt in 1..=policy.max_retries {
            let next = t + backoff;
            if next > deadline {
                timed_out_at = Some(deadline);
                break;
            }
            t = next;
            backoff = (backoff * 2.0).min(max_backoff);
            attempts = attempt;
            out.events[home].push(ServingEvent::Retried {
                id: req.id,
                t,
                attempt,
            });
            out.retries += 1;
            if let Some(target) = (0..replicas)
                .map(|k| (home + k) % replicas)
                .find(|&r| !in_blackout(r, t))
            {
                landed = Some(target);
                break;
            }
        }
        match landed {
            Some(target) => {
                if target != home {
                    out.events[home].push(ServingEvent::Redistributed {
                        id: req.id,
                        t,
                        from: home,
                        to: target,
                    });
                    out.redistributed += 1;
                }
                out.streams[target].push(Request {
                    arrival_secs: t,
                    ..*req
                });
                out.routed.push(RoutedRequest {
                    id: req.id,
                    arrival_secs: req.arrival_secs,
                    delay_secs: t - req.arrival_secs,
                    retries: attempts,
                });
            }
            None => {
                let at = timed_out_at.unwrap_or(t);
                out.events[home].push(ServingEvent::TimedOut { id: req.id, t: at });
                out.timeouts.push(RouterTimeout {
                    id: req.id,
                    arrival_secs: req.arrival_secs,
                    at,
                    retries: attempts,
                });
            }
        }
    }
    for stream in &mut out.streams {
        stream.sort_by(|a, b| {
            a.arrival_secs
                .total_cmp(&b.arrival_secs)
                .then(a.id.cmp(&b.id))
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, at: f64) -> Request {
        Request {
            id,
            arrival_secs: at,
            prompt_tokens: 64,
            output_tokens: 8,
        }
    }

    #[test]
    fn chaos_draws_are_deterministic_and_replica_independent() {
        let chaos = ChaosSpec::new(FailureSpec::chip_mtbf(50.0, 100.0), 7);
        let a = chaos.replica_deaths(0, 16, 2.0);
        assert_eq!(a, chaos.replica_deaths(0, 16, 2.0));
        let b = chaos.replica_deaths(1, 16, 2.0);
        assert_ne!(a, b, "replicas draw independent schedules");
        for deaths in [&a, &b] {
            for w in deaths.windows(2) {
                assert!(w[0].at <= w[1].at, "schedule sorted by time");
            }
            for d in deaths.iter() {
                assert!(d.at < 100.0, "no death past the horizon");
                assert_eq!(d.repaired_at, f64::INFINITY, "no repair model");
            }
        }
    }

    #[test]
    fn zero_rate_chaos_draws_nothing() {
        let chaos = ChaosSpec::new(FailureSpec::none(), 3);
        assert!(chaos.replica_deaths(0, 64, 2.0).is_empty());
    }

    #[test]
    fn repair_bounds_the_degraded_window() {
        let chaos = ChaosSpec::new(FailureSpec::chip_mtbf(20.0, 200.0), 11)
            .with_repair(RepairModel::exponential(30.0));
        let deaths = chaos.replica_deaths(0, 8, 2.5);
        assert!(!deaths.is_empty(), "MTBF 20 s over 200 s must draw deaths");
        for d in &deaths {
            assert!(d.repaired_at.is_finite());
            assert!(
                d.repaired_at >= d.at + 2.5,
                "repair starts after the outage"
            );
        }
    }

    #[test]
    fn shorter_mtbf_draws_at_least_as_many_deaths() {
        let hot = ChaosSpec::new(FailureSpec::chip_mtbf(10.0, 100.0), 5);
        let cold = ChaosSpec::new(FailureSpec::chip_mtbf(1000.0, 100.0), 5);
        assert!(
            hot.replica_deaths(0, 16, 2.0).len() >= cold.replica_deaths(0, 16, 2.0).len(),
            "the draw structure is parameter-independent, so a shorter MTBF only pulls arrivals in"
        );
    }

    #[test]
    fn router_passes_open_replicas_through_untouched() {
        let trace = vec![req(0, 0.1), req(1, 0.2), req(2, 0.3)];
        let routed = route_requests(&trace, 2, &[vec![], vec![]], &RouterPolicy::for_slo(0.5));
        assert_eq!(routed.streams[0], vec![req(0, 0.1), req(2, 0.3)]);
        assert_eq!(routed.streams[1], vec![req(1, 0.2)]);
        assert!(routed.events.iter().all(Vec::is_empty));
        assert_eq!(routed.retries, 0);
        assert!(routed.timeouts.is_empty());
    }

    #[test]
    fn stranded_requests_redistribute_to_the_survivor() {
        // Replica 0 is out over [0, 10); replica 1 never fails.
        let trace = vec![req(0, 1.0), req(1, 1.5)];
        let policy = RouterPolicy {
            max_retries: 3,
            backoff_secs: 0.25,
            deadline_secs: 30.0,
        };
        let routed = route_requests(&trace, 2, &[vec![(0.0, 10.0)], vec![]], &policy);
        // Request 0: stranded, one retry at 1.25, lands on replica 1 —
        // ahead of request 1 in the stream, which sorts by arrival.
        assert!(routed.streams[0].is_empty());
        assert_eq!(routed.streams[1], vec![req(0, 1.25), req(1, 1.5)]);
        assert_eq!(routed.retries, 1);
        assert_eq!(routed.redistributed, 1);
        assert_eq!(
            routed.routed,
            vec![RoutedRequest {
                id: 0,
                arrival_secs: 1.0,
                delay_secs: 0.25,
                retries: 1,
            }]
        );
        assert!(matches!(
            routed.events[0][..],
            [
                ServingEvent::Retried {
                    id: 0,
                    attempt: 1,
                    ..
                },
                ServingEvent::Redistributed {
                    id: 0,
                    from: 0,
                    to: 1,
                    ..
                }
            ]
        ));
    }

    #[test]
    fn total_blackout_times_the_request_out() {
        // Both replicas dark for the whole deadline.
        let trace = vec![req(0, 0.0)];
        let policy = RouterPolicy {
            max_retries: 2,
            backoff_secs: 1.0,
            deadline_secs: 100.0,
        };
        let routed = route_requests(
            &trace,
            2,
            &[vec![(0.0, 200.0)], vec![(0.0, 200.0)]],
            &policy,
        );
        assert!(routed.streams.iter().all(Vec::is_empty));
        assert_eq!(routed.timeouts.len(), 1);
        let to = routed.timeouts[0];
        assert_eq!(to.id, 0);
        assert_eq!(to.retries, 2);
        // Budget spent at the second retry: 0 + 1 + 2 = 3 s.
        assert_eq!(to.at, 3.0);
        assert!(matches!(
            routed.events[0].last(),
            Some(ServingEvent::TimedOut { id: 0, .. })
        ));
    }

    #[test]
    fn deadline_preempts_the_retry_budget() {
        let trace = vec![req(0, 0.0)];
        let policy = RouterPolicy {
            max_retries: 50,
            backoff_secs: 1.0,
            deadline_secs: 5.0,
        };
        let routed = route_requests(&trace, 1, &[vec![(0.0, 1e6)]], &policy);
        let to = routed.timeouts[0];
        assert_eq!(to.at, 5.0, "timed out at the deadline, not the budget");
        assert!(to.retries < 50);
        // Retries at 1 s and 3 s; the next backoff (4 s) would land at
        // 7 s, past the 5 s deadline.
        assert_eq!(to.retries, 2);
    }

    #[test]
    fn request_lands_back_home_after_the_outage() {
        // Single replica: redistribution impossible, but a retry past
        // the blackout end lands home.
        let trace = vec![req(0, 0.9)];
        let policy = RouterPolicy {
            max_retries: 5,
            backoff_secs: 0.2,
            deadline_secs: 10.0,
        };
        let routed = route_requests(&trace, 1, &[vec![(0.5, 1.2)]], &policy);
        assert_eq!(routed.streams[0].len(), 1);
        let landed = routed.streams[0][0];
        assert!(landed.arrival_secs >= 1.2, "lands after the blackout");
        assert_eq!(routed.redistributed, 0, "home again, not redistributed");
        assert!(routed.retries >= 1);
    }

    #[test]
    fn policies_validate() {
        assert!(RouterPolicy::for_slo(0.5).validate().is_ok());
        assert!(RouterPolicy {
            max_retries: 0,
            ..RouterPolicy::for_slo(0.5)
        }
        .validate()
        .is_err());
        assert!(RouterPolicy {
            backoff_secs: 0.0,
            ..RouterPolicy::for_slo(0.5)
        }
        .validate()
        .is_err());
        assert!(RouterPolicy {
            deadline_secs: f64::NAN,
            ..RouterPolicy::for_slo(0.5)
        }
        .validate()
        .is_err());

        assert!(ShedPolicy::for_queue_depth(16).validate().is_ok());
        assert!(ShedPolicy::for_queue_depth(0).validate().is_err());
        assert!(ShedPolicy {
            ttft_factor: -1.0,
            ..ShedPolicy::for_queue_depth(16)
        }
        .validate()
        .is_err());
        assert!(ShedPolicy::for_queue_depth(16)
            .with_degraded_cap(0)
            .validate()
            .is_err());

        let chaos = ChaosSpec::new(FailureSpec::chip_mtbf(100.0, 10.0), 0);
        assert!(chaos.validate().is_ok());
        assert!(chaos
            .with_repair(RepairModel::exponential(0.0))
            .validate()
            .is_err());
        let bad = ChaosSpec::new(FailureSpec::chip_mtbf(-1.0, 10.0), 0);
        assert!(bad.validate().is_err());
    }
}
