//! SLO-targeted serving autotuner.
//!
//! Training tunes for makespan; serving tunes for *goodput under a tail
//! SLO*: among fleet layouts that keep TTFT p99 under the target, pick
//! the one generating the most tokens per chip per second. The knobs
//! are the ones the paper's training autotuner sweeps — mesh shape and
//! slice count — plus the two serving-specific ones: how many replicas
//! to split the chip pool into, and how large a decode batch the
//! continuous-batching policy may build (bigger batches amortize weight
//! reads but queue prefills behind longer steps).
//!
//! Candidates are scored by running the actual fleet simulation on a
//! short trace, not a closed-form estimate — the queueing behavior that
//! sets the tail is exactly what closed forms miss. Evaluation fans out
//! over [`meshslice::par`] with deterministic, thread-count-invariant
//! ranking.
//!
//! # The fast path
//!
//! Scoring a candidate splits into building its cost tables (the
//! expensive part: schedule + lower + replay per batch bucket) and
//! running the fleet loop (cheap: table lookups). The default
//! [`TuneMode::Fast`] path therefore:
//!
//! 1. warms one [`CostTableCache`] with every unique
//!    `(mesh, S, batch-cap class)` of the grid — in parallel, nominal
//!    columns only (the tuner never injects failures) — instead of
//!    rebuilding per `(replicas, max_batch)` grid point;
//! 2. draws the arrival trace once and shares it `Arc`'d across all
//!    candidates (legal: the draw is layout-independent);
//! 3. dedups grid entries whose per-replica tables come out identical
//!    (e.g. two requested slice counts clamping to the same schedules)
//!    and simulates each equivalence class once.
//!
//! The result is bit-for-bit identical to [`TuneMode::Exhaustive`] —
//! the PR-6 per-candidate rebuild path, kept as the reference — which
//! is property-tested in `tests/serving_properties.rs`.
//! [`TuneMode::Screened`] adds successive halving on top: every
//! candidate is scored on a short prefix trace first, and only
//! SLO-attaining candidates plus a deterministic top-K graduate to the
//! full trace.

use std::cmp::Ordering;
use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::llm::LlmConfig;
use meshslice::par;
use meshslice::MeshShape;

use crate::arrival::{ArrivalSpec, Request};
use crate::chaos::{ChaosSpec, RouterPolicy, ShedPolicy};
use crate::costs::{CostProfile, CostTableCache, ReplicaCosts};
use crate::fleet::{simulate_fleet, ServingSpec};

/// Decode batch caps the tuner considers. The middle cap rides the
/// [`CostTableCache`] cap-class mechanism for free on the fast path —
/// every cap here reads a truncated view of one cached build — while
/// the exhaustive reference prices each cap from scratch.
pub const CANDIDATE_MAX_BATCH: [usize; 3] = [8, 16, 32];

/// Slice counts the tuner considers.
pub const CANDIDATE_SLICE_COUNTS: [usize; 3] = [1, 4, 8];

/// One evaluated fleet layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingCandidate {
    /// Per-replica mesh shape.
    pub mesh: MeshShape,
    /// Requested slice count.
    pub slice_count: usize,
    /// Replica count.
    pub replicas: usize,
    /// Decode batch cap.
    pub max_batch: usize,
    /// Whether TTFT p99 met the SLO target on the evaluation trace.
    pub slo_attained: bool,
    /// TTFT p99 observed, milliseconds.
    pub p99_ttft_ms: f64,
    /// Goodput observed, tokens per chip per second.
    pub goodput_tokens_per_chip_s: f64,
    /// Fraction of the evaluation trace completed (not rejected).
    pub completion: f64,
}

/// The deterministic candidate order: SLO-attaining layouts first, most
/// goodput first within each group, then a total tie-break over every
/// layout knob — so the ranking is a total order independent of
/// evaluation order and thread count.
pub fn rank_candidates(a: &ServingCandidate, b: &ServingCandidate) -> Ordering {
    b.slo_attained
        .cmp(&a.slo_attained)
        .then(
            b.goodput_tokens_per_chip_s
                .total_cmp(&a.goodput_tokens_per_chip_s),
        )
        .then(a.p99_ttft_ms.total_cmp(&b.p99_ttft_ms))
        .then(a.mesh.rows().cmp(&b.mesh.rows()))
        .then(a.mesh.cols().cmp(&b.mesh.cols()))
        .then(a.slice_count.cmp(&b.slice_count))
        .then(a.replicas.cmp(&b.replicas))
        .then(a.max_batch.cmp(&b.max_batch))
}

/// The successive-halving screening knobs of [`TuneMode::Screened`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScreenPolicy {
    /// Trace-prefix length every candidate is screened on.
    pub prefix_requests: usize,
    /// Candidates promoted to the full trace regardless of their
    /// prefix SLO verdict (by prefix rank, deterministic).
    pub promote_top_k: usize,
}

impl ScreenPolicy {
    /// A sensible policy for an `num_requests`-long evaluation trace: a
    /// quarter-length prefix (at least 16 requests) and a top-8
    /// promotion floor.
    pub fn auto(num_requests: usize) -> ScreenPolicy {
        ScreenPolicy {
            prefix_requests: (num_requests / 4).max(16).min(num_requests.max(1)),
            promote_top_k: 8,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Describes the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.prefix_requests == 0 {
            return Err("screening prefix must hold at least one request".into());
        }
        if self.promote_top_k == 0 {
            return Err("screening must promote at least the top candidate".into());
        }
        Ok(())
    }
}

/// How the tuner evaluates its grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneMode {
    /// The PR-6 reference path: every grid point rebuilds its cost
    /// tables and redraws the trace. Kept as the differential oracle
    /// and benchmark baseline.
    Exhaustive,
    /// Shared cost-table cache + shared trace + table dedup; results
    /// are bit-for-bit identical to [`Exhaustive`](Self::Exhaustive).
    Fast,
    /// [`Fast`](Self::Fast) plus successive halving: score the whole
    /// grid on a prefix trace, promote SLO-attaining candidates and a
    /// deterministic top-K to the full trace. The winner is expected —
    /// and property-tested on the bench workloads — to match the
    /// exhaustive winner; candidates screened out are absent from the
    /// plan.
    Screened(ScreenPolicy),
}

/// The ranked outcome of a serving tune: SLO-attaining layouts first,
/// highest goodput first within each group.
#[derive(Clone, Debug)]
pub struct ServingPlan {
    /// All fully-evaluated candidates, best first.
    pub candidates: Vec<ServingCandidate>,
    /// Grid entries eliminated on the screening prefix (zero unless
    /// [`TuneMode::Screened`] ran).
    pub screened_out: usize,
}

impl ServingPlan {
    /// The winning layout.
    pub fn best(&self) -> &ServingCandidate {
        &self.candidates[0]
    }
}

/// The chaos environment a resilient tune scores against: one base
/// [`ChaosSpec`] fanned into `draws` independently-seeded death
/// schedules (draw `k` offsets the chaos seed by `k`), plus the fleet
/// policies every candidate serves under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceSpec {
    /// Base chaos draw; draw `k` runs with `seed.wrapping_add(k)`.
    pub chaos: ChaosSpec,
    /// Number of seeded chaos draws each surviving candidate is scored
    /// across.
    pub draws: usize,
    /// Failover routing policy applied to every candidate.
    pub router: Option<RouterPolicy>,
    /// Load-shedding policy applied to every candidate.
    pub shed: Option<ShedPolicy>,
}

impl ResilienceSpec {
    /// A resilience spec with five draws and no fleet policies.
    pub fn new(chaos: ChaosSpec) -> ResilienceSpec {
        ResilienceSpec {
            chaos,
            draws: 5,
            router: None,
            shed: None,
        }
    }

    /// Sets the draw count.
    #[must_use]
    pub fn with_draws(self, draws: usize) -> ResilienceSpec {
        ResilienceSpec { draws, ..self }
    }

    /// Adds a failover routing policy.
    #[must_use]
    pub fn with_router(self, router: RouterPolicy) -> ResilienceSpec {
        ResilienceSpec {
            router: Some(router),
            ..self
        }
    }

    /// Adds a load-shedding policy.
    #[must_use]
    pub fn with_shed(self, shed: ShedPolicy) -> ResilienceSpec {
        ResilienceSpec {
            shed: Some(shed),
            ..self
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.draws == 0 {
            return Err("resilient tuning needs at least one chaos draw".into());
        }
        self.chaos.validate()?;
        if let Some(router) = &self.router {
            router.validate()?;
        }
        if let Some(shed) = &self.shed {
            shed.validate()?;
        }
        Ok(())
    }
}

/// One fleet layout scored across the chaos draws of a
/// [`ResilienceSpec`]. The goodput statistics are tail-oriented:
/// `p95_goodput` is the goodput the layout achieves in at least 95% of
/// draws (nearest-rank from the worst draw up), so ranking by it picks
/// layouts that stay fast *under* faults, not layouts that are fast
/// only when lucky.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilientServingCandidate {
    /// Per-replica mesh shape.
    pub mesh: MeshShape,
    /// Requested slice count.
    pub slice_count: usize,
    /// Replica count.
    pub replicas: usize,
    /// Decode batch cap.
    pub max_batch: usize,
    /// Goodput of the worst chaos draw, tokens per chip per second.
    pub worst_goodput: f64,
    /// Goodput met or beaten by 95% of draws (nearest rank; equals the
    /// worst draw when fewer than 20 draws ran).
    pub p95_goodput: f64,
    /// Mean goodput across draws.
    pub mean_goodput: f64,
    /// SLO attainment of the worst draw (fraction of completed
    /// requests whose TTFT met the SLO).
    pub worst_slo_attainment: f64,
    /// Mean SLO attainment across draws.
    pub mean_slo_attainment: f64,
}

/// The deterministic resilient ranking: tail goodput first (p95, then
/// mean, then the worst draw), then the same total layout-knob
/// tie-break as [`rank_candidates`] — a total order independent of
/// evaluation order and thread count.
pub fn rank_resilient_candidates(
    a: &ResilientServingCandidate,
    b: &ResilientServingCandidate,
) -> Ordering {
    b.p95_goodput
        .total_cmp(&a.p95_goodput)
        .then(b.mean_goodput.total_cmp(&a.mean_goodput))
        .then(b.worst_goodput.total_cmp(&a.worst_goodput))
        .then(a.mesh.rows().cmp(&b.mesh.rows()))
        .then(a.mesh.cols().cmp(&b.mesh.cols()))
        .then(a.slice_count.cmp(&b.slice_count))
        .then(a.replicas.cmp(&b.replicas))
        .then(a.max_batch.cmp(&b.max_batch))
}

/// The ranked outcome of a resilient serving tune.
#[derive(Clone, Debug)]
pub struct ResilientServingPlan {
    /// All chaos-scored candidates, best (highest p95 goodput) first.
    pub candidates: Vec<ResilientServingCandidate>,
    /// Grid entries eliminated on the nominal screening prefix.
    pub screened_out: usize,
    /// Chaos draws each candidate was scored across.
    pub draws: usize,
}

impl ResilientServingPlan {
    /// The winning layout.
    pub fn best(&self) -> &ResilientServingCandidate {
        &self.candidates[0]
    }
}

/// Nearest-rank lower percentile: the value at the `frac` quantile
/// counting from the worst, over an ascending-sorted slice.
fn percentile_from_worst(sorted_asc: &[f64], frac: f64) -> f64 {
    let k = ((frac * sorted_asc.len() as f64).ceil() as usize).max(1) - 1;
    sorted_asc[k]
}

/// One simulation the fast path actually runs: a set of grid entries
/// (differing only in requested slice count) whose cost tables came out
/// identical, so one fleet simulation scores them all.
struct EvalUnit {
    mesh: MeshShape,
    replicas: usize,
    max_batch: usize,
    costs: Arc<ReplicaCosts>,
    /// Requested slice counts sharing these tables, grid order.
    member_s: Vec<usize>,
}

/// Whether two table sets price serving identically — everything but
/// the requested-slice-count echo, which the simulation never reads.
fn tables_equivalent(a: &ReplicaCosts, b: &ReplicaCosts) -> bool {
    a.mesh == b.mesh
        && a.max_batch == b.max_batch
        && a.prefill == b.prefill
        && a.decode == b.decode
        && a.kv_bytes_per_token == b.kv_bytes_per_token
        && a.kv_budget_bytes == b.kv_budget_bytes
        && a.degraded_priced == b.degraded_priced
}

/// Scores one [`EvalUnit`] on the first `n_req` requests of the shared
/// trace under nominal (chaos-free) serving.
#[allow(clippy::too_many_arguments)]
fn sim_unit_nominal(
    unit: &EvalUnit,
    model: &LlmConfig,
    arrivals: &ArrivalSpec,
    slo_p99_ttft_ms: f64,
    seed: u64,
    trace: &Arc<[Request]>,
    cfg: &meshslice::SimConfig,
    n_req: usize,
) -> Option<ServingCandidate> {
    let spec = ServingSpec {
        slice_count: unit.costs.slice_count,
        max_batch: unit.max_batch,
        arrivals: arrivals.clone(),
        num_requests: n_req,
        seed,
        slo_p99_ttft_ms,
        shared_costs: Some(unit.costs.clone()),
        shared_trace: Some(trace.clone()),
        ..ServingSpec::new(model.clone(), unit.mesh, unit.replicas, arrivals.qps)
    };
    let report = simulate_fleet(&spec, cfg).ok()?;
    Some(ServingCandidate {
        mesh: unit.mesh,
        slice_count: unit.costs.slice_count,
        replicas: unit.replicas,
        max_batch: unit.max_batch,
        slo_attained: report.slo_attained,
        p99_ttft_ms: report.ttft.p99 * 1e3,
        goodput_tokens_per_chip_s: report.goodput_tokens_per_chip_s,
        completion: report.completed as f64 / report.offered as f64,
    })
}

/// Groups feasible grid entries `(mesh, S, replicas, max_batch, costs)`
/// into [`EvalUnit`]s, preserving grid order (deterministic).
fn dedup_eval_units(
    entries: Vec<(MeshShape, usize, usize, usize, Arc<ReplicaCosts>)>,
) -> Vec<EvalUnit> {
    let mut units: Vec<EvalUnit> = Vec::new();
    for (mesh, s, replicas, max_batch, costs) in entries {
        if let Some(unit) = units.iter_mut().find(|u| {
            u.mesh == mesh
                && u.replicas == replicas
                && u.max_batch == max_batch
                && tables_equivalent(&u.costs, &costs)
        }) {
            unit.member_s.push(s);
        } else {
            units.push(EvalUnit {
                mesh,
                replicas,
                max_batch,
                costs,
                member_s: vec![s],
            });
        }
    }
    units
}

/// Enumerates the full tuning grid `(mesh, S, replicas, max_batch)`:
/// power-of-two replica counts dividing the chip pool (or the pinned
/// count), every candidate mesh of each per-replica pool,
/// [`CANDIDATE_SLICE_COUNTS`], and [`CANDIDATE_MAX_BATCH`].
fn serving_grid(
    total_chips: usize,
    replicas: Option<usize>,
) -> Result<Vec<(MeshShape, usize, usize, usize)>, String> {
    let replica_counts: Vec<usize> = match replicas {
        Some(r) => {
            if r == 0 || !total_chips.is_multiple_of(r) {
                return Err(format!(
                    "replica count {r} must divide the {total_chips}-chip pool"
                ));
            }
            vec![r]
        }
        None => std::iter::successors(Some(1usize), |r| Some(r * 2))
            .take_while(|&r| r <= total_chips)
            .filter(|&r| total_chips.is_multiple_of(r))
            .collect(),
    };

    let mut grid: Vec<(MeshShape, usize, usize, usize)> = Vec::new();
    for &r in &replica_counts {
        for mesh in Autotuner::candidate_meshes(total_chips / r) {
            for &s in &CANDIDATE_SLICE_COUNTS {
                for &max_batch in &CANDIDATE_MAX_BATCH {
                    grid.push((mesh, s, r, max_batch));
                }
            }
        }
    }
    Ok(grid)
}

/// Serving-specific tuning, grafted onto [`Autotuner`] the same way
/// `meshslice-recovery` grafts `tune_robust` — the core crate stays free
/// of serving concerns.
pub trait ServingTuning {
    /// Tunes a serving fleet of `total_chips` for `model` under
    /// `arrivals`, targeting a TTFT p99 of `slo_p99_ttft_ms`, scoring
    /// each candidate on a `num_requests`-long trace drawn from `seed`.
    ///
    /// Sweeps replica counts dividing the chip pool, the candidate mesh
    /// shapes of each per-replica pool, [`CANDIDATE_SLICE_COUNTS`], and
    /// [`CANDIDATE_MAX_BATCH`]. A `replicas` of `Some(r)` pins the
    /// replica count (e.g. the CLI's `--replicas`). Runs the
    /// [`TuneMode::Fast`] cached path, serially.
    ///
    /// # Errors
    ///
    /// Errors when no candidate can serve the model at all (weights too
    /// large for every layout).
    #[allow(clippy::too_many_arguments)]
    fn tune_serving(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
    ) -> Result<ServingPlan, String> {
        self.tune_serving_threads(
            model,
            total_chips,
            replicas,
            arrivals,
            slo_p99_ttft_ms,
            num_requests,
            seed,
            1,
        )
    }

    /// [`tune_serving`](Self::tune_serving) with table warming and
    /// candidate evaluation fanned out over `threads` workers. The
    /// ranking is bit-for-bit identical at any thread count.
    ///
    /// # Errors
    ///
    /// As [`tune_serving`](Self::tune_serving), plus `threads == 0`.
    #[allow(clippy::too_many_arguments)]
    fn tune_serving_threads(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        threads: usize,
    ) -> Result<ServingPlan, String> {
        self.tune_serving_mode(
            model,
            total_chips,
            replicas,
            arrivals,
            slo_p99_ttft_ms,
            num_requests,
            seed,
            TuneMode::Fast,
            threads,
        )
    }

    /// Tunes under an explicit [`TuneMode`].
    ///
    /// # Errors
    ///
    /// As [`tune_serving`](Self::tune_serving), plus `threads == 0` and
    /// invalid [`ScreenPolicy`] knobs.
    #[allow(clippy::too_many_arguments)]
    fn tune_serving_mode(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        mode: TuneMode,
        threads: usize,
    ) -> Result<ServingPlan, String>;

    /// Tunes a serving fleet for goodput *under chaos*: every surviving
    /// candidate serves the same trace across the `resilience.draws`
    /// seeded chaos schedules and is ranked by tail goodput (p95, then
    /// mean, then the worst draw).
    ///
    /// Composes the PR-8 fast path with chaos-aware promotion: the grid
    /// is first screened on a nominal prefix trace with nominal-only
    /// shared cost tables (chaos never enters the screen), promoting
    /// SLO-attaining candidates plus a doubled top-K — the nominal
    /// ranking is only a proxy for the chaos ranking, so the screen
    /// keeps twice the usual margin. Survivors are then scored with
    /// fully-priced shared tables (chaos needs the degraded columns),
    /// one simulation per `(candidate, draw)` fanned out together.
    ///
    /// # Errors
    ///
    /// As [`tune_serving`](Self::tune_serving), plus an invalid
    /// `resilience` spec.
    #[allow(clippy::too_many_arguments)]
    fn tune_serving_resilient(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        resilience: &ResilienceSpec,
    ) -> Result<ResilientServingPlan, String> {
        self.tune_serving_resilient_threads(
            model,
            total_chips,
            replicas,
            arrivals,
            slo_p99_ttft_ms,
            num_requests,
            seed,
            resilience,
            1,
        )
    }

    /// [`tune_serving_resilient`](Self::tune_serving_resilient) fanned
    /// out over `threads` workers; the ranking is bit-for-bit identical
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// As [`tune_serving_resilient`](Self::tune_serving_resilient),
    /// plus `threads == 0`.
    #[allow(clippy::too_many_arguments)]
    fn tune_serving_resilient_threads(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        resilience: &ResilienceSpec,
        threads: usize,
    ) -> Result<ResilientServingPlan, String>;
}

impl ServingTuning for Autotuner {
    #[allow(clippy::too_many_arguments)]
    fn tune_serving_mode(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        mode: TuneMode,
        threads: usize,
    ) -> Result<ServingPlan, String> {
        assert!(total_chips > 0, "serving fleet needs at least one chip");
        if threads == 0 {
            return Err("serving tuner needs at least one worker thread (threads >= 1)".into());
        }
        arrivals.validate()?;
        let grid = serving_grid(total_chips, replicas)?;

        let cfg = self.cost_model().config();
        let no_layout = || {
            format!(
                "{} cannot be served on any layout of {total_chips} chips",
                model.name
            )
        };

        if mode == TuneMode::Exhaustive {
            // The PR-6 reference path: per-candidate table build and
            // trace draw inside `simulate_fleet`.
            let evaluated =
                par::parallel_map_threads(threads, &grid, |&(mesh, s, r, max_batch)| {
                    let spec = ServingSpec {
                        slice_count: s,
                        max_batch,
                        arrivals: arrivals.clone(),
                        num_requests,
                        seed,
                        slo_p99_ttft_ms,
                        ..ServingSpec::new(model.clone(), mesh, r, arrivals.qps)
                    };
                    let report = simulate_fleet(&spec, cfg).ok()?;
                    Some(ServingCandidate {
                        mesh,
                        slice_count: s,
                        replicas: r,
                        max_batch,
                        slo_attained: report.slo_attained,
                        p99_ttft_ms: report.ttft.p99 * 1e3,
                        goodput_tokens_per_chip_s: report.goodput_tokens_per_chip_s,
                        completion: report.completed as f64 / report.offered as f64,
                    })
                });
            let mut candidates: Vec<ServingCandidate> = evaluated.into_iter().flatten().collect();
            if candidates.is_empty() {
                return Err(no_layout());
            }
            candidates.sort_by(rank_candidates);
            return Ok(ServingPlan {
                candidates,
                screened_out: 0,
            });
        }

        // The fast path: one table build per (mesh, S, cap class), one
        // trace draw, one simulation per distinct table set.
        let cache = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        let warm_keys: Vec<(MeshShape, usize, usize)> =
            grid.iter().map(|&(m, s, _r, b)| (m, s, b)).collect();
        cache.warm(model, &warm_keys, threads);
        let trace: Arc<[Request]> = Arc::from(arrivals.generate(num_requests, seed));

        let entries: Vec<(MeshShape, usize, usize, usize, Arc<ReplicaCosts>)> = grid
            .iter()
            .filter_map(|&(mesh, s, r, max_batch)| {
                cache
                    .replica_costs(model, mesh, s, max_batch)
                    .map(|costs| (mesh, s, r, max_batch, costs))
            })
            .collect();
        if entries.is_empty() {
            return Err(no_layout());
        }
        let units = dedup_eval_units(entries);

        // Scores one unit on the first `n_req` requests of the shared
        // trace; expanded to one candidate per member slice count.
        let sim_unit = |unit: &EvalUnit, n_req: usize| -> Option<ServingCandidate> {
            let spec = ServingSpec {
                slice_count: unit.costs.slice_count,
                max_batch: unit.max_batch,
                arrivals: arrivals.clone(),
                num_requests: n_req,
                seed,
                slo_p99_ttft_ms,
                shared_costs: Some(unit.costs.clone()),
                shared_trace: Some(trace.clone()),
                ..ServingSpec::new(model.clone(), unit.mesh, unit.replicas, arrivals.qps)
            };
            let report = simulate_fleet(&spec, cfg).ok()?;
            Some(ServingCandidate {
                mesh: unit.mesh,
                slice_count: unit.costs.slice_count,
                replicas: unit.replicas,
                max_batch: unit.max_batch,
                slo_attained: report.slo_attained,
                p99_ttft_ms: report.ttft.p99 * 1e3,
                goodput_tokens_per_chip_s: report.goodput_tokens_per_chip_s,
                completion: report.completed as f64 / report.offered as f64,
            })
        };
        let expand = |units: &[EvalUnit], scores: Vec<Option<ServingCandidate>>| {
            let mut out: Vec<(ServingCandidate, usize)> = Vec::new();
            for (u, (unit, score)) in units.iter().zip(scores).enumerate() {
                let Some(score) = score else { continue };
                for &s in &unit.member_s {
                    out.push((
                        ServingCandidate {
                            slice_count: s,
                            ..score
                        },
                        u,
                    ));
                }
            }
            out
        };

        let (final_units, screened_out): (Vec<&EvalUnit>, usize) = match mode {
            TuneMode::Screened(policy) if policy.prefix_requests < num_requests => {
                policy.validate()?;
                let prefix_scores = par::parallel_map_threads(threads, &units, |unit| {
                    sim_unit(unit, policy.prefix_requests)
                });
                let mut screened = expand(&units, prefix_scores);
                screened.sort_by(|a, b| rank_candidates(&a.0, &b.0));
                let mut promote = vec![false; units.len()];
                for (i, (c, u)) in screened.iter().enumerate() {
                    if c.slo_attained || i < policy.promote_top_k {
                        promote[*u] = true;
                    }
                }
                let dropped = screened.iter().filter(|(_, u)| !promote[*u]).count();
                let promoted = units
                    .iter()
                    .zip(&promote)
                    .filter_map(|(unit, &p)| p.then_some(unit))
                    .collect();
                (promoted, dropped)
            }
            TuneMode::Screened(policy) => {
                policy.validate()?;
                (units.iter().collect(), 0)
            }
            _ => (units.iter().collect(), 0),
        };

        let full_scores =
            par::parallel_map_threads(threads, &final_units, |unit| sim_unit(unit, num_requests));
        let mut candidates: Vec<ServingCandidate> = final_units
            .iter()
            .zip(full_scores)
            .flat_map(|(unit, score)| {
                let mut out = Vec::new();
                if let Some(score) = score {
                    for &s in &unit.member_s {
                        out.push(ServingCandidate {
                            slice_count: s,
                            ..score
                        });
                    }
                }
                out
            })
            .collect();
        if candidates.is_empty() {
            return Err(no_layout());
        }
        candidates.sort_by(rank_candidates);
        Ok(ServingPlan {
            candidates,
            screened_out,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn tune_serving_resilient_threads(
        &self,
        model: &LlmConfig,
        total_chips: usize,
        replicas: Option<usize>,
        arrivals: &ArrivalSpec,
        slo_p99_ttft_ms: f64,
        num_requests: usize,
        seed: u64,
        resilience: &ResilienceSpec,
        threads: usize,
    ) -> Result<ResilientServingPlan, String> {
        assert!(total_chips > 0, "serving fleet needs at least one chip");
        if threads == 0 {
            return Err("serving tuner needs at least one worker thread (threads >= 1)".into());
        }
        arrivals.validate()?;
        resilience.validate()?;
        let grid = serving_grid(total_chips, replicas)?;
        let cfg = self.cost_model().config();
        let no_layout = || {
            format!(
                "{} cannot be served on any layout of {total_chips} chips",
                model.name
            )
        };

        // Stage 1: nominal screening with nominal-only shared tables —
        // the degraded columns are never read before promotion, so the
        // screen rides the cheap PR-8 cache.
        let screen_cache = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        let warm_keys: Vec<(MeshShape, usize, usize)> =
            grid.iter().map(|&(m, s, _r, b)| (m, s, b)).collect();
        screen_cache.warm(model, &warm_keys, threads);
        let trace: Arc<[Request]> = Arc::from(arrivals.generate(num_requests, seed));

        let entries: Vec<(MeshShape, usize, usize, usize, Arc<ReplicaCosts>)> = grid
            .iter()
            .filter_map(|&(mesh, s, r, max_batch)| {
                screen_cache
                    .replica_costs(model, mesh, s, max_batch)
                    .map(|costs| (mesh, s, r, max_batch, costs))
            })
            .collect();
        if entries.is_empty() {
            return Err(no_layout());
        }
        let units = dedup_eval_units(entries);

        // Chaos-aware promotion: the nominal prefix ranking is only a
        // proxy for the chaos ranking, so keep twice the usual top-K
        // margin alongside every SLO-attaining candidate.
        let policy = {
            let auto = ScreenPolicy::auto(num_requests);
            ScreenPolicy {
                promote_top_k: auto.promote_top_k * 2,
                ..auto
            }
        };
        let (survivors, screened_out): (Vec<&EvalUnit>, usize) =
            if policy.prefix_requests < num_requests {
                let prefix_scores = par::parallel_map_threads(threads, &units, |unit| {
                    sim_unit_nominal(
                        unit,
                        model,
                        arrivals,
                        slo_p99_ttft_ms,
                        seed,
                        &trace,
                        cfg,
                        policy.prefix_requests,
                    )
                });
                let mut screened: Vec<(ServingCandidate, usize)> = Vec::new();
                for (u, (unit, score)) in units.iter().zip(prefix_scores).enumerate() {
                    let Some(score) = score else { continue };
                    for &s in &unit.member_s {
                        screened.push((
                            ServingCandidate {
                                slice_count: s,
                                ..score
                            },
                            u,
                        ));
                    }
                }
                screened.sort_by(|a, b| rank_candidates(&a.0, &b.0));
                let mut promote = vec![false; units.len()];
                for (i, (c, u)) in screened.iter().enumerate() {
                    if c.slo_attained || i < policy.promote_top_k {
                        promote[*u] = true;
                    }
                }
                let dropped = screened.iter().filter(|(_, u)| !promote[*u]).count();
                let promoted = units
                    .iter()
                    .zip(&promote)
                    .filter_map(|(unit, &p)| p.then_some(unit))
                    .collect();
                (promoted, dropped)
            } else {
                (units.iter().collect(), 0)
            };

        // Stage 2: score every survivor across the chaos draws with
        // fully-priced shared tables (the draws hit the degraded
        // columns), every (candidate, draw) pair fanned out together.
        let full_cache = CostTableCache::new(cfg.clone(), CostProfile::Full);
        let full_keys: Vec<(MeshShape, usize, usize)> = survivors
            .iter()
            .map(|u| (u.mesh, u.costs.slice_count, u.max_batch))
            .collect();
        full_cache.warm(model, &full_keys, threads);
        let full_costs: Vec<Option<Arc<ReplicaCosts>>> = survivors
            .iter()
            .map(|u| full_cache.replica_costs(model, u.mesh, u.costs.slice_count, u.max_batch))
            .collect();

        let draws = resilience.draws;
        let jobs: Vec<(usize, u64)> = (0..survivors.len())
            .flat_map(|u| (0..draws as u64).map(move |k| (u, k)))
            .collect();
        let scores = par::parallel_map_threads(threads, &jobs, |&(u, k)| {
            let unit = survivors[u];
            let costs = full_costs[u].clone()?;
            let chaos = ChaosSpec {
                seed: resilience.chaos.seed.wrapping_add(k),
                ..resilience.chaos
            };
            let spec = ServingSpec {
                slice_count: unit.costs.slice_count,
                max_batch: unit.max_batch,
                arrivals: arrivals.clone(),
                num_requests,
                seed,
                slo_p99_ttft_ms,
                shared_costs: Some(costs),
                shared_trace: Some(trace.clone()),
                chaos: Some(chaos),
                router: resilience.router,
                shed: resilience.shed,
                ..ServingSpec::new(model.clone(), unit.mesh, unit.replicas, arrivals.qps)
            };
            let report = simulate_fleet(&spec, cfg).ok()?;
            Some((report.goodput_tokens_per_chip_s, report.slo_attainment))
        });

        let mut candidates: Vec<ResilientServingCandidate> = Vec::new();
        for (u, unit) in survivors.iter().enumerate() {
            let drawn: Vec<(f64, f64)> = scores[u * draws..(u + 1) * draws]
                .iter()
                .copied()
                .flatten()
                .collect();
            // A layout any draw could not serve is out entirely.
            if drawn.len() < draws {
                continue;
            }
            let mut goodputs: Vec<f64> = drawn.iter().map(|&(g, _)| g).collect();
            goodputs.sort_by(f64::total_cmp);
            let base = ResilientServingCandidate {
                mesh: unit.mesh,
                slice_count: unit.costs.slice_count,
                replicas: unit.replicas,
                max_batch: unit.max_batch,
                worst_goodput: goodputs[0],
                p95_goodput: percentile_from_worst(&goodputs, 0.05),
                mean_goodput: goodputs.iter().sum::<f64>() / draws as f64,
                worst_slo_attainment: drawn.iter().map(|&(_, a)| a).fold(f64::INFINITY, f64::min),
                mean_slo_attainment: drawn.iter().map(|&(_, a)| a).sum::<f64>() / draws as f64,
            };
            for &s in &unit.member_s {
                candidates.push(ResilientServingCandidate {
                    slice_count: s,
                    ..base
                });
            }
        }
        if candidates.is_empty() {
            return Err(no_layout());
        }
        candidates.sort_by(rank_resilient_candidates);
        Ok(ResilientServingPlan {
            candidates,
            screened_out,
            draws,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{BucketCost, PhaseCostTable};
    use meshslice::SimConfig;

    fn tiny() -> LlmConfig {
        LlmConfig::tiny()
    }

    fn tuner() -> Autotuner {
        Autotuner::new(SimConfig::tpu_v4())
    }

    #[test]
    fn tune_ranks_slo_attaining_layouts_first() {
        let plan = tuner()
            .tune_serving(&tiny(), 8, None, &ArrivalSpec::poisson(20.0), 500.0, 60, 3)
            .expect("tiny model must have feasible layouts");
        assert!(!plan.candidates.is_empty());
        let first_miss = plan.candidates.iter().position(|c| !c.slo_attained);
        if let Some(k) = first_miss {
            assert!(
                plan.candidates[k..].iter().all(|c| !c.slo_attained),
                "attaining candidates must sort before missing ones"
            );
        }
        for w in plan.candidates.windows(2) {
            if w[0].slo_attained == w[1].slo_attained {
                assert!(
                    w[0].goodput_tokens_per_chip_s >= w[1].goodput_tokens_per_chip_s,
                    "within a group, goodput must be descending"
                );
            }
        }
    }

    #[test]
    fn tune_is_thread_invariant() {
        let t = tuner();
        let arr = ArrivalSpec::poisson(20.0);
        let serial = t
            .tune_serving(&tiny(), 8, None, &arr, 500.0, 40, 3)
            .expect("feasible");
        let parallel = t
            .tune_serving_threads(&tiny(), 8, None, &arr, 500.0, 40, 3, 4)
            .expect("feasible");
        assert_eq!(serial.candidates, parallel.candidates);
    }

    #[test]
    fn fast_path_matches_the_exhaustive_reference() {
        let t = tuner();
        let arr = ArrivalSpec::poisson(20.0);
        let exhaustive = t
            .tune_serving_mode(
                &tiny(),
                8,
                None,
                &arr,
                500.0,
                40,
                3,
                TuneMode::Exhaustive,
                2,
            )
            .expect("feasible");
        let fast = t
            .tune_serving_threads(&tiny(), 8, None, &arr, 500.0, 40, 3, 2)
            .expect("feasible");
        assert_eq!(exhaustive.candidates, fast.candidates);
        assert_eq!(fast.screened_out, 0);
    }

    #[test]
    fn screening_keeps_the_exhaustive_winner() {
        let t = tuner();
        let arr = ArrivalSpec::poisson(20.0);
        let exhaustive = t
            .tune_serving_mode(
                &tiny(),
                8,
                None,
                &arr,
                500.0,
                60,
                3,
                TuneMode::Exhaustive,
                2,
            )
            .expect("feasible");
        let screened = t
            .tune_serving_mode(
                &tiny(),
                8,
                None,
                &arr,
                500.0,
                60,
                3,
                TuneMode::Screened(ScreenPolicy::auto(60)),
                2,
            )
            .expect("feasible");
        assert_eq!(screened.best(), exhaustive.best());
        assert_eq!(
            screened.candidates.len() + screened.screened_out,
            exhaustive.candidates.len(),
            "every grid entry is either fully evaluated or screened out"
        );
        // Every surviving candidate carries its full-trace (exhaustive)
        // metrics, not its prefix ones.
        for c in &screened.candidates {
            assert!(exhaustive.candidates.contains(c));
        }
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        let err = tuner()
            .tune_serving_mode(
                &tiny(),
                8,
                None,
                &ArrivalSpec::poisson(5.0),
                500.0,
                10,
                0,
                TuneMode::Fast,
                0,
            )
            .unwrap_err();
        assert!(err.contains("threads >= 1"), "{err}");
    }

    #[test]
    fn screen_policy_validates() {
        assert!(ScreenPolicy {
            prefix_requests: 0,
            promote_top_k: 8
        }
        .validate()
        .is_err());
        assert!(ScreenPolicy {
            prefix_requests: 8,
            promote_top_k: 0
        }
        .validate()
        .is_err());
        let auto = ScreenPolicy::auto(200);
        auto.validate().expect("auto policy is valid");
        assert_eq!(auto.prefix_requests, 50);
        let short = ScreenPolicy::auto(8);
        assert_eq!(short.prefix_requests, 8, "prefix never exceeds the trace");
    }

    #[test]
    fn equivalent_tables_collapse_into_one_eval_unit() {
        let table = |s: usize, nominal: f64| {
            Arc::new(ReplicaCosts {
                mesh: MeshShape::new(2, 2),
                slice_count: s,
                max_batch: 8,
                prefill: PhaseCostTable {
                    buckets: vec![BucketCost {
                        size: 256,
                        nominal_secs: nominal,
                        degraded_secs: nominal,
                    }],
                },
                decode: PhaseCostTable {
                    buckets: vec![BucketCost {
                        size: 1,
                        nominal_secs: nominal,
                        degraded_secs: nominal,
                    }],
                },
                kv_bytes_per_token: 2,
                kv_budget_bytes: 1000,
                degraded_priced: false,
            })
        };
        let mesh = MeshShape::new(2, 2);
        let units = dedup_eval_units(vec![
            // Same tables under two requested slice counts: one unit.
            (mesh, 4, 1, 8, table(4, 1.0)),
            (mesh, 8, 1, 8, table(8, 1.0)),
            // Different cost: its own unit.
            (mesh, 1, 1, 8, table(1, 2.0)),
            // Same tables but different replica count: its own unit.
            (mesh, 4, 2, 8, table(4, 1.0)),
        ]);
        assert_eq!(units.len(), 3);
        assert_eq!(units[0].member_s, vec![4, 8]);
        assert_eq!(units[1].member_s, vec![1]);
        assert_eq!(units[2].replicas, 2);
    }

    #[test]
    fn pinned_replicas_are_respected() {
        let plan = tuner()
            .tune_serving(
                &tiny(),
                8,
                Some(2),
                &ArrivalSpec::poisson(10.0),
                500.0,
                40,
                3,
            )
            .expect("feasible");
        assert!(plan.candidates.iter().all(|c| c.replicas == 2));
        assert!(tuner()
            .tune_serving(
                &tiny(),
                8,
                Some(3),
                &ArrivalSpec::poisson(10.0),
                500.0,
                40,
                3
            )
            .is_err());
    }

    #[test]
    fn resilient_tune_is_deterministic_and_thread_invariant() {
        use meshslice_faults::FailureSpec;
        let t = tuner();
        let arr = ArrivalSpec::poisson(20.0);
        // 40 requests at qps 20 span ~2 s; MTBF 8 s per chip over that
        // horizon fires deaths in a fair share of the draws.
        let resilience = ResilienceSpec::new(ChaosSpec::new(FailureSpec::chip_mtbf(8.0, 2.0), 11))
            .with_draws(3)
            .with_router(RouterPolicy::for_slo(0.5))
            .with_shed(ShedPolicy::for_queue_depth(64));
        let serial = t
            .tune_serving_resilient(&tiny(), 8, None, &arr, 500.0, 40, 3, &resilience)
            .expect("feasible");
        assert_eq!(serial.draws, 3);
        assert!(!serial.candidates.is_empty());
        for w in serial.candidates.windows(2) {
            assert!(
                w[0].p95_goodput >= w[1].p95_goodput,
                "p95 goodput must rank descending"
            );
        }
        for c in &serial.candidates {
            assert!(c.worst_goodput <= c.mean_goodput + 1e-12);
            assert!(c.p95_goodput >= c.worst_goodput);
        }
        for threads in [2, 8] {
            let parallel = t
                .tune_serving_resilient_threads(
                    &tiny(),
                    8,
                    None,
                    &arr,
                    500.0,
                    40,
                    3,
                    &resilience,
                    threads,
                )
                .expect("feasible");
            assert_eq!(serial.candidates, parallel.candidates);
            assert_eq!(serial.screened_out, parallel.screened_out);
        }
    }

    #[test]
    fn zero_rate_resilient_winner_matches_the_nominal_winner() {
        use meshslice_faults::FailureSpec;
        let t = tuner();
        let arr = ArrivalSpec::poisson(20.0);
        // Infinite MTBFs draw no deaths, so every chaos draw IS the
        // nominal run and the p95 ranking collapses onto plain goodput.
        let resilience = ResilienceSpec::new(ChaosSpec::new(FailureSpec::none(), 11)).with_draws(2);
        let resilient = t
            .tune_serving_resilient(&tiny(), 8, None, &arr, 500.0, 40, 3, &resilience)
            .expect("feasible");
        let nominal = t
            .tune_serving(&tiny(), 8, None, &arr, 500.0, 40, 3)
            .expect("feasible");
        let best = resilient.best();
        // The nominal tuner ranks SLO-attainment before goodput, so
        // compare against the top nominal candidate by raw goodput.
        let top_goodput = nominal
            .candidates
            .iter()
            .map(|c| c.goodput_tokens_per_chip_s)
            .fold(0.0, f64::max);
        assert!(
            (best.p95_goodput - top_goodput).abs() < 1e-9,
            "zero-rate chaos must reproduce the nominal goodput frontier: {} vs {top_goodput}",
            best.p95_goodput
        );
        assert!((best.worst_goodput - best.mean_goodput).abs() < 1e-12);
    }

    #[test]
    fn resilience_spec_validates() {
        use meshslice_faults::FailureSpec;
        let spec = ResilienceSpec::new(ChaosSpec::new(FailureSpec::none(), 0));
        spec.validate().expect("default spec is valid");
        assert!(spec.with_draws(0).validate().is_err());
        let err = tuner()
            .tune_serving_resilient(
                &tiny(),
                8,
                None,
                &ArrivalSpec::poisson(5.0),
                500.0,
                10,
                0,
                &ResilienceSpec::new(ChaosSpec::new(FailureSpec::none(), 0)).with_draws(0),
            )
            .unwrap_err();
        assert!(err.contains("at least one chaos draw"), "{err}");
    }

    #[test]
    fn percentile_from_worst_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_from_worst(&v, 0.05), 1.0);
        assert_eq!(percentile_from_worst(&v, 0.5), 3.0);
        assert_eq!(percentile_from_worst(&v, 1.0), 5.0);
        assert_eq!(percentile_from_worst(&[7.0], 0.05), 7.0);
        // 20 draws: p95-from-worst is exactly the worst draw's
        // successor boundary (nearest rank 1).
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile_from_worst(&twenty, 0.05), 0.0);
    }

    #[test]
    fn unservable_models_error_out() {
        // Megatron-NLG weights (~1 TB) cannot fit 4 TPUv4 chips.
        let err = tuner()
            .tune_serving(
                &LlmConfig::megatron_nlg(),
                4,
                None,
                &ArrivalSpec::poisson(1.0),
                500.0,
                10,
                0,
            )
            .unwrap_err();
        assert!(err.contains("cannot be served"), "{err}");
    }
}
