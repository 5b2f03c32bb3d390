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
//!
//! # One pipeline, two scorers
//!
//! [`ServingTuning::tune_serving_mode`] and
//! [`ServingTuning::tune_serving_resilient`] run the same stages:
//! validate → grid → warm the nominal-only cache → draw the shared
//! trace → dedup into eval units → screen on a prefix → score the
//! survivors → expand member slice counts → rank. They differ only in
//! the final scorer: one nominal full-trace simulation per unit, or one
//! simulation per chaos draw on fully-priced tables.

use std::cmp::Ordering;
use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::llm::LlmConfig;
use meshslice::par;
use meshslice::{MeshShape, SimConfig};
use meshslice_telemetry::percentile;

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
    /// Goodput met or beaten by 95% of draws: nearest rank ⌈0.05·n⌉
    /// counting from the worst of `n` draws, so it equals the worst
    /// draw whenever at most 20 draws ran.
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

/// One candidate per member slice count of every scored unit, in unit
/// order, each tagged with its unit's index; a unit that could not
/// serve (`None`) drops out.
fn expand<'u, T: Copy + 'u>(
    units: &'u [&EvalUnit],
    scores: Vec<Option<T>>,
    with_s: fn(T, usize) -> T,
) -> impl Iterator<Item = (T, usize)> + 'u {
    units
        .iter()
        .zip(scores)
        .enumerate()
        .filter_map(|(u, (unit, score))| Some((u, unit, score?)))
        .flat_map(move |(u, unit, score)| unit.member_s.iter().map(move |&s| (with_s(score, s), u)))
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

/// The inputs every stage of one serving tune shares.
struct Search<'a> {
    model: &'a LlmConfig,
    total_chips: usize,
    arrivals: &'a ArrivalSpec,
    slo_p99_ttft_ms: f64,
    num_requests: usize,
    seed: u64,
    cfg: &'a SimConfig,
    threads: usize,
}

impl Search<'_> {
    /// Validates the inputs — chips, threads, arrivals, then the
    /// resilience spec if any — and enumerates the grid.
    fn grid(
        &self,
        replicas: Option<usize>,
        resilience: Option<&ResilienceSpec>,
    ) -> Result<Vec<(MeshShape, usize, usize, usize)>, String> {
        if self.total_chips == 0 {
            return Err("serving fleet needs at least one chip".into());
        }
        if self.threads == 0 {
            return Err("serving tuner needs at least one worker thread (threads >= 1)".into());
        }
        self.arrivals.validate()?;
        if let Some(resilience) = resilience {
            resilience.validate()?;
        }
        serving_grid(self.total_chips, replicas)
    }

    fn no_layout(&self) -> String {
        format!(
            "{} cannot be served on any layout of {} chips",
            self.model.name, self.total_chips
        )
    }

    /// The nominal fleet spec of one layout on the first `n_req`
    /// requests of the tune's trace.
    fn spec(
        &self,
        mesh: MeshShape,
        slice_count: usize,
        replicas: usize,
        max_batch: usize,
        n_req: usize,
    ) -> ServingSpec {
        ServingSpec {
            slice_count,
            max_batch,
            arrivals: self.arrivals.clone(),
            num_requests: n_req,
            seed: self.seed,
            slo_p99_ttft_ms: self.slo_p99_ttft_ms,
            ..ServingSpec::new(self.model.clone(), mesh, replicas, self.arrivals.qps)
        }
    }

    /// [`spec`](Self::spec) for one eval unit, reading its shared
    /// tables and the shared trace.
    fn unit_spec(&self, unit: &EvalUnit, trace: &Arc<[Request]>, n_req: usize) -> ServingSpec {
        ServingSpec {
            shared_costs: Some(unit.costs.clone()),
            shared_trace: Some(trace.clone()),
            ..self.spec(
                unit.mesh,
                unit.costs.slice_count,
                unit.replicas,
                unit.max_batch,
                n_req,
            )
        }
    }

    /// Simulates `spec` and scores it as a nominal candidate, or `None`
    /// when the layout cannot serve.
    fn score(&self, spec: &ServingSpec) -> Option<ServingCandidate> {
        let report = simulate_fleet(spec, self.cfg).ok()?;
        Some(ServingCandidate {
            mesh: spec.mesh,
            slice_count: spec.slice_count,
            replicas: spec.replicas,
            max_batch: spec.max_batch,
            slo_attained: report.slo_attained,
            p99_ttft_ms: report.ttft.p99 * 1e3,
            goodput_tokens_per_chip_s: report.goodput_tokens_per_chip_s,
            completion: report.completed as f64 / report.offered as f64,
        })
    }

    /// Warms one nominal-only [`CostTableCache`] with the grid, draws
    /// the shared trace and dedups the feasible entries into
    /// [`EvalUnit`]s: one table build per `(mesh, S, cap class)`, one
    /// trace draw, one simulation per distinct table set.
    fn eval_units(
        &self,
        grid: &[(MeshShape, usize, usize, usize)],
    ) -> Result<(Vec<EvalUnit>, Arc<[Request]>), String> {
        let cache = CostTableCache::new(self.cfg.clone(), CostProfile::NominalOnly);
        let warm_keys: Vec<(MeshShape, usize, usize)> =
            grid.iter().map(|&(m, s, _r, b)| (m, s, b)).collect();
        cache.warm(self.model, &warm_keys, self.threads);
        let trace: Arc<[Request]> = Arc::from(self.arrivals.generate(self.num_requests, self.seed));

        let entries: Vec<(MeshShape, usize, usize, usize, Arc<ReplicaCosts>)> = grid
            .iter()
            .filter_map(|&(mesh, s, r, max_batch)| {
                cache
                    .replica_costs(self.model, mesh, s, max_batch)
                    .map(|costs| (mesh, s, r, max_batch, costs))
            })
            .collect();
        if entries.is_empty() {
            return Err(self.no_layout());
        }
        Ok((dedup_eval_units(entries), trace))
    }

    /// Successive halving: scores every unit on the policy's trace
    /// prefix and keeps the units behind an SLO-attaining candidate or a
    /// top-`promote_top_k` one. Returns the survivors (grid order) and
    /// the number of grid entries dropped; a prefix as long as the trace
    /// screens nothing.
    fn screen<'u>(
        &self,
        units: &'u [EvalUnit],
        trace: &Arc<[Request]>,
        policy: ScreenPolicy,
    ) -> (Vec<&'u EvalUnit>, usize) {
        let all: Vec<&EvalUnit> = units.iter().collect();
        if policy.prefix_requests >= self.num_requests {
            return (all, 0);
        }
        let prefix_scores = par::parallel_map_threads(self.threads, &all, |unit| {
            self.score(&self.unit_spec(unit, trace, policy.prefix_requests))
        });
        let mut screened: Vec<(ServingCandidate, usize)> =
            expand(&all, prefix_scores, |c, s| ServingCandidate {
                slice_count: s,
                ..c
            })
            .collect();
        screened.sort_by(|a, b| rank_candidates(&a.0, &b.0));
        let mut promote = vec![false; units.len()];
        for (i, (c, u)) in screened.iter().enumerate() {
            if c.slo_attained || i < policy.promote_top_k {
                promote[*u] = true;
            }
        }
        let dropped = screened.iter().filter(|(_, u)| !promote[*u]).count();
        let promoted = all
            .into_iter()
            .zip(promote)
            .filter_map(|(unit, p)| p.then_some(unit))
            .collect();
        (promoted, dropped)
    }

    /// Sorts the candidates by `rank`, or errors when none could serve.
    fn ranked<T>(
        &self,
        candidates: impl IntoIterator<Item = T>,
        rank: fn(&T, &T) -> Ordering,
    ) -> Result<Vec<T>, String> {
        let mut candidates: Vec<T> = candidates.into_iter().collect();
        if candidates.is_empty() {
            return Err(self.no_layout());
        }
        candidates.sort_by(rank);
        Ok(candidates)
    }
}

/// Serving-specific tuning, grafted onto [`Autotuner`] as an extension
/// trait so the core crate stays free of serving concerns.
pub trait ServingTuning {
    /// Tunes a serving fleet of `total_chips` for `model` under
    /// `arrivals`, targeting a TTFT p99 of `slo_p99_ttft_ms`, scoring
    /// each candidate on a `num_requests`-long trace drawn from `seed`
    /// under `mode`.
    ///
    /// Sweeps replica counts dividing the chip pool, the candidate mesh
    /// shapes of each per-replica pool, [`CANDIDATE_SLICE_COUNTS`], and
    /// [`CANDIDATE_MAX_BATCH`]. A `replicas` of `Some(r)` pins the
    /// replica count (e.g. the CLI's `--replicas`). Table warming and
    /// candidate evaluation fan out over `threads` workers; the ranking
    /// is bit-for-bit identical at any thread count.
    ///
    /// # Errors
    ///
    /// Errors on zero chips or `threads == 0`, invalid `arrivals`, a
    /// pinned replica count not dividing the pool, when no candidate
    /// can serve the model at all (weights too large for every layout),
    /// and on invalid [`ScreenPolicy`] knobs.
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
    /// mean, then the worst draw), over `threads` workers with a
    /// thread-count-invariant ranking.
    ///
    /// Shares the nominal screen of
    /// [`tune_serving_mode`](Self::tune_serving_mode): the grid is first
    /// screened on a nominal prefix trace with nominal-only shared cost
    /// tables (chaos never enters the screen), promoting SLO-attaining
    /// candidates plus a doubled top-K — the nominal ranking is only a
    /// proxy for the chaos ranking, so the screen keeps twice the usual
    /// margin. Survivors are then scored with fully-priced shared tables
    /// (chaos needs the degraded columns), one simulation per
    /// `(candidate, draw)` fanned out together.
    ///
    /// # Errors
    ///
    /// As [`tune_serving_mode`](Self::tune_serving_mode), plus an
    /// invalid `resilience` spec.
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
        let search = Search {
            model,
            total_chips,
            arrivals,
            slo_p99_ttft_ms,
            num_requests,
            seed,
            cfg: self.cost_model().config(),
            threads,
        };
        let grid = search.grid(replicas, None)?;

        if mode == TuneMode::Exhaustive {
            // The PR-6 reference path: per-candidate table build and
            // trace draw inside `simulate_fleet`.
            let evaluated =
                par::parallel_map_threads(threads, &grid, |&(mesh, s, r, max_batch)| {
                    search.score(&search.spec(mesh, s, r, max_batch, num_requests))
                });
            return Ok(ServingPlan {
                candidates: search.ranked(evaluated.into_iter().flatten(), rank_candidates)?,
                screened_out: 0,
            });
        }

        let (units, trace) = search.eval_units(&grid)?;
        let (survivors, screened_out) = match mode {
            TuneMode::Screened(policy) => {
                policy.validate()?;
                search.screen(&units, &trace, policy)
            }
            _ => (units.iter().collect(), 0),
        };
        let scores = par::parallel_map_threads(threads, &survivors, |unit| {
            search.score(&search.unit_spec(unit, &trace, num_requests))
        });
        let expanded = expand(&survivors, scores, |c, s| ServingCandidate {
            slice_count: s,
            ..c
        });
        Ok(ServingPlan {
            candidates: search.ranked(expanded.map(|(c, _)| c), rank_candidates)?,
            screened_out,
        })
    }

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
        threads: usize,
    ) -> Result<ResilientServingPlan, String> {
        let search = Search {
            model,
            total_chips,
            arrivals,
            slo_p99_ttft_ms,
            num_requests,
            seed,
            cfg: self.cost_model().config(),
            threads,
        };
        let grid = search.grid(replicas, Some(resilience))?;

        // Stage 1: the nominal screen, promoting twice the usual top-K
        // alongside every SLO-attaining candidate — the nominal prefix
        // ranking is only a proxy for the chaos ranking.
        let (units, trace) = search.eval_units(&grid)?;
        let auto = ScreenPolicy::auto(num_requests);
        let policy = ScreenPolicy {
            promote_top_k: auto.promote_top_k * 2,
            ..auto
        };
        let (survivors, screened_out) = search.screen(&units, &trace, policy);

        // Stage 2: score every survivor across the chaos draws with
        // fully-priced shared tables (the draws hit the degraded
        // columns), every (candidate, draw) pair fanned out together.
        let full_cache = CostTableCache::new(search.cfg.clone(), CostProfile::Full);
        let full_keys: Vec<(MeshShape, usize, usize)> = survivors
            .iter()
            .map(|u| (u.mesh, u.costs.slice_count, u.max_batch))
            .collect();
        full_cache.warm(model, &full_keys, threads);
        let full_costs: Vec<Option<Arc<ReplicaCosts>>> = full_keys
            .iter()
            .map(|&(mesh, s, max_batch)| full_cache.replica_costs(model, mesh, s, max_batch))
            .collect();

        let draws = resilience.draws;
        let jobs: Vec<(usize, u64)> = (0..survivors.len())
            .flat_map(|u| (0..draws as u64).map(move |k| (u, k)))
            .collect();
        let scores = par::parallel_map_threads(threads, &jobs, |&(u, k)| {
            let spec = ServingSpec {
                shared_costs: Some(full_costs[u].clone()?),
                chaos: Some(ChaosSpec {
                    seed: resilience.chaos.seed.wrapping_add(k),
                    ..resilience.chaos
                }),
                router: resilience.router,
                shed: resilience.shed,
                ..search.unit_spec(survivors[u], &trace, num_requests)
            };
            let report = simulate_fleet(&spec, search.cfg).ok()?;
            Some((report.goodput_tokens_per_chip_s, report.slo_attainment))
        });

        let scored: Vec<Option<ResilientServingCandidate>> = survivors
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                // A layout any draw could not serve is out entirely.
                let drawn: Vec<(f64, f64)> = scores[u * draws..(u + 1) * draws]
                    .iter()
                    .copied()
                    .collect::<Option<_>>()?;
                let mut goodputs: Vec<f64> = drawn.iter().map(|&(g, _)| g).collect();
                goodputs.sort_by(f64::total_cmp);
                Some(ResilientServingCandidate {
                    mesh: unit.mesh,
                    slice_count: unit.costs.slice_count,
                    replicas: unit.replicas,
                    max_batch: unit.max_batch,
                    worst_goodput: goodputs[0],
                    p95_goodput: percentile(&goodputs, 0.05),
                    mean_goodput: goodputs.iter().sum::<f64>() / draws as f64,
                    worst_slo_attainment: drawn
                        .iter()
                        .map(|&(_, a)| a)
                        .fold(f64::INFINITY, f64::min),
                    mean_slo_attainment: drawn.iter().map(|&(_, a)| a).sum::<f64>() / draws as f64,
                })
            })
            .collect();
        let expanded = expand(&survivors, scored, |c, s| ResilientServingCandidate {
            slice_count: s,
            ..c
        });
        Ok(ResilientServingPlan {
            candidates: search.ranked(expanded.map(|(c, _)| c), rank_resilient_candidates)?,
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
            .tune_serving_mode(
                &tiny(),
                8,
                None,
                &ArrivalSpec::poisson(20.0),
                500.0,
                60,
                3,
                TuneMode::Fast,
                1,
            )
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
            .tune_serving_mode(&tiny(), 8, None, &arr, 500.0, 40, 3, TuneMode::Fast, 1)
            .expect("feasible");
        let parallel = t
            .tune_serving_mode(&tiny(), 8, None, &arr, 500.0, 40, 3, TuneMode::Fast, 4)
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
            .tune_serving_mode(&tiny(), 8, None, &arr, 500.0, 40, 3, TuneMode::Fast, 2)
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
        use meshslice_faults::FailureSpec;
        let resilience = ResilienceSpec::new(ChaosSpec::new(FailureSpec::none(), 0));
        for (chips, threads, expected) in [(8, 0, "threads >= 1"), (0, 1, "at least one chip")] {
            let arr = ArrivalSpec::poisson(5.0);
            let err = tuner()
                .tune_serving_mode(
                    &tiny(),
                    chips,
                    None,
                    &arr,
                    500.0,
                    10,
                    0,
                    TuneMode::Fast,
                    threads,
                )
                .unwrap_err();
            assert!(err.contains(expected), "{err}");
            let err = tuner()
                .tune_serving_resilient(
                    &tiny(),
                    chips,
                    None,
                    &arr,
                    500.0,
                    10,
                    0,
                    &resilience,
                    threads,
                )
                .unwrap_err();
            assert!(err.contains(expected), "{err}");
        }
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
            .tune_serving_mode(
                &tiny(),
                8,
                Some(2),
                &ArrivalSpec::poisson(10.0),
                500.0,
                40,
                3,
                TuneMode::Fast,
                1,
            )
            .expect("feasible");
        assert!(plan.candidates.iter().all(|c| c.replicas == 2));
        assert!(tuner()
            .tune_serving_mode(
                &tiny(),
                8,
                Some(3),
                &ArrivalSpec::poisson(10.0),
                500.0,
                40,
                3,
                TuneMode::Fast,
                1,
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
            .tune_serving_resilient(&tiny(), 8, None, &arr, 500.0, 40, 3, &resilience, 1)
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
                .tune_serving_resilient(&tiny(), 8, None, &arr, 500.0, 40, 3, &resilience, threads)
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
            .tune_serving_resilient(&tiny(), 8, None, &arr, 500.0, 40, 3, &resilience, 1)
            .expect("feasible");
        let nominal = t
            .tune_serving_mode(&tiny(), 8, None, &arr, 500.0, 40, 3, TuneMode::Fast, 1)
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
                1,
            )
            .unwrap_err();
        assert!(err.contains("at least one chaos draw"), "{err}");
    }

    #[test]
    fn unservable_models_error_out() {
        // Megatron-NLG weights (~1 TB) cannot fit 4 TPUv4 chips.
        let err = tuner()
            .tune_serving_mode(
                &LlmConfig::megatron_nlg(),
                4,
                None,
                &ArrivalSpec::poisson(1.0),
                500.0,
                10,
                0,
                TuneMode::Fast,
                1,
            )
            .unwrap_err();
        assert!(err.contains("cannot be served"), "{err}");
    }
}
