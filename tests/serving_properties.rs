//! Property tests for the serving subsystem: seeded arrival determinism,
//! thread-count invariance of the fleet simulation, KV accounting bounds,
//! survival of an injected chip death, the observability guarantees —
//! tracing never perturbs the report, event streams keep their ordering
//! invariants, and TTFT blame components sum exactly to measured TTFT —
//! and the serving fast path: shared cost tables and shared traces never
//! change a fleet report, the cached/screened tuner paths reproduce
//! the exhaustive reference, and the chaos-aware resilient tuner
//! reproduces a reference written from the public API.

use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::llm::LlmConfig;
use meshslice::memory::{inference_footprint, HBM_BYTES};
use meshslice::{MeshShape, SimConfig};
use meshslice_faults::FailureSpec;
use meshslice_serving::{
    rank_resilient_candidates, simulate_fleet, simulate_fleet_threads, simulate_fleet_traced,
    ArrivalSpec, ChaosSpec, ChipDeath, CostProfile, CostTableCache, FleetReport, LoadShape,
    OutcomeKind, Request, ResilienceSpec, ResilientServingCandidate, RouterPolicy, ScreenPolicy,
    ServingSpec, ServingTuning, ShedPolicy, TuneMode, MAX_PREFILL_TOKENS,
};
use meshslice_telemetry::ServingEvent;
use proptest::prelude::*;

fn tiny() -> LlmConfig {
    LlmConfig {
        name: "Tiny".to_string(),
        hidden: 256,
        heads: 4,
        layers: 2,
        ffn_mult: 4,
    }
}

/// A small fleet spec exercising both replicas of a 2x2 mesh.
fn spec(qps: f64, requests: usize, seed: u64) -> ServingSpec {
    let mut spec = ServingSpec::new(tiny(), MeshShape::new(2, 2), 2, qps);
    spec.num_requests = requests;
    spec.seed = seed;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same (spec, seed) draws a bit-for-bit identical request trace,
    /// for both steady Poisson and replayed bursty shapes.
    #[test]
    fn arrivals_are_deterministic_under_a_fixed_seed(
        qps in 1.0f64..200.0,
        n in 1usize..200,
        seed in any::<u64>(),
        bursty in any::<bool>(),
    ) {
        let mut arr = ArrivalSpec::poisson(qps);
        if bursty {
            arr.shape = LoadShape::bursty();
        }
        let a = arr.generate(n, seed);
        let b = arr.generate(n, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), n);
        for w in a.windows(2) {
            prop_assert!(w[0].arrival_secs <= w[1].arrival_secs, "arrivals sorted");
        }
    }

    /// Different seeds draw different traces (same structure, new draws).
    #[test]
    fn different_seeds_draw_different_traces(seed in any::<u64>()) {
        let arr = ArrivalSpec::poisson(25.0);
        let a = arr.generate(64, seed);
        let b = arr.generate(64, seed.wrapping_add(1));
        prop_assert_ne!(a, b);
    }

    /// The fleet report is bit-for-bit identical at any worker count.
    #[test]
    fn fleet_simulation_is_thread_count_invariant(
        qps in 5.0f64..100.0,
        requests in 10usize..80,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let spec = spec(qps, requests, seed);
        let serial = simulate_fleet(&spec, &cfg).expect("tiny fleet simulates");
        for threads in [2usize, 8] {
            let parallel =
                simulate_fleet_threads(&spec, &cfg, threads).expect("tiny fleet simulates");
            prop_assert_eq!(&serial, &parallel, "{} threads diverge from serial", threads);
        }
    }

    /// KV accounting never admits more bytes than the per-replica HBM
    /// budget left after weights — globally and per replica.
    #[test]
    fn kv_peak_never_exceeds_the_hbm_budget(
        qps in 20.0f64..400.0,
        requests in 20usize..120,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let spec = spec(qps, requests, seed);
        let report = simulate_fleet(&spec, &cfg).expect("tiny fleet simulates");
        let model = tiny();
        let budget = inference_footprint(&model, spec.mesh, spec.slice_count, MAX_PREFILL_TOKENS)
            .kv_budget(HBM_BYTES);
        prop_assert_eq!(report.kv_budget_bytes, budget);
        prop_assert!(report.kv_peak_bytes <= budget, "fleet peak over budget");
        for r in &report.per_replica {
            prop_assert!(r.kv_peak_bytes <= budget, "replica peak over budget");
        }
        prop_assert_eq!(report.offered, requests);
        prop_assert_eq!(report.completed + report.rejected, requests);
    }

    /// A chip death mid-trace degrades the fleet but never aborts it:
    /// the simulation completes with nonzero goodput.
    #[test]
    fn chip_death_degrades_but_never_aborts(
        // 60 requests at 50 qps span ~1.2 s of arrivals, so a death in
        // the first half second always lands mid-trace.
        at_secs in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut spec = spec(50.0, 60, seed);
        spec.failure = Some(ChipDeath { replica: 0, at_secs });
        let report = simulate_fleet(&spec, &cfg).expect("fleet survives the death");
        prop_assert_eq!(report.failovers, 1);
        prop_assert!(report.goodput_tokens_per_chip_s > 0.0, "goodput must stay nonzero");
        prop_assert!(report.per_replica[0].failed_over);
        prop_assert!(!report.per_replica[1].failed_over);
    }

    /// Recording a trace is observation-only: the traced run's report —
    /// struct and serialized artifact alike — is bit-for-bit identical
    /// to the untraced run, with and without an injected chip death.
    #[test]
    fn tracing_never_perturbs_the_report(
        qps in 5.0f64..300.0,
        requests in 10usize..80,
        seed in any::<u64>(),
        fail in any::<bool>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut spec = spec(qps, requests, seed);
        if fail {
            spec.failure = Some(ChipDeath { replica: 0, at_secs: 0.2 });
        }
        let untraced = simulate_fleet(&spec, &cfg).expect("tiny fleet simulates");
        let (traced, trace) =
            simulate_fleet_traced(&spec, &cfg, 2).expect("tiny fleet simulates");
        prop_assert_eq!(&untraced, &traced, "tracing changed the report");
        prop_assert_eq!(
            untraced.to_json().to_string_pretty(),
            traced.to_json().to_string_pretty(),
            "tracing changed the serialized artifact"
        );
        prop_assert!(!trace.is_empty(), "a run with requests must emit events");
    }

    /// Every recorded stream satisfies the trace invariants: the step
    /// lane is ordered and non-overlapping, per-request times are
    /// non-decreasing through the lifecycle, and spans nest.
    #[test]
    fn trace_streams_keep_their_ordering_invariants(
        qps in 5.0f64..500.0,
        requests in 10usize..80,
        seed in any::<u64>(),
        fail in any::<bool>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut spec = spec(qps, requests, seed);
        if fail {
            spec.failure = Some(ChipDeath { replica: 0, at_secs: 0.1 });
        }
        let (_, trace) =
            simulate_fleet_traced(&spec, &cfg, 1).expect("tiny fleet simulates");
        if let Err(e) = trace.check_invariants() {
            prop_assert!(false, "invariant violated: {}", e);
        }
    }

    /// The blame decomposition is exact: for every completed request,
    /// queueing + prefill + preemption + failover equals the TTFT the
    /// report measured, each component non-negative.
    #[test]
    fn blame_components_sum_exactly_to_ttft(
        qps in 5.0f64..500.0,
        requests in 10usize..80,
        seed in any::<u64>(),
        fail in any::<bool>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut spec = spec(qps, requests, seed);
        if fail {
            spec.failure = Some(ChipDeath { replica: 0, at_secs: 0.15 });
        }
        let (report, trace) =
            simulate_fleet_traced(&spec, &cfg, 1).expect("tiny fleet simulates");
        let blame = trace.blame();
        prop_assert_eq!(blame.requests.len(), report.completed);
        for b in &blame.requests {
            prop_assert!(b.queueing >= -1e-9, "queueing negative: {:?}", b);
            prop_assert!(b.prefill >= 0.0, "prefill negative: {:?}", b);
            prop_assert!(b.preemption >= -1e-9, "preemption negative: {:?}", b);
            prop_assert!(b.failover >= 0.0, "failover negative: {:?}", b);
            prop_assert!(
                (b.components_sum() - b.ttft).abs() < 1e-9,
                "components {} != ttft {} for request {}",
                b.components_sum(), b.ttft, b.id
            );
            let outcome = report
                .outcomes
                .iter()
                .find(|o| o.id == b.id)
                .expect("blamed request has an outcome");
            let measured = outcome.ttft_secs.expect("completed requests have a TTFT");
            prop_assert!(
                (b.ttft - measured).abs() < 1e-9,
                "trace ttft {} != report ttft {} for request {}",
                b.ttft, measured, b.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Handing `simulate_fleet` prebuilt cost tables (a Full-profile
    /// [`CostTableCache`] view) and a predrawn over-long arrival trace
    /// is invisible: the report — struct and serialized artifact — is
    /// bit-for-bit the plain run's, at any thread count, with and
    /// without an injected chip death.
    #[test]
    fn shared_tables_and_traces_never_change_the_report(
        qps in 5.0f64..200.0,
        requests in 10usize..60,
        extra in 0usize..40,
        seed in any::<u64>(),
        fail in any::<bool>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut plain = spec(qps, requests, seed);
        if fail {
            plain.failure = Some(ChipDeath { replica: 0, at_secs: 0.2 });
        }
        let baseline = simulate_fleet(&plain, &cfg).expect("tiny fleet simulates");

        let cache = CostTableCache::new(cfg.clone(), CostProfile::Full);
        let costs = cache
            .replica_costs(&tiny(), plain.mesh, plain.slice_count, plain.max_batch)
            .expect("tiny model prices");
        let trace: Arc<[Request]> =
            Arc::from(plain.arrivals.generate(requests + extra, seed));
        let mut shared = plain.clone();
        shared.shared_costs = Some(costs);
        shared.shared_trace = Some(trace);
        for threads in [1usize, 4] {
            let report = simulate_fleet_threads(&shared, &cfg, threads)
                .expect("shared-resource fleet simulates");
            prop_assert_eq!(&baseline, &report, "{} threads", threads);
            prop_assert_eq!(
                baseline.to_json().to_string_pretty(),
                report.to_json().to_string_pretty(),
                "shared resources changed the serialized artifact"
            );
        }
    }

    /// The cached fast tuner path (shared tables, one shared arrival
    /// draw, dedup'd eval units) reproduces the exhaustive reference bit
    /// for bit — the winner and every fully-evaluated candidate, at any
    /// thread count — and the screened path keeps the exhaustive winner
    /// while only dropping candidates, never rescoring survivors.
    #[test]
    fn fast_and_screened_tuning_match_the_exhaustive_reference(
        hidden_pow in 0usize..3,
        layers in 1usize..3,
        double_pool in any::<bool>(),
        qps in 5.0f64..200.0,
        seed in any::<u64>(),
    ) {
        let hidden = 128usize << hidden_pow;
        let chips = if double_pool { 8 } else { 4 };
        let model = LlmConfig {
            name: format!("p{hidden}"),
            hidden,
            heads: 4,
            layers,
            ffn_mult: 4,
        };
        let replicas = chips / 4;
        let requests = 24;
        let tuner = Autotuner::new(SimConfig::tpu_v4());
        let arrivals = ArrivalSpec::poisson(qps);
        let tune = |mode: TuneMode, threads: usize| {
            tuner.tune_serving_mode(
                &model, chips, Some(replicas), &arrivals, 500.0, requests, seed, mode, threads,
            )
        };

        let exhaustive = match tune(TuneMode::Exhaustive, 2) {
            Ok(plan) => plan,
            Err(e) => {
                // Unservable grids must fail identically on both paths.
                prop_assert_eq!(tune(TuneMode::Fast, 2).unwrap_err(), e);
                return Ok(());
            }
        };
        let fast = tune(TuneMode::Fast, 2).expect("fast path agrees on feasibility");
        prop_assert_eq!(&fast.candidates, &exhaustive.candidates);
        prop_assert_eq!(fast.screened_out, 0);
        let serial = tune(TuneMode::Fast, 1).expect("serial fast path tunes");
        prop_assert_eq!(&serial.candidates, &fast.candidates);

        let screened = tune(TuneMode::Screened(ScreenPolicy::auto(requests)), 2)
            .expect("screened path tunes");
        prop_assert_eq!(screened.best(), exhaustive.best());
        prop_assert_eq!(
            screened.candidates.len() + screened.screened_out,
            exhaustive.candidates.len()
        );
        for c in &screened.candidates {
            let twin = exhaustive.candidates.iter().find(|e| {
                e.mesh == c.mesh
                    && e.slice_count == c.slice_count
                    && e.replicas == c.replicas
                    && e.max_batch == c.max_batch
            });
            prop_assert_eq!(twin, Some(c), "survivor rescored by screening");
        }
    }

    /// Arming the whole resilience machinery without ever tripping it —
    /// zero-rate chaos (infinite MTBFs draw no deaths), a router with
    /// nothing to reroute, a shed policy whose thresholds are
    /// unreachable — leaves the fleet report *and* its serialized
    /// artifact byte-identical to the nominal run at any thread count.
    #[test]
    fn idle_resilience_machinery_is_byte_invisible(
        qps in 5.0f64..300.0,
        requests in 10usize..80,
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let plain = spec(qps, requests, seed);
        let nominal = simulate_fleet(&plain, &cfg).expect("tiny fleet simulates");
        let mut guarded = plain.clone();
        guarded.chaos = Some(ChaosSpec::new(FailureSpec::none(), chaos_seed));
        guarded.router = Some(RouterPolicy::for_slo(plain.slo_p99_ttft_ms / 1e3));
        guarded.shed = Some(ShedPolicy {
            queue_depth: usize::MAX,
            ttft_factor: 1e18,
            degraded_max_batch: None,
        });
        for threads in [1usize, 2, 8] {
            let report = simulate_fleet_threads(&guarded, &cfg, threads)
                .expect("guarded fleet simulates");
            prop_assert_eq!(&nominal, &report, "{} threads", threads);
            prop_assert_eq!(
                nominal.to_json().to_string_pretty(),
                report.to_json().to_string_pretty(),
                "idle resilience machinery changed the serialized artifact"
            );
        }
    }

    /// Under real chaos with routing and shedding, every offered request
    /// reaches exactly one terminal outcome — completed, rejected, shed,
    /// or timed out — the report counters partition the trace, and the
    /// recorded event streams neither lose nor duplicate a request id.
    #[test]
    fn chaos_requests_reach_exactly_one_terminal_outcome(
        qps in 20.0f64..200.0,
        requests in 20usize..80,
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
    ) {
        let cfg = SimConfig::tpu_v4();
        let mut s = spec(qps, requests, seed);
        // MTBF of the arrival span: each 4-chip replica expects ~4
        // deaths over the trace, so most draws fire at least one.
        let horizon = (requests as f64 / qps).max(0.25);
        s.chaos = Some(ChaosSpec::new(FailureSpec::chip_mtbf(horizon, horizon), chaos_seed));
        s.router = Some(RouterPolicy::for_slo(s.slo_p99_ttft_ms / 1e3));
        s.shed = Some(ShedPolicy::for_queue_depth(16).with_degraded_cap(4));
        let (report, trace) = simulate_fleet_traced(&s, &cfg, 2).expect("chaos fleet simulates");
        prop_assert_eq!(
            report.completed + report.rejected + report.shed + report.timed_out,
            report.offered,
            "terminal outcomes must partition the offered load"
        );
        // One outcome per offered id, kind counters corroborating.
        let mut ids: Vec<usize> = report.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..requests).collect::<Vec<_>>());
        let count = |kind: OutcomeKind| {
            report.outcomes.iter().filter(|o| o.kind == kind).count()
        };
        prop_assert_eq!(count(OutcomeKind::Completed), report.completed);
        prop_assert_eq!(count(OutcomeKind::Rejected), report.rejected);
        prop_assert_eq!(count(OutcomeKind::Shed), report.shed);
        prop_assert_eq!(count(OutcomeKind::TimedOut), report.timed_out);
        // The trace agrees: exactly one terminal event per id, however
        // many times the router retried it across replicas.
        let mut terminals = vec![0usize; requests];
        let mut retried = 0usize;
        for stream in &trace.events {
            for ev in stream {
                match ev {
                    ServingEvent::Completed { id, .. }
                    | ServingEvent::Rejected { id, .. }
                    | ServingEvent::Shed { id, .. }
                    | ServingEvent::TimedOut { id, .. } => terminals[*id] += 1,
                    ServingEvent::Retried { .. } => retried += 1,
                    _ => {}
                }
            }
        }
        for (id, &n) in terminals.iter().enumerate() {
            prop_assert_eq!(n, 1, "request {} has {} terminal events", id, n);
        }
        prop_assert_eq!(retried, report.retries, "trace retry count matches the report");
    }
}

/// The resilient tuner's ranking, rebuilt from the public API alone:
/// the layouts that survive the nominal screen with twice the auto
/// policy's top-K, each scored by a plain `simulate_fleet` (its own
/// tables, its own trace) once per chaos draw `k` under chaos seed
/// `seed + k`, reduced to worst / nearest-rank p95 / mean goodput and
/// worst / mean SLO attainment, and sorted by
/// `rank_resilient_candidates`. Returns the ranking and the number of
/// grid entries screened out.
#[allow(clippy::too_many_arguments)]
fn resilient_reference(
    tuner: &Autotuner,
    model: &LlmConfig,
    chips: usize,
    replicas: Option<usize>,
    arrivals: &ArrivalSpec,
    slo_ms: f64,
    requests: usize,
    seed: u64,
    resilience: &ResilienceSpec,
) -> (Vec<ResilientServingCandidate>, usize) {
    let auto = ScreenPolicy::auto(requests);
    let policy = ScreenPolicy {
        promote_top_k: 2 * auto.promote_top_k,
        ..auto
    };
    let screen = tuner
        .tune_serving_mode(
            model,
            chips,
            replicas,
            arrivals,
            slo_ms,
            requests,
            seed,
            TuneMode::Screened(policy),
            1,
        )
        .expect("reference screen tunes");
    let cfg = tuner.cost_model().config();
    let draws = resilience.draws;
    let mut ranked: Vec<ResilientServingCandidate> = screen
        .candidates
        .iter()
        .filter_map(|c| {
            let drawn: Vec<(f64, f64)> = (0..draws as u64)
                .map(|k| {
                    let mut spec =
                        ServingSpec::new(model.clone(), c.mesh, c.replicas, arrivals.qps);
                    spec.slice_count = c.slice_count;
                    spec.max_batch = c.max_batch;
                    spec.arrivals = arrivals.clone();
                    spec.num_requests = requests;
                    spec.seed = seed;
                    spec.slo_p99_ttft_ms = slo_ms;
                    spec.chaos = Some(ChaosSpec {
                        seed: resilience.chaos.seed.wrapping_add(k),
                        ..resilience.chaos
                    });
                    spec.router = resilience.router;
                    spec.shed = resilience.shed;
                    let report = simulate_fleet(&spec, cfg).ok()?;
                    Some((report.goodput_tokens_per_chip_s, report.slo_attainment))
                })
                .collect::<Option<_>>()?;
            let mut goodputs: Vec<f64> = drawn.iter().map(|d| d.0).collect();
            goodputs.sort_by(f64::total_cmp);
            // Nearest rank ⌈0.05·n⌉, counted from the worst draw.
            let p95_rank = draws.div_ceil(20);
            Some(ResilientServingCandidate {
                mesh: c.mesh,
                slice_count: c.slice_count,
                replicas: c.replicas,
                max_batch: c.max_batch,
                worst_goodput: goodputs[0],
                p95_goodput: goodputs[p95_rank - 1],
                mean_goodput: goodputs.iter().sum::<f64>() / draws as f64,
                worst_slo_attainment: drawn.iter().map(|d| d.1).fold(f64::INFINITY, f64::min),
                mean_slo_attainment: drawn.iter().map(|d| d.1).sum::<f64>() / draws as f64,
            })
        })
        .collect();
    ranked.sort_by(rank_resilient_candidates);
    (ranked, screen.screened_out)
}

/// The resilient tuner (nominal screen on shared nominal-only tables,
/// dedup'd eval units, fully-priced shared tables per chaos draw)
/// equals the public-API reference bit for bit at 1 and 2 threads —
/// including a case where the screen drops candidates and a 21-draw
/// case where the p95 draw is not the worst one.
#[test]
fn resilient_tuning_matches_the_public_api_reference() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let chaos = |mtbf: f64, horizon: f64, seed: u64| {
        ChaosSpec::new(FailureSpec::chip_mtbf(mtbf, horizon), seed)
    };
    // (model, chips, replicas, qps, SLO ms, requests, seed, resilience,
    //  grid entries the screen must drop)
    let cases = [
        (
            LlmConfig::tiny(),
            8,
            None,
            2000.0,
            1.0,
            48,
            7,
            ResilienceSpec::new(chaos(0.2, 0.03, 5)).with_draws(2),
            10,
        ),
        (
            tiny(),
            2,
            Some(2),
            20.0,
            500.0,
            24,
            3,
            ResilienceSpec::new(chaos(4.0, 1.2, 11))
                .with_draws(21)
                .with_router(RouterPolicy::for_slo(0.5))
                .with_shed(ShedPolicy::for_queue_depth(64)),
            0,
        ),
    ];
    let mut p95_above_worst = false;
    for (model, chips, replicas, qps, slo_ms, requests, seed, resilience, dropped) in cases {
        let arrivals = ArrivalSpec::poisson(qps);
        let (reference, screened_out) = resilient_reference(
            &tuner,
            &model,
            chips,
            replicas,
            &arrivals,
            slo_ms,
            requests,
            seed,
            &resilience,
        );
        assert_eq!(screened_out, dropped, "{}: screen drops", model.name);
        for threads in [1, 2] {
            let plan = tuner
                .tune_serving_resilient(
                    &model,
                    chips,
                    replicas,
                    &arrivals,
                    slo_ms,
                    requests,
                    seed,
                    &resilience,
                    threads,
                )
                .expect("resilient tune succeeds");
            assert_eq!(
                plan.candidates, reference,
                "{} at {threads} threads",
                model.name
            );
            assert_eq!(plan.screened_out, screened_out);
            assert_eq!(plan.draws, resilience.draws);
        }
        p95_above_worst |= reference.iter().any(|c| c.p95_goodput > c.worst_goodput);
    }
    assert!(
        p95_above_worst,
        "some case must rank a p95 draw above its worst"
    );
}

/// `spec` served from `profile` tables built by a cache, or the
/// validation error such tables meet.
fn served_from(spec: &ServingSpec, profile: CostProfile) -> Result<FleetReport, String> {
    let cfg = SimConfig::tpu_v4();
    let cache = CostTableCache::new(cfg.clone(), profile);
    let mut shared = spec.clone();
    shared.shared_costs = Some(
        cache
            .replica_costs(&spec.model, spec.mesh, spec.slice_count, spec.max_batch)
            .expect("tiny model prices"),
    );
    simulate_fleet(&shared, &cfg)
}

/// A fleet whose spec cannot kill a chip (no scripted death; chaos, if
/// any, with infinite MTBFs) prices its own tables' nominal column only,
/// and reports bit for bit what the same spec reports when served from
/// tables with a priced degraded column.
#[test]
fn death_free_fleets_report_what_full_tables_report() {
    let cfg = SimConfig::tpu_v4();
    for chaos in [None, Some(ChaosSpec::new(FailureSpec::none(), 11))] {
        let mut s = spec(60.0, 80, 5);
        s.chaos = chaos;
        let own = simulate_fleet(&s, &cfg).expect("tiny fleet simulates");
        let full = served_from(&s, CostProfile::Full).expect("full tables serve anything");
        assert_eq!(own, full);
        assert_eq!(
            own.to_json().to_string_pretty(),
            full.to_json().to_string_pretty()
        );
        assert_eq!(own.failovers, 0);
    }
}

/// A scripted chip death (the CLI's `--fail-at`) or finite-MTBF chaos
/// (`--chaos-mtbf`) still prices the degraded column: the replica pays
/// degraded-torus time after its failover, the report equals the one
/// served from full tables, and nominal-only tables are refused.
#[test]
fn fleets_that_can_kill_a_chip_price_the_degraded_column() {
    let cfg = SimConfig::tpu_v4();
    let mut scripted = spec(50.0, 60, 3);
    scripted.failure = Some(ChipDeath {
        replica: 0,
        at_secs: 0.2,
    });
    let mut chaos = spec(50.0, 60, 3);
    // Each 4-chip replica expects 20 deaths over the 1.2 s trace.
    chaos.chaos = Some(ChaosSpec::new(FailureSpec::chip_mtbf(0.24, 1.2), 7));
    for s in [scripted, chaos] {
        let own = simulate_fleet(&s, &cfg).expect("fleet survives its deaths");
        assert!(own.failovers > 0, "a death fired");
        let degraded: f64 = own.per_replica.iter().map(|r| r.degraded_extra_secs).sum();
        assert!(degraded > 0.0, "degraded steps cost more than nominal ones");
        assert_eq!(own, served_from(&s, CostProfile::Full).unwrap());
        let err = served_from(&s, CostProfile::NominalOnly).unwrap_err();
        assert!(err.contains("nominal-only"), "{err}");
    }
}
