//! Property tests for the engine's span accounting and the telemetry
//! layer built on it: every algorithm and dataflow must emit spans that
//! stay inside the run, never double-book an exclusive lane, sum to the
//! report's time-breakdown buckets, and carry a critical path that
//! telescopes to the makespan with non-negative slack everywhere. The
//! recorders that produce spans, timelines and op traces must be
//! observation-only: attaching them never changes a run's outcome. The
//! full node graph those recorders, failures and fault profiles run on is
//! lowered lazily for symmetry-quotient programs; it must not matter when,
//! or on which thread, that happens.

use meshslice::par::parallel_map_threads;
use meshslice::{
    Cannon, Collective, Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice,
    SimConfig, Summa, Wang,
};
use meshslice_faults::FaultSpec;
use meshslice_mesh::Torus2d;
use meshslice_sim::{
    ChipFailure, EngineObserver, FailureOutcome, LoweredProgram, NodeSpan, OpTrace,
    OpTraceRecorder, Program, RunScratch, RunTimeline, SimReport, SpanRecorder, SpanTrack,
    TimelineRecorder,
};
use meshslice_telemetry::{node_slacks, spans_overlap_and_buckets, CriticalPath};
use proptest::prelude::*;

/// The algorithm zoo at slice count `s`, each boxed behind the scheduling
/// trait. Cannon requires a square mesh, so it carries a predicate.
fn algorithms(s: usize) -> Vec<(&'static str, Box<dyn DistributedGemm>, bool)> {
    vec![
        ("meshslice", Box::new(MeshSlice::new(s, 4)), false),
        ("collective", Box::new(Collective), false),
        ("wang", Box::new(Wang::new()), false),
        ("summa", Box::new(Summa::new(4)), false),
        ("cannon", Box::new(Cannon), true),
    ]
}

/// Schedules one GeMM divisible at slice count `s`; `None` when the
/// algorithm rejects the (mesh, dataflow) combination.
fn schedule(
    algo: &dyn DistributedGemm,
    mesh: &Torus2d,
    dataflow: Dataflow,
    s: usize,
) -> Option<Program> {
    let unit = 8 * mesh.num_chips() * s;
    let problem = GemmProblem::new(GemmShape::new(unit * 4, unit * 4, unit * 4), dataflow);
    algo.schedule(mesh, problem, 2).ok()
}

/// Runs a lowered program to completion on fresh scratch under
/// `observer`.
fn observe<O: EngineObserver>(
    engine: &Engine,
    lowered: &LoweredProgram,
    observer: &mut O,
) -> SimReport {
    engine
        .run_observed(lowered, &mut RunScratch::new(), None, observer)
        .into_completed()
        .expect("no failure was injected")
}

/// A fault-free run's report and spans.
fn run_spans(engine: &Engine, program: &Program) -> (SimReport, Vec<NodeSpan>) {
    let lowered = engine.lower_program(program);
    let mut recorder = SpanRecorder::new(&lowered);
    let report = observe(engine, &lowered, &mut recorder);
    (report, recorder.into_spans())
}

/// A fault-free run's report and realized timeline.
fn run_timeline(engine: &Engine, program: &Program) -> (SimReport, RunTimeline) {
    let lowered = engine.lower_program(program);
    let mut recorder = TimelineRecorder::new(&lowered);
    let report = observe(engine, &lowered, &mut recorder);
    (report, recorder.into_timeline())
}

/// Runs `lowered` under `failure` with no observer, with each recorder,
/// and with all three recorders at once, on the caller's reused scratch,
/// and asserts every outcome equals `want`. Returns the spans and
/// timeline of the combined run, which must match the ones recorded
/// alone.
fn assert_observation_only(
    engine: &Engine,
    lowered: &LoweredProgram,
    scratch: &mut RunScratch,
    failure: Option<(ChipFailure, f64)>,
    want: &FailureOutcome,
) -> (Vec<NodeSpan>, RunTimeline) {
    let mut spans = SpanRecorder::new(lowered);
    let mut timeline = TimelineRecorder::new(lowered);
    let mut traces = OpTraceRecorder::new(lowered);
    assert_eq!(
        &engine.run_observed(lowered, scratch, failure, &mut ()),
        want
    );
    assert_eq!(
        &engine.run_observed(lowered, scratch, failure, &mut spans),
        want
    );
    assert_eq!(
        &engine.run_observed(lowered, scratch, failure, &mut timeline),
        want
    );
    assert_eq!(
        &engine.run_observed(lowered, scratch, failure, &mut traces),
        want
    );
    let mut all = (
        SpanRecorder::new(lowered),
        (
            TimelineRecorder::new(lowered),
            OpTraceRecorder::new(lowered),
        ),
    );
    assert_eq!(
        &engine.run_observed(lowered, scratch, failure, &mut all),
        want
    );
    let (all_spans, (all_timeline, all_traces)) = all;
    let (all_spans, all_timeline) = (all_spans.into_spans(), all_timeline.into_timeline());
    assert_eq!(spans.into_spans(), all_spans);
    assert_eq!(timeline.into_timeline(), all_timeline);
    assert_eq!(traces.into_traces(), all_traces.into_traces());
    (all_spans, all_timeline)
}

/// Asserts the satellite span invariants on one run.
fn check_span_invariants(name: &str, report: &SimReport, spans: &[NodeSpan]) {
    let makespan = report.makespan().as_secs();
    // Every span lies within [0, makespan].
    for s in spans {
        let (a, b) = (s.start.as_secs(), s.end.as_secs());
        assert!(a >= 0.0 && b >= a, "{name}: span out of order {a}..{b}");
        assert!(
            b <= makespan + 1e-9 * makespan.max(1.0),
            "{name}: span end {b} beyond makespan {makespan}"
        );
    }
    // Exclusive lanes (compute, links) are never double-booked. The host
    // lane is intentionally excluded: launches hold no exclusive
    // resource, so concurrent collectives may overlap there.
    let mut by_lane: Vec<((usize, usize), (f64, f64))> = spans
        .iter()
        .filter(|s| !matches!(s.track, SpanTrack::Host))
        .map(|s| {
            (
                (s.chip.index(), s.track.lane()),
                (s.start.as_secs(), s.end.as_secs()),
            )
        })
        .collect();
    by_lane.sort_by(|x, y| x.0.cmp(&y.0).then(x.1 .0.total_cmp(&y.1 .0)));
    for w in by_lane.windows(2) {
        let ((lane_a, (_, end_a)), (lane_b, (start_b, _))) = (&w[0], &w[1]);
        if lane_a == lane_b {
            assert!(
                *start_b >= *end_a - 1e-12,
                "{name}: lane {lane_a:?} double-booked: ends {end_a}, next starts {start_b}"
            );
        }
    }
    // Per-kind span sums reproduce the report's time-breakdown buckets
    // (comm_sync has no busy spans, so it is structurally zero here).
    let (_, buckets) = spans_overlap_and_buckets(spans);
    let totals = report.totals();
    let want = [
        totals.compute.as_secs(),
        totals.slice.as_secs(),
        totals.comm_launch.as_secs(),
        0.0,
        totals.comm_transfer.as_secs(),
    ];
    for (i, (got, want)) in buckets.iter().zip(want).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * want.max(1.0),
            "{name}: bucket {i}: spans sum to {got}, report says {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite (b): the span invariants hold for every algorithm and
    /// every dataflow it accepts, across mesh shapes.
    #[test]
    fn span_invariants_hold_for_every_algorithm_and_dataflow(
        pr in 1usize..4, pc in 1usize..4,
    ) {
        let mut ran = 0;
        let mesh = Torus2d::new(pr, pc);
        let engine = Engine::new(mesh.clone(), SimConfig::tpu_v4());
        for (name, algo, square_only) in algorithms(2) {
            if square_only && pr != pc {
                continue;
            }
            for dataflow in [Dataflow::Os, Dataflow::Ls, Dataflow::Rs] {
                if let Some(program) = schedule(algo.as_ref(), &mesh, dataflow, 2) {
                    let (report, spans) = run_spans(&engine, &program);
                    prop_assert!(!spans.is_empty(), "{} produced no spans", name);
                    check_span_invariants(name, &report, &spans);
                    ran += 1;
                }
            }
        }
        // MeshSlice at least must accept all three dataflows.
        prop_assert!(ran >= 3, "only {} (algorithm, dataflow) combos ran", ran);
    }

    /// The critical path telescopes to the makespan and every node has
    /// non-negative slack, for every mesh shape and slice count.
    #[test]
    fn critical_path_telescopes_and_slack_is_nonnegative(
        pr in 1usize..4, pc in 1usize..4, s in 1usize..3,
    ) {
        let mesh = Torus2d::new(pr, pc);
        let unit = 8 * pr * pc * s;
        let problem =
            GemmProblem::new(GemmShape::new(unit * 4, unit * 4, unit * 4), Dataflow::Os);
        let program = MeshSlice::new(s, 4).schedule(&mesh, problem, 2).unwrap();
        let (report, timeline) = run_timeline(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        let path = CriticalPath::extract(&timeline);
        let makespan = report.makespan().as_secs();
        prop_assert!(
            (path.attribution().total() - makespan).abs() <= 1e-9 * makespan.max(1.0),
            "critical path {} vs makespan {}",
            path.attribution().total(),
            makespan
        );
        for (i, slack) in node_slacks(&timeline).iter().enumerate() {
            prop_assert!(*slack >= 0.0, "node {} has negative slack {}", i, slack);
        }
    }

    /// Satellite (c): a serially merged report equals the telemetry
    /// recomputation over the concatenated spans, with the second run's
    /// spans shifted past the first run's makespan.
    #[test]
    fn merged_report_matches_concatenated_span_recomputation(
        pr in 1usize..4, pc in 1usize..4,
        s1 in 1usize..3, s2 in 1usize..3,
    ) {
        let mesh = Torus2d::new(pr, pc);
        let cfg = SimConfig::tpu_v4();
        let mut runs = Vec::new();
        for s in [s1, s2] {
            let unit = 8 * pr * pc * s;
            let problem =
                GemmProblem::new(GemmShape::new(unit * 4, unit * 4, unit * 4), Dataflow::Os);
            let program = MeshSlice::new(s, 4).schedule(&mesh, problem, 2).unwrap();
            runs.push(run_spans(&Engine::new(mesh.clone(), cfg.clone()), &program));
        }
        let merged = SimReport::merge_serial(&[runs[0].0.clone(), runs[1].0.clone()]);

        let offset = runs[0].0.makespan();
        let mut spans = runs[0].1.clone();
        spans.extend(runs[1].1.iter().map(|sp| NodeSpan {
            start: sp.start + offset,
            end: sp.end + offset,
            ..*sp
        }));

        let (overlap, buckets) = spans_overlap_and_buckets(&spans);
        prop_assert!(
            (overlap - merged.overlapped_comm().as_secs()).abs() <= 1e-9,
            "overlap {} vs merged {}",
            overlap,
            merged.overlapped_comm().as_secs()
        );
        let totals = merged.totals();
        let want = [
            totals.compute.as_secs(),
            totals.slice.as_secs(),
            totals.comm_launch.as_secs(),
            0.0,
            totals.comm_transfer.as_secs(),
        ];
        for (got, want) in buckets.iter().zip(want) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "merged bucket {} vs {}",
                got,
                want
            );
        }
        // The merged makespan bounds every shifted span.
        let last = spans
            .iter()
            .map(|sp| sp.end.as_secs())
            .fold(0.0f64, f64::max);
        prop_assert!(last <= merged.makespan().as_secs() + 1e-9);
    }

    /// Recorders are observation-only: for every algorithm, mesh,
    /// dataflow and slice count, a run with no observer, with each
    /// recorder, or with all of them at once returns the plain run's
    /// report — with a chip dying mid-run (where it must equal the
    /// unobserved failure run's outcome), fault-free, and under a seeded
    /// straggler-and-outage profile. All observed runs of a case share one
    /// scratch, so an aborted run must also leave it clean.
    #[test]
    fn recorders_never_change_the_outcome(
        pr in 1usize..4, pc in 1usize..4, s in 1usize..3, seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let engine = Engine::new(mesh.clone(), SimConfig::tpu_v4());
        for (name, algo, square_only) in algorithms(s) {
            if square_only && pr != pc {
                continue;
            }
            for dataflow in [Dataflow::Os, Dataflow::Ls, Dataflow::Rs] {
                let Some(program) = schedule(algo.as_ref(), &mesh, dataflow, s) else {
                    continue;
                };
                let lowered = engine.lower_program(&program);
                let plain = engine.run_lowered_with_scratch(&lowered, &mut RunScratch::new());
                let makespan = plain.makespan().as_secs();
                let scratch = &mut RunScratch::new();

                let failure = Some((
                    ChipFailure { chip: mesh.num_chips() - 1, at: 0.5 * makespan },
                    1e-3 * makespan,
                ));
                let unobserved =
                    engine.run_observed(&lowered, &mut RunScratch::new(), failure, &mut ());
                assert_observation_only(&engine, &lowered, scratch, failure, &unobserved);

                let (spans, timeline) = assert_observation_only(
                    &engine,
                    &lowered,
                    scratch,
                    None,
                    &FailureOutcome::Completed(plain),
                );
                prop_assert!(!spans.is_empty(), "{} produced no spans", name);
                prop_assert_eq!(timeline.nodes.len(), timeline.finish_seq.len());

                let profile = FaultSpec::stragglers(1, 1.5)
                    .with_outages(1.0, 0.1 * makespan, 0.25, makespan)
                    .sample(mesh.num_chips(), seed);
                let faulty = engine.with_faults(profile);
                let perturbed = faulty.run_lowered_with_scratch(&lowered, &mut RunScratch::new());
                assert_observation_only(
                    &faulty,
                    &lowered,
                    scratch,
                    None,
                    &FailureOutcome::Completed(perturbed),
                );
            }
        }
    }
}

/// One run of a lowered program, with everything it recorded. All but
/// `Nominal` run the full node graph.
#[derive(Debug, PartialEq)]
enum FullRun {
    Spans(FailureOutcome, Vec<NodeSpan>),
    Timeline(FailureOutcome, RunTimeline),
    Traces(FailureOutcome, Vec<OpTrace>),
    Combined(FailureOutcome, Vec<NodeSpan>, RunTimeline, Vec<OpTrace>),
    Failure(FailureOutcome),
    Faulted(SimReport),
    Nominal(SimReport),
}

/// The kinds of run that need the full graph.
const FULL_RUNS: usize = 6;

/// A quotient-eligible MeshSlice program on a 2x4 torus, and the pieces
/// of its full-graph runs: the engine, a faulted sibling, and a chip
/// failure halfway through the nominal makespan.
struct FullRunCase {
    program: Program,
    engine: Engine,
    faulty: Engine,
    failure: Option<(ChipFailure, f64)>,
}

impl FullRunCase {
    fn new() -> Self {
        let mesh = Torus2d::new(2, 4);
        let engine = Engine::new(mesh.clone(), SimConfig::tpu_v4());
        let program = schedule(&MeshSlice::new(2, 4), &mesh, Dataflow::Os, 2).unwrap();
        let makespan = engine.run(&program).makespan().as_secs();
        let faulty = engine.with_faults(
            FaultSpec::stragglers(1, 1.5)
                .with_outages(1.0, 0.1 * makespan, 0.25, makespan)
                .sample(mesh.num_chips(), 11),
        );
        let failure = Some((
            ChipFailure {
                chip: 5,
                at: 0.5 * makespan,
            },
            1e-3 * makespan,
        ));
        FullRunCase {
            program,
            engine,
            faulty,
            failure,
        }
    }

    /// Full-graph run number `kind` of `lowered`.
    fn run(&self, kind: usize, lowered: &LoweredProgram) -> FullRun {
        let (engine, scratch) = (&self.engine, &mut RunScratch::new());
        match kind {
            0 => {
                let mut rec = SpanRecorder::new(lowered);
                let outcome = engine.run_observed(lowered, scratch, None, &mut rec);
                FullRun::Spans(outcome, rec.into_spans())
            }
            1 => {
                let mut rec = TimelineRecorder::new(lowered);
                let outcome = engine.run_observed(lowered, scratch, None, &mut rec);
                FullRun::Timeline(outcome, rec.into_timeline())
            }
            2 => {
                let mut rec = OpTraceRecorder::new(lowered);
                let outcome = engine.run_observed(lowered, scratch, None, &mut rec);
                FullRun::Traces(outcome, rec.into_traces())
            }
            3 => {
                let mut all = (
                    SpanRecorder::new(lowered),
                    (
                        TimelineRecorder::new(lowered),
                        OpTraceRecorder::new(lowered),
                    ),
                );
                let outcome = engine.run_observed(lowered, scratch, None, &mut all);
                let (spans, (timeline, traces)) = all;
                FullRun::Combined(
                    outcome,
                    spans.into_spans(),
                    timeline.into_timeline(),
                    traces.into_traces(),
                )
            }
            4 => FullRun::Failure(engine.run_observed(lowered, scratch, self.failure, &mut ())),
            _ => FullRun::Faulted(self.faulty.run_lowered_with_scratch(lowered, scratch)),
        }
    }

    /// A fault-free, unobserved run: the one that takes the quotient.
    fn nominal(&self, lowered: &LoweredProgram) -> SimReport {
        self.engine
            .run_lowered_with_scratch(lowered, &mut RunScratch::new())
    }
}

/// Every full-graph run of a quotient-eligible program — each recorder,
/// all three at once, a mid-run chip failure, a faulted sibling — returns
/// what a fresh lowering returns, whether the program's full graph is
/// first needed before or after a fault-free quotient run.
#[test]
fn lazy_full_graph_runs_match_a_fresh_lowering() {
    let case = FullRunCase::new();
    let nominal = case.engine.run(&case.program);
    let probe = case.engine.lower_program(&case.program);
    let full_nodes = TimelineRecorder::new(&probe).into_timeline().nodes.len();
    assert_eq!(
        probe.num_nodes() * 8,
        full_nodes,
        "the MeshSlice program must take the quotient"
    );
    for kind in 0..FULL_RUNS {
        let want = case.run(kind, &case.engine.lower_program(&case.program));
        if let FullRun::Spans(outcome, _) | FullRun::Combined(outcome, ..) = &want {
            assert_eq!(outcome, &FailureOutcome::Completed(nominal.clone()));
        }

        let full_first = case.engine.lower_program(&case.program);
        assert_eq!(
            case.run(kind, &full_first),
            want,
            "run {kind}, full graph first"
        );
        assert_eq!(case.nominal(&full_first), nominal);
        assert_eq!(
            case.run(kind, &full_first),
            want,
            "run {kind}, built earlier"
        );

        let quotient_first = case.engine.lower_program(&case.program);
        assert_eq!(case.nominal(&quotient_first), nominal);
        assert_eq!(
            case.run(kind, &quotient_first),
            want,
            "run {kind}, quotient first"
        );
    }
}

/// One lowered program shared by four workers — which race to lower its
/// full graph — gives exactly the serial results.
#[test]
fn a_shared_lowered_program_is_thread_count_invariant() {
    let case = FullRunCase::new();
    let jobs: Vec<usize> = (0..4 * (FULL_RUNS + 1)).collect();
    let run_all = |threads: usize| {
        let lowered = case.engine.lower_program(&case.program);
        parallel_map_threads(threads, &jobs, |&job| match job % (FULL_RUNS + 1) {
            FULL_RUNS => FullRun::Nominal(case.nominal(&lowered)),
            kind => case.run(kind, &lowered),
        })
    };
    assert_eq!(run_all(4), run_all(1));
}
