//! The engine's symmetry quotient — lowering and running one
//! representative chip of an SPMD program on a fault-free torus — must
//! reproduce the full node graph's `SimReport` bit for bit: makespan,
//! every time-breakdown bucket, and the overlapped-communication total.
//!
//! Every comparison here runs the same `LoweredProgram` twice: once
//! unobserved (the quotient, when the program qualifies) and once under
//! an observer, which forces the full graph. The large-mesh cases are
//! `#[ignore]`d for the debug tier-1 run; run them with
//! `cargo test --release --test quotient_equivalence -- --include-ignored`.

use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{
    Cannon, Collective, Dataflow, DistributedGemm, Engine, Fsdp, GemmProblem, GemmShape, MeshSlice,
    OneDimTp, SimConfig, Summa, Wang,
};
use meshslice_gemm::WangOverlap;
use meshslice_mesh::Torus2d;
use meshslice_sim::{
    EngineObserver, LoweredProgram, Program, RunScratch, SimReport, TimelineRecorder,
};
use proptest::prelude::*;

/// Schedule element width (bf16), as in the golden grid.
const EB: usize = 2;

/// An observer that records nothing but, not being `()`, still makes the
/// run execute the full node graph.
struct FullGraph;

impl EngineObserver for FullGraph {}

/// Nodes of `lowered`'s full graph (one timeline record each).
fn full_nodes(lowered: &LoweredProgram) -> usize {
    TimelineRecorder::new(lowered).into_timeline().nodes.len()
}

/// Runs `program` on `engine` through the quotient and through the full
/// graph, asserts the two reports are identical, and returns whether the
/// quotient applied (in which case the representative holds exactly one
/// chip's share of the full graph).
fn quotient_matches_full(engine: &Engine, program: &Program, what: &str) -> bool {
    let lowered = engine.lower_program(program);
    let quotient = engine.run_lowered_with_scratch(&lowered, &mut RunScratch::new());
    let full: SimReport = engine
        .run_observed(&lowered, &mut RunScratch::new(), None, &mut FullGraph)
        .into_completed()
        .expect("no failure was injected");
    assert_eq!(quotient, full, "{what}: quotient and full graph disagree");
    let chips = engine.mesh().num_chips();
    let full_nodes = full_nodes(&lowered);
    if lowered.num_nodes() == full_nodes {
        return false;
    }
    assert_eq!(lowered.num_nodes() * chips, full_nodes, "{what}");
    true
}

fn tpu(mesh: &Torus2d) -> Engine {
    Engine::new(mesh.clone(), SimConfig::tpu_v4())
}

/// The seven algorithm families on the golden grid (4x4 for the 2D
/// algorithms, 8x1 for the 1D baselines). Every family but Cannon, whose
/// skewed prologue gives each chip a different op list, is SPMD.
#[test]
fn every_algorithm_family_on_the_golden_grid() {
    let square = Torus2d::new(4, 4);
    let small = GemmShape::new(32, 32, 32);
    let mut two_d: Vec<(String, Box<dyn DistributedGemm>)> =
        vec![("collective".into(), Box::new(Collective))];
    for s in [1, 2, 4] {
        two_d.push((format!("meshslice S={s}"), Box::new(MeshSlice::new(s, 1))));
    }
    for panels in [4, 8] {
        two_d.push((format!("summa {panels}"), Box::new(Summa::new(panels))));
    }
    for overlap in [WangOverlap::InterRow, WangOverlap::InterCol] {
        two_d.push((
            format!("wang {overlap:?}"),
            Box::new(Wang::with_overlap(overlap)),
        ));
    }
    two_d.push((
        "wang unrolled".into(),
        Box::new(Wang::with_overlap(WangOverlap::InterRow).with_unroll(2)),
    ));
    for (name, algo) in &two_d {
        for df in Dataflow::ALL {
            let program = algo
                .schedule(&square, GemmProblem::new(small, df), EB)
                .unwrap();
            assert!(
                quotient_matches_full(&tpu(&square), &program, &format!("{name} {df:?}")),
                "{name} {df:?} must take the quotient"
            );
        }
    }

    let cannon = Cannon
        .schedule(&square, GemmProblem::new(small, Dataflow::Os), EB)
        .unwrap();
    assert!(
        !quotient_matches_full(&tpu(&square), &cannon, "cannon"),
        "Cannon's skewed start is not translation-invariant"
    );

    let ring = Torus2d::new(8, 1);
    let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
    let one_d: Vec<(&str, Box<dyn DistributedGemm>)> = vec![
        ("1d tp", Box::new(OneDimTp::new())),
        ("1d tp unrolled", Box::new(OneDimTp::with_unroll(4))),
        ("fsdp", Box::new(Fsdp::new())),
        ("fsdp unrolled", Box::new(Fsdp::with_unroll(2))),
    ];
    for (name, algo) in one_d {
        let program = algo.schedule(&ring, problem, EB).unwrap();
        assert!(
            quotient_matches_full(&tpu(&ring), &program, name),
            "{name} must take the quotient"
        );
    }
}

/// A shared fabric couples every transfer through its bisection
/// bandwidth, so even a symmetric program runs the full graph.
#[test]
fn a_shared_fabric_runs_the_full_graph() {
    let mesh = Torus2d::new(4, 4);
    let problem = GemmProblem::new(GemmShape::new(256, 256, 256), Dataflow::Os);
    let program = MeshSlice::new(2, 1).schedule(&mesh, problem, EB).unwrap();
    assert!(quotient_matches_full(&tpu(&mesh), &program, "torus"));
    let fabric = Engine::new(mesh, SimConfig::gpu_logical_mesh(4e11));
    assert!(!quotient_matches_full(&fabric, &program, "fabric"));
}

/// Symmetry comes only from the SPMD template: the same MeshSlice
/// program recorded op by op runs the full graph, and reports the
/// template's numbers bit for bit.
#[test]
fn an_op_by_op_build_runs_the_full_graph() {
    let mesh = Torus2d::new(4, 4);
    let engine = tpu(&mesh);
    let algo = MeshSlice::new(2, 1);
    for df in Dataflow::ALL {
        let problem = GemmProblem::new(GemmShape::new(256, 256, 256), df);
        let template = algo.schedule(&mesh, problem, EB).unwrap();
        let op_by_op = algo.plan(&mesh, problem, EB).unwrap().into_program();
        let what = format!("{df:?}");
        assert!(quotient_matches_full(&engine, &template, &what), "{what}");
        assert!(!quotient_matches_full(&engine, &op_by_op, &what), "{what}");
        assert_eq!(engine.run(&op_by_op), engine.run(&template), "{what}");
    }
}

/// MeshSlice on one `rows x cols` mesh: the quotient applies whenever
/// there is more than one chip and matches the full graph.
fn meshslice_matches(
    rows: usize,
    cols: usize,
    df: Dataflow,
    s: usize,
    block: usize,
    overlap: bool,
) {
    let mesh = Torus2d::new(rows, cols);
    let unit = 8 * rows * cols * s * block;
    let problem = GemmProblem::new(GemmShape::new(unit * 2, unit * 2, unit * 2), df);
    let program = MeshSlice::new(s, block)
        .schedule(&mesh, problem, EB)
        .unwrap();
    let cfg = SimConfig {
        overlap_collectives: overlap,
        ..SimConfig::tpu_v4()
    };
    let what = format!("{rows}x{cols} {df:?} S={s} B={block} overlap={overlap}");
    let applied = quotient_matches_full(&Engine::new(mesh.clone(), cfg), &program, &what);
    assert_eq!(applied, mesh.num_chips() > 1, "{what}");
}

/// The degenerate and odd meshes the proptest may not draw: rings of
/// one row or one column, and a 3x5 torus with odd rings on both axes.
#[test]
fn line_and_odd_meshes() {
    for (rows, cols) in [(1, 4), (4, 1), (3, 5), (5, 3), (1, 1)] {
        for df in Dataflow::ALL {
            for (s, block, overlap) in [(1, 1, true), (3, 2, true), (2, 1, false)] {
                meshslice_matches(rows, cols, df, s, block, overlap);
            }
        }
    }
}

fn dataflow() -> impl Strategy<Value = Dataflow> {
    prop_oneof![Just(Dataflow::Os), Just(Dataflow::Ls), Just(Dataflow::Rs)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MeshSlice on random meshes up to 5x5, dataflows, slice counts,
    /// block sizes and overlap modes.
    #[test]
    fn meshslice_quotient_matches_the_full_graph(
        pr in 1usize..6, pc in 1usize..6,
        df in dataflow(),
        s in 1usize..5,
        block in 1usize..5,
        overlap in any::<bool>(),
    ) {
        meshslice_matches(pr, pc, df, s, block, overlap);
    }
}

/// The GPT-3 FC GeMMs of one weak-scaling transformer block on
/// `rows x cols`, every dataflow, scheduled by MeshSlice at `S = 16` with
/// the TPU block.
fn gpt3_block_matches(rows: usize, cols: usize) {
    let mesh = Torus2d::new(rows, cols);
    let engine = tpu(&mesh);
    let setup = TrainingSetup::weak_scaling(mesh.num_chips());
    let mut ran = 0;
    for gemm in LlmConfig::gpt3().fc_gemms(setup) {
        for df in Dataflow::ALL {
            let problem = GemmProblem::new(gemm.shape, df);
            let Ok(program) = MeshSlice::with_tpu_block(16).schedule(&mesh, problem, EB) else {
                continue;
            };
            let what = format!("{rows}x{cols} {:?} {df:?}", gemm.shape);
            assert!(quotient_matches_full(&engine, &program, &what), "{what}");
            ran += 1;
        }
    }
    assert!(ran > 0, "no GPT-3 FC GeMM schedules on {rows}x{cols}");
}

#[test]
#[ignore = "large mesh: run in release with --include-ignored"]
fn gpt3_block_on_8x8() {
    gpt3_block_matches(8, 8);
}

#[test]
#[ignore = "large mesh: run in release with --include-ignored"]
fn gpt3_block_on_16x16() {
    gpt3_block_matches(16, 16);
}

#[test]
#[ignore = "large mesh: run in release with --include-ignored"]
fn gpt3_block_on_4x16() {
    gpt3_block_matches(4, 16);
}
