//! Golden pins for the unified plan IR.
//!
//! Every golden cell (algorithm, mesh, problem) is held to two things:
//!
//! 1. **Committed digests.** The cell's plan-lowered
//!    [`Program`](meshslice_sim::Program) and the
//!    [`SimReport`](meshslice_sim::SimReport) of simulating it on
//!    `SimConfig::tpu_v4()` hash to the values in [`DIGESTS`]. The
//!    program digest covers every op field and dependency in program
//!    order; the report digest covers the f64 bits of the report's
//!    public figures. The rows were recorded from the schedule builders
//!    that predate the plan IR, so a digest match means the schedule is
//!    still op for op what those builders emitted.
//! 2. **Dense GeMM.** Interpreting the *same* plan moves real shards to
//!    the dense product (up to float summation order, 1e-3), as do the
//!    `differential` property tests over random meshes.
//!
//! On a digest mismatch the failure prints the cell's replacement row in
//! source form; re-pinning is an edit to [`DIGESTS`].

use meshslice_mesh::{CommAxis, LinkDir, Torus2d};
use meshslice_sim::{
    CollectiveKind, Engine, OpKind, Program, ProgramBuilder, SimConfig, SimReport,
};
use meshslice_tensor::shard::{partition_cols, partition_rows, ShardGrid};
use meshslice_tensor::{GemmShape, Matrix};

use crate::algorithm::DistributedGemm;
use crate::problem::{Dataflow, GemmProblem};
use crate::summa::lcm;
use crate::{Cannon, Collective, Fsdp, MeshSlice, OneDimTp, Summa, Wang, WangOverlap};

/// Schedule elem width used throughout the golden comparisons (bf16).
const EB: usize = 2;

/// FNV-1a 64 over a stream of little-endian words: a hash whose value
/// depends on nothing but the words fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn axis_tag(axis: CommAxis) -> u64 {
    match axis {
        CommAxis::InterRow => 0,
        CommAxis::InterCol => 1,
    }
}

/// Digest of a program: per op, in program order, its chip, a kind tag,
/// every field of the kind, and its dependency ids.
fn program_digest(program: &Program) -> u64 {
    let mut h = Fnv::new();
    for op in program.ops() {
        h.word(op.chip.index() as u64);
        match &op.kind {
            OpKind::Gemm { shape } => {
                for w in [0, shape.m, shape.n, shape.k] {
                    h.word(w as u64);
                }
            }
            OpKind::SliceCopy { bytes } => {
                h.word(1);
                h.word(*bytes);
            }
            OpKind::Collective {
                kind,
                axis,
                tag,
                shard_bytes,
                lanes,
            } => {
                h.word(2);
                h.word(match kind {
                    CollectiveKind::AllGather => 0,
                    CollectiveKind::ReduceScatter => 1,
                });
                h.word(axis_tag(*axis));
                h.word(*tag);
                h.word(*shard_bytes);
                h.word(u64::from(*lanes));
            }
            OpKind::SendRecv { dir, bytes } => {
                h.word(3);
                h.word(match dir {
                    LinkDir::RowPlus => 0,
                    LinkDir::RowMinus => 1,
                    LinkDir::ColPlus => 2,
                    LinkDir::ColMinus => 3,
                });
                h.word(*bytes);
            }
            OpKind::PipelinedBcast { axis, bytes } => {
                h.word(4);
                h.word(axis_tag(*axis));
                h.word(*bytes);
            }
        }
        h.word(op.deps.len() as u64);
        for dep in &op.deps {
            h.word(dep.index() as u64);
        }
    }
    h.0
}

/// Digest of a run: chip count, FLOPs, and the f64 bits of the makespan,
/// the five busy-time buckets, the overlapped communication and the FLOP
/// utilization.
fn report_digest(report: &SimReport) -> u64 {
    let t = report.totals();
    let mut h = Fnv::new();
    h.word(report.num_chips() as u64);
    h.word(report.total_flops());
    for d in [
        report.makespan(),
        t.compute,
        t.slice,
        t.comm_launch,
        t.comm_sync,
        t.comm_transfer,
        report.overlapped_comm(),
    ] {
        h.word(d.as_secs().to_bits());
    }
    h.word(report.flop_utilization().to_bits());
    h.0
}

/// One golden cell's pin: op count, program digest, report digest.
type Pin = (usize, u64, u64);

/// The pins of every golden cell, recorded from the schedule builders
/// that predate the plan IR.
#[rustfmt::skip]
const DIGESTS: &[(&str, Pin)] = &[
    ("Collective OS 32x32x32", (48, 0xd701016e10a69b75, 0x69a9703ca1212d38)),
    ("Collective LS 32x32x32", (48, 0x4efa4bfa2db6ef35, 0x1e0ef63735a2bb6a)),
    ("Collective RS 32x32x32", (48, 0x9780e9af69c587b5, 0x1e0ef63735a2bb6a)),
    ("MeshSlice S=1 OS 32x32x32", (48, 0xd701016e10a69b75, 0x69a9703ca1212d38)),
    ("MeshSlice S=2 OS 32x32x32", (160, 0x9866ea36be1da325, 0x66bb7b28906eb13e)),
    ("MeshSlice S=4 OS 32x32x32", (320, 0x8219c49712eb4402, 0x3e4f40b10085b23b)),
    ("MeshSlice S=1 LS 32x32x32", (48, 0x4efa4bfa2db6ef35, 0x1e0ef63735a2bb6a)),
    ("MeshSlice S=2 LS 32x32x32", (160, 0x55480ee7e3caf445, 0x8f8ab91be3b1a541)),
    ("MeshSlice S=4 LS 32x32x32", (320, 0x0a413e9cbd9f39e6, 0x090428bfd7f2096d)),
    ("MeshSlice S=1 RS 32x32x32", (48, 0x9780e9af69c587b5, 0x1e0ef63735a2bb6a)),
    ("MeshSlice S=2 RS 32x32x32", (160, 0x8de31970e956df05, 0x8f8ab91be3b1a541)),
    ("MeshSlice S=4 RS 32x32x32", (320, 0x452b8928b553d9ca, 0x090428bfd7f2096d)),
    ("Cannon OS 32x32x32", (208, 0xc3941eb8ca34f77d, 0xf8ea9226b57b0b12)),
    ("SUMMA panels=4 OS 32x32x32", (192, 0x77f708891a68dae5, 0xf7486df8a9e37686)),
    ("SUMMA panels=8 OS 32x32x32", (384, 0xe28f612946bd0f16, 0x27e256326465eeb8)),
    ("SUMMA panels=4 LS 32x32x32", (192, 0xf016163eecffd9e5, 0xbc44948e35465fba)),
    ("SUMMA panels=8 LS 32x32x32", (384, 0x255848815845b5f2, 0xe123e46aa94d60aa)),
    ("SUMMA panels=4 RS 32x32x32", (192, 0xd4c06fb8bb3b67e5, 0xbc44948e35465fba)),
    ("SUMMA panels=8 RS 32x32x32", (384, 0x4568aefdd471555a, 0xe123e46aa94d60aa)),
    ("Wang InterRow OS 32x32x32", (128, 0x97e83bbf7571ea25, 0xebe2cc7f004d56d3)),
    ("Wang InterCol OS 32x32x32", (128, 0x12f4e18b22b14c25, 0xebe2cc7f004d56d3)),
    ("Wang InterRow LS 32x32x32", (128, 0x897d8af957bdfa25, 0x5bfcc5f5979305dd)),
    ("Wang InterCol LS 32x32x32", (112, 0xd7e5a42d63432905, 0x66fe6fb49913cbd1)),
    ("Wang InterRow RS 32x32x32", (112, 0x7f52132f89be6a05, 0x66fe6fb49913cbd1)),
    ("Wang InterCol RS 32x32x32", (128, 0x1dac04bf01c82825, 0x5bfcc5f5979305dd)),
    ("Wang InterRow unroll=2 OS 32x32x32", (96, 0x6a7e0deb75ff9f85, 0xab2d2a7189723642)),
    ("1D TP OS 64x64x64", (120, 0xfb6bd8e3a9abdca5, 0x3a37b509ed737480)),
    ("1D TP unroll=4 OS 64x64x64", (88, 0xeac3a8a5affe5fad, 0x5f45fb216425d95e)),
    ("FSDP OS 64x64x64", (120, 0x9db7d12a6ab01225, 0x607128529dcdbf39)),
    ("FSDP unroll=2 OS 64x64x64", (72, 0x08b9950707743955, 0x80a3e01d861bea9e)),
];

/// The row `cell` should have in [`DIGESTS`], in source form.
fn pin_row(cell: &str, (ops, program, report): Pin) -> String {
    format!("    (\"{cell}\", ({ops}, {program:#018x}, {report:#018x})),")
}

/// Asserts one golden cell: the plan's program and its simulated report
/// match the cell's committed digests, and the plan interpreter computes
/// dense GeMM to 1e-3. `dense` is the expectation for layouts whose shard
/// grid does not `assemble()` into the global C (the 1D baselines, whose
/// expectation is already arranged to match `assemble()`'s stacking).
fn golden(
    label: &str,
    algo: &dyn DistributedGemm,
    mesh: &Torus2d,
    problem: GemmProblem,
    a: &ShardGrid,
    b: &ShardGrid,
    dense: Option<&Matrix>,
) {
    let cell = format!("{label} {problem}");
    let plan = algo.plan(mesh, problem, EB).unwrap();
    let program = plan.program();
    let report = Engine::new(mesh.clone(), SimConfig::tpu_v4()).run(program);
    let got = (
        program.len(),
        program_digest(program),
        report_digest(&report),
    );
    let want = DIGESTS
        .iter()
        .find(|(name, _)| *name == cell)
        .map(|&(_, pin)| pin);
    assert!(
        want == Some(got),
        "{cell}: program or report digest differs from DIGESTS\ncommitted:\n{}\nthis build:\n{}",
        want.map_or("    (none)".to_string(), |pin| pin_row(&cell, pin)),
        pin_row(&cell, got)
    );

    let got = plan.interpret(a, b).assemble();
    let dense = match dense {
        Some(d) => d.clone(),
        None => problem.reference(&a.assemble(), &b.assemble()),
    };
    assert!(
        got.approx_eq(&dense, 1e-3),
        "{cell}: plan interpreter differs from dense GeMM, max diff {}",
        got.max_abs_diff(&dense)
    );
}

#[test]
fn collective_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
        let (a, b) = problem.random_inputs(&mesh, 101);
        golden("Collective", &Collective, &mesh, problem, &a, &b, None);
    }
}

#[test]
fn meshslice_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        for slices in [1, 2, 4] {
            let algo = MeshSlice::new(slices, 1);
            let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
            let (a, b) = problem.random_inputs(&mesh, 202 + slices as u64);
            let label = format!("MeshSlice S={slices}");
            golden(&label, &algo, &mesh, problem, &a, &b, None);
        }
    }
}

#[test]
fn cannon_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
    let (a, b) = problem.random_inputs(&mesh, 303);
    golden("Cannon", &Cannon, &mesh, problem, &a, &b, None);
}

#[test]
fn summa_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        for panels in [4, 8] {
            let algo = Summa::new(panels);
            let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
            let (a, b) = problem.random_inputs(&mesh, 404 + panels as u64);
            let label = format!("SUMMA panels={panels}");
            golden(&label, &algo, &mesh, problem, &a, &b, None);
        }
    }
}

#[test]
fn wang_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        for overlap in [WangOverlap::InterRow, WangOverlap::InterCol] {
            let algo = Wang::with_overlap(overlap);
            let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
            let (a, b) = problem.random_inputs(&mesh, 505);
            let label = format!("Wang {overlap:?}");
            golden(&label, &algo, &mesh, problem, &a, &b, None);
        }
    }
}

#[test]
fn wang_unrolled_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    let algo = Wang::with_overlap(WangOverlap::InterRow).with_unroll(2);
    let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
    let (a, b) = problem.random_inputs(&mesh, 606);
    golden(
        "Wang InterRow unroll=2",
        &algo,
        &mesh,
        problem,
        &a,
        &b,
        None,
    );
}

/// Manually sharded inputs for the 1D ring baselines (their layouts are
/// not the 2D dataflow layouts `random_inputs` produces). Returns the
/// globals alongside the shard grids.
fn one_d_inputs(
    n: usize,
    dim: usize,
    seed: u64,
    col_sharded_b: bool,
) -> (Matrix, Matrix, ShardGrid, ShardGrid) {
    let a_global = Matrix::random(dim, dim, seed);
    let b_global = Matrix::random(dim, dim, seed.wrapping_add(9));
    let a = ShardGrid::from_shards(n, 1, partition_rows(&a_global, n));
    let b = if col_sharded_b {
        ShardGrid::from_shards(n, 1, partition_cols(&b_global, n))
    } else {
        ShardGrid::from_shards(n, 1, partition_rows(&b_global, n))
    };
    (a_global, b_global, a, b)
}

/// 1D TP's C grid stacks each chip's full-`M` column panel vertically, so
/// the matching dense expectation is the column panels of `A·B` restacked
/// the same way.
fn tp_stacked_dense(a_global: &Matrix, b_global: &Matrix, n: usize) -> Matrix {
    let expect = meshslice_tensor::gemm::matmul(a_global, b_global);
    let (m, nn) = (expect.rows(), expect.cols());
    let mut stacked = Matrix::zeros(n * m, nn / n);
    for i in 0..n {
        stacked.add_block(i * m, 0, &expect.block(0, i * (nn / n), m, nn / n));
    }
    stacked
}

#[test]
fn one_dim_tp_golden_8x1() {
    let mesh = Torus2d::new(8, 1);
    let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
    let (a_global, b_global, a, b) = one_d_inputs(8, 64, 707, true);
    let dense = tp_stacked_dense(&a_global, &b_global, 8);
    let algos = [
        ("1D TP", OneDimTp::new()),
        ("1D TP unroll=4", OneDimTp::with_unroll(4)),
    ];
    for (label, algo) in algos {
        golden(label, &algo, &mesh, problem, &a, &b, Some(&dense));
    }
}

#[test]
fn fsdp_golden_8x1() {
    let mesh = Torus2d::new(8, 1);
    let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
    let (a_global, b_global, a, b) = one_d_inputs(8, 64, 808, false);
    let dense = meshslice_tensor::gemm::matmul(&a_global, &b_global);
    for (label, algo) in [
        ("FSDP", Fsdp::new()),
        ("FSDP unroll=2", Fsdp::with_unroll(2)),
    ] {
        golden(label, &algo, &mesh, problem, &a, &b, Some(&dense));
    }
}

/// Asserts that `algo.schedule`, which records chip 0's ops as an SPMD
/// template, expands op for op (ops, order, tags, deps) to the program of
/// `algo.plan`, which records every chip.
fn template_expands_to_plan(algo: &dyn DistributedGemm, mesh: &Torus2d, problem: GemmProblem) {
    let what = format!("{} {problem} on {}", algo.name(), mesh.shape());
    let full = algo.plan(mesh, problem, EB).expect(&what).into_program();
    let spmd = algo.schedule(mesh, problem, EB).expect(&what);
    // Both are read off the template before anything expands it.
    assert_eq!(spmd.len(), full.len(), "{what}: op count");
    assert_eq!(spmd.total_flops(), full.total_flops(), "{what}: FLOPs");
    assert!(
        spmd.ops() == full.ops(),
        "{what}: template expansion differs"
    );
}

#[test]
fn template_expansion_golden() {
    let shape = GemmShape::new(96, 96, 96);
    let meshes = [
        (1, 1),
        (1, 4),
        (4, 1),
        (2, 4),
        (4, 2),
        (2, 3),
        (3, 3),
        (4, 4),
    ];
    for (rows, cols) in meshes {
        let mesh = Torus2d::new(rows, cols);
        let mut algos: Vec<Box<dyn DistributedGemm>> = vec![Box::new(Collective)];
        for s in [1, 2, 4] {
            algos.push(Box::new(MeshSlice::new(s, 1)));
            algos.push(Box::new(Summa::new(s * lcm(rows, cols))));
            algos.push(Box::new(Wang::new().with_unroll(s)));
        }
        for overlap in [WangOverlap::InterRow, WangOverlap::InterCol] {
            algos.push(Box::new(Wang::with_overlap(overlap)));
        }
        for df in Dataflow::ALL {
            let problem = GemmProblem::new(shape, df);
            // The 1D baselines run output-stationary on rings (Pc = 1).
            let mut one_d: Vec<Box<dyn DistributedGemm>> = Vec::new();
            if cols == 1 && df == Dataflow::Os {
                for g in [1, 2, 4] {
                    one_d.push(Box::new(OneDimTp::with_unroll(g)));
                    one_d.push(Box::new(Fsdp::with_unroll(g)));
                }
            }
            for algo in algos.iter().chain(&one_d) {
                template_expands_to_plan(algo.as_ref(), &mesh, problem);
            }
        }
        for s in [1, 2, 4] {
            let (mut full, mut spmd) = (ProgramBuilder::new(&mesh), ProgramBuilder::spmd(&mesh));
            chain_passes(&mut full, MeshSlice::new(s, 1), shape);
            chain_passes(&mut spmd, MeshSlice::new(s, 1), shape);
            let (full, spmd) = (full.build(), spmd.build());
            assert_eq!(spmd.len(), full.len(), "chained S={s} on {rows}x{cols}");
            assert!(
                spmd.ops() == full.ops(),
                "chained S={s} on {rows}x{cols}: template expansion differs"
            );
        }
    }
}

/// Three MeshSlice passes, one per dataflow, chained as a fused training
/// block chains them: each pass's GeMMs wait on the previous pass's, and
/// its slicing and communication on the pass before that.
fn chain_passes(b: &mut ProgramBuilder, algo: MeshSlice, shape: GemmShape) {
    let (mut prev, mut prev2) = (Vec::new(), Vec::new());
    for df in Dataflow::ALL {
        let gemms = algo
            .schedule_chained(b, GemmProblem::new(shape, df), EB, &prev, &prev2)
            .expect("legal chained pass");
        prev2 = std::mem::replace(&mut prev, gemms);
    }
}

mod differential {
    use super::*;
    use proptest::prelude::*;

    fn dataflow() -> impl Strategy<Value = Dataflow> {
        prop_oneof![Just(Dataflow::Os), Just(Dataflow::Ls), Just(Dataflow::Rs)]
    }

    /// Executes `algo` through the plan interpreter and compares against
    /// dense GeMM (`dense`, or the problem's own reference when `None`).
    fn diff(
        algo: &dyn DistributedGemm,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
        dense: Option<&Matrix>,
    ) -> Result<(), TestCaseError> {
        let got = algo
            .execute(mesh, problem, a, b)
            .unwrap_or_else(|e| panic!("{} failed on {problem}: {e}", algo.name()))
            .assemble();
        let dense = match dense {
            Some(d) => d.clone(),
            None => problem.reference(&a.assemble(), &b.assemble()),
        };
        prop_assert!(
            got.approx_eq(&dense, 1e-3),
            "{} {problem}: interpreter vs dense, max diff {}",
            algo.name(),
            got.max_abs_diff(&dense)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The 2D algorithms, over random meshes, dataflows, and slice
        /// counts: plan interpreter == dense.
        #[test]
        fn two_d_algorithms_match_dense(
            pr in 1usize..4, pc in 1usize..4,
            slices in 1usize..4,
            df in dataflow(), seed in any::<u64>(),
        ) {
            let mesh = Torus2d::new(pr, pc);
            // Multiples of pr*pc*slices keep every sharding and slicing
            // constraint satisfiable across all algorithms.
            let unit = pr * pc * slices;
            let shape = GemmShape::new(unit * 2, unit * 2, unit * 2);
            let problem = GemmProblem::new(shape, df);
            let (a, b) = problem.random_inputs(&mesh, seed);

            diff(&MeshSlice::new(slices, 1), &mesh, problem, &a, &b, None)?;
            diff(&Collective, &mesh, problem, &a, &b, None)?;
            diff(&Summa::auto(&mesh), &mesh, problem, &a, &b, None)?;
            diff(&Wang::new(), &mesh, problem, &a, &b, None)?;
            if pr == pc && df == Dataflow::Os {
                diff(&Cannon, &mesh, problem, &a, &b, None)?;
            }
        }

        /// The 1D ring baselines on `n × 1` meshes.
        #[test]
        fn one_d_baselines_match_dense(
            n in 1usize..6, scale in 1usize..3, unroll in 1usize..4, seed in any::<u64>(),
        ) {
            let mesh = Torus2d::new(n, 1);
            let dim = n * scale * 12;
            let problem = GemmProblem::new(GemmShape::new(dim, dim, dim), Dataflow::Os);

            let (a_global, b_global, a, b) = one_d_inputs(n, dim, seed, true);
            let tp_dense = tp_stacked_dense(&a_global, &b_global, n);
            diff(&OneDimTp::with_unroll(unroll), &mesh, problem, &a, &b, Some(&tp_dense))?;

            let (a_global, b_global, a, b) = one_d_inputs(n, dim, seed, false);
            let fsdp_dense = meshslice_tensor::gemm::matmul(&a_global, &b_global);
            diff(&Fsdp::with_unroll(unroll), &mesh, problem, &a, &b, Some(&fsdp_dense))?;
        }
    }
}
