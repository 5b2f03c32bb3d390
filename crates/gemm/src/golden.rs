//! Golden equivalence tests for the unified plan IR.
//!
//! Every algorithm must satisfy two invariants against its pre-refactor
//! implementation (kept verbatim in [`crate::reference`]):
//!
//! 1. **Bit-for-bit schedule**: the plan's lowered
//!    [`Program`](meshslice_sim::Program) equals the old schedule builder's
//!    output — same ops, same order, same tags, same deps — and therefore
//!    produces an identical [`SimReport`](meshslice_sim::SimReport).
//! 2. **Functional match**: interpreting the *same* plan moves real shards
//!    to the same result (up to float summation order) as the old
//!    executor, which in turn matches dense GeMM.

use meshslice_mesh::Torus2d;
use meshslice_sim::{Engine, Program, ProgramBuilder, SimConfig};
use meshslice_tensor::shard::{partition_cols, partition_rows, ShardGrid};
use meshslice_tensor::{GemmShape, Matrix};

use crate::algorithm::DistributedGemm;
use crate::problem::{Dataflow, GemmProblem};
use crate::reference;
use crate::summa::lcm;
use crate::{Cannon, Collective, Fsdp, MeshSlice, OneDimTp, Summa, Wang, WangOverlap};

/// Schedule elem width used throughout the golden comparisons (bf16).
const EB: usize = 2;

/// Asserts both invariants for one `(algorithm, mesh, problem)` cell, given
/// the pre-refactor schedule and executor outputs.
#[allow(clippy::too_many_arguments)]
fn golden(
    algo: &dyn DistributedGemm,
    mesh: &Torus2d,
    problem: GemmProblem,
    seed: u64,
    ref_prog: &Program,
    ref_c: &ShardGrid,
    a: &ShardGrid,
    b: &ShardGrid,
) {
    golden_with_dense(algo, mesh, problem, seed, ref_prog, ref_c, a, b, None);
}

/// Like [`golden`], with an explicit dense expectation for layouts whose
/// shard grid does not `assemble()` into the global C (the 1D baselines).
#[allow(clippy::too_many_arguments)]
fn golden_with_dense(
    algo: &dyn DistributedGemm,
    mesh: &Torus2d,
    problem: GemmProblem,
    seed: u64,
    ref_prog: &Program,
    ref_c: &ShardGrid,
    a: &ShardGrid,
    b: &ShardGrid,
    dense: Option<&Matrix>,
) {
    let plan = algo.plan(mesh, problem, EB).unwrap();
    assert_eq!(
        plan.program(),
        ref_prog,
        "{} {problem}: plan-lowered Program differs from pre-refactor schedule",
        algo.name()
    );
    let engine = Engine::new(mesh.clone(), SimConfig::tpu_v4());
    assert_eq!(
        engine.run(plan.program()),
        engine.run(ref_prog),
        "{} {problem}: SimReport differs",
        algo.name()
    );

    let got = plan.interpret(a, b).assemble();
    let want = ref_c.assemble();
    assert!(
        got.approx_eq(&want, 1e-3),
        "{} {problem}: plan interpreter differs from pre-refactor executor, max diff {}",
        algo.name(),
        got.max_abs_diff(&want)
    );
    // The shard grids of the 2D dataflow layouts assemble straight into
    // the global matrices; the 1D baselines pass their dense expectation in
    // (already arranged to match `assemble()`'s stacking).
    let dense = match dense {
        Some(d) => d.clone(),
        None => problem.reference(&a.assemble(), &b.assemble()),
    };
    assert!(
        got.approx_eq(&dense, 1e-3),
        "{} {problem}: plan interpreter differs from dense GeMM, max diff {}",
        algo.name(),
        got.max_abs_diff(&dense)
    );
    let _ = seed;
}

#[test]
fn collective_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
        let (a, b) = problem.random_inputs(&mesh, 101);
        let ref_prog = reference::schedule_collective(&mesh, problem, EB).unwrap();
        let ref_c = reference::execute_collective(&mesh, problem, &a, &b).unwrap();
        golden(&Collective, &mesh, problem, 101, &ref_prog, &ref_c, &a, &b);
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
            let ref_prog = reference::schedule_meshslice(&algo, &mesh, problem, EB).unwrap();
            let ref_c = reference::execute_meshslice(&algo, &mesh, problem, &a, &b).unwrap();
            golden(&algo, &mesh, problem, 202, &ref_prog, &ref_c, &a, &b);
        }
    }
}

#[test]
fn cannon_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
    let (a, b) = problem.random_inputs(&mesh, 303);
    let ref_prog = reference::schedule_cannon(&mesh, problem, EB).unwrap();
    let ref_c = reference::execute_cannon(&mesh, problem, &a, &b).unwrap();
    golden(&Cannon, &mesh, problem, 303, &ref_prog, &ref_c, &a, &b);
}

#[test]
fn summa_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    for df in Dataflow::ALL {
        for panels in [4, 8] {
            let algo = Summa::new(panels);
            let problem = GemmProblem::new(GemmShape::new(32, 32, 32), df);
            let (a, b) = problem.random_inputs(&mesh, 404 + panels as u64);
            let ref_prog = reference::schedule_summa(&algo, &mesh, problem, EB).unwrap();
            let ref_c = reference::execute_summa(&algo, &mesh, problem, &a, &b).unwrap();
            golden(&algo, &mesh, problem, 404, &ref_prog, &ref_c, &a, &b);
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
            let ref_prog = reference::schedule_wang(&algo, &mesh, problem, EB).unwrap();
            let ref_c = reference::execute_wang(&algo, &mesh, problem, &a, &b).unwrap();
            golden(&algo, &mesh, problem, 505, &ref_prog, &ref_c, &a, &b);
        }
    }
}

#[test]
fn wang_unrolled_golden_4x4() {
    let mesh = Torus2d::new(4, 4);
    let algo = Wang::with_overlap(WangOverlap::InterRow).with_unroll(2);
    let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
    let (a, b) = problem.random_inputs(&mesh, 606);
    let ref_prog = reference::schedule_wang(&algo, &mesh, problem, EB).unwrap();
    let ref_c = reference::execute_wang(&algo, &mesh, problem, &a, &b).unwrap();
    golden(&algo, &mesh, problem, 606, &ref_prog, &ref_c, &a, &b);
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
    for algo in [OneDimTp::new(), OneDimTp::with_unroll(4)] {
        let ref_prog = reference::schedule_one_dim_tp(&algo, &mesh, problem, EB).unwrap();
        let ref_c = reference::execute_one_dim_tp(&mesh, problem, &a, &b).unwrap();
        golden_with_dense(
            &algo,
            &mesh,
            problem,
            707,
            &ref_prog,
            &ref_c,
            &a,
            &b,
            Some(&dense),
        );
    }
}

#[test]
fn fsdp_golden_8x1() {
    let mesh = Torus2d::new(8, 1);
    let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
    let (a_global, b_global, a, b) = one_d_inputs(8, 64, 808, false);
    let dense = meshslice_tensor::gemm::matmul(&a_global, &b_global);
    for algo in [Fsdp::new(), Fsdp::with_unroll(2)] {
        let ref_prog = reference::schedule_fsdp(&algo, &mesh, problem, EB).unwrap();
        let ref_c = reference::execute_fsdp(&mesh, problem, &a, &b).unwrap();
        golden_with_dense(
            &algo,
            &mesh,
            problem,
            808,
            &ref_prog,
            &ref_c,
            &a,
            &b,
            Some(&dense),
        );
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

    /// Interprets `algo`'s plan and compares against a pre-refactor
    /// executor result and dense GeMM.
    fn diff(
        algo: &dyn DistributedGemm,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
        ref_c: &ShardGrid,
        dense: Option<&Matrix>,
    ) -> Result<(), TestCaseError> {
        let got = algo
            .execute(mesh, problem, a, b)
            .unwrap_or_else(|e| panic!("{} failed on {problem}: {e}", algo.name()))
            .assemble();
        let want = ref_c.assemble();
        prop_assert!(
            got.approx_eq(&want, 1e-3),
            "{} {problem}: interpreter vs pre-refactor executor, max diff {}",
            algo.name(),
            got.max_abs_diff(&want)
        );
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
        /// counts: plan interpreter == pre-refactor executor == dense.
        #[test]
        fn two_d_algorithms_match_reference_and_dense(
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

            let ms = MeshSlice::new(slices, 1);
            diff(&ms, &mesh, problem,
                 &a, &b, &reference::execute_meshslice(&ms, &mesh, problem, &a, &b).unwrap(), None)?;
            diff(&Collective, &mesh, problem,
                 &a, &b, &reference::execute_collective(&mesh, problem, &a, &b).unwrap(), None)?;
            let su = Summa::auto(&mesh);
            diff(&su, &mesh, problem,
                 &a, &b, &reference::execute_summa(&su, &mesh, problem, &a, &b).unwrap(), None)?;
            let wa = Wang::new();
            diff(&wa, &mesh, problem,
                 &a, &b, &reference::execute_wang(&wa, &mesh, problem, &a, &b).unwrap(), None)?;
            if pr == pc && df == Dataflow::Os {
                diff(&Cannon, &mesh, problem,
                     &a, &b, &reference::execute_cannon(&mesh, problem, &a, &b).unwrap(), None)?;
            }
        }

        /// The 1D ring baselines on `n × 1` meshes.
        #[test]
        fn one_d_baselines_match_reference_and_dense(
            n in 1usize..6, scale in 1usize..3, unroll in 1usize..4, seed in any::<u64>(),
        ) {
            let mesh = Torus2d::new(n, 1);
            let dim = n * scale * 12;
            let problem = GemmProblem::new(GemmShape::new(dim, dim, dim), Dataflow::Os);

            let (a_global, b_global, a, b) = one_d_inputs(n, dim, seed, true);
            let tp_dense = tp_stacked_dense(&a_global, &b_global, n);
            diff(&OneDimTp::with_unroll(unroll), &mesh, problem,
                 &a, &b, &reference::execute_one_dim_tp(&mesh, problem, &a, &b).unwrap(),
                 Some(&tp_dense))?;

            let (a_global, b_global, a, b) = one_d_inputs(n, dim, seed, false);
            let fsdp_dense = meshslice_tensor::gemm::matmul(&a_global, &b_global);
            diff(&Fsdp::with_unroll(unroll), &mesh, problem,
                 &a, &b, &reference::execute_fsdp(&mesh, problem, &a, &b).unwrap(),
                 Some(&fsdp_dense))?;
        }
    }
}
