//! Property-based correctness tests: every distributed algorithm must
//! compute the same result as dense GeMM, for random shapes, meshes, and
//! dataflows, and the ring collectives the plan interpreter moves shards
//! through must reassemble, round-trip and all-reduce.

use meshslice_gemm::{
    all_gather, reduce_scatter, Cannon, Collective, Dataflow, DistributedGemm, Fsdp, GemmProblem,
    MeshSlice, OneDimTp, Summa, Wang,
};
use meshslice_mesh::{CommAxis, Torus2d};
use meshslice_tensor::gemm::matmul;
use meshslice_tensor::shard::{partition_cols, partition_rows, ShardGrid};
use meshslice_tensor::{GemmShape, Matrix};
use proptest::prelude::*;

fn dataflow() -> impl Strategy<Value = Dataflow> {
    prop_oneof![Just(Dataflow::Os), Just(Dataflow::Ls), Just(Dataflow::Rs)]
}

/// Runs an algorithm functionally and compares against the dense reference.
fn check(algo: &dyn DistributedGemm, mesh: &Torus2d, problem: GemmProblem, seed: u64) {
    let (a, b) = problem.random_inputs(mesh, seed);
    let c = algo
        .execute(mesh, problem, &a, &b)
        .unwrap_or_else(|e| panic!("{} failed on {problem}: {e}", algo.name()));
    let expect = problem.reference(&a.assemble(), &b.assemble());
    let got = c.assemble();
    assert!(
        got.approx_eq(&expect, 1e-3),
        "{} wrong on {problem}: max diff {}",
        algo.name(),
        got.max_abs_diff(&expect)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn collective_matches_dense(
        pr in 1usize..4, pc in 1usize..4,
        mu in 1usize..3, nu in 1usize..3, ku in 1usize..3,
        df in dataflow(), seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        // Dimensions chosen as multiples of pr*pc so every dataflow's
        // storage layout divides evenly.
        let unit = pr * pc;
        let shape = GemmShape::new(mu * unit, nu * unit, ku * unit);
        check(&Collective, &mesh, GemmProblem::new(shape, df), seed);
    }

    #[test]
    fn meshslice_matches_dense(
        pr in 1usize..4, pc in 1usize..4,
        s in 1usize..4, blk in 1usize..3,
        scale in 1usize..3,
        df in dataflow(), seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        // Every dimension a multiple of pr*pc*s*blk keeps all slicing and
        // sharding constraints satisfiable.
        let unit = pr * pc * s * blk * scale;
        let shape = GemmShape::new(unit, unit, unit);
        let algo = MeshSlice::new(s, blk);
        check(&algo, &mesh, GemmProblem::new(shape, df), seed);
    }

    #[test]
    fn summa_matches_dense(
        pr in 1usize..4, pc in 1usize..4,
        panel_mult in 1usize..3,
        df in dataflow(), seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let panels = {
            // lcm(pr, pc) * panel_mult
            let gcd = |mut a: usize, mut b: usize| { while b != 0 { let t = a % b; a = b; b = t; } a };
            pr / gcd(pr, pc) * pc * panel_mult
        };
        let unit = pr * pc * panels;
        let shape = GemmShape::new(unit, unit, unit);
        let algo = Summa::new(panels);
        check(&algo, &mesh, GemmProblem::new(shape, df), seed);
    }

    #[test]
    fn cannon_matches_dense(
        p in 1usize..5, scale in 1usize..3, seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(p, p);
        let shape = GemmShape::new(p * scale, p * scale, p * scale);
        check(&Cannon, &mesh, GemmProblem::new(shape, Dataflow::Os), seed);
    }

    #[test]
    fn wang_matches_dense(
        pr in 1usize..4, pc in 1usize..4,
        df in dataflow(), seed in any::<u64>(),
        scale in 1usize..3,
    ) {
        let mesh = Torus2d::new(pr, pc);
        let unit = pr * pc * scale;
        let shape = GemmShape::new(unit, unit, unit);
        check(&Wang::new(), &mesh, GemmProblem::new(shape, df), seed);
    }

    #[test]
    fn one_d_baselines_match_dense(
        n in 1usize..6, scale in 1usize..3, seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(n, 1);
        let dim = n * scale * 2;
        let shape = GemmShape::new(dim, dim, dim);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let a_global = Matrix::random(dim, dim, seed);
        let b_global = Matrix::random(dim, dim, seed.wrapping_add(9));
        let expect = matmul(&a_global, &b_global);

        let a = ShardGrid::from_shards(n, 1, partition_rows(&a_global, n));
        let b_col = ShardGrid::from_shards(n, 1, partition_cols(&b_global, n));
        let c_tp = OneDimTp::new().execute(&mesh, problem, &a, &b_col).unwrap();
        for i in 0..n {
            let block = expect.block(0, i * dim / n, dim, dim / n);
            prop_assert!(c_tp.shard(i, 0).approx_eq(&block, 1e-3));
        }

        let b_row = ShardGrid::from_shards(n, 1, partition_rows(&b_global, n));
        let c_fsdp = Fsdp::new().execute(&mesh, problem, &a, &b_row).unwrap();
        prop_assert!(c_fsdp.assemble().approx_eq(&expect, 1e-3));
    }

    #[test]
    fn all_algorithms_agree_with_each_other(
        pr in 1usize..3, pc in 1usize..3, seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let unit = 2 * pr * pc;
        let shape = GemmShape::new(unit, unit, unit);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let (a, b) = problem.random_inputs(&mesh, seed);
        let reference = Collective.execute(&mesh, problem, &a, &b).unwrap().assemble();
        let algos: Vec<Box<dyn DistributedGemm>> = vec![
            Box::new(MeshSlice::new(2, 1)),
            Box::new(Summa::auto(&mesh)),
            Box::new(Wang::new()),
        ];
        for algo in &algos {
            let c = algo.execute(&mesh, problem, &a, &b).unwrap().assemble();
            prop_assert!(
                c.approx_eq(&reference, 1e-3),
                "{} diverges from Collective",
                algo.name()
            );
        }
    }

    #[test]
    fn schedules_always_preserve_flops(
        pr in 1usize..4, pc in 1usize..4,
        df in dataflow(),
        s in 1usize..3,
    ) {
        let mesh = Torus2d::new(pr, pc);
        let unit = 4 * pr * pc * s;
        let shape = GemmShape::new(unit, unit, unit);
        let problem = GemmProblem::new(shape, df);
        let algos: Vec<Box<dyn DistributedGemm>> = vec![
            Box::new(Collective),
            Box::new(MeshSlice::new(s, 2)),
            Box::new(Summa::auto(&mesh)),
            Box::new(Wang::new()),
        ];
        for algo in algos {
            let prog = algo.schedule(&mesh, problem, 2).unwrap();
            prop_assert_eq!(prog.total_flops(), shape.flops(), "{}", algo.name());
        }
    }
}

fn axis() -> impl Strategy<Value = CommAxis> {
    prop_oneof![Just(CommAxis::InterRow), Just(CommAxis::InterCol)]
}

fn state(mesh: &Torus2d, rows: usize, cols: usize, seed: u64) -> Vec<Matrix> {
    (0..mesh.num_chips())
        .map(|i| Matrix::random(rows, cols, seed.wrapping_add(i as u64)))
        .collect()
}

proptest! {
    /// AllGather of a sharded matrix reconstructs the global block
    /// row/column on every chip of the ring.
    #[test]
    fn all_gather_reconstructs_global_blocks(
        pr in 1usize..5, pc in 1usize..5,
        (r, c) in (1usize..4, 1usize..4),
        seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let global = Matrix::random(pr * r, pc * c, seed);
        let grid = ShardGrid::partition(&global, pr, pc);
        let shards: Vec<Matrix> = grid.iter().map(|(_, s)| s.clone()).collect();
        let rows_gathered = all_gather(&mesh, CommAxis::InterRow, &shards);
        let cols_gathered = all_gather(&mesh, CommAxis::InterCol, &shards);
        for chip in mesh.chips() {
            let coord = mesh.coord_of(chip);
            prop_assert_eq!(
                &rows_gathered[chip.index()],
                &global.block(0, coord.col() * c, pr * r, c)
            );
            prop_assert_eq!(
                &cols_gathered[chip.index()],
                &global.block(coord.row() * r, 0, r, pc * c)
            );
        }
    }

    /// AllGather then ReduceScatter (divided by ring length) is identity.
    #[test]
    fn ag_rds_round_trip(
        pr in 1usize..5, pc in 1usize..5,
        ax in axis(),
        seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let ring = mesh.ring_len(ax);
        let shards = state(&mesh, 2 * ring, 2 * ring, seed);
        // The RdS scatter dimension must divide by the ring; both do.
        let gathered = all_gather(&mesh, ax, &shards);
        let mut back = reduce_scatter(&mesh, ax, &gathered);
        for (b, orig) in back.iter_mut().zip(&shards) {
            b.scale(1.0 / ring as f32);
            prop_assert!(b.approx_eq(orig, 1e-5), "round trip diverged");
        }
    }

    /// ReduceScatter then AllGather equals an all-reduce: every chip of a
    /// ring ends with the ring's sum.
    #[test]
    fn rds_ag_is_all_reduce(
        pr in 1usize..5, pc in 1usize..5,
        ax in axis(),
        seed in any::<u64>(),
    ) {
        let mesh = Torus2d::new(pr, pc);
        let ring = mesh.ring_len(ax);
        // Both dimensions divisible by the ring so either scatter axis works.
        let partials = state(&mesh, 2 * ring, 2 * ring, seed);
        let scattered = reduce_scatter(&mesh, ax, &partials);
        let reduced = all_gather(&mesh, ax, &scattered);
        for chip in mesh.chips() {
            // Independent check: the ring's partials summed directly.
            let mut sum = Matrix::zeros(2 * ring, 2 * ring);
            for &member in mesh.ring_through(mesh.coord_of(chip), ax).members() {
                sum += &partials[member.index()];
            }
            prop_assert!(reduced[chip.index()].approx_eq(&sum, 1e-4));
        }
    }
}
