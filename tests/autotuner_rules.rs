//! The autotuner owns three decisions that every simulation and search
//! path shares: the slice-count rule (`meshslice_for`), the block
//! simulation of tuned plans (`simulate_plan`, and `simulate_fc_step` for
//! all seven GeMM families), and the memory-constrained mesh search
//! (`tune_within_memory`). These tests pin each one against a rule or
//! reference written out from the public API only.

use meshslice::autotuner::{Autotuner, LayerPlan, TunePlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::memory::training_footprint;
use meshslice::training::{simulate_fc_step, summa_panels, Algorithm};
use meshslice::{
    Cannon, Collective, Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice,
    SimConfig, Summa, Wang,
};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{ClusterProfile, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny() -> LlmConfig {
    LlmConfig {
        name: "Tiny".to_string(),
        hidden: 256,
        heads: 4,
        layers: 2,
        ffn_mult: 4,
    }
}

/// A random GeMM extent: usually a multiple of the whole mesh (so the
/// problem divides it, with block-divisibility left to chance), sometimes
/// arbitrary (so it may not divide at all).
fn extent(rng: &mut StdRng, mesh: MeshShape) -> usize {
    if rng.gen_bool(0.8) {
        mesh.num_chips() * rng.gen_range(1..=48usize)
    } else {
        rng.gen_range(1..=512usize)
    }
}

#[test]
fn meshslice_for_clamps_to_the_largest_legal_count_and_blocks_only_legal_ones() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let meshes: Vec<MeshShape> = [4, 8, 16, 32, 64]
        .into_iter()
        .flat_map(Autotuner::candidate_meshes)
        .collect();
    let (mut clamped, mut fallback, mut scheduled) = (0, 0, 0);
    for _ in 0..400 {
        let mesh = meshes[rng.gen_range(0..meshes.len())];
        let shape = GemmShape::new(
            extent(&mut rng, mesh),
            extent(&mut rng, mesh),
            extent(&mut rng, mesh),
        );
        let dataflow = [Dataflow::Os, Dataflow::Ls, Dataflow::Rs][rng.gen_range(0..3usize)];
        let problem = GemmProblem::new(shape, dataflow);
        let requested = rng.gen_range(1..=80usize);

        let legal = tuner.legal_slice_counts(mesh, problem);
        let want_s = legal
            .iter()
            .copied()
            .filter(|&s| s <= requested)
            .max()
            .unwrap_or(1);
        let want_block = if legal.contains(&want_s) {
            tuner.block()
        } else {
            1
        };
        let got = tuner.meshslice_for(mesh, problem, requested);
        let case = format!("{mesh} {shape:?} {dataflow} S={requested} legal={legal:?}");
        assert_eq!(got.slice_count(), want_s, "{case}");
        assert_eq!(got.block(), want_block, "{case}");
        clamped += usize::from(want_s < requested);
        fallback += usize::from(want_block == 1);
        if problem.check_divisible(mesh).is_ok() {
            got.schedule(&Torus2d::from_shape(mesh), problem, 2)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            scheduled += 1;
        }
    }
    // The sample exercises every branch of the rule.
    assert!(clamped > 0 && fallback > 0 && scheduled > 0);
}

/// Schedules and runs each tuned pass on its own, the block size chosen
/// from the legal slice counts, then merges the reports serially.
fn per_pass_reference(
    tuner: &Autotuner,
    mesh_shape: MeshShape,
    layers: &[LayerPlan],
    cfg: &SimConfig,
) -> Option<SimReport> {
    let mesh = Torus2d::from_shape(mesh_shape);
    let reports: Option<Vec<SimReport>> = layers
        .iter()
        .flat_map(|l| l.passes)
        .map(|pass| {
            let legal = tuner.legal_slice_counts(mesh_shape, pass.problem);
            let block = if legal.contains(&pass.slice_count) {
                tuner.block()
            } else {
                1
            };
            let program = MeshSlice::new(pass.slice_count, block)
                .schedule(&mesh, pass.problem, cfg.elem_bytes)
                .ok()?;
            Some(Engine::new(mesh.clone(), cfg.clone()).run(&program))
        })
        .collect();
    Some(SimReport::merge_serial(&reports?))
}

#[test]
fn simulate_plan_matches_per_pass_simulation() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let mut cases: Vec<(LlmConfig, usize, MeshShape)> = [4, 8, 16]
        .into_iter()
        .flat_map(|chips| {
            Autotuner::candidate_meshes(chips)
                .into_iter()
                .map(move |mesh| (tiny(), chips, mesh))
        })
        .collect();
    cases.push((LlmConfig::gpt3(), 16, MeshShape::new(4, 4)));
    let mut simulated = 0;
    for (model, chips, mesh) in cases {
        let setup = TrainingSetup::weak_scaling(chips);
        let Some((_, layers)) = tuner.estimate_on_mesh(&model, setup, mesh) else {
            continue;
        };
        // The plan runs under whatever config it is given, faults included.
        let straggler = ClusterProfile::ideal(chips).with_compute_slowdown(0, 2.0);
        for cfg in [
            SimConfig::tpu_v4(),
            SimConfig::tpu_v4_real_hw(),
            SimConfig::tpu_v4().with_faults(straggler),
        ] {
            let got = tuner.simulate_plan(mesh, &layers, &cfg);
            let want = per_pass_reference(&tuner, mesh, &layers, &cfg);
            assert!(got.is_some(), "{} on {mesh}", model.name);
            assert_eq!(got, want, "{} on {mesh}", model.name);
            simulated += 1;
        }
    }
    assert!(simulated >= 12, "only {simulated} plans simulated");
}

/// The first strict minimum of `estimate_on_mesh` over the candidate
/// meshes whose footprint fits `budget`.
fn memory_reference(
    tuner: &Autotuner,
    model: &LlmConfig,
    setup: TrainingSetup,
    chips: usize,
    budget: u64,
) -> Option<TunePlan> {
    let mut best: Option<TunePlan> = None;
    for mesh in Autotuner::candidate_meshes(chips) {
        if training_footprint(model, setup, mesh, 8).total() > budget {
            continue;
        }
        let Some((t, layers)) = tuner.estimate_on_mesh(model, setup, mesh) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| t < b.estimated_block_time) {
            best = Some(TunePlan {
                mesh_shape: mesh,
                layers,
                estimated_block_time: t,
            });
        }
    }
    best
}

#[test]
fn tune_within_memory_is_the_first_minimum_over_fitting_meshes() {
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let mut excluded_winner = 0;
    // At 16 and 64 chips a mesh with a smaller footprint than the
    // unconstrained winner exists, so a budget just below the winner's
    // footprint forces the search onto a slower mesh.
    for chips in [16, 64, 256] {
        let model = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(chips);
        let unconstrained = tuner.tune(&model, setup, chips);
        let winner_bytes = training_footprint(&model, setup, unconstrained.mesh_shape, 8).total();
        let min_bytes = Autotuner::candidate_meshes(chips)
            .into_iter()
            .map(|mesh| training_footprint(&model, setup, mesh, 8).total())
            .min()
            .expect("candidate meshes exist");
        let mut budgets = vec![u64::MAX, 32 << 30, winner_bytes];
        if min_bytes < winner_bytes {
            budgets.push(winner_bytes - 1);
        }
        for budget in budgets {
            let Some(want) = memory_reference(&tuner, &model, setup, chips, budget) else {
                continue;
            };
            let got = tuner.tune_within_memory(&model, setup, chips, budget);
            assert_eq!(
                got, want,
                "{} on {chips} chips, budget {budget}",
                model.name
            );
            if budget == u64::MAX {
                assert_eq!(got, unconstrained);
            }
            if budget < winner_bytes {
                assert_ne!(got.mesh_shape, unconstrained.mesh_shape);
                excluded_winner += 1;
            }
        }
    }
    assert!(
        excluded_winner > 0,
        "no budget excluded an unconstrained winner"
    );
}

/// Schedules each `(problem, algorithm)` pass on its own mesh engine, runs
/// it, and merges the reports serially. `None` if a pass fails to
/// schedule.
fn per_pass_block<A: DistributedGemm>(
    mesh_shape: MeshShape,
    passes: impl IntoIterator<Item = (GemmProblem, A)>,
    cfg: &SimConfig,
) -> Option<SimReport> {
    let mesh = Torus2d::from_shape(mesh_shape);
    let reports: Option<Vec<SimReport>> = passes
        .into_iter()
        .map(|(problem, algo)| {
            let program = algo.schedule(&mesh, problem, cfg.elem_bytes).ok()?;
            Some(Engine::new(mesh.clone(), cfg.clone()).run(&program))
        })
        .collect();
    Some(SimReport::merge_serial(&reports?))
}

/// The per-pass public-API reference of `simulate_fc_step` for the 2D
/// algorithms on the mesh the step ran on: tuned slice counts from
/// `estimate_on_mesh`, baseline iteration counts derived from them (Wang's
/// unroll is `S`, SUMMA's panels come from `summa_panels`), and Cannon
/// running every FC GeMM output-stationary.
fn fc_step_reference(
    tuner: &Autotuner,
    model: &LlmConfig,
    setup: TrainingSetup,
    algorithm: Algorithm,
    mesh: MeshShape,
    cfg: &SimConfig,
) -> Option<SimReport> {
    let layers = || Some(tuner.estimate_on_mesh(model, setup, mesh)?.1);
    let passes = || -> Option<Vec<(GemmProblem, usize)>> {
        let passes = layers()?.into_iter().flat_map(|l| l.passes);
        Some(passes.map(|p| (p.problem, p.slice_count)).collect())
    };
    match algorithm {
        Algorithm::MeshSlice => per_pass_reference(tuner, mesh, &layers()?, cfg),
        Algorithm::Collective => per_pass_block(
            mesh,
            passes()?.into_iter().map(|(p, _)| (p, Collective)),
            cfg,
        ),
        Algorithm::Wang => per_pass_block(
            mesh,
            passes()?
                .into_iter()
                .map(|(p, s)| (p, Wang::new().with_unroll(s))),
            cfg,
        ),
        Algorithm::Summa => {
            let summa: Option<Vec<_>> = passes()?
                .into_iter()
                .map(|(p, s)| Some((p, Summa::new(summa_panels(mesh, p, s)?))))
                .collect();
            per_pass_block(mesh, summa?, cfg)
        }
        Algorithm::Cannon => per_pass_block(
            mesh,
            model
                .fc_gemms(setup)
                .into_iter()
                .map(|g| (GemmProblem::new(g.shape, Dataflow::Os), Cannon)),
            cfg,
        ),
        Algorithm::OneDimTp | Algorithm::Fsdp => unreachable!("1D steps are pinned by value"),
    }
}

/// `(makespan, comm total)` bits of the 1D baselines' FC steps, in case
/// order: model × chips (Tiny on 4, 8, 16; GPT-3 on 16), then config
/// (ideal, straggler), then algorithm (1DTP, FSDP). Their unroll counts
/// are tuned privately, so these are recorded values, not a reference.
const ONE_D_PINS: [(u64, u64); 16] = [
    (0x3f430f9759e0127c, 0x3f6b7b832dcc17e6), // Tiny, 4 chips
    (0x3f3858aea679078c, 0x3f6108bd2b1202ee),
    (0x3f43cad44398dcf9, 0x3f6b7b832dcc17e6),
    (0x3f39733f61e26b32, 0x3f6108bd2b1202ee),
    (0x3f52ae74485b93dd, 0x3f90080c8561b89d), // Tiny, 8 chips
    (0x3f46a4623dc352e1, 0x3f83244b6c15a419),
    (0x3f530a1895554ac5, 0x3f90080c8561b89d),
    (0x3f471c687e74c0c6, 0x3f83244b6c15a419),
    (0x3f628a0513dfe5e6, 0x3fb12d31fc9f8ef4), // Tiny, 16 chips
    (0x3f55d4bb7c95b0cf, 0x3fa41e02fbee6155),
    (0x3f62c1b2b3e2668b, 0x3fb12d31fc9f8ef4),
    (0x3f560ce74b27ce76, 0x3fa41e02fbee6155),
    (0x3fb5e3cb19b87d1f, 0x40022f459d4ce3e1), // GPT-3, 16 chips
    (0x3fb8176c55ea8ff6, 0x400551b437b7ea1f),
    (0x3fbc58f7c9edafbe, 0x40022f459d4ce3e1),
    (0x3fbc3c1dbe7501df, 0x400551b437b7ea1f),
];

#[test]
fn simulate_fc_step_matches_per_pass_simulation() {
    let mut cases: Vec<(LlmConfig, usize)> = [4, 8, 16].into_iter().map(|c| (tiny(), c)).collect();
    cases.push((LlmConfig::gpt3(), 16));
    let mut pins = ONE_D_PINS.iter();
    let mut simulated = 0;
    for (model, chips) in cases {
        let setup = TrainingSetup::weak_scaling(chips);
        let straggler = ClusterProfile::ideal(chips).with_compute_slowdown(0, 2.0);
        let configs = [
            ("ideal", SimConfig::tpu_v4()),
            ("straggler", SimConfig::tpu_v4().with_faults(straggler)),
        ];
        for (label, cfg) in configs {
            let tuner = Autotuner::new(cfg.clone());
            for algorithm in Algorithm::ALL {
                let case = format!("{algorithm} for {} on {chips} chips, {label}", model.name);
                let got = simulate_fc_step(&model, setup, chips, algorithm, &cfg);
                if let Algorithm::OneDimTp | Algorithm::Fsdp = algorithm {
                    let got = got.unwrap_or_else(|| panic!("{case}: infeasible"));
                    assert_eq!(got.mesh_shape, MeshShape::new(chips, 1), "{case}");
                    let bits = (
                        got.report.makespan().as_secs().to_bits(),
                        got.report.totals().comm_total().as_secs().to_bits(),
                    );
                    assert_eq!(Some(&bits), pins.next(), "{case}");
                    simulated += 1;
                    continue;
                }
                let Some(got) = got else {
                    assert_eq!(algorithm, Algorithm::Cannon, "{case}: infeasible");
                    assert!(MeshShape::square(chips).is_none(), "{case}");
                    continue;
                };
                let want =
                    fc_step_reference(&tuner, &model, setup, algorithm, got.mesh_shape, &cfg);
                assert_eq!(Some(got.report), want, "{case} on {}", got.mesh_shape);
                simulated += 1;
            }
        }
    }
    assert!(pins.next().is_none(), "unused 1D pins");
    assert!(simulated >= 50, "only {simulated} steps simulated");
}
