//! Criterion microbenchmarks of the core primitives: blocked slicing,
//! dense GeMM kernels, functional collectives, the Program → lowered-graph
//! pipeline, and the event-driven simulation engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meshslice::autotuner::{choose_stationary, pass_problems, Autotuner, RobustObjective};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice_faults::FaultSpec;
use meshslice_gemm::{
    all_gather, reduce_scatter, Collective, Dataflow, DistributedGemm, GemmProblem, MeshSlice,
};
use meshslice_mesh::{CommAxis, Torus2d};
use meshslice_sim::{ClusterProfile, Engine, RunScratch, SimConfig, TimelineRecorder};
use meshslice_tensor::gemm::matmul;
use meshslice_tensor::slice::{slice_cols, SliceSpec};
use meshslice_tensor::{GemmShape, Matrix};

fn bench_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("blocked_slicing");
    for s in [2usize, 8] {
        let x = Matrix::random(256, 1024, 7);
        let spec = SliceSpec::new(s, 8);
        group.bench_with_input(BenchmarkId::new("slice_cols_256x1024", s), &s, |b, _| {
            b.iter(|| slice_cols(std::hint::black_box(&x), spec, 0))
        });
    }
    group.finish();
}

fn bench_gemm_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_gemm");
    for n in [64usize, 128] {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mesh = Torus2d::new(4, 4);
    let shards: Vec<Matrix> = (0..16).map(|i| Matrix::random(64, 64, i)).collect();
    c.bench_function("functional_all_gather_4x4_64x64", |b| {
        b.iter(|| all_gather(&mesh, CommAxis::InterRow, std::hint::black_box(&shards)))
    });
    let partials: Vec<Matrix> = (0..16).map(|i| Matrix::random(64, 64, i + 50)).collect();
    c.bench_function("functional_reduce_scatter_4x4_64x64", |b| {
        b.iter(|| reduce_scatter(&mesh, CommAxis::InterCol, std::hint::black_box(&partials)))
    });
}

fn bench_functional_meshslice(c: &mut Criterion) {
    let mesh = Torus2d::new(2, 2);
    let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
    let (a, b) = problem.random_inputs(&mesh, 3);
    let algo = MeshSlice::new(4, 8);
    c.bench_function("functional_meshslice_2x2_64cubed_s4", |bch| {
        bch.iter(|| algo.execute(&mesh, problem, &a, &b).unwrap())
    });
}

fn bench_sim_engine(c: &mut Criterion) {
    // Simulation throughput: one MeshSlice GeMM on a 16-chip cluster.
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let problem = GemmProblem::new(GemmShape::new(8192, 8192, 8192), Dataflow::Os);
    let ms_prog = MeshSlice::new(8, 8).schedule(&mesh, problem, 2).unwrap();
    let coll_prog = Collective.schedule(&mesh, problem, 2).unwrap();
    c.bench_function("sim_meshslice_4x4_s8", |b| {
        b.iter(|| Engine::new(mesh.clone(), cfg.clone()).run(std::hint::black_box(&ms_prog)))
    });
    c.bench_function("sim_collective_4x4", |b| {
        b.iter(|| Engine::new(mesh.clone(), cfg.clone()).run(std::hint::black_box(&coll_prog)))
    });
}

/// The first pass of GPT-3's QKV layer under weak scaling on `mesh`,
/// with the autotuner's MeshSlice at (up to) S = 8.
fn gpt3_qkv_pass(mesh: &Torus2d, cfg: &SimConfig) -> (MeshSlice, GemmProblem) {
    let tokens = TrainingSetup::weak_scaling(mesh.num_chips()).tokens();
    let qkv = LlmConfig::gpt3().fc_layers()[0];
    let stationary = choose_stationary(tokens, qkv.input_dim, qkv.output_dim);
    let problem = pass_problems(stationary, tokens, qkv.input_dim, qkv.output_dim)[0];
    let algo = Autotuner::new(cfg.clone()).meshslice_for(mesh.shape(), problem, 8);
    (algo, problem)
}

fn bench_pipeline(c: &mut Criterion) {
    // Per-layer cost of reaching the simulator: one GPT-3 FC pass (the
    // first pass of the QKV layer, weak scaling) on 4x4 at S = 8. The
    // faulted run cannot use the one-chip quotient, so it also lowers
    // the full node graph.
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let (algo, problem) = gpt3_qkv_pass(&mesh, &cfg);
    let engine = Engine::new(mesh.clone(), cfg.clone());
    let faulted = engine.with_faults(ClusterProfile::ideal(16).with_compute_slowdown(5, 1.5));
    let program = algo.schedule(&mesh, problem, cfg.elem_bytes).unwrap();
    let mut scratch = RunScratch::new();
    let mut group = c.benchmark_group("pipeline");
    group.bench_function("schedule_gpt3_fc_4x4_s8", |b| {
        b.iter(|| algo.schedule(&mesh, std::hint::black_box(problem), cfg.elem_bytes))
    });
    group.bench_function("lower_program_gpt3_fc_4x4_s8", |b| {
        b.iter(|| engine.lower_program(std::hint::black_box(&program)))
    });
    group.bench_function("lower_program_and_faulted_run_gpt3_fc_4x4_s8", |b| {
        b.iter(|| {
            let lowered = engine.lower_program(std::hint::black_box(&program));
            faulted.run_lowered_with_scratch(&lowered, &mut scratch)
        })
    });
    // The fault-free path a tuner takes per candidate, at growing mesh
    // sizes: schedule the pass, then lower its one-chip quotient.
    for side in [4, 8, 16] {
        let mesh = Torus2d::new(side, side);
        let (algo, problem) = gpt3_qkv_pass(&mesh, &cfg);
        let engine = Engine::new(mesh.clone(), cfg.clone());
        group.bench_function(
            &format!("schedule_and_lower_gpt3_fc_{side}x{side}_s8"),
            |b| {
                b.iter(|| {
                    let program =
                        algo.schedule(&mesh, std::hint::black_box(problem), cfg.elem_bytes);
                    engine.lower_program(&program.unwrap())
                })
            },
        );
    }
    // The event loop alone on the full graph: the same pass pre-lowered
    // at paper scale, replayed under one 1.5x straggler. Divide by the
    // printed node count for the per-node cost.
    for side in [8, 16] {
        let mesh = Torus2d::new(side, side);
        let (algo, problem) = gpt3_qkv_pass(&mesh, &cfg);
        let engine = Engine::new(mesh.clone(), cfg.clone());
        let chips = mesh.num_chips();
        let faulted =
            engine.with_faults(ClusterProfile::ideal(chips).with_compute_slowdown(5, 1.5));
        let lowered = engine.lower_program(&algo.schedule(&mesh, problem, cfg.elem_bytes).unwrap());
        // The first faulted run lowers the full graph; time the replays.
        faulted.run_lowered_with_scratch(&lowered, &mut scratch);
        let nodes = TimelineRecorder::new(&lowered).into_timeline().nodes.len();
        println!("  (faulted_run_gpt3_fc_{side}x{side}_s8 replays {nodes} nodes)");
        group.bench_function(&format!("faulted_run_gpt3_fc_{side}x{side}_s8"), |b| {
            b.iter(|| {
                faulted.run_lowered_with_scratch(std::hint::black_box(&lowered), &mut scratch)
            })
        });
    }
    group.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // The sweep hot path: the same program replayed with allocations
    // recycled across runs (and, for the lowered variant, the program
    // graph lowered once up front).
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let problem = GemmProblem::new(GemmShape::new(8192, 8192, 8192), Dataflow::Os);
    let prog = MeshSlice::new(8, 8).schedule(&mesh, problem, 2).unwrap();
    let engine = Engine::new(mesh, cfg);
    let lowered = engine.lower_program(&prog);
    let mut group = c.benchmark_group("scratch_reuse");
    group.bench_function("run_fresh", |b| {
        b.iter(|| engine.run(std::hint::black_box(&prog)))
    });
    let mut scratch = RunScratch::new();
    group.bench_function("lower_and_run_with_scratch", |b| {
        b.iter(|| {
            let lowered = engine.lower_program(std::hint::black_box(&prog));
            engine.run_lowered_with_scratch(&lowered, &mut scratch)
        })
    });
    group.bench_function("run_lowered_with_scratch", |b| {
        b.iter(|| engine.run_lowered_with_scratch(std::hint::black_box(&lowered), &mut scratch))
    });
    group.finish();
}

fn bench_robust_tuning(c: &mut Criterion) {
    // End-to-end robust sweep on a tiny model: schedules, lowers, and
    // replays every (mesh, S) candidate across two fault draws.
    let model = LlmConfig {
        name: "Tiny".to_string(),
        hidden: 256,
        heads: 4,
        layers: 2,
        ffn_mult: 4,
    };
    let chips = 4;
    let setup = TrainingSetup::weak_scaling(chips);
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let profiles = FaultSpec::stragglers(1, 1.5).sample_profiles(chips, 42, 2);
    c.bench_function("tune_robust_tiny_4chips_2draws", |b| {
        b.iter(|| {
            tuner.tune_robust_threads(
                &model,
                setup,
                chips,
                &[1, 2, 4],
                std::hint::black_box(&profiles),
                RobustObjective::P95,
                1,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_slicing,
    bench_gemm_kernel,
    bench_collectives,
    bench_functional_meshslice,
    bench_sim_engine,
    bench_pipeline,
    bench_scratch_reuse,
    bench_robust_tuning
);
criterion_main!(benches);
