//! Figure 4: comparing the execution timelines of the five 2D GeMM
//! algorithms on the same problem — Cannon's skew prologue, SUMMA's
//! fine-grain pipelines, Collective's exposed communication, Wang's
//! one-direction overlap, and MeshSlice's two-direction overlap.
//!
//! Regenerated from the simulator's per-op traces: for chip (0, 0) each
//! operation is plotted at its completion time; `=` rows are GeMMs, `-`
//! rows are communication.

use meshslice::{
    Cannon, Collective, Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice,
    SimConfig, Summa, Wang,
};
use meshslice_bench::banner;
use meshslice_mesh::{ChipId, Torus2d};
use meshslice_sim::{OpKind, OpTraceRecorder, RunScratch};

fn main() {
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let shape = GemmShape::new(16_384, 16_384, 16_384);
    let problem = GemmProblem::new(shape, Dataflow::Os);
    let algos: Vec<(&str, Box<dyn DistributedGemm>)> = vec![
        ("Cannon", Box::new(Cannon)),
        ("SUMMA", Box::new(Summa::new(8))),
        ("Collective", Box::new(Collective)),
        ("Wang", Box::new(Wang::new().with_unroll(8))),
        ("MeshSlice", Box::new(MeshSlice::new(8, 8))),
    ];
    banner(
        "Figure 4",
        &format!("timelines of the five 2D GeMM algorithms ({shape} on 4x4)"),
    );

    // Common scale: the slowest algorithm's makespan.
    let mut results = Vec::new();
    let mut worst = 0.0f64;
    for (name, algo) in &algos {
        let program = algo.schedule(&mesh, problem, cfg.elem_bytes).unwrap();
        let engine = Engine::new(mesh.clone(), cfg.clone());
        let lowered = engine.lower_program(&program);
        let mut recorder = OpTraceRecorder::new(&lowered);
        let report = engine
            .run_observed(&lowered, &mut RunScratch::new(), None, &mut recorder)
            .into_completed()
            .expect("no failure was injected");
        let traces = recorder.into_traces();
        worst = worst.max(report.makespan().as_secs());
        results.push((*name, program, report, traces));
    }

    let width = 72usize;
    for (name, program, report, traces) in &results {
        let makespan = report.makespan().as_secs();
        // Bucket chip-0 op completions into compute vs comm columns.
        let mut compute = vec![false; width + 1];
        let mut comm = vec![false; width + 1];
        for t in traces.iter().filter(|t| t.chip == ChipId(0)) {
            let pos = ((t.completed.as_secs() / worst) * width as f64).round() as usize;
            let pos = pos.min(width);
            match program.ops()[t.op.index()].kind {
                OpKind::Gemm { .. } => compute[pos] = true,
                OpKind::SliceCopy { .. } => {}
                _ => comm[pos] = true,
            }
        }
        let render = |marks: &[bool], glyph: char| -> String {
            let end = ((makespan / worst) * width as f64).round() as usize;
            (0..=width)
                .map(|i| {
                    if marks[i] {
                        glyph
                    } else if i <= end {
                        '.'
                    } else {
                        ' '
                    }
                })
                .collect()
        };
        println!(
            "{name:>10} | {:>8.2} ms | util {:>5.1}%",
            makespan * 1e3,
            report.flop_utilization() * 100.0
        );
        println!("   compute | {}", render(&compute, '='));
        println!("      comm | {}", render(&comm, '-'));
        println!();
    }
    println!("(each mark is an op completion on chip (0,0); the dotted span is the");
    println!(" algorithm's makespan relative to the slowest algorithm)");
}
