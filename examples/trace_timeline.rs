//! Visualize MeshSlice's software pipelining: trace one chip's operations
//! through the simulator and print a text timeline showing the partial
//! AllGathers of iteration s+1 running under the partial GeMM of
//! iteration s (the Figure 4 picture, regenerated from the simulator).
//!
//! The timeline is labelled from the plan IR: every timed op carries a
//! data annotation saying which tiles it moves or multiplies, so the
//! trace shows not just *when* each op ran but *what* it did.
//!
//! ```text
//! cargo run --release --example trace_timeline
//! ```

use meshslice::{
    DataOp, Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice, SimConfig,
};
use meshslice_mesh::{ChipId, Torus2d};
use meshslice_sim::{OpKind, OpTraceRecorder, RunScratch};

fn data_label(op: &DataOp) -> String {
    match op {
        DataOp::Compute { steps } => {
            let s = &steps[0];
            format!(
                "C[r{}] += {:?} of r{} x r{}",
                s.dst.index(),
                s.kind,
                s.lhs.reg.index(),
                s.rhs.reg.index()
            )
        }
        DataOp::SliceCols {
            src, dst, index, ..
        }
        | DataOp::SliceRows {
            src, dst, index, ..
        } => {
            format!("r{} = sub-shard {index} of r{}", dst.index(), src.index())
        }
        DataOp::UnsliceCols {
            src, dst, index, ..
        }
        | DataOp::UnsliceRows {
            src, dst, index, ..
        } => {
            format!("r{}[{index}] = r{}", dst.index(), src.index())
        }
        DataOp::AllGather { src, dst, axis } => {
            format!("r{} = all-gather({axis}) r{}", dst.index(), src.index())
        }
        DataOp::ReduceScatter { src, dst, axis } => {
            format!("r{} = reduce-scatter({axis}) r{}", dst.index(), src.index())
        }
        DataOp::Carries { tile } => match tile.region {
            Some(r) => format!(
                "carries {}x{} tile of r{}",
                r.rows,
                r.cols,
                tile.reg.index()
            ),
            None => format!("carries r{}", tile.reg.index()),
        },
    }
}

fn main() {
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let s_count = 8;
    let problem = GemmProblem::new(GemmShape::new(16_384, 16_384, 16_384), Dataflow::Os);
    let algo = MeshSlice::new(s_count, 8);
    // One lowering: the same plan could also be interpreted functionally
    // (see examples/quickstart.rs) — here we price its timing program.
    let plan = algo.plan(&mesh, problem, cfg.elem_bytes).unwrap();
    let program = plan.program();
    let engine = Engine::new(mesh, cfg);
    let lowered = engine.lower_program(program);
    let mut recorder = OpTraceRecorder::new(&lowered);
    let report = engine
        .run_observed(&lowered, &mut RunScratch::new(), None, &mut recorder)
        .into_completed()
        .expect("no failure was injected");
    let traces = recorder.into_traces();
    let makespan = report.makespan().as_secs();

    println!(
        "MeshSlice OS, S = {s_count}, on a 4x4 mesh: {} ops, makespan {:.3} ms, {:.1}% utilization",
        program.len(),
        makespan * 1e3,
        report.flop_utilization() * 100.0
    );
    println!();
    println!("chip 0 timeline (completion times; # marks position in the makespan):");
    let width = 48usize;
    for t in traces.iter().filter(|t| t.chip == ChipId(0)) {
        let op = &program.ops()[t.op.index()];
        let label = match &op.kind {
            OpKind::Gemm { shape } => format!("gemm {shape:?}"),
            OpKind::SliceCopy { bytes } => format!("slice {bytes} B"),
            OpKind::Collective { kind, axis, .. } => format!("{kind:?} {axis}"),
            OpKind::SendRecv { dir, .. } => format!("sendrecv {dir:?}"),
            OpKind::PipelinedBcast { axis, .. } => format!("bcast {axis}"),
        };
        let data = plan
            .annotations_for(t.op)
            .first()
            .map(|a| format!("  [{}]", data_label(&a.data)))
            .unwrap_or_default();
        let pos = ((t.completed.as_secs() / makespan) * width as f64).round() as usize;
        println!(
            "  {:>9.1} us |{}#{}| {label}{data}",
            t.completed.as_secs() * 1e6,
            "-".repeat(pos.min(width)),
            " ".repeat(width - pos.min(width)),
        );
    }
    println!();
    println!("note how AllGather s+1 completes before gemm s does: the collectives");
    println!("pipeline under the compute, in both mesh directions.");
}
