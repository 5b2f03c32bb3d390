//! Quickstart: lower the MeshSlice 2D GeMM algorithm to its plan IR once,
//! then use that single plan both ways — interpret it functionally on a
//! small simulated mesh (verifying against dense GeMM), and run its
//! timing program at LLM scale with the cluster simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use meshslice::{Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice, SimConfig};
use meshslice_mesh::Torus2d;

fn main() {
    // ---------------------------------------------------------------
    // 1. One plan, two executions. Each algorithm lowers to a single
    //    data-annotated plan: a sim Program whose ops carry the tiles
    //    they move and the partial products they compute. Interpreting
    //    the plan moves real matrices; running it times the same ops.
    // ---------------------------------------------------------------
    let mesh = Torus2d::new(4, 4);
    let cfg = SimConfig::tpu_v4();
    let problem = GemmProblem::new(GemmShape::new(64, 64, 128), Dataflow::Os);
    let algo = MeshSlice::new(4, 2); // S = 4 sub-shards, block B = 2
    let plan = algo
        .plan(&mesh, problem, cfg.elem_bytes)
        .expect("problem divides the mesh");

    // Functional mode: the plan's dataflow annotations move real shards.
    let (a, b) = problem.random_inputs(&mesh, 2025);
    let c = plan.interpret(&a, &b);
    let reference = problem.reference(&a.assemble(), &b.assemble());
    let err = c.assemble().max_abs_diff(&reference);
    println!(
        "functional check on {} chips: C = A·B, max |error| = {err:.2e}",
        mesh.num_chips()
    );
    assert!(c.assemble().approx_eq(&reference, 1e-4));

    // Timing mode: the very same plan's op graph through the simulator.
    let report = Engine::new(mesh, cfg.clone()).run(plan.program());
    println!(
        "same plan, timed: {} ops, makespan {:.1} us",
        plan.program().len(),
        report.makespan().as_secs() * 1e6
    );

    // ---------------------------------------------------------------
    // 2. The same algorithm at GPT-3 scale (one FC-layer GeMM on 256
    //    TPUv4 chips), executed by the discrete-event simulator.
    // ---------------------------------------------------------------
    let cluster = Torus2d::new(32, 8);
    let big = GemmProblem::new(GemmShape::new(262_144, 49_152, 12_288), Dataflow::Os);
    let tuned = MeshSlice::with_tpu_block(16);
    let big_plan = tuned
        .plan(&cluster, big, cfg.elem_bytes)
        .expect("shape divides the cluster");
    println!(
        "simulating {} ops over {} chips...",
        big_plan.program().len(),
        cluster.num_chips()
    );
    let report = Engine::new(cluster, cfg).run(big_plan.program());
    println!("GPT-3 FF1 forward GeMM on 32x8 TPUv4s with S = 16:");
    println!("  {report}");
    println!(
        "  -> {:.1}% FLOP utilization",
        report.flop_utilization() * 100.0
    );
}
