//! A 3D torus pod, end-to-end: describe a 4×4×4 pod with a straggler and
//! a degraded link, let the autotuner enumerate every 2D plane of the pod
//! through the N-D view algebra, project the pod's condition onto each
//! plane, and place MeshSlice on the winner — then price one MeshSlice
//! GeMM step on that plane under its actual faults.
//!
//! ```text
//! cargo run --release --example pod3d
//! ```

use meshslice::autotuner::Autotuner;
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{DistributedGemm, Engine, SimConfig};
use meshslice_mesh::{AxisName, ChipId, MeshShape, MeshView};
use meshslice_sim::PodProfile;

fn main() {
    // ---------------------------------------------------------------
    // 1. The physical pod: a 4×4×4 torus, 64 chips. Chip (0,0,0) is a
    //    2x straggler and its +y link runs at half rate, so every plane
    //    through it prices worse than a clean one.
    // ---------------------------------------------------------------
    let shape = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 4)]).expect("valid pod shape");
    let pod = PodProfile::ideal(shape)
        .with_compute_slowdown(ChipId(0), 2.0)
        .with_link_multiplier(ChipId(0), AxisName::Y, true, 0.5);

    let planes = MeshView::full(shape).planes();
    println!(
        "pod {shape}: {} chips, {} candidate 2D planes",
        shape.num_chips(),
        planes.len()
    );

    // ---------------------------------------------------------------
    // 2. Tune: for every plane the autotuner projects the pod condition
    //    onto the plane's logical 4×4 torus, tunes dataflows and slice
    //    counts there, and simulates the FC block under the plane-local
    //    profile. The winner avoids the faulty corner entirely.
    // ---------------------------------------------------------------
    let model = LlmConfig::gpt3();
    let setup = TrainingSetup::weak_scaling(16);
    let tuner = Autotuner::new(SimConfig::tpu_v4());
    let plan = tuner
        .tune_pod(&model, setup, &pod)
        .expect("GPT-3 divides a 4x4 plane");

    println!(
        "winner: plane {} (logical {}), simulated FC block {:.2} ms (ideal estimate {:.2} ms)",
        plan.plane,
        plan.mesh_shape,
        plan.simulated_block_time.as_secs() * 1e3,
        plan.estimated_block_time.as_secs() * 1e3,
    );
    assert!(
        !plan.physical_chips.contains(&ChipId(0)),
        "the tuner must route around the degraded corner"
    );

    // ---------------------------------------------------------------
    // 3. Price one MeshSlice GeMM step on the chosen plane: rebuild the
    //    plane's logical torus + fault profile, schedule the first FC
    //    pass with its tuned slice count, and run the simulator.
    // ---------------------------------------------------------------
    let assignment = pod.project(&plan.plane.view).expect("plane is rank 2");
    let pass = &plan.layers[0].passes[0];
    let cfg = tuner.cost_model().config();
    let algo = tuner.meshslice_for(plan.mesh_shape, pass.problem, pass.slice_count);
    let program = algo
        .schedule(&assignment.torus, pass.problem, cfg.elem_bytes)
        .expect("tuned pass divides the plane");
    let report = Engine::new(assignment.torus.clone(), cfg.clone())
        .with_faults(assignment.profile.clone())
        .run(&program);
    println!(
        "one step of {}/{} on the plane: S = {}, {} ops, makespan {:.1} us",
        plan.layers[0].layer.name,
        pass.pass,
        pass.slice_count,
        program.len(),
        report.makespan().as_secs() * 1e6,
    );

    // The same step on a plane through the straggler is strictly slower.
    let dirty = planes
        .iter()
        .find(|p| p.view.chips().contains(&ChipId(0)))
        .expect("some plane passes through the corner");
    let dirty_assign = pod.project(&dirty.view).expect("plane is rank 2");
    let dirty_report = Engine::new(dirty_assign.torus.clone(), cfg.clone())
        .with_faults(dirty_assign.profile.clone())
        .run(&program);
    println!(
        "same step on fault-affected plane {}: makespan {:.1} us",
        dirty,
        dirty_report.makespan().as_secs() * 1e6,
    );
    assert!(dirty_report.makespan() > report.makespan());
}
