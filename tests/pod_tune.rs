//! `Autotuner::tune_pod` reuses work across congruent planes — one
//! analytic tuning and one lowered block per logical mesh shape, one
//! simulation per distinct projected profile on that shape. These tests
//! pin its plan bit-for-bit to a naive reference that tunes and simulates
//! every plane afresh, pass by pass, through the public API only.

use meshslice::autotuner::{Autotuner, PodTunePlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{DistributedGemm, Engine, MeshSlice, SimConfig};
use meshslice_mesh::{AxisName, ChipId, MeshShape, MeshView};
use meshslice_sim::{PodProfile, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plans every plane on its own: project → analytic tuning → schedule
/// and simulate each of the twelve passes under the plane's profile →
/// serial merge; the strictly fastest plane wins, ties keep the first.
/// Also returns the logical shapes of the feasible planes.
fn reference(
    tuner: &Autotuner,
    model: &LlmConfig,
    setup: TrainingSetup,
    pod: &PodProfile,
) -> (Option<PodTunePlan>, Vec<MeshShape>) {
    let cfg = tuner.cost_model().config();
    let mut best: Option<PodTunePlan> = None;
    let mut shapes = Vec::new();
    for plane in MeshView::full(pod.shape()).planes() {
        let Ok(assign) = pod.project(&plane.view) else {
            continue;
        };
        let mesh_shape = assign.torus.shape();
        let Some((estimated, layers)) = tuner.estimate_on_mesh(model, setup, mesh_shape) else {
            continue;
        };
        let engine =
            Engine::new(assign.torus.clone(), cfg.clone()).with_faults(assign.profile.clone());
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
                    .schedule(&assign.torus, pass.problem, cfg.elem_bytes)
                    .ok()?;
                Some(engine.run(&program))
            })
            .collect();
        let Some(reports) = reports else {
            continue;
        };
        if !shapes.contains(&mesh_shape) {
            shapes.push(mesh_shape);
        }
        let simulated = SimReport::merge_serial(&reports).makespan();
        if best
            .as_ref()
            .is_none_or(|b| simulated < b.simulated_block_time)
        {
            best = Some(PodTunePlan {
                plane,
                mesh_shape,
                physical_chips: assign.physical,
                layers,
                estimated_block_time: estimated,
                simulated_block_time: simulated,
            });
        }
    }
    (best, shapes)
}

/// A pod with one to three stragglers and one to four degraded links at
/// seeded places.
fn faulty_pod(shape: MeshShape, seed: u64) -> PodProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let chips = shape.num_chips();
    let axes: Vec<AxisName> = shape.axes().iter().map(|a| a.name()).collect();
    let mut pod = PodProfile::ideal(shape);
    for _ in 0..rng.gen_range(1..=3) {
        pod.set_compute_slowdown(ChipId(rng.gen_range(0..chips)), rng.gen_range(1.5..3.0));
    }
    for _ in 0..rng.gen_range(1..=4) {
        let axis = axes[rng.gen_range(0..axes.len())];
        let chip = ChipId(rng.gen_range(0..chips));
        pod.set_link_multiplier(chip, axis, rng.gen_bool(0.5), rng.gen_range(0.3..0.8));
    }
    pod
}

fn pod_shape(x: usize, y: usize, z: usize) -> MeshShape {
    MeshShape::nd(&[("x", x), ("y", y), ("z", z)]).unwrap()
}

fn tuner() -> Autotuner {
    Autotuner::new(SimConfig::tpu_v4())
}

#[test]
fn seeded_faulty_pods_match_the_per_plane_reference() {
    let (tuner, model, setup) = (tuner(), LlmConfig::tiny(), TrainingSetup::weak_scaling(8));
    for (shape, seed) in [
        (pod_shape(4, 4, 2), 1),
        (pod_shape(4, 4, 2), 2),
        (pod_shape(4, 4, 2), 3),
        (pod_shape(2, 4, 4), 4),
        (pod_shape(2, 2, 2), 5),
    ] {
        let pod = faulty_pod(shape, seed);
        let (want, shapes) = reference(&tuner, &model, setup, &pod);
        if shape == pod_shape(4, 4, 2) {
            // Planes span the 4×4, 4×2 and 2×4 logical shapes.
            assert_eq!(shapes.len(), 3, "{shape} seed {seed}: {shapes:?}");
        }
        let got = tuner.tune_pod(&model, setup, &pod);
        assert!(got.is_some(), "{shape} seed {seed}: no plane");
        assert_eq!(got, want, "{shape} seed {seed}");
    }
}

#[test]
fn an_eight_chip_winner_matches_the_per_plane_reference() {
    // Stragglers on both x layers of a 2×4×4 pod degrade every 4×4
    // plane, so an 8-chip plane wins. Ideal 2×4 and 4×2 planes project
    // to equal profiles yet run different programs, and the 2×4 planes
    // come first in enumeration order.
    let (tuner, model, setup) = (tuner(), LlmConfig::tiny(), TrainingSetup::weak_scaling(8));
    let shape = pod_shape(2, 4, 4);
    // Chip (x, y, z) is (4x + y)·4 + z: stragglers at (0,0,0) and (1,1,1).
    let pod = PodProfile::ideal(shape)
        .with_compute_slowdown(ChipId(0), 3.0)
        .with_compute_slowdown(ChipId(21), 3.0);
    let (want, _) = reference(&tuner, &model, setup, &pod);
    let want = want.unwrap();
    assert_eq!(want.mesh_shape.num_chips(), 8);
    assert_eq!(tuner.tune_pod(&model, setup, &pod), Some(want));
}

#[test]
fn an_ideal_pod_keeps_the_first_of_the_tied_planes() {
    let (tuner, model, setup) = (tuner(), LlmConfig::tiny(), TrainingSetup::weak_scaling(8));
    let shape = pod_shape(4, 4, 2);
    let pod = PodProfile::ideal(shape);
    let plan = tuner.tune_pod(&model, setup, &pod).unwrap();
    assert_eq!(Some(plan.clone()), reference(&tuner, &model, setup, &pod).0);
    // Congruent ideal planes tie, so the winner is the first plane of
    // its shape in enumeration order.
    let first = MeshView::full(shape)
        .planes()
        .into_iter()
        .find(|p| pod.project(&p.view).unwrap().torus.shape() == plan.mesh_shape)
        .unwrap();
    assert_eq!(plan.plane, first);
    assert_eq!(plan.physical_chips, first.view.chips());
}
