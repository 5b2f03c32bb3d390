//! `pod`: placing MeshSlice on a seeded, faulty 4×4×4 torus pod
//! (`Autotuner::tune_pod`) as `examples/pod3d` does, GPT-3 at
//! `weak_scaling(16)`. Every 2D plane is enumerated and projected
//! through the N-D mesh algebra, priced analytically, then scheduled,
//! lowered and simulated under its projected faults. Congruent planes
//! repeat the same programs, so this is the workload where reuse across
//! candidates would pay.

use meshslice::autotuner::{Autotuner, LayerPlan, PodTunePlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::SimConfig;
use meshslice_mesh::{AxisName, ChipId, MeshShape, MeshView, Torus2d};
use meshslice_sim::{Duration, Engine, PlaneAssignment, PodProfile, RunScratch};

use crate::block::{dedup, lower_all, plan_specs, run_block};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;

const EXTENT: usize = 4;

pub struct Pod {
    tuner: Autotuner,
    model: LlmConfig,
    setup: TrainingSetup,
    shape: MeshShape,
}

pub struct Query {
    pod: PodProfile,
}

impl Pod {
    /// The simulated FC block of tuned layer plans on one projected plane.
    fn simulate_plane(
        &self,
        layers: &[LayerPlan],
        assign: &PlaneAssignment,
        tr: &mut Tracer,
    ) -> Result<Duration, String> {
        let mesh = assign.torus.shape();
        let specs = tr.layer("autotuner", || plan_specs(&self.tuner, layers, mesh));
        let (distinct, slots) = dedup(&specs);
        let engine = Engine::new(
            Torus2d::from_shape(mesh),
            self.tuner.cost_model().config().clone(),
        )
        .with_faults(assign.profile.clone());
        let lowered = lower_all(&engine, &distinct, tr)?;
        Ok(run_block(
            &engine,
            &lowered,
            &slots,
            &mut RunScratch::new(),
            tr,
        ))
    }
}

impl Workload for Pod {
    type Query = Query;
    type Output = PodTunePlan;
    const WARMUP: usize = 1;

    fn new() -> Self {
        Pod {
            tuner: Autotuner::new(SimConfig::tpu_v4()),
            model: LlmConfig::gpt3(),
            setup: TrainingSetup::weak_scaling(EXTENT * EXTENT),
            shape: MeshShape::nd(&[("x", EXTENT), ("y", EXTENT), ("z", EXTENT)])
                .expect("valid pod shape"),
        }
    }

    /// Like `examples/pod3d`'s straggler and half-rate link, but one to
    /// three stragglers and one to four degraded links at seeded places.
    fn query(&self, rng: &mut Rng) -> Query {
        let chips = self.shape.num_chips();
        let mut pod = PodProfile::ideal(self.shape);
        for _ in 0..rng.int(1, 3) {
            pod.set_compute_slowdown(ChipId(rng.int(0, chips - 1)), rng.uniform(1.5, 3.0));
        }
        for _ in 0..rng.int(1, 4) {
            let chip = ChipId(rng.int(0, chips - 1));
            let axis = rng.pick(&[AxisName::X, AxisName::Y, AxisName::Z]);
            pod.set_link_multiplier(chip, axis, rng.unit() < 0.5, rng.uniform(0.3, 0.8));
        }
        Query { pod }
    }

    fn run(&self, q: &Query) -> Result<PodTunePlan, String> {
        self.tuner
            .tune_pod(&self.model, self.setup, &q.pod)
            .ok_or_else(|| "no plane of the pod divides the model".to_string())
    }

    /// The winner's chips are exactly its plane's, its analytic estimate
    /// is its mesh's, and its simulated time re-simulates.
    fn check(&self, q: &Query, plan: &PodTunePlan) -> Result<(), String> {
        let mut chips = plan.physical_chips.clone();
        chips.sort();
        let mut plane = plan.plane.view.chips();
        plane.sort();
        if chips != plane || chips.len() != plan.mesh_shape.num_chips() {
            return Err("winner's chips are not its plane's".into());
        }
        let estimate = self
            .tuner
            .estimate_on_mesh(&self.model, self.setup, plan.mesh_shape);
        if estimate.map(|(t, _)| t) != Some(plan.estimated_block_time) {
            return Err("winner's estimate does not match its mesh".into());
        }
        let assign = q.pod.project(&plan.plane.view).map_err(|e| e.to_string())?;
        if self.simulate_plane(&plan.layers, &assign, &mut Tracer::new())?
            != plan.simulated_block_time
        {
            return Err("winner's simulated block time does not re-simulate".into());
        }
        Ok(())
    }

    fn replay(&self, q: &Query, plan: &PodTunePlan, tr: &mut Tracer) -> Result<(), String> {
        let planes = tr.layer("mesh", || MeshView::full(self.shape).planes());
        let mut best: Option<PodTunePlan> = None;
        for plane in planes {
            tr.count("candidates", 1);
            let Ok(assign) = tr.layer("mesh", || q.pod.project(&plane.view)) else {
                continue;
            };
            let mesh_shape = assign.torus.shape();
            let Some((estimated, layers)) = tr.layer("costmodel", || {
                self.tuner
                    .estimate_on_mesh(&self.model, self.setup, mesh_shape)
            }) else {
                continue;
            };
            let simulated = self.simulate_plane(&layers, &assign, tr)?;
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
        if best.as_ref() != Some(plan) {
            return Err("replay picks another plane".into());
        }
        Ok(())
    }
}
