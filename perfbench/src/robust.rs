//! `robust`: robustness-aware tuning (`Autotuner::tune_robust_threads`)
//! as `examples/fault_sweep` runs it: GPT-3 on 16 chips, S in
//! {1, 2, 4, 8}, four fault draws, ranked by p95 makespan. Every
//! (mesh, S) candidate is scheduled and lowered once and its lowered
//! programs are replayed per draw, so the simulator's event loop
//! dominates.

use std::f64::consts::TAU;

use meshslice::autotuner::{Autotuner, RobustCandidate, RobustObjective, RobustPlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::SimConfig;
use meshslice_mesh::{LinkDir, Torus2d};
use meshslice_sim::{ClusterProfile, Engine, RunScratch};

use crate::block::{clamped_specs, dedup, layer_problems, lower_all, run_block};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Workload, THREADS};

const CHIPS: usize = 16;
const S_VALUES: [usize; 4] = [1, 2, 4, 8];
const DRAWS: usize = 4;
const OBJECTIVE: RobustObjective = RobustObjective::P95;

pub struct Robust {
    tuner: Autotuner,
    model: LlmConfig,
    setup: TrainingSetup,
}

pub struct Query {
    profiles: Vec<ClusterProfile>,
}

/// One draw of `examples/fault_sweep`'s fault spec: folded log-normal
/// jitter (sigma 0.05) on every chip, one 1.5x straggler on top, and
/// each link direction degraded with probability 0.25 to [0.7, 1).
fn draw_profile(rng: &mut Rng) -> ClusterProfile {
    let mut p = ClusterProfile::ideal(CHIPS);
    for chip in 0..CHIPS {
        let z = (-2.0 * (1.0 - rng.unit()).ln()).sqrt() * (TAU * rng.unit()).cos();
        p.set_compute_slowdown(chip, (0.05 * z.abs()).exp());
    }
    let straggler = rng.int(0, CHIPS - 1);
    p.set_compute_slowdown(straggler, p.compute_slowdown(straggler) * 1.5);
    for chip in 0..CHIPS {
        for dir in LinkDir::ALL {
            if rng.unit() < 0.25 {
                p.set_link_multiplier(chip, dir, rng.uniform(0.7, 1.0));
            }
        }
    }
    p
}

impl Workload for Robust {
    type Query = Query;
    type Output = RobustPlan;
    const WARMUP: usize = 2;

    fn new() -> Self {
        Robust {
            tuner: Autotuner::new(SimConfig::tpu_v4()),
            model: LlmConfig::gpt3(),
            setup: TrainingSetup::weak_scaling(CHIPS),
        }
    }

    fn query(&self, rng: &mut Rng) -> Query {
        Query {
            profiles: (0..DRAWS).map(|_| draw_profile(rng)).collect(),
        }
    }

    fn run(&self, q: &Query) -> Result<RobustPlan, String> {
        Ok(self.tuner.tune_robust_threads(
            &self.model,
            self.setup,
            CHIPS,
            &S_VALUES,
            &q.profiles,
            OBJECTIVE,
            THREADS,
        ))
    }

    /// Candidates are ranked by their objective, and the winner's
    /// makespans match fresh per-draw simulations of its block.
    fn check(&self, q: &Query, plan: &RobustPlan) -> Result<(), String> {
        let key = |c: &RobustCandidate| (c.score, c.nominal, c.requested_s);
        if plan.candidates.is_empty() || !plan.candidates.is_sorted_by_key(key) {
            return Err("candidates are missing or out of order".into());
        }
        if plan
            .candidates
            .iter()
            .any(|c| c.per_draw.len() != DRAWS || c.score != OBJECTIVE.score(&c.per_draw))
        {
            return Err("a candidate's score is not its objective over the draws".into());
        }
        let best = plan.best();
        let base = self.tuner.cost_model().config();
        let simulate = |cfg: &SimConfig| {
            self.tuner
                .simulate_block(
                    &self.model,
                    self.setup,
                    best.mesh_shape,
                    best.requested_s,
                    cfg,
                )
                .map(|r| r.makespan())
        };
        if simulate(base) != Some(best.nominal) {
            return Err("winner's nominal makespan does not re-simulate".into());
        }
        for (p, &t) in q.profiles.iter().zip(&best.per_draw) {
            if simulate(&base.clone().with_faults(p.clone())) != Some(t) {
                return Err("winner's per-draw makespan does not re-simulate".into());
            }
        }
        Ok(())
    }

    fn replay(&self, q: &Query, plan: &RobustPlan, tr: &mut Tracer) -> Result<(), String> {
        let cfg = self.tuner.cost_model().config();
        let meshes = tr.layer("mesh", || Autotuner::candidate_meshes(CHIPS));
        let problems = tr.layer("autotuner", || layer_problems(&self.model, self.setup));
        let mut scratch = RunScratch::new();
        let mut candidates = Vec::new();
        for mesh in meshes {
            let engine = Engine::new(Torus2d::from_shape(mesh), cfg.clone());
            for s in S_VALUES {
                tr.count("candidates", 1);
                let Some(specs) = tr.layer("autotuner", || {
                    clamped_specs(&self.tuner, &problems, mesh, s)
                }) else {
                    continue;
                };
                let (distinct, slots) = dedup(&specs);
                let lowered = lower_all(&engine, &distinct, tr)?;
                let nominal = run_block(&engine, &lowered, &slots, &mut scratch, tr);
                let per_draw: Vec<_> = q
                    .profiles
                    .iter()
                    .map(|p| {
                        let faulted = engine.with_faults(p.clone());
                        run_block(&faulted, &lowered, &slots, &mut scratch, tr)
                    })
                    .collect();
                candidates.push(RobustCandidate {
                    mesh_shape: mesh,
                    requested_s: s,
                    nominal,
                    score: tr.layer("autotuner", || OBJECTIVE.score(&per_draw)),
                    per_draw,
                });
            }
        }
        tr.layer("autotuner", || {
            candidates.sort_by_key(|c| (c.score, c.nominal, c.requested_s))
        });
        if candidates != plan.candidates {
            return Err("replayed candidates differ from the tuner's".into());
        }
        Ok(())
    }
}
