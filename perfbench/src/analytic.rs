//! `analytic`: weak-scaling sweeps through the analytic phase-2 tuner
//! (`Autotuner::tune`). Candidates are priced by the cost model alone;
//! no program is scheduled or simulated, so simulator changes should
//! leave this workload unchanged.

use meshslice::autotuner::{Autotuner, TunePlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::SimConfig;

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;

/// Cluster sizes of one sweep (Figure 9's range, extended to 2048).
const CHIPS: [usize; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// Training setups per query. Their costs differ by setup; summing
/// several keeps every query's cost near the mean, so the median query
/// time does not jump with the seed's mix of setups.
const SETUPS: usize = 8;

pub struct Analytic {
    tuner: Autotuner,
    models: [LlmConfig; 2],
}

/// Weak-scaling sweeps of both paper models over every cluster size,
/// under seeded (sequence length, per-chip batch) setups.
pub struct Query {
    setups: Vec<(usize, u32)>,
}

impl Query {
    fn configs<'a>(
        &'a self,
        models: &'a [LlmConfig],
    ) -> impl Iterator<Item = (&'a LlmConfig, usize, TrainingSetup)> + 'a {
        self.setups.iter().flat_map(move |&(seq_len, shift)| {
            models.iter().flat_map(move |m| {
                CHIPS.iter().map(move |&chips| {
                    let setup = TrainingSetup {
                        batch: (chips / 2) << shift,
                        seq_len,
                    };
                    (m, chips, setup)
                })
            })
        })
    }
}

impl Workload for Analytic {
    type Query = Query;
    type Output = Vec<TunePlan>;
    const WARMUP: usize = 4;

    fn new() -> Self {
        Analytic {
            tuner: Autotuner::new(SimConfig::tpu_v4()),
            models: [LlmConfig::gpt3(), LlmConfig::megatron_nlg()],
        }
    }

    fn query(&self, rng: &mut Rng) -> Query {
        Query {
            setups: (0..SETUPS)
                .map(|_| (rng.pick(&[1024, 2048, 4096]), rng.int(0, 2) as u32))
                .collect(),
        }
    }

    fn run(&self, q: &Query) -> Result<Vec<TunePlan>, String> {
        Ok(q.configs(&self.models)
            .map(|(m, chips, setup)| self.tuner.tune(m, setup, chips))
            .collect())
    }

    /// Each plan fills its cluster, prices exactly as its mesh's
    /// estimate, and no candidate mesh is estimated faster.
    fn check(&self, q: &Query, plans: &Vec<TunePlan>) -> Result<(), String> {
        for ((m, chips, setup), plan) in q.configs(&self.models).zip(plans) {
            let at = || format!("{} on {chips} chips", m.name);
            if plan.mesh_shape.num_chips() != chips {
                return Err(format!(
                    "{}: mesh {} has the wrong size",
                    at(),
                    plan.mesh_shape
                ));
            }
            let own = self.tuner.estimate_on_mesh(m, setup, plan.mesh_shape);
            if own.map(|(t, _)| t) != Some(plan.estimated_block_time) {
                return Err(format!("{}: estimate does not match its mesh", at()));
            }
            for mesh in Autotuner::candidate_meshes(chips) {
                if let Some((t, _)) = self.tuner.estimate_on_mesh(m, setup, mesh) {
                    if t < plan.estimated_block_time {
                        return Err(format!("{}: mesh {mesh} beats the winner", at()));
                    }
                }
            }
        }
        Ok(())
    }

    fn replay(&self, q: &Query, plans: &Vec<TunePlan>, tr: &mut Tracer) -> Result<(), String> {
        for ((m, chips, setup), plan) in q.configs(&self.models).zip(plans) {
            let meshes = tr.layer("mesh", || Autotuner::candidate_meshes(chips));
            tr.count("candidates", meshes.len());
            let mut best: Option<TunePlan> = None;
            for mesh in meshes {
                let Some((t, layers)) =
                    tr.layer("costmodel", || self.tuner.estimate_on_mesh(m, setup, mesh))
                else {
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
            if best.as_ref() != Some(plan) {
                return Err(format!(
                    "{} on {chips} chips: replay picks another plan",
                    m.name
                ));
            }
        }
        Ok(())
    }
}
