//! `serve`: what `meshslice serve --model gpt3 --chips 32 --replicas 2
//! --qps 40 --slo-p99-ms 500 --seed N` does, for a seeded N. The
//! serving tuner (fast path) picks mesh × S × batch cap on the first 64
//! requests, then the fleet serves the CLI's default 200 requests on the
//! winning layout. Cost-table builds and the fleet event loop dominate.
//!
//! As in the CLI, the seed is the only input: the arrival traces come
//! from the program's own Poisson sampler (`ArrivalSpec::generate`), so
//! a change to that sampler changes the inputs a seed stands for.

use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::llm::LlmConfig;
use meshslice::SimConfig;
use meshslice_mesh::MeshShape;
use meshslice_serving::{
    build_replica_costs, rank_candidates, simulate_fleet, simulate_fleet_threads, ArrivalSpec,
    CostProfile, CostTableCache, FleetReport, ReplicaCosts, Request, ServingCandidate, ServingPlan,
    ServingSpec, ServingTuning, TuneMode, CANDIDATE_MAX_BATCH, CANDIDATE_SLICE_COUNTS,
};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Workload, THREADS};

const CHIPS: usize = 32;
const REPLICAS: usize = 2;
const QPS: f64 = 40.0;
const SLO_MS: f64 = 500.0;
/// The CLI's default request count; it tunes on at most 64 of them.
const REQUESTS: usize = 200;
const EVAL_REQUESTS: usize = 64;

pub struct Serve {
    tuner: Autotuner,
    model: LlmConfig,
}

pub struct Query {
    seed: u64,
}

pub struct Output {
    plan: ServingPlan,
    report: FleetReport,
}

fn arrivals() -> ArrivalSpec {
    ArrivalSpec::poisson(QPS)
}

impl Serve {
    fn cfg(&self) -> &SimConfig {
        self.tuner.cost_model().config()
    }

    /// The fleet spec of one layout serving `trace`.
    fn spec(
        &self,
        q: &Query,
        layout: &ServingCandidate,
        trace: Arc<[Request]>,
        costs: Option<Arc<ReplicaCosts>>,
    ) -> ServingSpec {
        ServingSpec {
            slice_count: layout.slice_count,
            max_batch: layout.max_batch,
            arrivals: arrivals(),
            num_requests: trace.len(),
            seed: q.seed,
            slo_p99_ttft_ms: SLO_MS,
            shared_costs: costs,
            shared_trace: Some(trace),
            ..ServingSpec::new(self.model.clone(), layout.mesh, layout.replicas, QPS)
        }
    }
}

/// Whether two tables serve identically (everything but the requested
/// slice count, which the fleet never reads).
fn same_tables(a: &ReplicaCosts, b: &ReplicaCosts) -> bool {
    (
        a.mesh,
        a.max_batch,
        a.kv_bytes_per_token,
        a.kv_budget_bytes,
        a.degraded_priced,
    ) == (
        b.mesh,
        b.max_batch,
        b.kv_bytes_per_token,
        b.kv_budget_bytes,
        b.degraded_priced,
    ) && a.prefill == b.prefill
        && a.decode == b.decode
}

impl Workload for Serve {
    type Query = Query;
    type Output = Output;
    const WARMUP: usize = 2;

    fn new() -> Self {
        Serve {
            tuner: Autotuner::new(SimConfig::tpu_v4()),
            model: LlmConfig::gpt3(),
        }
    }

    fn query(&self, rng: &mut Rng) -> Query {
        Query {
            seed: rng.next_u64(),
        }
    }

    fn run(&self, q: &Query) -> Result<Output, String> {
        let plan = self.tuner.tune_serving_mode(
            &self.model,
            CHIPS,
            Some(REPLICAS),
            &arrivals(),
            SLO_MS,
            EVAL_REQUESTS,
            q.seed,
            TuneMode::Fast,
            THREADS,
        )?;
        let trace = Arc::from(arrivals().generate(REQUESTS, q.seed));
        let spec = self.spec(q, plan.best(), trace, None);
        let report = simulate_fleet_threads(&spec, self.cfg(), THREADS)?;
        Ok(Output { plan, report })
    }

    /// Candidates are in rank order, the fleet runs the winner, and every
    /// offered request ends exactly one way.
    fn check(&self, _q: &Query, out: &Output) -> Result<(), String> {
        let (plan, r) = (&out.plan, &out.report);
        if plan.candidates.is_empty()
            || !plan
                .candidates
                .is_sorted_by(|a, b| rank_candidates(a, b).is_le())
        {
            return Err("serving candidates are missing or out of rank order".into());
        }
        let best = plan.best();
        if (r.mesh, r.slice_count, r.max_batch, r.replicas)
            != (best.mesh, best.slice_count, best.max_batch, best.replicas)
        {
            return Err("fleet does not run the tuned layout".into());
        }
        if r.offered != REQUESTS
            || r.completed + r.rejected + r.shed + r.timed_out != r.offered
            || r.outcomes.len() != r.offered
        {
            return Err("request outcomes do not partition the offered trace".into());
        }
        if r.goodput_tokens_per_chip_s.is_nan() || r.goodput_tokens_per_chip_s <= 0.0 {
            return Err("fleet delivered no goodput".into());
        }
        Ok(())
    }

    fn replay(&self, q: &Query, out: &Output, tr: &mut Tracer) -> Result<(), String> {
        let cfg = self.cfg();
        let meshes: Vec<MeshShape> =
            tr.layer("mesh", || Autotuner::candidate_meshes(CHIPS / REPLICAS));
        let mut grid = Vec::new();
        for &mesh in &meshes {
            for s in CANDIDATE_SLICE_COUNTS {
                for max_batch in CANDIDATE_MAX_BATCH {
                    grid.push((mesh, s, max_batch));
                }
            }
        }
        tr.count("candidates", grid.len());

        let cache = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        tr.layer("costs", || cache.warm(&self.model, &grid, THREADS));
        let eval: Arc<[Request]> = tr.layer("arrival", || {
            Arc::from(arrivals().generate(EVAL_REQUESTS, q.seed))
        });
        let entries: Vec<_> = tr.layer("costs", || {
            grid.iter()
                .filter_map(|&(mesh, s, b)| {
                    cache.replica_costs(&self.model, mesh, s, b).map(|c| (s, c))
                })
                .collect()
        });
        tr.count("table_builds", cache.builds());
        tr.count("schedule_hits", cache.schedule_cache_stats().0);

        // One fleet run per group of entries whose tables serve alike.
        let mut units: Vec<(Arc<ReplicaCosts>, Vec<usize>)> = Vec::new();
        for (s, costs) in entries {
            match units.iter_mut().find(|(c, _)| same_tables(c, &costs)) {
                Some((_, members)) => members.push(s),
                None => units.push((costs, vec![s])),
            }
        }
        let mut candidates = Vec::new();
        for (costs, members) in &units {
            let layout = ServingCandidate {
                mesh: costs.mesh,
                slice_count: costs.slice_count,
                replicas: REPLICAS,
                max_batch: costs.max_batch,
                slo_attained: false,
                p99_ttft_ms: 0.0,
                goodput_tokens_per_chip_s: 0.0,
                completion: 0.0,
            };
            let spec = self.spec(q, &layout, eval.clone(), Some(costs.clone()));
            let report = tr.layer("fleet", || simulate_fleet(&spec, cfg))?;
            for &slice_count in members {
                candidates.push(ServingCandidate {
                    slice_count,
                    slo_attained: report.slo_attained,
                    p99_ttft_ms: report.ttft.p99 * 1e3,
                    goodput_tokens_per_chip_s: report.goodput_tokens_per_chip_s,
                    completion: report.completed as f64 / report.offered as f64,
                    ..layout
                });
            }
        }
        tr.layer("autotuner", || candidates.sort_by(rank_candidates));
        if candidates != out.plan.candidates {
            return Err("replayed serving candidates differ from the tuner's".into());
        }

        let best = &candidates[0];
        let costs = tr
            .layer("costs", || {
                build_replica_costs(
                    &self.model,
                    best.mesh,
                    best.slice_count,
                    best.max_batch,
                    cfg,
                )
            })
            .ok_or("winning layout cannot serve")?;
        let trace: Arc<[Request]> = tr.layer("arrival", || {
            Arc::from(arrivals().generate(REQUESTS, q.seed))
        });
        let spec = self.spec(q, best, trace, Some(Arc::new(costs)));
        let report = tr.layer("fleet", || simulate_fleet_threads(&spec, cfg, THREADS))?;
        if report != out.report {
            return Err("replayed fleet report differs from the served one".into());
        }
        Ok(())
    }
}
