//! 3D training-cluster composition: DP × PP × 2D-TP (§2.2, §7).
//!
//! Contemporary LLM training combines data, pipeline, and tensor
//! parallelism. The paper's §2.2 argues that replacing 8-way 1D TP with
//! wide 2D TP either (a) scales the cluster further at the same DP/PP
//! degrees, or (b) holds the cluster size and shrinks the DP/PP degrees —
//! in both cases cutting the per-chip data-parallel traffic (each chip
//! holds a smaller weight shard) and the pipeline depth.
//!
//! [`plan_cluster`] searches the (DP, PP, 2D-TP-mesh) space with the
//! analytical cost models and returns the fastest composition, including
//! the classic pipeline-bubble and gradient-all-reduce terms the paper's
//! FC-only evaluation abstracts away.

use std::fmt;

use meshslice_mesh::MeshShape;
use meshslice_sim::{Duration, SimConfig};

use crate::autotuner::Autotuner;
use crate::llm::{LlmConfig, TrainingSetup};
use crate::memory::{dp_traffic_per_chip, training_footprint};

/// One composition of a 3D training cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterPlan {
    /// Data-parallel replicas.
    pub dp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// The 2D tensor-parallel mesh of one pipeline stage of one replica.
    pub tp_mesh: MeshShape,
    /// Estimated training-step time.
    pub step_time: Duration,
    /// Estimated per-chip DP gradient traffic per step (bytes).
    pub dp_traffic: u64,
    /// Estimated per-chip memory footprint (bytes).
    pub memory: u64,
}

impl ClusterPlan {
    /// Total chips of the composition.
    pub fn chips(&self) -> usize {
        self.dp * self.pp * self.tp_mesh.num_chips()
    }
}

impl fmt::Display for ClusterPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DP{} x PP{} x TP{} ({} chips): step {:.1} ms, DP traffic {:.0} MB/chip, mem {:.1} GiB/chip",
            self.dp,
            self.pp,
            self.tp_mesh,
            self.chips(),
            self.step_time.as_secs() * 1e3,
            self.dp_traffic as f64 / 1e6,
            self.memory as f64 / (1u64 << 30) as f64,
        )
    }
}

/// Constraints and knobs of the composition search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanOptions {
    /// Per-chip HBM capacity in bytes (32 GiB on TPUv4).
    pub hbm_capacity: u64,
    /// Microbatches in flight per pipeline (for the bubble term).
    pub microbatches: usize,
    /// Bandwidth of the data-parallel all-reduce per chip, bytes/s
    /// (typically the DCN/third-torus-dimension rate, below ICI).
    pub dp_bandwidth: f64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            hbm_capacity: 32 << 30,
            microbatches: 16,
            dp_bandwidth: 25e9,
        }
    }
}

/// Estimated step time of one composition, or `None` when infeasible.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    model: &LlmConfig,
    global_batch: usize,
    seq_len: usize,
    dp: usize,
    pp: usize,
    tp_mesh: MeshShape,
    cfg: &SimConfig,
    opt: &PlanOptions,
) -> Option<ClusterPlan> {
    if !global_batch.is_multiple_of(dp) || !model.layers.is_multiple_of(pp) || global_batch / dp < 1
    {
        return None;
    }
    let setup = TrainingSetup {
        batch: global_batch / dp,
        seq_len,
    };
    let tuner = Autotuner::new(cfg.clone());
    let (fc_block, _) = tuner.estimate_on_mesh(model, setup, tp_mesh)?;
    let non_fc = model.non_fc_block_time(setup, tp_mesh.num_chips(), cfg);
    let per_block = fc_block.as_secs() + non_fc.as_secs();
    let blocks_per_stage = model.layers / pp;

    // Pipeline: the work of one stage runs `microbatches + pp − 1` slots
    // (GPipe-style bubble).
    let slots = (opt.microbatches + pp - 1) as f64 / opt.microbatches as f64;
    let compute = per_block * blocks_per_stage as f64 * slots;

    // DP gradient all-reduce, overlappable with the backward pass up to
    // half (a standard engineering assumption — exposed share 0.5).
    let tp_degree = tp_mesh.num_chips() * pp;
    let dp_traffic = dp_traffic_per_chip(model, tp_degree, dp, cfg.elem_bytes);
    let dp_time = 0.5 * dp_traffic as f64 / opt.dp_bandwidth;

    let step_time = Duration::from_secs(compute + dp_time);
    let memory = {
        let f = training_footprint(model, setup, tp_mesh, 8);
        // Weights scale with PP too (each stage holds layers/pp of them).
        f.total() / pp as u64
    };
    if memory > opt.hbm_capacity {
        return None;
    }
    Some(ClusterPlan {
        dp,
        pp,
        tp_mesh,
        step_time,
        dp_traffic,
        memory,
    })
}

/// Searches (DP, PP, 2D mesh) compositions of `chips` chips and returns
/// all feasible plans sorted fastest-first.
///
/// `max_tp` bounds the tensor-parallel degree (the paper explores up to
/// 256-way 2D TP).
pub fn plan_cluster(
    model: &LlmConfig,
    chips: usize,
    global_batch: usize,
    seq_len: usize,
    max_tp: usize,
    cfg: &SimConfig,
    opt: &PlanOptions,
) -> Vec<ClusterPlan> {
    let mut plans = Vec::new();
    for dp in (1..=chips).filter(|d| chips.is_multiple_of(*d)) {
        let per_replica = chips / dp;
        for pp in (1..=per_replica).filter(|p| per_replica.is_multiple_of(*p)) {
            let tp = per_replica / pp;
            if tp > max_tp || tp < 2 {
                continue;
            }
            for mesh in MeshShape::factorizations_min(tp, 2) {
                if let Some(plan) = evaluate(model, global_batch, seq_len, dp, pp, mesh, cfg, opt) {
                    plans.push(plan);
                }
            }
        }
    }
    plans.sort_by_key(|a| a.step_time);
    plans
}

/// Simulated (rather than cost-model-estimated) step time of a cluster
/// plan: the FC block runs through the event-driven simulator on the
/// plan's 2D mesh, the non-FC block time is added analytically, the
/// pipeline bubble scales the per-stage work, and the data-parallel
/// gradient all-reduce is simulated as a bidirectional ring over the
/// replicas (half of it hidden under the backward pass).
///
/// Returns `None` if the plan's FC step cannot be simulated.
pub fn simulate_plan(
    model: &LlmConfig,
    plan: &ClusterPlan,
    global_batch: usize,
    seq_len: usize,
    cfg: &SimConfig,
    opt: &PlanOptions,
) -> Option<Duration> {
    use crate::training::{simulate_fc_step, Algorithm};
    use meshslice_mesh::{CommAxis, Torus2d};
    use meshslice_sim::{CollectiveKind, Engine, ProgramBuilder};

    let setup = TrainingSetup {
        batch: global_batch / plan.dp,
        seq_len,
    };
    let fc = simulate_fc_step(
        model,
        setup,
        plan.tp_mesh.num_chips(),
        Algorithm::MeshSlice,
        cfg,
    )?;
    let non_fc = model.non_fc_block_time(setup, plan.tp_mesh.num_chips(), cfg);
    let per_block = fc.block_time().as_secs() + non_fc.as_secs();
    let blocks_per_stage = model.layers / plan.pp;
    let slots = (opt.microbatches + plan.pp - 1) as f64 / opt.microbatches as f64;
    let compute = per_block * blocks_per_stage as f64 * slots;

    // Gradient all-reduce over the DP replicas: ReduceScatter + AllGather
    // of each chip's gradient shard on a ring of `dp` representatives,
    // run at the (slower) DP-plane bandwidth.
    let dp_time = if plan.dp > 1 {
        let ring = Torus2d::new(plan.dp, 1);
        let dp_cfg = SimConfig {
            link_bandwidth: opt.dp_bandwidth / 2.0, // per direction
            ..cfg.clone()
        };
        let shard = plan.dp_traffic / 2 / (plan.dp as u64 - 1).max(1) * plan.dp as u64;
        let mut b = ProgramBuilder::spmd(&ring);
        let rds = b.next_tag();
        let ag = b.next_tag();
        for chip in b.chips() {
            let r = b.collective(
                chip,
                rds,
                CollectiveKind::ReduceScatter,
                CommAxis::InterRow,
                shard / plan.dp as u64,
                2,
                &[],
            );
            b.collective(
                chip,
                ag,
                CollectiveKind::AllGather,
                CommAxis::InterRow,
                shard / plan.dp as u64,
                2,
                &[r],
            );
        }
        let report = Engine::new(ring, dp_cfg).run(&b.build());
        0.5 * report.makespan().as_secs()
    } else {
        0.0
    };
    Some(Duration::from_secs(compute + dp_time))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> LlmConfig {
        LlmConfig {
            name: "Small".to_string(),
            hidden: 2048,
            heads: 16,
            layers: 24,
            ffn_mult: 4,
        }
    }

    #[test]
    fn planner_finds_feasible_compositions() {
        let cfg = SimConfig::tpu_v4();
        let plans = plan_cluster(
            &small_model(),
            64,
            64,
            2048,
            64,
            &cfg,
            &PlanOptions::default(),
        );
        assert!(!plans.is_empty());
        let best = &plans[0];
        assert_eq!(best.chips(), 64);
        // Sorted fastest-first.
        assert!(plans.windows(2).all(|w| w[0].step_time <= w[1].step_time));
    }

    #[test]
    fn wider_tp_cuts_dp_traffic() {
        // §2.2: within the same cluster, plans with a higher TP degree
        // carry less per-chip DP traffic.
        let cfg = SimConfig::tpu_v4();
        let plans = plan_cluster(
            &small_model(),
            64,
            64,
            2048,
            64,
            &cfg,
            &PlanOptions::default(),
        );
        let narrow = plans
            .iter()
            .find(|p| p.tp_mesh.num_chips() * p.pp == 4)
            .or_else(|| plans.iter().min_by_key(|p| p.tp_mesh.num_chips() * p.pp));
        let wide = plans
            .iter()
            .max_by_key(|p| p.tp_mesh.num_chips() * p.pp)
            .unwrap();
        if let Some(narrow) = narrow {
            if narrow.dp > 1 && wide.dp > 1 && wide.tp_mesh.num_chips() > narrow.tp_mesh.num_chips()
            {
                assert!(wide.dp_traffic < narrow.dp_traffic);
            }
        }
    }

    #[test]
    fn simulated_plan_is_close_to_the_estimate() {
        let cfg = SimConfig::tpu_v4();
        let model = small_model();
        let opt = PlanOptions::default();
        let plans = plan_cluster(&model, 32, 32, 2048, 32, &cfg, &opt);
        let best = &plans[0];
        let simulated = simulate_plan(&model, best, 32, 2048, &cfg, &opt).unwrap();
        let ratio = simulated.as_secs() / best.step_time.as_secs();
        assert!(
            (0.7..1.3).contains(&ratio),
            "simulated/estimated ratio {ratio}"
        );
    }

    #[test]
    fn memory_constraint_rejects_tiny_clusters_for_big_models() {
        let cfg = SimConfig::tpu_v4();
        let plans = plan_cluster(
            &LlmConfig::megatron_nlg(),
            8,
            8,
            2048,
            8,
            &cfg,
            &PlanOptions::default(),
        );
        // 530B parameters cannot fit on 8 x 32 GiB chips.
        assert!(plans.is_empty());
    }

    #[test]
    fn pipeline_bubble_penalizes_deep_pipelines() {
        let cfg = SimConfig::tpu_v4();
        let model = small_model();
        let opt = PlanOptions {
            microbatches: 4,
            ..PlanOptions::default()
        };
        let shallow = evaluate(&model, 64, 2048, 1, 2, MeshShape::new(4, 4), &cfg, &opt);
        let deep = evaluate(&model, 64, 2048, 1, 8, MeshShape::new(2, 2), &cfg, &opt);
        let (shallow, deep) = (shallow.unwrap(), deep.unwrap());
        // Same chip count; the deep pipeline pays a larger bubble per
        // unit of compute.
        assert_eq!(shallow.chips(), deep.chips());
        let bubble = |p: usize| (opt.microbatches + p - 1) as f64 / opt.microbatches as f64;
        assert!(bubble(8) > bubble(2));
    }

    #[test]
    fn plan_display_is_informative() {
        let cfg = SimConfig::tpu_v4();
        let plans = plan_cluster(
            &small_model(),
            16,
            16,
            2048,
            16,
            &cfg,
            &PlanOptions::default(),
        );
        let s = plans[0].to_string();
        assert!(s.contains("DP") && s.contains("PP") && s.contains("chips"));
    }
}
