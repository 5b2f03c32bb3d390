//! Per-chip memory footprint accounting for 2D tensor parallelism.
//!
//! TP exists in the first place because the model no longer fits on one
//! chip (§1): every matrix — weights, activations, gradients, optimizer
//! state — is sharded over the mesh. This module estimates the per-chip
//! HBM footprint of training an LLM with MeshSlice so the autotuner can
//! reject infeasible configurations, and quantifies the §2.2 claim that
//! higher-degree TP shrinks the per-chip weight state (and with it the
//! data-parallel communication volume).

use meshslice_mesh::MeshShape;

use crate::llm::{LlmConfig, TrainingSetup};

/// Byte sizes of the training state classes on one chip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Weight shards of all FC layers (bf16).
    pub weights: u64,
    /// Weight-gradient shards (bf16).
    pub weight_grads: u64,
    /// Optimizer state (fp32 master weights + two Adam moments).
    pub optimizer: u64,
    /// Activation shards that must persist for the backward pass
    /// (one set per transformer block).
    pub activations: u64,
    /// Transient gathered buffers of the largest in-flight MeshSlice
    /// iteration (double-buffered sub-shards of both directions).
    pub workspace: u64,
}

impl MemoryFootprint {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.weight_grads + self.optimizer + self.activations + self.workspace
    }
}

/// Estimates the per-chip training footprint of a model on a mesh with
/// MeshSlice 2D TP and slice count `s`.
///
/// Element sizes follow mixed-precision training practice: bf16 (2 B) for
/// weights/activations/gradients and fp32 (4 B) for the three optimizer
/// tensors (master copy + two Adam moments).
pub fn training_footprint(
    model: &LlmConfig,
    setup: TrainingSetup,
    mesh: MeshShape,
    s: usize,
) -> MemoryFootprint {
    let chips = mesh.num_chips() as u64;
    let bf16 = 2u64;
    let fp32 = 4u64;
    let h = model.hidden as u64;
    let layers = model.layers as u64;
    let tokens = setup.tokens() as u64;

    // FC weights per block: QKV (H x 3H) + Proj (H x H) + FF1 (H x 4H) +
    // FF2 (4H x H) = 12 H^2 with ffn_mult = 4.
    let weight_elems_per_block: u64 = model
        .fc_layers()
        .iter()
        .map(|l| l.input_dim as u64 * l.output_dim as u64)
        .sum();
    let weight_elems = weight_elems_per_block * layers / chips;
    let weights = weight_elems * bf16;
    let weight_grads = weight_elems * bf16;
    let optimizer = weight_elems * fp32 * 3;

    // Persisted activations per block with selective recomputation
    // (Korthikanti et al., the paper's [16]): only the block input and the
    // attention output are checkpointed (~2 H per token per block); the
    // rest is recomputed during the backward pass.
    let act_elems_per_token_block = 2 * h;
    let activations = tokens * act_elems_per_token_block * layers / chips * bf16;

    // Workspace: the gathered A' and B' sub-shards of one MeshSlice
    // iteration, double buffered. Upper bound over the four layers using
    // the largest FC GeMM (FF1): A' is (M/Pr x K/S), B' is (K/S x N/Pc).
    let s = s.max(1) as u64;
    let m_local = tokens / mesh.rows() as u64;
    let k = h;
    let n_local = (model.ffn_mult as u64 * h) / mesh.cols() as u64;
    let gathered = m_local * (k / s) + (k / s) * n_local;
    let workspace = 2 * gathered * bf16;

    MemoryFootprint {
        weights,
        weight_grads,
        optimizer,
        activations,
        workspace,
    }
}

/// Per-chip HBM capacity of the simulated TPUv4, bytes (32 GiB) — the
/// budget serving admission control enforces.
pub const HBM_BYTES: u64 = 32 << 30;

/// Per-chip bytes of KV cache that one token (prompt or generated) pins:
/// a key and a value vector per transformer block (`2 × layers × hidden`
/// elements), sharded over the chips of the serving mesh exactly like the
/// weights they attend against.
pub fn kv_bytes_per_token(model: &LlmConfig, chips: usize, elem_bytes: usize) -> u64 {
    assert!(chips > 0, "KV sharding needs at least one chip");
    2 * model.layers as u64 * model.hidden as u64 * elem_bytes as u64 / chips as u64
}

/// Byte sizes of the *serving* state classes on one chip: no gradients,
/// no optimizer, no persisted activations — just resident weight shards
/// and transient GeMM workspace. Everything left under the HBM capacity
/// is the KV-cache budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferenceFootprint {
    /// Weight shards of all FC layers (bf16).
    pub weights: u64,
    /// Transient gathered buffers of the largest in-flight MeshSlice
    /// iteration at the peak prefill size (double-buffered sub-shards).
    pub workspace: u64,
}

impl InferenceFootprint {
    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.workspace
    }

    /// HBM bytes left for the KV cache on a chip with `hbm_bytes` of HBM;
    /// zero when the weights alone do not fit.
    pub fn kv_budget(&self, hbm_bytes: u64) -> u64 {
        hbm_bytes.saturating_sub(self.total())
    }
}

/// Estimates the per-chip serving footprint of a model on a mesh with
/// MeshSlice 2D TP and slice count `s`, sized for prefill chunks of up to
/// `max_prefill_tokens` tokens (`batch × prompt_len` rows in flight).
pub fn inference_footprint(
    model: &LlmConfig,
    mesh: MeshShape,
    s: usize,
    max_prefill_tokens: usize,
) -> InferenceFootprint {
    let chips = mesh.num_chips() as u64;
    let bf16 = 2u64;
    let h = model.hidden as u64;

    let weight_elems_per_block: u64 = model
        .fc_layers()
        .iter()
        .map(|l| l.input_dim as u64 * l.output_dim as u64)
        .sum();
    let weights = weight_elems_per_block * model.layers as u64 / chips * bf16;

    // Same workspace bound as `training_footprint`: the gathered A' and B'
    // sub-shards of one MeshSlice iteration of the largest FC GeMM (FF1),
    // double buffered, at the peak prefill row count.
    let s = s.max(1) as u64;
    let m_local = max_prefill_tokens as u64 / mesh.rows() as u64;
    let n_local = (model.ffn_mult as u64 * h) / mesh.cols() as u64;
    let gathered = m_local * (h / s) + (h / s) * n_local;
    let workspace = 2 * gathered * bf16;

    InferenceFootprint { weights, workspace }
}

/// The per-chip data-parallel gradient traffic per step: with `tp_degree`
/// chips per replica, each chip holds `1/tp_degree` of the weights and the
/// DP all-reduce moves `2 × (R−1)/R × weight_bytes/tp_degree` over `R`
/// replicas (§2.2's argument that wider TP shrinks DP traffic).
pub fn dp_traffic_per_chip(
    model: &LlmConfig,
    tp_degree: usize,
    dp_replicas: usize,
    elem_bytes: usize,
) -> u64 {
    let weight_elems: u64 = model
        .fc_layers()
        .iter()
        .map(|l| l.input_dim as u64 * l.output_dim as u64)
        .sum::<u64>()
        * model.layers as u64;
    let shard = weight_elems * elem_bytes as u64 / tp_degree as u64;
    if dp_replicas <= 1 {
        return 0;
    }
    // Ring all-reduce = reduce-scatter + all-gather.
    2 * shard * (dp_replicas as u64 - 1) / dp_replicas as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3() -> (LlmConfig, TrainingSetup) {
        (LlmConfig::gpt3(), TrainingSetup::weak_scaling(256))
    }

    #[test]
    fn gpt3_fits_on_256_tpus_but_not_on_8() {
        let (model, setup) = gpt3();
        let big = training_footprint(&model, setup, MeshShape::new(32, 8), 16);
        // TPUv4 has 32 GiB of HBM.
        let hbm = 32u64 << 30;
        assert!(
            big.total() < hbm,
            "GPT-3 on 256 chips needs {} bytes",
            big.total()
        );
        let small = training_footprint(
            &model,
            TrainingSetup {
                batch: 4,
                seq_len: 2048,
            },
            MeshShape::new(4, 2),
            16,
        );
        assert!(
            small.total() > hbm,
            "GPT-3 on 8 chips should not fit, got {} bytes",
            small.total()
        );
    }

    #[test]
    fn optimizer_state_dominates_weights() {
        // fp32 master + 2 moments = 6x the bf16 weights.
        let (model, setup) = gpt3();
        let f = training_footprint(&model, setup, MeshShape::new(32, 8), 8);
        assert_eq!(f.optimizer, 6 * f.weights);
    }

    #[test]
    fn finer_slicing_shrinks_workspace() {
        let (model, setup) = gpt3();
        let coarse = training_footprint(&model, setup, MeshShape::new(32, 8), 1);
        let fine = training_footprint(&model, setup, MeshShape::new(32, 8), 16);
        assert!(fine.workspace < coarse.workspace);
        // Everything else is unaffected by S.
        assert_eq!(fine.weights, coarse.weights);
        assert_eq!(fine.activations, coarse.activations);
    }

    #[test]
    fn wider_tp_shrinks_dp_traffic_as_in_section_2_2() {
        // §2.2: replacing 8-way 1D TP with 128-way 2D TP makes the
        // per-chip DP traffic 16x smaller at the same replica count.
        let model = LlmConfig::gpt3();
        let t8 = dp_traffic_per_chip(&model, 8, 128, 2);
        let t128 = dp_traffic_per_chip(&model, 128, 128, 2);
        let ratio = t8 as f64 / t128 as f64;
        assert!((ratio - 16.0).abs() < 0.01, "ratio {ratio}");
        assert_eq!(dp_traffic_per_chip(&model, 8, 1, 2), 0);
    }

    #[test]
    fn serving_footprint_is_weights_plus_workspace_only() {
        let model = LlmConfig::gpt3();
        let mesh = MeshShape::new(4, 4);
        let f = inference_footprint(&model, mesh, 8, 4096);
        let t = training_footprint(
            &model,
            TrainingSetup {
                batch: 2,
                seq_len: 2048,
            },
            mesh,
            8,
        );
        assert_eq!(f.weights, t.weights);
        assert_eq!(f.workspace, t.workspace);
        // GPT-3 weights alone fit 16 chips but leave room for KV cache.
        assert!(f.total() < HBM_BYTES, "{} GiB", f.total() >> 30);
        assert!(f.kv_budget(HBM_BYTES) > 4 << 30);
        // Weights that do not fit leave a zero budget, not an underflow.
        let tiny = inference_footprint(&model, MeshShape::new(2, 2), 8, 4096);
        assert_eq!(tiny.kv_budget(HBM_BYTES), 0);
    }

    #[test]
    fn kv_bytes_shard_over_chips() {
        let model = LlmConfig::gpt3();
        // 2 (K,V) x 96 layers x 12288 hidden x 2 B = 4.5 MiB per token,
        // split over the mesh.
        assert_eq!(kv_bytes_per_token(&model, 1, 2), 4_718_592);
        assert_eq!(
            kv_bytes_per_token(&model, 16, 2),
            kv_bytes_per_token(&model, 1, 2) / 16
        );
    }

    #[test]
    fn footprint_scales_inversely_with_chips() {
        let (model, setup) = gpt3();
        let on64 = training_footprint(&model, setup, MeshShape::new(8, 8), 8);
        let on256 = training_footprint(&model, setup, MeshShape::new(16, 16), 8);
        assert!(on256.weights * 4 == on64.weights);
        assert!(on256.total() < on64.total());
    }
}
