//! LLM model descriptions and their fully-connected-layer GeMMs (§4.4).
//!
//! A transformer block has four FC layers — two in multi-head attention
//! (the fused QKV projection and the output projection) and two in the
//! feed-forward network. Training each FC layer runs three GeMMs (forward,
//! backward-data, backward-weight), so one block contributes twelve GeMMs;
//! deduplicated up to transposition they form the eight distinct shapes
//! per model of the paper's Figure 11.
//!
//! Non-FC operations (attention scores/softmax, layer norms, elementwise)
//! are communication-free and identical across the distributed GeMM
//! algorithms; [`LlmConfig::non_fc_block_time`] models their per-block
//! cost analytically (the paper benchmarks them on a single real TPU),
//! which is what converts FC-layer speedups into end-to-end speedups.

use std::fmt;

use meshslice_sim::{Duration, SimConfig};
use meshslice_tensor::GemmShape;

/// An LLM architecture (the subset that determines FC-layer GeMM shapes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LlmConfig {
    /// Model name for reports.
    pub name: String,
    /// Hidden dimension `H` (= heads × per-head dim).
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Feed-forward expansion factor (4 in GPT-style models).
    pub ffn_mult: usize,
}

/// One of the four FC layers of a transformer block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FcLayer {
    /// Layer name (`"QKV"`, `"Proj"`, `"FF1"`, `"FF2"`).
    pub name: &'static str,
    /// Input feature dimension.
    pub input_dim: usize,
    /// Output feature dimension.
    pub output_dim: usize,
}

/// Which of the three training GeMMs of an FC layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// `Y = X·W`.
    Forward,
    /// `X' = Y'·Wᵀ`.
    BackwardData,
    /// `W' = Xᵀ·Y'`.
    BackwardWeight,
}

impl Pass {
    /// All three passes, in execution order.
    pub const ALL: [Pass; 3] = [Pass::Forward, Pass::BackwardData, Pass::BackwardWeight];
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Forward => write!(f, "fwd"),
            Pass::BackwardData => write!(f, "bwd-data"),
            Pass::BackwardWeight => write!(f, "bwd-weight"),
        }
    }
}

/// Global batch size and sequence length of a training run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrainingSetup {
    /// Global batch size (sequences per step).
    pub batch: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
}

impl TrainingSetup {
    /// The paper's weak-scaling configuration: batch = chips / 2,
    /// sequence length 2048 (following Megatron-NLG).
    ///
    /// # Panics
    ///
    /// Panics if `chips < 2`.
    pub fn weak_scaling(chips: usize) -> Self {
        assert!(chips >= 2, "weak scaling needs at least 2 chips");
        TrainingSetup {
            batch: chips / 2,
            seq_len: 2048,
        }
    }

    /// The strong-scaling configuration of Figure 12: batch fixed at 32.
    pub fn strong_scaling() -> Self {
        TrainingSetup {
            batch: 32,
            seq_len: 2048,
        }
    }

    /// Total tokens per step, `batch × seq_len` (the `M` of FC GeMMs).
    pub fn tokens(&self) -> usize {
        self.batch * self.seq_len
    }
}

/// One FC-layer GeMM of a training step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FcGemm {
    /// The FC layer.
    pub layer: FcLayer,
    /// Forward / backward-data / backward-weight.
    pub pass: Pass,
    /// The raw `(M, N, K)` of this pass.
    pub shape: GemmShape,
}

impl LlmConfig {
    /// OpenAI GPT-3 (175B parameters): 96 layers, hidden 12288, 96 heads.
    pub fn gpt3() -> Self {
        LlmConfig {
            name: "GPT-3".to_string(),
            hidden: 12288,
            heads: 96,
            layers: 96,
            ffn_mult: 4,
        }
    }

    /// A deliberately tiny model (hidden 256, 2 layers) that fits a
    /// handful of simulated chips: the standard smoke-test workload of
    /// the unit tests, CI serving smoke steps, and `--model tiny`.
    pub fn tiny() -> Self {
        LlmConfig {
            name: "tiny".to_string(),
            hidden: 256,
            heads: 4,
            layers: 2,
            ffn_mult: 4,
        }
    }

    /// NVIDIA Megatron-NLG (530B parameters): 105 layers, hidden 20480,
    /// 128 heads.
    pub fn megatron_nlg() -> Self {
        LlmConfig {
            name: "Megatron-NLG".to_string(),
            hidden: 20480,
            heads: 128,
            layers: 105,
            ffn_mult: 4,
        }
    }

    /// The four FC layers of one transformer block.
    pub fn fc_layers(&self) -> [FcLayer; 4] {
        let h = self.hidden;
        [
            FcLayer {
                name: "QKV",
                input_dim: h,
                output_dim: 3 * h,
            },
            FcLayer {
                name: "Proj",
                input_dim: h,
                output_dim: h,
            },
            FcLayer {
                name: "FF1",
                input_dim: h,
                output_dim: self.ffn_mult * h,
            },
            FcLayer {
                name: "FF2",
                input_dim: self.ffn_mult * h,
                output_dim: h,
            },
        ]
    }

    /// Approximate parameter count: FC weights (`12·H²` per block with
    /// `ffn_mult = 4`) times layers, plus a vocabulary embedding estimate.
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let per_block = (3 + 1 + 2 * self.ffn_mult as u64) * h * h;
        per_block * self.layers as u64 + 50_000 * h
    }

    /// The four forward-only FC GeMMs of one *decode* step of
    /// autoregressive inference: each of `batch` sequences contributes a
    /// single token, so `M = batch` and the GeMMs are tall-thin and
    /// memory-bound — every decode step must stream the full weight
    /// shards from HBM (§6).
    pub fn decode_gemms(&self, batch: usize) -> Vec<FcGemm> {
        self.fc_layers()
            .into_iter()
            .map(|layer| FcGemm {
                layer,
                pass: Pass::Forward,
                shape: GemmShape::new(batch, layer.output_dim, layer.input_dim),
            })
            .collect()
    }

    /// The four forward-only FC GeMMs of the *prefill* phase of
    /// inference: the whole prompt is processed in one pass, so
    /// `M = batch × prompt_len` and the GeMMs are as compute-bound as
    /// training forward passes — the opposite regime from
    /// [`decode_gemms`](Self::decode_gemms), which is why a serving
    /// simulator must price the two phases separately.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `prompt_len` is zero.
    pub fn prefill_gemms(&self, batch: usize, prompt_len: usize) -> Vec<FcGemm> {
        assert!(batch > 0, "prefill batch must be positive");
        assert!(prompt_len > 0, "prompt length must be positive");
        let tokens = batch * prompt_len;
        self.fc_layers()
            .into_iter()
            .map(|layer| FcGemm {
                layer,
                pass: Pass::Forward,
                shape: GemmShape::new(tokens, layer.output_dim, layer.input_dim),
            })
            .collect()
    }

    /// The twelve FC GeMMs of one transformer block for a training setup
    /// (four layers × three passes), in execution order.
    pub fn fc_gemms(&self, setup: TrainingSetup) -> Vec<FcGemm> {
        let tokens = setup.tokens();
        let mut out = Vec::with_capacity(12);
        for layer in self.fc_layers() {
            let fwd = GemmShape::new(tokens, layer.output_dim, layer.input_dim);
            for pass in Pass::ALL {
                let shape = match pass {
                    Pass::Forward => fwd,
                    Pass::BackwardData => fwd.backward_data(),
                    Pass::BackwardWeight => fwd.backward_weight(),
                };
                out.push(FcGemm { layer, pass, shape });
            }
        }
        out
    }

    /// The distinct FC GeMM shapes, deduplicated up to transposition
    /// (`(M, N, K)` ~ `(N, M, K)`) — eight per model, as in Figure 11.
    pub(crate) fn distinct_gemms(&self, setup: TrainingSetup) -> Vec<GemmShape> {
        let mut seen = Vec::new();
        for g in self.fc_gemms(setup) {
            let canon = if g.shape.m <= g.shape.n {
                g.shape
            } else {
                g.shape.transposed()
            };
            if !seen.contains(&canon) {
                seen.push(canon);
            }
        }
        seen
    }

    /// Analytical per-block time of the non-FC operations on `chips`
    /// accelerators, covering forward and backward.
    ///
    /// Modeled as (a) the attention score and attention-value batched
    /// GeMMs (`2 × 2·tokens·S·H` FLOPs per block and direction) at a
    /// reduced efficiency — they are small and memory-bound compared to FC
    /// GeMMs — plus (b) elementwise/softmax/norm HBM traffic over the
    /// activations (`c₁·tokens·H` elements) and the attention maps
    /// (`c₂·batch·heads·S²` elements). The constants stand in for the
    /// single-TPU benchmarks of §4.4.
    pub fn non_fc_block_time(
        &self,
        setup: TrainingSetup,
        chips: usize,
        cfg: &SimConfig,
    ) -> Duration {
        let tokens = setup.tokens() as f64;
        let h = self.hidden as f64;
        let s = setup.seq_len as f64;
        let chips = chips as f64;
        // Attention GeMMs, forward + backward (backward re-runs both).
        let attn_flops = 3.0 * 4.0 * tokens * s * h / chips;
        let attn_eff = 0.30;
        let attn_time = attn_flops / (cfg.peak_flops * attn_eff);
        // Elementwise + normalization traffic: roughly 30 activation
        // touches per token per block, and 12 touches of the attention
        // map, at `elem_bytes` each.
        let act_bytes = 30.0 * tokens * h * cfg.elem_bytes as f64 / chips;
        let map_bytes =
            12.0 * (setup.batch as f64) * (self.heads as f64) * s * s * cfg.elem_bytes as f64
                / chips;
        let mem_time = (act_bytes + map_bytes) / cfg.hbm_bandwidth;
        Duration::from_secs(attn_time + mem_time)
    }
}

impl fmt::Display for LlmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (H={}, {} layers, {} heads)",
            self.name, self.hidden, self.layers, self.heads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_parameters_are_about_175b() {
        let p = LlmConfig::gpt3().param_count() as f64;
        assert!((p - 175e9).abs() / 175e9 < 0.05, "params {p}");
    }

    #[test]
    fn megatron_parameters_are_about_530b() {
        let p = LlmConfig::megatron_nlg().param_count() as f64;
        assert!((p - 530e9).abs() / 530e9 < 0.05, "params {p}");
    }

    #[test]
    fn four_fc_layers_with_gpt_dimensions() {
        let m = LlmConfig::gpt3();
        let layers = m.fc_layers();
        assert_eq!(layers[0].output_dim, 3 * 12288);
        assert_eq!(layers[3].input_dim, 4 * 12288);
    }

    #[test]
    fn twelve_gemms_per_block() {
        let m = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(64);
        assert_eq!(m.fc_gemms(setup).len(), 12);
    }

    #[test]
    fn eight_distinct_gemm_shapes() {
        // The paper: "there are eight distinct GeMM operations with
        // different M, N, K matrix shapes" per model.
        let setup = TrainingSetup::weak_scaling(256);
        assert_eq!(LlmConfig::gpt3().distinct_gemms(setup).len(), 8);
        assert_eq!(LlmConfig::megatron_nlg().distinct_gemms(setup).len(), 8);
    }

    #[test]
    fn all_passes_share_flops() {
        let m = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(16);
        for chunk in m.fc_gemms(setup).chunks(3) {
            assert_eq!(chunk[0].shape.flops(), chunk[1].shape.flops());
            assert_eq!(chunk[0].shape.flops(), chunk[2].shape.flops());
        }
    }

    #[test]
    fn prefill_gemms_scale_with_prompt_tokens() {
        let m = LlmConfig::gpt3();
        let prefill = m.prefill_gemms(8, 512);
        let decode = m.decode_gemms(8);
        assert_eq!(prefill.len(), 4);
        for (p, d) in prefill.iter().zip(&decode) {
            assert_eq!(p.layer, d.layer);
            assert_eq!(p.pass, Pass::Forward);
            // Same weights, 512x the activation rows.
            assert_eq!(p.shape.m, 512 * d.shape.m);
            assert_eq!((p.shape.n, p.shape.k), (d.shape.n, d.shape.k));
        }
    }

    #[test]
    #[should_panic(expected = "prompt length")]
    fn zero_prompt_len_panics() {
        LlmConfig::gpt3().prefill_gemms(8, 0);
    }

    #[test]
    fn weak_scaling_batch_tracks_chips() {
        assert_eq!(TrainingSetup::weak_scaling(256).batch, 128);
        assert_eq!(TrainingSetup::weak_scaling(256).tokens(), 128 * 2048);
        assert_eq!(TrainingSetup::strong_scaling().batch, 32);
    }

    #[test]
    fn discussion_example_ff2_shape_matches_paper() {
        // §7: GPT-3 FC layer with (M, N, K) = (1024K, 12K, 48K) on 1024
        // chips under weak scaling — that is FF2's forward GeMM.
        let m = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(1024);
        let ff2 = &m.fc_gemms(setup)[9]; // FF2 forward
        assert_eq!(ff2.layer.name, "FF2");
        assert_eq!(ff2.shape, GemmShape::new(1024 * 1024, 12288, 4 * 12288));
    }

    #[test]
    fn non_fc_time_is_a_modest_fraction_of_fc_time() {
        let m = LlmConfig::gpt3();
        let setup = TrainingSetup::weak_scaling(256);
        let cfg = SimConfig::tpu_v4();
        let non_fc = m.non_fc_block_time(setup, 256, &cfg).as_secs();
        // Ideal FC compute time per block per chip:
        let fc: u64 = m.fc_gemms(setup).iter().map(|g| g.shape.flops()).sum();
        let fc_time = fc as f64 / 256.0 / (cfg.peak_flops * 0.75);
        let ratio = non_fc / fc_time;
        assert!(
            (0.05..0.4).contains(&ratio),
            "non-FC / FC ratio {ratio} out of plausible range"
        );
    }
}
