//! Simulator configuration and the per-chip compute model.

use meshslice_tensor::GemmShape;

use crate::perturb::ClusterProfile;
use crate::time::Duration;

/// How the chips are interconnected.
///
/// The paper evaluates a *physical* 2D torus (TPU ICI links); §6 discusses
/// applying MeshSlice to GPU clusters by building a *logical* mesh on top
/// of a switched network, where ring collectives lose their
/// contention-freedom: all transfers share the fabric's bisection
/// bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkModel {
    /// Dedicated neighbor links (a physical 2D torus). Ring collectives
    /// see no network contention.
    PhysicalTorus,
    /// A logical mesh over a switched fabric: every in-flight transfer
    /// additionally competes for the fabric's total bisection bandwidth
    /// (bytes/s), fluid-shared like HBM.
    SharedFabric {
        /// Aggregate bandwidth available to all concurrent transfers.
        bisection_bandwidth: f64,
    },
}

/// Hardware parameters of the simulated cluster.
///
/// The defaults ([`SimConfig::tpu_v4`]) model Google's TPUv4 as described in
/// §4.1 of the paper: 272 TFLOPS of matrix compute per chip (the utilization
/// denominator used in §5.1), four ICI links per chip, and a shared HBM.
/// The synchronization / launch constants play the role of the offline
/// measurements the paper's cost model is calibrated from (§4.5).
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Peak matrix-multiply throughput per chip, FLOP/s.
    pub peak_flops: f64,
    /// Fraction of peak a large, well-shaped GeMM achieves.
    pub compute_efficiency: f64,
    /// Systolic array dimension (128 on TPUv4); controls the efficiency
    /// loss of small or ragged GeMM operands.
    pub systolic_dim: usize,
    /// Bandwidth of one ICI link direction, bytes/s.
    pub link_bandwidth: f64,
    /// HBM bandwidth shared by the compute cores and the NIC, bytes/s.
    pub hbm_bandwidth: f64,
    /// Bytes per matrix element (2 for bf16 training).
    pub elem_bytes: usize,
    /// Neighbor synchronization latency paid by every ring step.
    pub t_sync: Duration,
    /// Overhead of launching one communication operation.
    pub t_launch: Duration,
    /// Overhead of launching one compute or slicing kernel.
    pub t_kernel_launch: Duration,
    /// Number of fine-grain packets a SUMMA broadcast/reduce pipelines
    /// over the ring (the `D` of Figure 3).
    pub summa_packets: usize,
    /// When `false`, AG/RdS collectives (and all other communication) may
    /// not overlap with computation on the same chip — the behaviour of
    /// real TPUv4 clusters in §5.3, where the Jax compiler serializes
    /// collectives against dependent computation.
    pub overlap_collectives: bool,
    /// The interconnect model (physical torus vs shared fabric).
    pub network: NetworkModel,
    /// Optional cluster-variability profile: per-chip compute slowdowns,
    /// degraded links, and transient link outages. `None` (the default)
    /// simulates the ideal cluster; an
    /// [ideal profile](ClusterProfile::is_ideal) behaves identically.
    pub faults: Option<ClusterProfile>,
}

impl SimConfig {
    /// The TPUv4 cluster model used throughout the paper's evaluation.
    pub fn tpu_v4() -> Self {
        SimConfig {
            peak_flops: 272e12,
            compute_efficiency: 0.85,
            systolic_dim: 128,
            link_bandwidth: 65e9,
            hbm_bandwidth: 1.2e12,
            elem_bytes: 2,
            t_sync: Duration::from_micros(2.0),
            t_launch: Duration::from_micros(5.0),
            t_kernel_launch: Duration::from_micros(1.0),
            summa_packets: 16,
            overlap_collectives: true,
            network: NetworkModel::PhysicalTorus,
            faults: None,
        }
    }

    /// Returns this configuration with the given variability profile
    /// installed.
    pub fn with_faults(self, profile: ClusterProfile) -> Self {
        SimConfig {
            faults: Some(profile),
            ..self
        }
    }

    /// A GPU-cluster-like configuration (§6): the 2D mesh is *logical*,
    /// mapped onto a switched fabric whose bisection bandwidth all
    /// transfers share. Per-NIC injection bandwidth stays at the link
    /// rate.
    pub fn gpu_logical_mesh(bisection_bandwidth: f64) -> Self {
        SimConfig {
            network: NetworkModel::SharedFabric {
                bisection_bandwidth,
            },
            ..SimConfig::tpu_v4()
        }
    }

    /// The real 4×4 TPUv4 cloud cluster of §5.3: collectives cannot overlap
    /// with computation, and only the uni-directional half of each
    /// bi-directional ICI link is utilized.
    pub fn tpu_v4_real_hw() -> Self {
        SimConfig {
            link_bandwidth: 32.5e9,
            overlap_collectives: false,
            ..SimConfig::tpu_v4()
        }
    }

    /// Effective FLOP/s for a local GeMM of the given shape.
    ///
    /// Combines the large-GeMM efficiency with two systolic-array effects:
    /// padding of `m` and `n` to multiples of the array dimension, and the
    /// pipeline-fill penalty of a short contraction (`k`) dimension. The
    /// latter is what makes very fine slicing (`large S`) less efficient on
    /// the compute side, as the paper observes on real hardware (§5.3.1).
    pub(crate) fn effective_flops(&self, shape: GemmShape) -> f64 {
        let d = self.systolic_dim as f64;
        let pad = |x: usize| {
            let x = x as f64;
            x / ((x / d).ceil() * d)
        };
        let k = shape.k as f64;
        let fill = k / (k + d / 2.0);
        self.peak_flops * self.compute_efficiency * pad(shape.m) * pad(shape.n) * fill
    }

    /// Time the systolic arrays need for a local GeMM (excluding HBM
    /// streaming and kernel launch).
    pub fn gemm_flop_time(&self, shape: GemmShape) -> Duration {
        Duration::from_secs(shape.flops() as f64 / self.effective_flops(shape))
    }

    /// HBM bytes a local GeMM streams: read `A` and `B`, read-modify-write
    /// `C` (the accumulating output of a partial GeMM).
    pub(crate) fn gemm_hbm_bytes(&self, shape: GemmShape) -> u64 {
        shape.a_bytes(self.elem_bytes)
            + shape.b_bytes(self.elem_bytes)
            + 2 * shape.c_bytes(self.elem_bytes)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::tpu_v4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_gemm_runs_near_peak() {
        let cfg = SimConfig::tpu_v4();
        let shape = GemmShape::new(8192, 8192, 8192);
        let eff = cfg.effective_flops(shape) / cfg.peak_flops;
        assert!(eff > 0.8, "large GeMM efficiency {eff}");
    }

    #[test]
    fn ragged_gemm_loses_efficiency() {
        let cfg = SimConfig::tpu_v4();
        let good = cfg.effective_flops(GemmShape::new(1024, 1024, 1024));
        let ragged = cfg.effective_flops(GemmShape::new(1024 + 1, 1024, 1024));
        assert!(ragged < good);
    }

    #[test]
    fn short_k_pays_pipeline_fill() {
        let cfg = SimConfig::tpu_v4();
        let long_k = cfg.effective_flops(GemmShape::new(1024, 1024, 8192));
        let short_k = cfg.effective_flops(GemmShape::new(1024, 1024, 128));
        assert!(short_k < 0.8 * long_k);
    }

    #[test]
    fn flop_time_scales_linearly() {
        let cfg = SimConfig::tpu_v4();
        let t1 = cfg.gemm_flop_time(GemmShape::new(1024, 1024, 1024));
        let t2 = cfg.gemm_flop_time(GemmShape::new(2048, 1024, 1024));
        let ratio = t2.as_secs() / t1.as_secs();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn hbm_bytes_count_c_twice() {
        let cfg = SimConfig::tpu_v4();
        let s = GemmShape::new(4, 8, 2);
        assert_eq!(cfg.gemm_hbm_bytes(s), (4 * 2 + 2 * 8 + 2 * 4 * 8) * 2);
    }

    #[test]
    fn real_hw_preset_disables_overlap() {
        let cfg = SimConfig::tpu_v4_real_hw();
        assert!(!cfg.overlap_collectives);
        assert!(cfg.link_bandwidth < SimConfig::tpu_v4().link_bandwidth);
    }
}
