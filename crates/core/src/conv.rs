//! Convolution layers as distributed GeMMs (§6 extension).
//!
//! The paper notes MeshSlice "can also be applied to other types of DNN
//! layers. One example is a convolution layer, which can be implemented as
//! a GeMM operation" (via im2col, the cuDNN lowering). This module maps a
//! 2D convolution to the equivalent GeMM problem so the whole MeshSlice
//! stack — algorithms, autotuner, simulator — applies unchanged.

use meshslice_tensor::GemmShape;

/// A 2D convolution layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size (e.g. 3 for 3×3).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
}

impl Conv2d {
    /// A `kernel × kernel` convolution with stride 1 and "same" padding.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (no symmetric same-padding exists).
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output spatial extent for an input extent.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub(crate) fn output_extent(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {padded}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// The im2col GeMM of this convolution on a batch of `batch` images of
    /// `height × width` pixels:
    ///
    /// - `M` = batch × output pixels (each output pixel is a GeMM row),
    /// - `K` = in_channels × kernel² (the unrolled receptive field),
    /// - `N` = out_channels.
    pub fn as_gemm(&self, batch: usize, height: usize, width: usize) -> GemmShape {
        let oh = self.output_extent(height);
        let ow = self.output_extent(width);
        GemmShape::new(
            batch * oh * ow,
            self.out_channels,
            self.in_channels * self.kernel * self.kernel,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_convolution_preserves_extent() {
        let c = Conv2d::same(64, 128, 3);
        assert_eq!(c.output_extent(56), 56);
        assert_eq!(c.padding, 1);
    }

    #[test]
    fn strided_convolution_halves_extent() {
        let c = Conv2d {
            in_channels: 3,
            out_channels: 64,
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        assert_eq!(c.output_extent(224), 112);
    }

    #[test]
    fn resnet_conv3x3_gemm_shape() {
        // ResNet-50's 56x56x64 3x3 stage on a batch of 32.
        let c = Conv2d::same(64, 64, 3);
        let g = c.as_gemm(32, 56, 56);
        assert_eq!(g.m, 32 * 56 * 56);
        assert_eq!(g.n, 64);
        assert_eq!(g.k, 64 * 9);
    }

    #[test]
    fn one_by_one_convolution_is_a_plain_gemm() {
        let c = Conv2d::same(256, 512, 1);
        let g = c.as_gemm(8, 14, 14);
        assert_eq!(g.k, 256);
        assert_eq!(g.flops(), 2 * (8 * 14 * 14) as u64 * 512 * 256);
    }

    #[test]
    fn im2col_inflates_input_by_kernel_area() {
        // The im2col-expanded input (the `A` matrix) is kernel²/stride²
        // times the raw activation.
        let c = Conv2d::same(64, 64, 3);
        let raw = (32 * 56 * 56 * 64 * 2) as u64;
        assert_eq!(c.as_gemm(32, 56, 56).a_bytes(2), raw * 9);
    }

    #[test]
    fn conv_gemm_runs_through_the_distributed_stack() {
        // The mapped GeMM is an ordinary problem for MeshSlice.
        use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, MeshSlice};
        use meshslice_mesh::Torus2d;
        let c = Conv2d::same(8, 16, 3);
        let shape = c.as_gemm(1, 8, 8); // 64 x 16 x 72
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(shape.m, shape.n, shape.k), Dataflow::Os);
        let algo = MeshSlice::new(3, 2); // K/Pc = 36 = 3*2*6
        let (a, b) = problem.random_inputs(&mesh, 1);
        let out = algo.execute(&mesh, problem, &a, &b).unwrap();
        let reference = problem.reference(&a.assemble(), &b.assemble());
        assert!(out.assemble().approx_eq(&reference, 1e-4));
    }
}
