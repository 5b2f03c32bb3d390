//! Wang et al.'s overlapped 2D GeMM (the state-of-the-art baseline).
//!
//! Wang decomposes the collective communication of **one** mesh direction
//! into SendRecv exchanges that software-pipeline with partial GeMMs; the
//! other direction's collective stays whole and is exposed as a prologue
//! (AllGather) or epilogue (ReduceScatter). Decomposing *both* directions
//! would require Cannon's algorithm, with its square-mesh and skew costs —
//! the gap MeshSlice closes.
//!
//! The paper applies loop unrolling to Wang so that its iteration count
//! matches MeshSlice's tuned slice count; [`Wang::with_unroll`] models
//! this by merging adjacent partial GeMMs.

use meshslice_mesh::{ChipId, CommAxis, Coord, Torus2d};
use meshslice_sim::{CollectiveKind, OpId};
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::{ensure_divides, GemmError};
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// Which direction's collective Wang decomposes into SendRecv exchanges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WangOverlap {
    /// Pick the direction with the larger traffic cost (hide the big one).
    #[default]
    Auto,
    /// Overlap the inter-row (vertical) communication.
    InterRow,
    /// Overlap the inter-column (horizontal) communication.
    InterCol,
}

/// Wang et al.'s algorithm.
///
/// # Example
///
/// ```
/// use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, Wang};
/// use meshslice_mesh::Torus2d;
/// use meshslice_tensor::GemmShape;
///
/// # fn main() -> Result<(), meshslice_gemm::GemmError> {
/// let mesh = Torus2d::new(2, 2);
/// let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
/// let (a, b) = problem.random_inputs(&mesh, 11);
/// let c = Wang::new().execute(&mesh, problem, &a, &b)?;
/// assert!(c.assemble().approx_eq(&problem.reference(&a.assemble(), &b.assemble()), 1e-4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Wang {
    overlap: WangOverlap,
    unroll: Option<usize>,
}

impl Wang {
    /// Wang with automatic overlap-direction selection and full
    /// decomposition (one GeMM per arrival).
    pub fn new() -> Self {
        Wang::default()
    }

    /// Sets the overlap direction explicitly.
    pub fn with_overlap(overlap: WangOverlap) -> Self {
        Wang {
            overlap,
            unroll: None,
        }
    }

    /// Merges the partial GeMMs into `groups` unrolled groups (must divide
    /// the overlapped ring length, otherwise full decomposition is used).
    pub fn with_unroll(mut self, groups: usize) -> Self {
        assert!(groups > 0, "unroll group count must be positive");
        self.unroll = Some(groups);
        self
    }

    /// Resolves the overlap axis for a problem on a mesh.
    ///
    /// For `Auto`, the decomposed (hidden) direction is the one whose ring
    /// collective moves more bytes: `(P − 1) × shard_bytes` per §2.3.1.
    pub(crate) fn resolve_overlap(&self, mesh: &Torus2d, problem: GemmProblem) -> CommAxis {
        match self.overlap {
            WangOverlap::InterRow => CommAxis::InterRow,
            WangOverlap::InterCol => CommAxis::InterCol,
            WangOverlap::Auto => {
                let cost = |axis: CommAxis| -> u64 {
                    let len = mesh.ring_len(axis) as u64;
                    let bytes = [
                        (problem.a_axis(), problem.a_shard_bytes(mesh.shape(), 1)),
                        (problem.b_axis(), problem.b_shard_bytes(mesh.shape(), 1)),
                        (problem.c_axis(), problem.c_shard_bytes(mesh.shape(), 1)),
                    ]
                    .into_iter()
                    .filter(|(ax, _)| *ax == Some(axis))
                    .map(|(_, b)| b)
                    .sum::<u64>();
                    (len - 1) * bytes
                };
                if cost(CommAxis::InterRow) >= cost(CommAxis::InterCol) {
                    CommAxis::InterRow
                } else {
                    CommAxis::InterCol
                }
            }
        }
    }

    pub(crate) fn groups_for(&self, ring: usize) -> usize {
        match self.unroll {
            Some(g) if g <= ring && ring.is_multiple_of(g) => g,
            _ => ring,
        }
    }
}

impl DistributedGemm for Wang {
    fn name(&self) -> &str {
        "Wang"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        problem.check_divisible(mesh.shape())?;
        let overlap = self.resolve_overlap(mesh, problem);
        // The rotated panels further split one dimension by the ring
        // length of the overlapped direction.
        let ring = mesh.ring_len(overlap);
        match (problem.dataflow, overlap) {
            (Dataflow::Os, CommAxis::InterCol) => {
                ensure_divides("K by Pc (Wang panels)", problem.shape.k, mesh.cols())?;
            }
            (Dataflow::Os, CommAxis::InterRow) => {
                ensure_divides("K by Pr (Wang panels)", problem.shape.k, mesh.rows())?;
            }
            (Dataflow::Ls, CommAxis::InterCol) => {
                ensure_divides("N by Pc (Wang panels)", problem.shape.n, mesh.cols())?;
            }
            (Dataflow::Ls, CommAxis::InterRow) => {
                ensure_divides("N by Pr (Wang panels)", problem.shape.n, mesh.rows())?;
            }
            (Dataflow::Rs, CommAxis::InterRow) => {
                ensure_divides("M by Pr (Wang panels)", problem.shape.m, mesh.rows())?;
            }
            (Dataflow::Rs, CommAxis::InterCol) => {
                ensure_divides("M by Pc (Wang panels)", problem.shape.m, mesh.cols())?;
            }
        }
        let _ = ring;
        Ok(())
    }

    fn emit(
        &self,
        pb: &mut PlanBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Reg, GemmError> {
        let mesh = &pb.mesh().clone();
        self.check(mesh, problem)?;
        let overlap = self.resolve_overlap(mesh, problem);
        let exposed = overlap.opposite();
        let ring = mesh.ring_len(overlap);
        let shape = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let ms = mesh.shape();
        let a_bytes = problem.a_shard_bytes(ms, elem_bytes);
        let b_bytes = problem.b_shard_bytes(ms, elem_bytes);
        let c_bytes = problem.c_shard_bytes(ms, elem_bytes);
        let sr_dir = overlap.forward_link();

        // The rotation either carries an input shard towards the partial
        // GeMMs, or carries the C accumulator of a compute-interleaved ring
        // reduce-scatter (the LS/RS variants where the reduction direction
        // is the overlapped one).
        let ring_reduce_rotation = matches!(
            (problem.dataflow, overlap),
            (Dataflow::Ls, CommAxis::InterCol) | (Dataflow::Rs, CommAxis::InterRow)
        );
        // Unrolling chunked accumulators is not modeled; it only applies
        // to the input-rotation variants.
        let groups = if ring_reduce_rotation {
            ring
        } else {
            self.groups_for(ring)
        };
        let per_group = ring / groups;

        // Per-arrival (rotated) GeMM shape, rotated payload bytes, and
        // whether an exposed ReduceScatter follows the loop.
        let (panel_shape, rot_bytes, rds_after): (GemmShape, u64, bool) =
            match (problem.dataflow, overlap) {
                (Dataflow::Os, CommAxis::InterCol) => (
                    GemmShape::new(shape.m / pr, shape.n / pc, shape.k / pc),
                    a_bytes,
                    false,
                ),
                (Dataflow::Os, CommAxis::InterRow) => (
                    GemmShape::new(shape.m / pr, shape.n / pc, shape.k / pr),
                    b_bytes,
                    false,
                ),
                (Dataflow::Ls, CommAxis::InterCol) => (
                    GemmShape::new(shape.m / pr, shape.n / pc, shape.k / pc),
                    c_bytes,
                    false,
                ),
                (Dataflow::Rs, CommAxis::InterRow) => (
                    GemmShape::new(shape.m / pr, shape.n / pc, shape.k / pr),
                    c_bytes,
                    false,
                ),
                (Dataflow::Ls, CommAxis::InterRow) => (
                    GemmShape::new(shape.m / pr, shape.n / pr, shape.k / pc),
                    b_bytes,
                    true,
                ),
                (Dataflow::Rs, CommAxis::InterCol) => (
                    GemmShape::new(shape.m / pc, shape.n / pc, shape.k / pr),
                    a_bytes,
                    true,
                ),
            };
        // Grouping merges panels along the dimension the rotation splits;
        // FLOPs stay constant because exactly one dimension scales.
        let merged_shape = |count: usize| -> GemmShape {
            match problem.dataflow {
                Dataflow::Os => GemmShape::new(panel_shape.m, panel_shape.n, panel_shape.k * count),
                Dataflow::Ls => GemmShape::new(panel_shape.m, panel_shape.n * count, panel_shape.k),
                Dataflow::Rs => GemmShape::new(panel_shape.m * count, panel_shape.n, panel_shape.k),
            }
        };

        // The exposed collective: an AllGather prologue, or a ReduceScatter
        // epilogue when the gathered input's rotation was overlapped.
        let (exposed_is_ag, exposed_bytes) = match (problem.dataflow, rds_after) {
            (Dataflow::Os, _) => (
                true,
                if overlap == CommAxis::InterCol {
                    b_bytes
                } else {
                    a_bytes
                },
            ),
            (Dataflow::Ls, false) => (true, b_bytes),
            (Dataflow::Rs, false) => (true, a_bytes),
            (_, true) => (false, c_bytes),
        };

        // Panel widths along the dimension the ring rotation splits.
        let k_p = shape.k / ring;
        let n_p = shape.n / ring;
        let m_p = shape.m / ring;

        let exposed_tag = pb.sim().next_tag();
        let (a_rows, a_cols) = problem.a_shard_dims(ms);
        let (b_rows, b_cols) = problem.b_shard_dims(ms);
        let (c_rows, c_cols) = problem.c_shard_dims(ms);
        let a = pb.input_a(a_rows, a_cols);
        let b = pb.input_b(b_rows, b_cols);
        // The exposed-AG variants read panels of the gathered input;
        // the RdS variants accumulate a full-width partial first.
        let mut g_reg = None;
        let mut ag_act = None;
        if exposed_is_ag {
            let src = match (problem.dataflow, overlap) {
                (Dataflow::Os, CommAxis::InterCol) | (Dataflow::Ls, _) => b,
                _ => a,
            };
            let g = pb.gathered(src, exposed);
            ag_act = Some(pb.action(DataOp::AllGather {
                src,
                dst: g,
                axis: exposed,
            }));
            g_reg = Some(g);
        }
        let partial = match (problem.dataflow, overlap) {
            (Dataflow::Ls, CommAxis::InterRow) => Some(pb.zeros(shape.m / pr, shape.n)),
            (Dataflow::Rs, CommAxis::InterCol) => Some(pb.zeros(shape.m, shape.n / pc)),
            _ => None,
        };
        let c = if rds_after {
            pb.reg(c_rows, c_cols)
        } else {
            pb.zeros(c_rows, c_cols)
        };
        let rds_act = partial.map(|p| {
            pb.action(DataOp::ReduceScatter {
                src: p,
                dst: c,
                axis: exposed,
            })
        });

        // Ring-position helpers: the chip `s` steps along this chip's
        // overlapped ring, and this chip's own position on it.
        let pos_of = |chip: ChipId| {
            let coord = mesh.coord_of(chip);
            match overlap {
                CommAxis::InterRow => coord.row(),
                CommAxis::InterCol => coord.col(),
            }
        };
        let ring_chip = |chip: ChipId, s: usize| {
            let coord = mesh.coord_of(chip);
            match overlap {
                CommAxis::InterRow => mesh.chip_at(Coord::new(s, coord.col())),
                CommAxis::InterCol => mesh.chip_at(Coord::new(coord.row(), s)),
            }
        };
        // The partial GeMM for ring panel `s` on `chip`: panel `s` pairs
        // the K/N/M range `[s·panel, (s+1)·panel)` with the input shard
        // originally resident at ring position `s`.
        let step_for = |chip: ChipId, s: usize| -> MatmulStep {
            match (problem.dataflow, overlap) {
                (Dataflow::Os, CommAxis::InterCol) => MatmulStep {
                    kind: MatKind::Ab,
                    lhs: TileRead::whole(a, ring_chip(chip, s)),
                    rhs: TileRead::region(g_reg.unwrap(), chip, s * k_p, 0, k_p, shape.n / pc),
                    dst: c,
                    dst_chip: chip,
                    dst_off: (0, 0),
                },
                (Dataflow::Os, CommAxis::InterRow) => MatmulStep {
                    kind: MatKind::Ab,
                    lhs: TileRead::region(g_reg.unwrap(), chip, 0, s * k_p, shape.m / pr, k_p),
                    rhs: TileRead::whole(b, ring_chip(chip, s)),
                    dst: c,
                    dst_chip: chip,
                    dst_off: (0, 0),
                },
                // Ring reduce-scatter variants contribute panel `s`
                // straight into its owner's C shard.
                (Dataflow::Ls, CommAxis::InterCol) => MatmulStep {
                    kind: MatKind::Abt,
                    lhs: TileRead::whole(a, chip),
                    rhs: TileRead::region(g_reg.unwrap(), chip, s * n_p, 0, n_p, shape.k / pc),
                    dst: c,
                    dst_chip: ring_chip(chip, s),
                    dst_off: (0, 0),
                },
                (Dataflow::Rs, CommAxis::InterRow) => MatmulStep {
                    kind: MatKind::Atb,
                    lhs: TileRead::region(g_reg.unwrap(), chip, 0, s * m_p, shape.k / pr, m_p),
                    rhs: TileRead::whole(b, chip),
                    dst: c,
                    dst_chip: ring_chip(chip, s),
                    dst_off: (0, 0),
                },
                // Input-rotation LS/RS build the full-width partial for
                // the exposed ReduceScatter epilogue.
                (Dataflow::Ls, CommAxis::InterRow) => MatmulStep {
                    kind: MatKind::Abt,
                    lhs: TileRead::whole(a, chip),
                    rhs: TileRead::whole(b, ring_chip(chip, s)),
                    dst: partial.unwrap(),
                    dst_chip: chip,
                    dst_off: (0, s * n_p),
                },
                (Dataflow::Rs, CommAxis::InterCol) => MatmulStep {
                    kind: MatKind::Atb,
                    lhs: TileRead::whole(a, ring_chip(chip, s)),
                    rhs: TileRead::whole(b, chip),
                    dst: partial.unwrap(),
                    dst_chip: chip,
                    dst_off: (s * m_p, 0),
                },
            }
        };
        // The shard an input-rotation SendRecv delivers: A rotates when
        // the overlapped ring is the one A flows along, else B.
        let rot_carry = |chip: ChipId, s: usize| -> TileRead {
            match (problem.dataflow, overlap) {
                (Dataflow::Os, CommAxis::InterCol) | (Dataflow::Rs, CommAxis::InterCol) => {
                    TileRead::whole(a, ring_chip(chip, s))
                }
                _ => TileRead::whole(b, ring_chip(chip, s)),
            }
        };

        // The rotation runs bidirectionally: both ring links carry shards
        // at once, like the TPU collectives it decomposes.
        let fwd_dir = sr_dir;
        let bwd_dir = overlap.backward_link();
        for chip in pb.chips() {
            let own = pos_of(chip);
            let ag = if exposed_is_ag {
                let op = pb.sim().collective(
                    chip,
                    exposed_tag,
                    CollectiveKind::AllGather,
                    exposed,
                    exposed_bytes,
                    2,
                    &[],
                );
                pb.anchor(ag_act.unwrap(), op);
                Some(op)
            } else {
                None
            };
            let mut last_gemm: Option<OpId> = None;
            if ring_reduce_rotation {
                // Two accumulators circulate in opposite directions, each
                // covering half the output panels: per round a chip adds
                // its contribution (a partial GeMM) and passes the
                // accumulator on. The forward accumulator a chip touches
                // at round r comes home to ring position own + F − 1 − r;
                // the backward rounds cover the remaining panels.
                let f_rounds = ring.div_ceil(2);
                for (chain, (dir, panels)) in [(fwd_dir, f_rounds), (bwd_dir, ring / 2)]
                    .into_iter()
                    .enumerate()
                {
                    let mut last_sr: Option<OpId> = None;
                    for p in 0..panels {
                        let panel = if chain == 0 {
                            (own + f_rounds - 1 - p) % ring
                        } else {
                            (own + f_rounds + p) % ring
                        };
                        let mut deps: Vec<OpId> = Vec::new();
                        deps.extend(ag);
                        deps.extend(last_sr);
                        let gemm = pb.sim().gemm(chip, merged_shape(1), &deps);
                        pb.attach(
                            gemm,
                            DataOp::Compute {
                                steps: vec![step_for(chip, panel)],
                            },
                        );
                        last_gemm = Some(gemm);
                        if p + 1 < panels {
                            let deps: Vec<OpId> =
                                last_sr.into_iter().chain(std::iter::once(gemm)).collect();
                            let sr = pb.sim().send_recv(chip, dir, rot_bytes, &deps);
                            pb.attach(
                                sr,
                                DataOp::Carries {
                                    tile: TileRead::whole(c, ring_chip(chip, panel)),
                                },
                            );
                            last_sr = Some(sr);
                        }
                    }
                }
            } else {
                // Input rotation: shards arrive alternately from both ring
                // directions; group g's GeMM waits for the arrivals it
                // consumes (the chip's own shard is panel 0). A forward
                // arrival delivers the shard f positions behind; a
                // backward arrival the shard k positions ahead.
                let mut fwd_prev: Option<OpId> = None;
                let mut bwd_prev: Option<OpId> = None;
                let fwd_total = (ring - 1).div_ceil(2);
                let bwd_total = (ring - 1) / 2;
                let (mut fwd_done, mut bwd_done) = (0usize, 0usize);
                let mut arrivals = 0usize;
                let mut pending: Vec<usize> = vec![own];
                for g in 0..groups {
                    let target = (g + 1) * per_group - 1;
                    while arrivals < target {
                        if fwd_done <= bwd_done && fwd_done < fwd_total {
                            let deps: Vec<OpId> = fwd_prev.into_iter().collect();
                            let sr = pb.sim().send_recv(chip, fwd_dir, rot_bytes, &deps);
                            fwd_done += 1;
                            let src = (own + ring - fwd_done) % ring;
                            pb.attach(
                                sr,
                                DataOp::Carries {
                                    tile: rot_carry(chip, src),
                                },
                            );
                            pending.push(src);
                            fwd_prev = Some(sr);
                        } else if bwd_done < bwd_total {
                            let deps: Vec<OpId> = bwd_prev.into_iter().collect();
                            let sr = pb.sim().send_recv(chip, bwd_dir, rot_bytes, &deps);
                            bwd_done += 1;
                            let src = (own + bwd_done) % ring;
                            pb.attach(
                                sr,
                                DataOp::Carries {
                                    tile: rot_carry(chip, src),
                                },
                            );
                            pending.push(src);
                            bwd_prev = Some(sr);
                        } else {
                            let deps: Vec<OpId> = fwd_prev.into_iter().collect();
                            let sr = pb.sim().send_recv(chip, fwd_dir, rot_bytes, &deps);
                            fwd_done += 1;
                            let src = (own + ring - fwd_done) % ring;
                            pb.attach(
                                sr,
                                DataOp::Carries {
                                    tile: rot_carry(chip, src),
                                },
                            );
                            pending.push(src);
                            fwd_prev = Some(sr);
                        }
                        arrivals += 1;
                    }
                    let mut deps: Vec<OpId> = Vec::new();
                    deps.extend(ag);
                    deps.extend(fwd_prev);
                    deps.extend(bwd_prev);
                    let gemm = pb.sim().gemm(chip, merged_shape(per_group), &deps);
                    let steps: Vec<MatmulStep> =
                        pending.drain(..).map(|s| step_for(chip, s)).collect();
                    pb.attach(gemm, DataOp::Compute { steps });
                    last_gemm = Some(gemm);
                }
            }
            if !exposed_is_ag {
                let deps: Vec<OpId> = last_gemm.into_iter().collect();
                let op = pb.sim().collective(
                    chip,
                    exposed_tag,
                    CollectiveKind::ReduceScatter,
                    exposed,
                    exposed_bytes,
                    2,
                    &deps,
                );
                pb.anchor(rds_act.unwrap(), op);
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_sim::Program;

    fn check_functional(
        df: Dataflow,
        overlap: WangOverlap,
        mesh: (usize, usize),
        shape: (usize, usize, usize),
    ) {
        let mesh = Torus2d::new(mesh.0, mesh.1);
        let problem = GemmProblem::new(GemmShape::new(shape.0, shape.1, shape.2), df);
        let algo = Wang::with_overlap(overlap);
        let (a, b) = problem.random_inputs(&mesh, 77);
        let c = algo.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(
            c.assemble().approx_eq(&expect, 1e-4),
            "{df} overlap {overlap:?}: max diff {}",
            c.assemble().max_abs_diff(&expect)
        );
    }

    #[test]
    fn os_both_overlap_directions_match_dense() {
        check_functional(Dataflow::Os, WangOverlap::InterCol, (2, 3), (4, 6, 12));
        check_functional(Dataflow::Os, WangOverlap::InterRow, (2, 3), (4, 6, 12));
    }

    #[test]
    fn ls_both_overlap_directions_match_dense() {
        check_functional(Dataflow::Ls, WangOverlap::InterCol, (2, 3), (4, 12, 6));
        check_functional(Dataflow::Ls, WangOverlap::InterRow, (2, 3), (4, 12, 6));
    }

    #[test]
    fn rs_both_overlap_directions_match_dense() {
        check_functional(Dataflow::Rs, WangOverlap::InterRow, (3, 2), (12, 4, 6));
        check_functional(Dataflow::Rs, WangOverlap::InterCol, (3, 2), (12, 4, 6));
    }

    #[test]
    fn auto_overlap_matches_dense() {
        check_functional(Dataflow::Os, WangOverlap::Auto, (4, 2), (8, 8, 8));
    }

    #[test]
    fn unrolled_matches_dense() {
        let mesh = Torus2d::new(4, 1);
        let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
        let algo = Wang::with_overlap(WangOverlap::InterRow).with_unroll(2);
        let (a, b) = problem.random_inputs(&mesh, 7);
        let c = algo.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(c.assemble().approx_eq(&expect, 1e-4));
    }

    #[test]
    fn auto_hides_the_larger_direction() {
        // A (M x K) is far larger than B: A flows inter-column, so Auto
        // must overlap InterCol when its traffic dominates.
        let mesh = Torus2d::new(2, 8);
        let problem = GemmProblem::new(GemmShape::new(4096, 64, 256), Dataflow::Os);
        assert_eq!(
            Wang::new().resolve_overlap(&mesh, problem),
            CommAxis::InterCol
        );
        // B (K x N) far larger: overlap InterRow.
        let problem2 = GemmProblem::new(GemmShape::new(64, 4096, 256), Dataflow::Os);
        let mesh2 = Torus2d::new(8, 2);
        assert_eq!(
            Wang::new().resolve_overlap(&mesh2, problem2),
            CommAxis::InterRow
        );
    }

    #[test]
    fn schedule_flops_equal_problem_flops() {
        let mesh = Torus2d::new(2, 4);
        let shape = GemmShape::new(64, 64, 64);
        for df in Dataflow::ALL {
            for overlap in [
                WangOverlap::InterRow,
                WangOverlap::InterCol,
                WangOverlap::Auto,
            ] {
                let problem = GemmProblem::new(shape, df);
                let prog = Wang::with_overlap(overlap)
                    .schedule(&mesh, problem, 2)
                    .unwrap();
                assert_eq!(prog.total_flops(), shape.flops(), "{df} {overlap:?}");
            }
        }
    }

    #[test]
    fn unrolling_preserves_flops_and_reduces_gemm_count() {
        let mesh = Torus2d::new(8, 1);
        let shape = GemmShape::new(64, 64, 64);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let full = Wang::with_overlap(WangOverlap::InterRow)
            .schedule(&mesh, problem, 2)
            .unwrap();
        let unrolled = Wang::with_overlap(WangOverlap::InterRow)
            .with_unroll(2)
            .schedule(&mesh, problem, 2)
            .unwrap();
        assert_eq!(full.total_flops(), unrolled.total_flops());
        let count = |p: &Program| {
            p.ops()
                .iter()
                .filter(|o| matches!(o.kind, meshslice_sim::OpKind::Gemm { .. }))
                .count()
        };
        assert_eq!(count(&full), 8 * 8);
        assert_eq!(count(&unrolled), 8 * 2);
    }
}
