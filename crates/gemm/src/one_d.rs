//! The 1D baselines: tensor parallelism and fully-sharded data parallelism
//! (§4.3).
//!
//! Both run on a ring of `n` chips, expressed as the degenerate torus
//! `Torus2d::new(n, 1)`. A ring chip has only two usable ICI links, so the
//! rotations run bidirectionally (both ring directions at once). Both
//! baselines overlap communication with computation using Wang's method:
//! the AllGather is decomposed into SendRecv exchanges interleaved with
//! partial GeMMs.
//!
//! Shard layouts (documented because they differ from the 2D convention):
//!
//! - [`OneDimTp`] (sequence-parallel 1D TP): `A` is row-sharded
//!   (`M/n × K`), `B` is **column**-sharded (`K × N/n`, stored as the
//!   `(i, 0)` shard of the grid), and the output is column-sharded
//!   (`M × N/n`). Every chip gathers all of `A` — the traffic that makes
//!   1D TP unscalable.
//! - [`Fsdp`]: `A` is row-sharded (`M/n × K`), the weight `B` is
//!   row-sharded (`K/n × N`) and gathered, and the output is row-sharded
//!   (`M/n × N`).

use meshslice_mesh::{ChipId, Coord, LinkDir, Torus2d};
use meshslice_sim::OpId;
use meshslice_tensor::shard::ShardGrid;
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::{ensure_divides, GemmError};
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// 1D tensor parallelism with sequence parallelism (the most popular TP
/// method for LLMs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OneDimTp {
    unroll: Option<usize>,
}

/// Fully-sharded data parallelism: the weight matrix is sharded and
/// gathered right before use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fsdp {
    unroll: Option<usize>,
}

impl OneDimTp {
    /// Full decomposition: one partial GeMM per received shard.
    pub fn new() -> Self {
        OneDimTp::default()
    }

    /// Merges partial GeMMs into `groups` unrolled groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn with_unroll(groups: usize) -> Self {
        assert!(groups > 0, "unroll group count must be positive");
        OneDimTp {
            unroll: Some(groups),
        }
    }
}

impl Fsdp {
    /// Full decomposition: one partial GeMM per received shard.
    pub fn new() -> Self {
        Fsdp::default()
    }

    /// Merges partial GeMMs into `groups` unrolled groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn with_unroll(groups: usize) -> Self {
        assert!(groups > 0, "unroll group count must be positive");
        Fsdp {
            unroll: Some(groups),
        }
    }
}

fn check_ring(mesh: &Torus2d, problem: GemmProblem, algorithm: &str) -> Result<(), GemmError> {
    if problem.dataflow != Dataflow::Os {
        return Err(GemmError::UnsupportedDataflow {
            algorithm: format!("{algorithm} (output-stationary storage only)"),
        });
    }
    if mesh.cols() != 1 {
        return Err(GemmError::UnsupportedMesh {
            requirement: format!("{algorithm} runs on a ring (Pc = 1), got {}", mesh.shape()),
        });
    }
    Ok(())
}

fn layout_err(what: &str, found: (usize, usize), expected: (usize, usize)) -> GemmError {
    GemmError::ShardLayout {
        what: what.to_string(),
        found,
        expected,
    }
}

/// Emits a bidirectional rotation plan: `n − 1` shard exchanges split over
/// the two ring directions, with one partial GeMM per arrival (plus one
/// for the local shard), optionally merged into unrolled groups.
///
/// `step_for(chip, panel)` produces the multiply-accumulate a GeMM
/// performs once ring panel `panel` is available on `chip`;
/// `carry_for(chip, panel)` names the tile an exchange delivers.
#[allow(clippy::too_many_arguments)]
fn rotation_plan(
    pb: &mut PlanBuilder,
    shard_bytes: u64,
    per_arrival: GemmShape,
    merge_dim: fn(GemmShape, usize) -> GemmShape,
    groups: Option<usize>,
    carry_for: &dyn Fn(ChipId, usize) -> TileRead,
    step_for: &dyn Fn(ChipId, usize) -> MatmulStep,
) {
    let mesh = pb.mesh().clone();
    let n = mesh.rows();
    let fwd = (n - 1).div_ceil(2);
    let bwd = (n - 1) / 2;
    let total = n; // panels including the local one
    let groups = match groups {
        Some(g) if g <= total && total.is_multiple_of(g) => g,
        _ => total,
    };
    let per_group = total / groups;
    for chip in pb.chips() {
        let own = mesh.coord_of(chip).row();
        // Two independent SendRecv chains, one per direction; each step
        // sends half the traffic of a unidirectional rotation.
        let mut fwd_prev: Option<OpId> = None;
        let mut bwd_prev: Option<OpId> = None;
        let mut fwd_done = 0usize;
        let mut bwd_done = 0usize;
        let mut arrivals = 0usize; // received shards (excluding local)
        let mut pending = vec![own]; // panels ready but not yet consumed
        for g in 0..groups {
            let target = ((g + 1) * per_group - 1).min(n - 1);
            while arrivals < target {
                // Alternate directions so arrivals interleave evenly.
                let panel;
                if fwd_done <= bwd_done && fwd_done < fwd {
                    let deps: Vec<OpId> = fwd_prev.into_iter().collect();
                    let sr = pb
                        .sim()
                        .send_recv(chip, LinkDir::RowPlus, shard_bytes, &deps);
                    fwd_done += 1;
                    panel = (own + fwd_done) % n;
                    pb.attach(
                        sr,
                        DataOp::Carries {
                            tile: carry_for(chip, panel),
                        },
                    );
                    fwd_prev = Some(sr);
                } else if bwd_done < bwd {
                    let deps: Vec<OpId> = bwd_prev.into_iter().collect();
                    let sr = pb
                        .sim()
                        .send_recv(chip, LinkDir::RowMinus, shard_bytes, &deps);
                    bwd_done += 1;
                    panel = (own + n - bwd_done) % n;
                    pb.attach(
                        sr,
                        DataOp::Carries {
                            tile: carry_for(chip, panel),
                        },
                    );
                    bwd_prev = Some(sr);
                } else {
                    let deps: Vec<OpId> = fwd_prev.into_iter().collect();
                    let sr = pb
                        .sim()
                        .send_recv(chip, LinkDir::RowPlus, shard_bytes, &deps);
                    fwd_done += 1;
                    panel = (own + fwd_done) % n;
                    pb.attach(
                        sr,
                        DataOp::Carries {
                            tile: carry_for(chip, panel),
                        },
                    );
                    fwd_prev = Some(sr);
                }
                pending.push(panel);
                arrivals += 1;
            }
            let mut deps: Vec<OpId> = Vec::new();
            deps.extend(fwd_prev);
            deps.extend(bwd_prev);
            let gemm = pb
                .sim()
                .gemm(chip, merge_dim(per_arrival, per_group), &deps);
            let steps = pending.drain(..).map(|p| step_for(chip, p)).collect();
            pb.attach(gemm, DataOp::Compute { steps });
        }
    }
}

impl DistributedGemm for OneDimTp {
    fn name(&self) -> &str {
        "1D TP"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        check_ring(mesh, problem, "1D TP")?;
        let n = mesh.rows();
        ensure_divides("M by ring size", problem.shape.m, n)?;
        ensure_divides("N by ring size", problem.shape.n, n)?;
        Ok(())
    }

    fn check_layout(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
    ) -> Result<(), GemmError> {
        let n = mesh.rows();
        let GemmShape { m, n: nn, k } = problem.shape;
        if a.global_dims() != (m, k) {
            return Err(layout_err(
                "A must be row-sharded M x K",
                a.global_dims(),
                (m, k),
            ));
        }
        if (a.mesh_rows(), a.mesh_cols()) != (n, 1) {
            return Err(layout_err(
                "A shard grid must be the n x 1 ring",
                (a.mesh_rows(), a.mesh_cols()),
                (n, 1),
            ));
        }
        if b.shard_dims() != (k, nn / n) {
            return Err(layout_err(
                "B shards must be K x N/n column slices",
                b.shard_dims(),
                (k, nn / n),
            ));
        }
        if (b.mesh_rows(), b.mesh_cols()) != (n, 1) {
            return Err(layout_err(
                "B shard grid must be the n x 1 ring",
                (b.mesh_rows(), b.mesh_cols()),
                (n, 1),
            ));
        }
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
        let n = mesh.rows();
        let GemmShape { m, n: nn, k } = problem.shape;
        let shard_bytes = (m / n * k * elem_bytes) as u64;
        // Each arrival contributes an M/n row panel of this chip's output
        // column block.
        let per_arrival = GemmShape::new(m / n, nn / n, k);
        let unroll = self.unroll;
        let a = pb.input_a(m / n, k);
        let b = pb.input_b(k, nn / n);
        let c = pb.zeros(m, nn / n);
        let ring = pb.mesh().clone();
        let panel_home = move |panel: usize| ring.chip_at(Coord::new(panel, 0));
        let carry = |_chip: ChipId, panel: usize| TileRead::whole(a, panel_home(panel));
        let step = |chip: ChipId, panel: usize| MatmulStep {
            kind: MatKind::Ab,
            lhs: TileRead::whole(a, panel_home(panel)),
            rhs: TileRead::whole(b, chip),
            dst: c,
            dst_chip: chip,
            dst_off: (panel * (m / n), 0),
        };
        rotation_plan(
            pb,
            shard_bytes,
            per_arrival,
            |s, g| GemmShape::new(s.m * g, s.n, s.k),
            unroll,
            &carry,
            &step,
        );
        Ok(c)
    }
}

impl DistributedGemm for Fsdp {
    fn name(&self) -> &str {
        "FSDP"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        check_ring(mesh, problem, "FSDP")?;
        let n = mesh.rows();
        ensure_divides("M by ring size", problem.shape.m, n)?;
        ensure_divides("K by ring size", problem.shape.k, n)?;
        Ok(())
    }

    fn check_layout(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        a: &ShardGrid,
        b: &ShardGrid,
    ) -> Result<(), GemmError> {
        let n = mesh.rows();
        let GemmShape { m, n: nn, k } = problem.shape;
        if a.global_dims() != (m, k) {
            return Err(layout_err(
                "A must be row-sharded M x K",
                a.global_dims(),
                (m, k),
            ));
        }
        if (a.mesh_rows(), a.mesh_cols()) != (n, 1) {
            return Err(layout_err(
                "A shard grid must be the n x 1 ring",
                (a.mesh_rows(), a.mesh_cols()),
                (n, 1),
            ));
        }
        if b.global_dims() != (k, nn) {
            return Err(layout_err(
                "B must be row-sharded K x N",
                b.global_dims(),
                (k, nn),
            ));
        }
        if (b.mesh_rows(), b.mesh_cols()) != (n, 1) {
            return Err(layout_err(
                "B shard grid must be the n x 1 ring",
                (b.mesh_rows(), b.mesh_cols()),
                (n, 1),
            ));
        }
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
        let n = mesh.rows();
        let GemmShape { m, n: nn, k } = problem.shape;
        let shard_bytes = (k / n * nn * elem_bytes) as u64;
        // Each arriving weight shard contributes a K/n contraction panel.
        let per_arrival = GemmShape::new(m / n, nn, k / n);
        let unroll = self.unroll;
        let a = pb.input_a(m / n, k);
        let b = pb.input_b(k / n, nn);
        let c = pb.zeros(m / n, nn);
        let ring = pb.mesh().clone();
        let panel_home = move |panel: usize| ring.chip_at(Coord::new(panel, 0));
        let carry = |_chip: ChipId, panel: usize| TileRead::whole(b, panel_home(panel));
        let step = |chip: ChipId, panel: usize| MatmulStep {
            kind: MatKind::Ab,
            lhs: TileRead::region(a, chip, 0, panel * (k / n), m / n, k / n),
            rhs: TileRead::whole(b, panel_home(panel)),
            dst: c,
            dst_chip: chip,
            dst_off: (0, 0),
        };
        rotation_plan(
            pb,
            shard_bytes,
            per_arrival,
            |s, g| GemmShape::new(s.m, s.n, s.k * g),
            unroll,
            &carry,
            &step,
        );
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_tensor::gemm as dense;
    use meshslice_tensor::shard::{partition_cols, partition_rows};
    use meshslice_tensor::Matrix;

    #[test]
    fn one_d_tp_matches_dense() {
        let n = 4;
        let mesh = Torus2d::new(n, 1);
        let shape = GemmShape::new(8, 12, 6);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let a_global = Matrix::random(8, 6, 1);
        let b_global = Matrix::random(6, 12, 2);
        let a = ShardGrid::from_shards(n, 1, partition_rows(&a_global, n));
        let b = ShardGrid::from_shards(n, 1, partition_cols(&b_global, n));
        let c = OneDimTp::new().execute(&mesh, problem, &a, &b).unwrap();
        let expect = dense::matmul(&a_global, &b_global);
        // Chip i holds C[:, i-range].
        for i in 0..n {
            let block = expect.block(0, i * 3, 8, 3);
            assert!(c.shard(i, 0).approx_eq(&block, 1e-4));
        }
    }

    #[test]
    fn fsdp_matches_dense() {
        let n = 3;
        let mesh = Torus2d::new(n, 1);
        let shape = GemmShape::new(6, 4, 9);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let a_global = Matrix::random(6, 9, 3);
        let b_global = Matrix::random(9, 4, 4);
        let a = ShardGrid::from_shards(n, 1, partition_rows(&a_global, n));
        let b = ShardGrid::from_shards(n, 1, partition_rows(&b_global, n));
        let c = Fsdp::new().execute(&mesh, problem, &a, &b).unwrap();
        let expect = dense::matmul(&a_global, &b_global);
        assert!(c.assemble().approx_eq(&expect, 1e-4));
    }

    #[test]
    fn both_reject_2d_meshes() {
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
        assert!(OneDimTp::new().check(&mesh, problem).is_err());
        assert!(Fsdp::new().check(&mesh, problem).is_err());
    }

    #[test]
    fn tp_rejects_misshaped_weights() {
        let n = 4;
        let mesh = Torus2d::new(n, 1);
        let shape = GemmShape::new(8, 12, 8);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let a_global = Matrix::random(8, 8, 1);
        let b_global = Matrix::random(8, 12, 2);
        let a = ShardGrid::from_shards(n, 1, partition_rows(&a_global, n));
        // Row-sharded weights are FSDP's layout, not 1D TP's.
        let b_wrong = ShardGrid::from_shards(n, 1, partition_rows(&b_global, n));
        let err = OneDimTp::new()
            .execute(&mesh, problem, &a, &b_wrong)
            .unwrap_err();
        assert!(matches!(err, GemmError::ShardLayout { .. }), "{err}");
    }

    #[test]
    fn schedules_preserve_flops() {
        let mesh = Torus2d::new(8, 1);
        let shape = GemmShape::new(64, 64, 64);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        for prog in [
            OneDimTp::new().schedule(&mesh, problem, 2).unwrap(),
            Fsdp::new().schedule(&mesh, problem, 2).unwrap(),
            OneDimTp::with_unroll(4)
                .schedule(&mesh, problem, 2)
                .unwrap(),
            Fsdp::with_unroll(2).schedule(&mesh, problem, 2).unwrap(),
        ] {
            assert_eq!(prog.total_flops(), shape.flops());
        }
    }

    #[test]
    fn rotation_uses_both_link_directions() {
        let mesh = Torus2d::new(8, 1);
        let shape = GemmShape::new(64, 64, 64);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let prog = OneDimTp::new().schedule(&mesh, problem, 2).unwrap();
        let dirs: std::collections::HashSet<_> = prog
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                meshslice_sim::OpKind::SendRecv { dir, .. } => Some(dir),
                _ => None,
            })
            .collect();
        assert!(dirs.contains(&LinkDir::RowPlus));
        assert!(dirs.contains(&LinkDir::RowMinus));
        // n - 1 = 7 exchanges per chip.
        let sends = prog
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, meshslice_sim::OpKind::SendRecv { .. }))
            .count();
        assert_eq!(sends, 8 * 7);
    }
}
