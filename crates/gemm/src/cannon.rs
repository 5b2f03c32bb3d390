//! Cannon's algorithm (§2.3.2).
//!
//! Cannon skews the input shards, then systolically rotates them with
//! SendRecv exchanges, computing one partial GeMM per rotation. The shifts
//! overlap with computation, but the algorithm only works on square meshes
//! and the initial skew is pure extra traffic — the two inefficiencies the
//! paper highlights.

use meshslice_mesh::{Coord, LinkDir, Torus2d};
use meshslice_sim::{OpId, Program};
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::GemmError;
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// Cannon's algorithm. Output-stationary only; square meshes only.
///
/// # Example
///
/// ```
/// use meshslice_gemm::{Cannon, Dataflow, DistributedGemm, GemmProblem};
/// use meshslice_mesh::Torus2d;
/// use meshslice_tensor::GemmShape;
///
/// # fn main() -> Result<(), meshslice_gemm::GemmError> {
/// let mesh = Torus2d::new(3, 3);
/// let problem = GemmProblem::new(GemmShape::new(6, 6, 6), Dataflow::Os);
/// let (a, b) = problem.random_inputs(&mesh, 3);
/// let c = Cannon.execute(&mesh, problem, &a, &b)?;
/// assert!(c.assemble().approx_eq(&problem.reference(&a.assemble(), &b.assemble()), 1e-4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Cannon;

impl DistributedGemm for Cannon {
    fn name(&self) -> &str {
        "Cannon"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        if problem.dataflow != Dataflow::Os {
            return Err(GemmError::UnsupportedDataflow {
                algorithm: "Cannon (output-stationary only)".to_string(),
            });
        }
        if mesh.rows() != mesh.cols() {
            return Err(GemmError::UnsupportedMesh {
                requirement: format!("Cannon requires a square mesh, got {}", mesh.shape()),
            });
        }
        problem.check_divisible(mesh.shape())
    }

    fn emit(
        &self,
        pb: &mut PlanBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Reg, GemmError> {
        let mesh = &pb.mesh().clone();
        self.check(mesh, problem)?;
        let p = mesh.rows();
        let shape = problem.shape;
        let a_bytes = problem.a_shard_bytes(mesh.shape(), elem_bytes);
        let b_bytes = problem.b_shard_bytes(mesh.shape(), elem_bytes);
        let local = GemmShape::new(shape.m / p, shape.n / p, shape.k / p);
        let (a_rows, a_cols) = problem.a_shard_dims(mesh.shape());
        let (b_rows, b_cols) = problem.b_shard_dims(mesh.shape());
        let (c_rows, c_cols) = problem.c_shard_dims(mesh.shape());
        let a = pb.input_a(a_rows, a_cols);
        let b = pb.input_b(b_rows, b_cols);
        let c = pb.zeros(c_rows, c_cols);
        for chip in mesh.chips() {
            let coord = mesh.coord_of(chip);
            let (i, j) = (coord.row(), coord.col());
            // The A shard resident on this chip after the skew plus t
            // systolic rotations is A_{i, j+i+t}; likewise B_{i+j+t, j}.
            let a_home = |t: usize| mesh.chip_at(Coord::new(i, (j + i + t) % p));
            let b_home = |t: usize| mesh.chip_at(Coord::new((i + j + t) % p, j));
            // Skew prologue: row i rotates A left i times; column j rotates
            // B up j times. Pure extra traffic before any compute.
            let mut a_prev: Option<OpId> = None;
            for r in 0..i {
                let deps: Vec<OpId> = a_prev.into_iter().collect();
                let sr = pb.sim().send_recv(chip, LinkDir::ColMinus, a_bytes, &deps);
                pb.attach(
                    sr,
                    DataOp::Carries {
                        tile: TileRead::whole(a, mesh.chip_at(Coord::new(i, (j + r + 1) % p))),
                    },
                );
                a_prev = Some(sr);
            }
            let mut b_prev: Option<OpId> = None;
            for r in 0..j {
                let deps: Vec<OpId> = b_prev.into_iter().collect();
                let sr = pb.sim().send_recv(chip, LinkDir::RowMinus, b_bytes, &deps);
                pb.attach(
                    sr,
                    DataOp::Carries {
                        tile: TileRead::whole(b, mesh.chip_at(Coord::new((i + r + 1) % p, j))),
                    },
                );
                b_prev = Some(sr);
            }
            // Systolic steps: GeMM t uses the shards delivered by shift
            // t − 1 (the skew for t = 0); shift t overlaps with GeMM t.
            for step in 0..p {
                let mut deps: Vec<OpId> = Vec::new();
                deps.extend(a_prev);
                deps.extend(b_prev);
                let gemm = pb.sim().gemm(chip, local, &deps);
                pb.attach(
                    gemm,
                    DataOp::Compute {
                        steps: vec![MatmulStep {
                            kind: MatKind::Ab,
                            lhs: TileRead::whole(a, a_home(step)),
                            rhs: TileRead::whole(b, b_home(step)),
                            dst: c,
                            dst_chip: chip,
                            dst_off: (0, 0),
                        }],
                    },
                );
                if step + 1 < p {
                    let a_deps: Vec<OpId> = a_prev.into_iter().collect();
                    let sr = pb
                        .sim()
                        .send_recv(chip, LinkDir::ColMinus, a_bytes, &a_deps);
                    pb.attach(
                        sr,
                        DataOp::Carries {
                            tile: TileRead::whole(a, a_home(step + 1)),
                        },
                    );
                    a_prev = Some(sr);
                    let b_deps: Vec<OpId> = b_prev.into_iter().collect();
                    let sr = pb
                        .sim()
                        .send_recv(chip, LinkDir::RowMinus, b_bytes, &b_deps);
                    pb.attach(
                        sr,
                        DataOp::Carries {
                            tile: TileRead::whole(b, b_home(step + 1)),
                        },
                    );
                    b_prev = Some(sr);
                }
            }
        }
        Ok(c)
    }

    /// Op by op: chip `(i, j)`'s skew prologue shifts `i` and `j` times,
    /// so the chips run different op lists and there is no template.
    fn schedule(
        &self,
        mesh: &Torus2d,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Program, GemmError> {
        Ok(self.plan(mesh, problem, elem_bytes)?.into_program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_functional(mesh_dim: usize, shape: (usize, usize, usize)) {
        let mesh = Torus2d::new(mesh_dim, mesh_dim);
        let problem = GemmProblem::new(GemmShape::new(shape.0, shape.1, shape.2), Dataflow::Os);
        let (a, b) = problem.random_inputs(&mesh, 31);
        let c = Cannon.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(
            c.assemble().approx_eq(&expect, 1e-4),
            "P={mesh_dim}: max diff {}",
            c.assemble().max_abs_diff(&expect)
        );
    }

    #[test]
    fn two_by_two_matches_dense() {
        check_functional(2, (4, 4, 4));
    }

    #[test]
    fn three_by_three_matches_dense() {
        check_functional(3, (6, 9, 12));
    }

    #[test]
    fn four_by_four_matches_dense() {
        check_functional(4, (8, 8, 8));
    }

    #[test]
    fn rejects_rectangular_meshes() {
        let mesh = Torus2d::new(2, 4);
        let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
        assert!(matches!(
            Cannon.check(&mesh, problem),
            Err(GemmError::UnsupportedMesh { .. })
        ));
    }

    #[test]
    fn rejects_non_os_dataflows() {
        let mesh = Torus2d::new(2, 2);
        for df in [Dataflow::Ls, Dataflow::Rs] {
            let problem = GemmProblem::new(GemmShape::new(8, 8, 8), df);
            assert!(matches!(
                Cannon.check(&mesh, problem),
                Err(GemmError::UnsupportedDataflow { .. })
            ));
        }
    }

    #[test]
    fn schedule_flops_equal_problem_flops() {
        let mesh = Torus2d::new(3, 3);
        let shape = GemmShape::new(12, 12, 12);
        let problem = GemmProblem::new(shape, Dataflow::Os);
        let prog = Cannon.schedule(&mesh, problem, 2).unwrap();
        assert_eq!(prog.total_flops(), shape.flops());
    }

    #[test]
    fn schedule_skew_traffic_grows_with_coordinates() {
        // Chip (0,0) needs no skew; chip (P-1, P-1) needs 2(P-1) exchanges.
        let mesh = Torus2d::new(3, 3);
        let problem = GemmProblem::new(GemmShape::new(12, 12, 12), Dataflow::Os);
        let prog = Cannon.schedule(&mesh, problem, 2).unwrap();
        let sends_of = |chip: usize| {
            prog.ops()
                .iter()
                .filter(|op| {
                    op.chip.index() == chip
                        && matches!(op.kind, meshslice_sim::OpKind::SendRecv { .. })
                })
                .count()
        };
        // Chip 0: no skew, 2 shifts per systolic step x (P-1) = 4.
        assert_eq!(sends_of(0), 4);
        // Chip 8 = (2,2): skew 4 + systolic 4 = 8.
        assert_eq!(sends_of(8), 8);
    }
}
