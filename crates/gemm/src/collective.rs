//! Collective 2D GeMM (§2.3.4, Figure 2b).
//!
//! The whole communication of each direction is performed as a single
//! AllGather / ReduceScatter, followed (or preceded) by one local GeMM.
//! This maximizes communication efficiency — the fewest launches and
//! synchronizations of all algorithms — but nothing can be overlapped with
//! computation: there is no loop to software-pipeline.

use meshslice_mesh::Torus2d;
use meshslice_sim::CollectiveKind;
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::GemmError;
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// The Collective 2D GeMM algorithm.
///
/// # Example
///
/// ```
/// use meshslice_gemm::{Collective, Dataflow, DistributedGemm, GemmProblem};
/// use meshslice_mesh::Torus2d;
/// use meshslice_tensor::GemmShape;
///
/// # fn main() -> Result<(), meshslice_gemm::GemmError> {
/// let mesh = Torus2d::new(2, 2);
/// let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Ls);
/// let (a, b) = problem.random_inputs(&mesh, 1);
/// let c = Collective.execute(&mesh, problem, &a, &b)?;
/// assert_eq!(c.global_dims(), (8, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Collective;

impl DistributedGemm for Collective {
    fn name(&self) -> &str {
        "Collective"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
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
        let shape = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let (a_rows, a_cols) = problem.a_shard_dims(mesh.shape());
        let (b_rows, b_cols) = problem.b_shard_dims(mesh.shape());
        let a = pb.input_a(a_rows, a_cols);
        let b = pb.input_b(b_rows, b_cols);
        match problem.dataflow {
            Dataflow::Os => {
                // A_i* = AG_col(A_ij); B_*j = AG_row(B_ij); C_ij = A_i* B_*j.
                let ga = pb.gathered(a, problem.a_axis().unwrap());
                let gb = pb.gathered(b, problem.b_axis().unwrap());
                let local = GemmShape::new(shape.m / pr, shape.n / pc, shape.k);
                let c = pb.zeros(local.m, local.n);
                let ag_a_act = pb.action(DataOp::AllGather {
                    src: a,
                    dst: ga,
                    axis: problem.a_axis().unwrap(),
                });
                let ag_b_act = pb.action(DataOp::AllGather {
                    src: b,
                    dst: gb,
                    axis: problem.b_axis().unwrap(),
                });
                let tag_a = pb.sim().next_tag();
                let tag_b = pb.sim().next_tag();
                let a_bytes = problem.a_shard_bytes(mesh.shape(), elem_bytes);
                let b_bytes = problem.b_shard_bytes(mesh.shape(), elem_bytes);
                for chip in pb.chips() {
                    // Bidirectional rings: TPU collectives fully utilize
                    // the ICI links (both directions at once).
                    let ag_a = pb.sim().collective(
                        chip,
                        tag_a,
                        CollectiveKind::AllGather,
                        problem.a_axis().unwrap(),
                        a_bytes,
                        2,
                        &[],
                    );
                    pb.anchor(ag_a_act, ag_a);
                    let ag_b = pb.sim().collective(
                        chip,
                        tag_b,
                        CollectiveKind::AllGather,
                        problem.b_axis().unwrap(),
                        b_bytes,
                        2,
                        &[],
                    );
                    pb.anchor(ag_b_act, ag_b);
                    let g = pb.sim().gemm(chip, local, &[ag_a, ag_b]);
                    pb.attach(
                        g,
                        DataOp::Compute {
                            steps: vec![MatmulStep {
                                kind: MatKind::Ab,
                                lhs: TileRead::whole(ga, chip),
                                rhs: TileRead::whole(gb, chip),
                                dst: c,
                                dst_chip: chip,
                                dst_off: (0, 0),
                            }],
                        },
                    );
                }
                Ok(c)
            }
            Dataflow::Ls => {
                // B_*j = AG_row(B_ij); C'_i* = A_ij (B_*j)ᵀ; C_ij = RdS_col(C').
                let gb = pb.gathered(b, problem.b_axis().unwrap());
                let local = GemmShape::new(shape.m / pr, shape.n, shape.k / pc);
                let partial = pb.zeros(local.m, local.n);
                let (c_rows, c_cols) = problem.c_shard_dims(mesh.shape());
                let c = pb.reg(c_rows, c_cols);
                let ag_act = pb.action(DataOp::AllGather {
                    src: b,
                    dst: gb,
                    axis: problem.b_axis().unwrap(),
                });
                let rds_act = pb.action(DataOp::ReduceScatter {
                    src: partial,
                    dst: c,
                    axis: problem.c_axis().unwrap(),
                });
                let tag_b = pb.sim().next_tag();
                let tag_c = pb.sim().next_tag();
                let b_bytes = problem.b_shard_bytes(mesh.shape(), elem_bytes);
                let c_bytes = problem.c_shard_bytes(mesh.shape(), elem_bytes);
                for chip in pb.chips() {
                    let ag_b = pb.sim().collective(
                        chip,
                        tag_b,
                        CollectiveKind::AllGather,
                        problem.b_axis().unwrap(),
                        b_bytes,
                        2,
                        &[],
                    );
                    pb.anchor(ag_act, ag_b);
                    let gemm = pb.sim().gemm(chip, local, &[ag_b]);
                    pb.attach(
                        gemm,
                        DataOp::Compute {
                            steps: vec![MatmulStep {
                                kind: MatKind::Abt,
                                lhs: TileRead::whole(a, chip),
                                rhs: TileRead::whole(gb, chip),
                                dst: partial,
                                dst_chip: chip,
                                dst_off: (0, 0),
                            }],
                        },
                    );
                    let rds = pb.sim().collective(
                        chip,
                        tag_c,
                        CollectiveKind::ReduceScatter,
                        problem.c_axis().unwrap(),
                        c_bytes,
                        2,
                        &[gemm],
                    );
                    pb.anchor(rds_act, rds);
                }
                Ok(c)
            }
            Dataflow::Rs => {
                // A_i* = AG_col(A_ij); C'_*j = (A_i*)ᵀ B_ij; C_ij = RdS_row(C').
                let ga = pb.gathered(a, problem.a_axis().unwrap());
                let local = GemmShape::new(shape.m, shape.n / pc, shape.k / pr);
                let partial = pb.zeros(local.m, local.n);
                let (c_rows, c_cols) = problem.c_shard_dims(mesh.shape());
                let c = pb.reg(c_rows, c_cols);
                let ag_act = pb.action(DataOp::AllGather {
                    src: a,
                    dst: ga,
                    axis: problem.a_axis().unwrap(),
                });
                let rds_act = pb.action(DataOp::ReduceScatter {
                    src: partial,
                    dst: c,
                    axis: problem.c_axis().unwrap(),
                });
                let tag_a = pb.sim().next_tag();
                let tag_c = pb.sim().next_tag();
                let a_bytes = problem.a_shard_bytes(mesh.shape(), elem_bytes);
                let c_bytes = problem.c_shard_bytes(mesh.shape(), elem_bytes);
                for chip in pb.chips() {
                    let ag_a = pb.sim().collective(
                        chip,
                        tag_a,
                        CollectiveKind::AllGather,
                        problem.a_axis().unwrap(),
                        a_bytes,
                        2,
                        &[],
                    );
                    pb.anchor(ag_act, ag_a);
                    let gemm = pb.sim().gemm(chip, local, &[ag_a]);
                    pb.attach(
                        gemm,
                        DataOp::Compute {
                            steps: vec![MatmulStep {
                                kind: MatKind::Atb,
                                lhs: TileRead::whole(ga, chip),
                                rhs: TileRead::whole(b, chip),
                                dst: partial,
                                dst_chip: chip,
                                dst_off: (0, 0),
                            }],
                        },
                    );
                    let rds = pb.sim().collective(
                        chip,
                        tag_c,
                        CollectiveKind::ReduceScatter,
                        problem.c_axis().unwrap(),
                        c_bytes,
                        2,
                        &[gemm],
                    );
                    pb.anchor(rds_act, rds);
                }
                Ok(c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_functional(df: Dataflow, mesh: (usize, usize), shape: (usize, usize, usize)) {
        let mesh = Torus2d::new(mesh.0, mesh.1);
        let problem = GemmProblem::new(GemmShape::new(shape.0, shape.1, shape.2), df);
        let (a, b) = problem.random_inputs(&mesh, 123);
        let c = Collective.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(
            c.assemble().approx_eq(&expect, 1e-4),
            "{df} mismatch: max diff {}",
            c.assemble().max_abs_diff(&expect)
        );
    }

    #[test]
    fn os_matches_dense() {
        check_functional(Dataflow::Os, (2, 3), (4, 6, 12));
    }

    #[test]
    fn ls_matches_dense() {
        check_functional(Dataflow::Ls, (2, 3), (4, 6, 12));
    }

    #[test]
    fn rs_matches_dense() {
        check_functional(Dataflow::Rs, (2, 3), (6, 6, 4));
    }

    #[test]
    fn single_chip_degenerates_to_dense() {
        check_functional(Dataflow::Os, (1, 1), (4, 4, 4));
    }

    #[test]
    fn schedule_flops_equal_problem_flops() {
        let mesh = Torus2d::new(2, 4);
        let shape = GemmShape::new(64, 32, 16);
        for df in Dataflow::ALL {
            let problem = GemmProblem::new(shape, df);
            let prog = Collective.schedule(&mesh, problem, 2).unwrap();
            assert_eq!(prog.total_flops(), shape.flops(), "{df}");
        }
    }

    #[test]
    fn schedule_rejects_indivisible_problems() {
        let mesh = Torus2d::new(3, 3);
        let problem = GemmProblem::new(GemmShape::new(4, 4, 4), Dataflow::Os);
        assert!(Collective.schedule(&mesh, problem, 2).is_err());
    }

    #[test]
    fn execute_rejects_mismatched_layout() {
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
        let (a, b) = problem.random_inputs(&mesh, 7);
        let wrong = GemmProblem::new(GemmShape::new(8, 8, 16), Dataflow::Os);
        let err = Collective.execute(&mesh, wrong, &a, &b).unwrap_err();
        assert!(matches!(err, GemmError::ShardLayout { .. }), "{err}");
    }
}
