//! The SUMMA algorithm (§2.3.3, Figure 2a).
//!
//! SUMMA loops over `P` panels; each iteration broadcasts one panel of a
//! moving input along a mesh ring (or reduces one panel of the output) and
//! computes a partial GeMM. The broadcast/reduce primitives are pipelined
//! fine-grain packet streams, so every iteration pays `P + D − 2`
//! synchronizations and suffers pipeline bubbles — the O(P²) total
//! synchronization overhead that makes SUMMA collapse on large meshes.

use meshslice_mesh::{CommAxis, Coord, Torus2d};
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::{ensure_divides, GemmError};
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// The SUMMA algorithm with `panels` loop iterations.
///
/// `panels` must be a common multiple of the mesh dimensions (the paper's
/// `P`); [`Summa::auto`] picks the least common multiple. The evaluation
/// applies loop unrolling to SUMMA by setting `panels` equal to MeshSlice's
/// tuned slice count when it is larger than the LCM.
///
/// # Example
///
/// ```
/// use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, Summa};
/// use meshslice_mesh::Torus2d;
/// use meshslice_tensor::GemmShape;
///
/// # fn main() -> Result<(), meshslice_gemm::GemmError> {
/// let mesh = Torus2d::new(2, 2);
/// let problem = GemmProblem::new(GemmShape::new(8, 8, 8), Dataflow::Os);
/// let (a, b) = problem.random_inputs(&mesh, 5);
/// let c = Summa::auto(&mesh).execute(&mesh, problem, &a, &b)?;
/// assert!(c.assemble().approx_eq(&problem.reference(&a.assemble(), &b.assemble()), 1e-4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Summa {
    panels: usize,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (helper for SUMMA panel counts).
pub(crate) fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl Summa {
    /// Creates a SUMMA instance with an explicit panel count.
    ///
    /// # Panics
    ///
    /// Panics if `panels` is zero.
    pub fn new(panels: usize) -> Self {
        assert!(panels > 0, "panel count must be positive");
        Summa { panels }
    }

    /// SUMMA with the smallest legal panel count for the mesh,
    /// `lcm(Pr, Pc)`.
    pub fn auto(mesh: &Torus2d) -> Self {
        Summa::new(lcm(mesh.rows(), mesh.cols()))
    }

    /// The panel count `P`.
    pub fn panels(&self) -> usize {
        self.panels
    }

    /// The dimension the panels split, per dataflow (`K` for OS, `N` for
    /// LS, `M` for RS).
    fn panel_dim(&self, problem: GemmProblem) -> (&'static str, usize) {
        match problem.dataflow {
            Dataflow::Os => ("K", problem.shape.k),
            Dataflow::Ls => ("N", problem.shape.n),
            Dataflow::Rs => ("M", problem.shape.m),
        }
    }
}

impl DistributedGemm for Summa {
    fn name(&self) -> &str {
        "SUMMA"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        problem.check_divisible(mesh.shape())?;
        ensure_divides("SUMMA panels by mesh rows", self.panels, mesh.rows())?;
        ensure_divides("SUMMA panels by mesh cols", self.panels, mesh.cols())?;
        let (name, dim) = self.panel_dim(problem);
        ensure_divides(format_args!("{name} by SUMMA panels"), dim, self.panels)?;
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
        let p = self.panels;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let shape = problem.shape;
        let eb = elem_bytes as u64;
        let (a_rows, a_cols) = problem.a_shard_dims(mesh.shape());
        let (b_rows, b_cols) = problem.b_shard_dims(mesh.shape());
        let (c_rows, c_cols) = problem.c_shard_dims(mesh.shape());
        let a = pb.input_a(a_rows, a_cols);
        let b = pb.input_b(b_rows, b_cols);
        let c = pb.zeros(c_rows, c_cols);
        for panel in 0..p {
            // Ring positions of the chips owning this panel.
            let owner_row = panel / (p / pr);
            let owner_col = panel / (p / pc);
            match problem.dataflow {
                Dataflow::Os => {
                    // A' = bcast_col(A_{i,panel}); B' = bcast_row(B_{panel,j});
                    // C_ij += A'·B'.
                    let k_p = shape.k / p;
                    let a_off = panel * k_p - owner_col * (shape.k / pc);
                    let b_off = panel * k_p - owner_row * (shape.k / pr);
                    let a_bytes = (shape.m / pr * k_p) as u64 * eb;
                    let b_bytes = (k_p * shape.n / pc) as u64 * eb;
                    let local = GemmShape::new(shape.m / pr, shape.n / pc, k_p);
                    for chip in pb.chips() {
                        let coord = mesh.coord_of(chip);
                        // The broadcast panels live on the owner chips of
                        // this chip's row and column rings.
                        let a_tile = TileRead::region(
                            a,
                            mesh.chip_at(Coord::new(coord.row(), owner_col)),
                            0,
                            a_off,
                            a_rows,
                            k_p,
                        );
                        let b_tile = TileRead::region(
                            b,
                            mesh.chip_at(Coord::new(owner_row, coord.col())),
                            b_off,
                            0,
                            k_p,
                            b_cols,
                        );
                        let bc_a = pb
                            .sim()
                            .pipelined_bcast(chip, CommAxis::InterCol, a_bytes, &[]);
                        pb.attach(bc_a, DataOp::Carries { tile: a_tile });
                        let bc_b = pb
                            .sim()
                            .pipelined_bcast(chip, CommAxis::InterRow, b_bytes, &[]);
                        pb.attach(bc_b, DataOp::Carries { tile: b_tile });
                        let gemm = pb.sim().gemm(chip, local, &[bc_a, bc_b]);
                        pb.attach(
                            gemm,
                            DataOp::Compute {
                                steps: vec![MatmulStep {
                                    kind: MatKind::Ab,
                                    lhs: a_tile,
                                    rhs: b_tile,
                                    dst: c,
                                    dst_chip: chip,
                                    dst_off: (0, 0),
                                }],
                            },
                        );
                    }
                }
                Dataflow::Ls => {
                    // B' = bcast_row(B_{panel,j}); C' = A_ij·(B')ᵀ;
                    // reduce_col(C', C_{i,panel}).
                    let n_p = shape.n / p;
                    let b_off = panel * n_p - owner_row * (shape.n / pr);
                    let c_off = panel * n_p - owner_col * (shape.n / pc);
                    let b_bytes = (n_p * shape.k / pc) as u64 * eb;
                    let c_bytes = (shape.m / pr * n_p) as u64 * eb;
                    let local = GemmShape::new(shape.m / pr, n_p, shape.k / pc);
                    for chip in pb.chips() {
                        let coord = mesh.coord_of(chip);
                        let owner = mesh.chip_at(Coord::new(coord.row(), owner_col));
                        let b_tile = TileRead::region(
                            b,
                            mesh.chip_at(Coord::new(owner_row, coord.col())),
                            b_off,
                            0,
                            n_p,
                            b_cols,
                        );
                        let bc_b = pb
                            .sim()
                            .pipelined_bcast(chip, CommAxis::InterRow, b_bytes, &[]);
                        pb.attach(bc_b, DataOp::Carries { tile: b_tile });
                        let gemm = pb.sim().gemm(chip, local, &[bc_b]);
                        // The ring reduce sums every chip's partial into
                        // the owner's C panel: a cross-chip accumulation.
                        pb.attach(
                            gemm,
                            DataOp::Compute {
                                steps: vec![MatmulStep {
                                    kind: MatKind::Abt,
                                    lhs: TileRead::whole(a, chip),
                                    rhs: b_tile,
                                    dst: c,
                                    dst_chip: owner,
                                    dst_off: (0, c_off),
                                }],
                            },
                        );
                        let rd =
                            pb.sim()
                                .pipelined_bcast(chip, CommAxis::InterCol, c_bytes, &[gemm]);
                        pb.attach(
                            rd,
                            DataOp::Carries {
                                tile: TileRead::region(c, owner, 0, c_off, shape.m / pr, n_p),
                            },
                        );
                    }
                }
                Dataflow::Rs => {
                    // A' = bcast_col(A_{i,panel}); C' = (A')ᵀ·B_ij;
                    // reduce_row(C', C_{panel,j}).
                    let m_p = shape.m / p;
                    let a_off = panel * m_p - owner_col * (shape.m / pc);
                    let c_off = panel * m_p - owner_row * (shape.m / pr);
                    let a_bytes = (shape.k / pr * m_p) as u64 * eb;
                    let c_bytes = (m_p * shape.n / pc) as u64 * eb;
                    let local = GemmShape::new(m_p, shape.n / pc, shape.k / pr);
                    for chip in pb.chips() {
                        let coord = mesh.coord_of(chip);
                        let owner = mesh.chip_at(Coord::new(owner_row, coord.col()));
                        let a_tile = TileRead::region(
                            a,
                            mesh.chip_at(Coord::new(coord.row(), owner_col)),
                            0,
                            a_off,
                            a_rows,
                            m_p,
                        );
                        let bc_a = pb
                            .sim()
                            .pipelined_bcast(chip, CommAxis::InterCol, a_bytes, &[]);
                        pb.attach(bc_a, DataOp::Carries { tile: a_tile });
                        let gemm = pb.sim().gemm(chip, local, &[bc_a]);
                        pb.attach(
                            gemm,
                            DataOp::Compute {
                                steps: vec![MatmulStep {
                                    kind: MatKind::Atb,
                                    lhs: a_tile,
                                    rhs: TileRead::whole(b, chip),
                                    dst: c,
                                    dst_chip: owner,
                                    dst_off: (c_off, 0),
                                }],
                            },
                        );
                        let rd =
                            pb.sim()
                                .pipelined_bcast(chip, CommAxis::InterRow, c_bytes, &[gemm]);
                        pb.attach(
                            rd,
                            DataOp::Carries {
                                tile: TileRead::region(c, owner, c_off, 0, m_p, shape.n / pc),
                            },
                        );
                    }
                }
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_functional(
        df: Dataflow,
        mesh: (usize, usize),
        shape: (usize, usize, usize),
        panels: usize,
    ) {
        let mesh = Torus2d::new(mesh.0, mesh.1);
        let problem = GemmProblem::new(GemmShape::new(shape.0, shape.1, shape.2), df);
        let algo = Summa::new(panels);
        let (a, b) = problem.random_inputs(&mesh, 17);
        let c = algo.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(
            c.assemble().approx_eq(&expect, 1e-4),
            "{df} P={panels}: max diff {}",
            c.assemble().max_abs_diff(&expect)
        );
    }

    #[test]
    fn os_matches_dense() {
        check_functional(Dataflow::Os, (2, 3), (4, 6, 12), 6);
    }

    #[test]
    fn os_with_more_panels() {
        check_functional(Dataflow::Os, (2, 2), (4, 4, 16), 8);
    }

    #[test]
    fn ls_matches_dense() {
        check_functional(Dataflow::Ls, (2, 3), (4, 12, 6), 6);
    }

    #[test]
    fn rs_matches_dense() {
        check_functional(Dataflow::Rs, (3, 2), (12, 4, 6), 6);
    }

    #[test]
    fn auto_uses_lcm() {
        assert_eq!(Summa::auto(&Torus2d::new(4, 6)).panels(), 12);
        assert_eq!(Summa::auto(&Torus2d::new(8, 8)).panels(), 8);
    }

    #[test]
    fn rejects_panel_count_not_multiple_of_mesh() {
        let mesh = Torus2d::new(2, 3);
        let problem = GemmProblem::new(GemmShape::new(12, 12, 12), Dataflow::Os);
        assert!(Summa::new(4).check(&mesh, problem).is_err());
        assert!(Summa::new(6).check(&mesh, problem).is_ok());
    }

    #[test]
    fn schedule_flops_equal_problem_flops() {
        let mesh = Torus2d::new(2, 2);
        let shape = GemmShape::new(32, 32, 32);
        for df in Dataflow::ALL {
            let problem = GemmProblem::new(shape, df);
            let prog = Summa::new(4).schedule(&mesh, problem, 2).unwrap();
            assert_eq!(prog.total_flops(), shape.flops(), "{df}");
        }
    }

    #[test]
    fn schedule_has_two_bcasts_per_panel_per_chip() {
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
        let prog = Summa::new(4).schedule(&mesh, problem, 2).unwrap();
        let bcasts = prog
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, meshslice_sim::OpKind::PipelinedBcast { .. }))
            .count();
        assert_eq!(bcasts, 4 * 4 * 2);
    }
}
