//! The MeshSlice 2D GeMM algorithm (§3.1, Figure 5).
//!
//! MeshSlice slices every moving matrix shard into `S` blocked sub-shards
//! (Algorithm 2) and runs `S` loop iterations, each performing *partial*
//! AllGather / ReduceScatter collectives and a partial GeMM. Software
//! pipelining overlaps the collectives of one iteration with the GeMM of
//! another — in **both** mesh directions, which no prior algorithm achieves
//! (Cannon needs square meshes, SUMMA pays fine-grain synchronization,
//! Collective cannot overlap at all, and Wang overlaps one direction only).

use meshslice_mesh::Torus2d;
use meshslice_sim::{CollectiveKind, OpId, ProgramBuilder};
use meshslice_tensor::slice::SliceSpec;
use meshslice_tensor::GemmShape;

use crate::algorithm::DistributedGemm;
use crate::error::{ensure_divides, GemmError};
use crate::plan::{DataOp, MatKind, MatmulStep, PlanBuilder, Reg, TileRead};
use crate::problem::{Dataflow, GemmProblem};

/// The MeshSlice algorithm with slice count `S` and block size `B`.
///
/// `S` controls communication granularity: larger values shrink the
/// non-overlapped prologue/epilogue but add per-iteration launch and
/// synchronization overhead (§3.1). `B` is the architecture's efficient
/// memory-access block (8 for TPUs, which read 128×8 chunks).
///
/// # Example
///
/// ```
/// use meshslice_gemm::{Dataflow, DistributedGemm, GemmProblem, MeshSlice};
/// use meshslice_mesh::Torus2d;
/// use meshslice_tensor::GemmShape;
///
/// # fn main() -> Result<(), meshslice_gemm::GemmError> {
/// let mesh = Torus2d::new(2, 2);
/// let problem = GemmProblem::new(GemmShape::new(8, 8, 16), Dataflow::Os);
/// let algo = MeshSlice::new(2, 2);
/// let (a, b) = problem.random_inputs(&mesh, 0);
/// let c = algo.execute(&mesh, problem, &a, &b)?;
/// assert!(c.assemble().approx_eq(&problem.reference(&a.assemble(), &b.assemble()), 1e-4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeshSlice {
    slice_count: usize,
    block: usize,
}

impl MeshSlice {
    /// Creates a MeshSlice instance with `S = slice_count` and block `B`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(slice_count: usize, block: usize) -> Self {
        assert!(slice_count > 0, "slice count must be positive");
        assert!(block > 0, "block size must be positive");
        MeshSlice { slice_count, block }
    }

    /// Creates an instance with the TPU block size (`B = 8`).
    pub fn with_tpu_block(slice_count: usize) -> Self {
        MeshSlice::new(slice_count, 8)
    }

    /// The slice count `S`.
    pub fn slice_count(&self) -> usize {
        self.slice_count
    }

    /// The block size `B`.
    pub fn block(&self) -> usize {
        self.block
    }

    pub(crate) fn spec(&self) -> SliceSpec {
        SliceSpec::new(self.slice_count, self.block)
    }

    /// The two local extents the slicing applies to, per dataflow:
    /// OS slices `K` on both inputs, LS slices `N`, RS slices `M`.
    fn sliced_extents(&self, mesh: &Torus2d, problem: GemmProblem) -> [(&'static str, usize); 2] {
        let GemmShape { m, n, k } = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        match problem.dataflow {
            Dataflow::Os => [
                ("K/Pc (A sub-shard)", k / pc),
                ("K/Pr (B sub-shard)", k / pr),
            ],
            Dataflow::Ls => [
                ("N/Pr (B sub-shard)", n / pr),
                ("N/Pc (C sub-shard)", n / pc),
            ],
            Dataflow::Rs => [
                ("M/Pc (A sub-shard)", m / pc),
                ("M/Pr (C sub-shard)", m / pr),
            ],
        }
    }
}

impl Default for MeshSlice {
    /// `S = 1`, `B = 8`: degenerates to the Collective algorithm.
    fn default() -> Self {
        MeshSlice::with_tpu_block(1)
    }
}

impl DistributedGemm for MeshSlice {
    fn name(&self) -> &str {
        "MeshSlice"
    }

    fn check(&self, mesh: &Torus2d, problem: GemmProblem) -> Result<(), GemmError> {
        problem.check_divisible(mesh.shape())?;
        let unit = self.slice_count * self.block;
        for (what, extent) in self.sliced_extents(mesh, problem) {
            ensure_divides(format_args!("{what} by S*B"), extent, unit)?;
        }
        Ok(())
    }

    fn emit(
        &self,
        pb: &mut PlanBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
    ) -> Result<Reg, GemmError> {
        self.plan_chained(pb, problem, elem_bytes, &[], &[])
            .map(|(_, c)| c)
    }
}

impl MeshSlice {
    /// Appends this pass's schedule into an existing builder, returning
    /// the last partial-GeMM op of every chip the builder emits (chip 0
    /// alone in an SPMD builder, see [`ProgramBuilder::emitted_chips`]).
    ///
    /// `prev_gemms` (empty, or one entry per emitted chip) are
    /// compute-order predecessors: every GeMM of this pass runs after
    /// them, modeling the data flow between consecutive training passes.
    /// `prefetch_after` (empty, or one entry per emitted chip) bounds how
    /// early this pass's slicing and communication may start — pass
    /// `p − 2`'s GeMMs for classic double buffering, so pass `p`'s
    /// communication overlaps pass `p − 1`'s compute without crowding
    /// earlier passes. This is the building block of fused multi-pass
    /// schedules (see the `ext_fused_pipeline` ablation).
    ///
    /// No data annotations are recorded: a fused schedule's inputs flow
    /// between passes, which the plan IR does not model (each plan
    /// describes one stand-alone GeMM).
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the mesh, dataflow, or dimensions are
    /// unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `prev_gemms` or `prefetch_after` is neither empty nor one
    /// entry per emitted chip.
    pub fn schedule_chained(
        &self,
        b: &mut ProgramBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
        prev_gemms: &[OpId],
        prefetch_after: &[OpId],
    ) -> Result<Vec<OpId>, GemmError> {
        let mut pb = PlanBuilder::unannotated(b);
        let (gemms, _) =
            self.plan_chained(&mut pb, problem, elem_bytes, prev_gemms, prefetch_after)?;
        Ok(gemms)
    }

    /// Emits this pass's ops and data annotations into `pb`, returning the
    /// last partial-GeMM op of every emitted chip and the result register.
    pub(crate) fn plan_chained(
        &self,
        pb: &mut PlanBuilder,
        problem: GemmProblem,
        elem_bytes: usize,
        prev_gemms: &[OpId],
        prefetch_after: &[OpId],
    ) -> Result<(Vec<OpId>, Reg), GemmError> {
        let mesh = pb.mesh().clone();
        let mesh = &mesh;
        self.check(mesh, problem)?;
        let emitted = pb.sim().emitted_chips();
        assert!(
            prev_gemms.is_empty() || prev_gemms.len() == emitted,
            "prev_gemms must be empty or one op per emitted chip"
        );
        assert!(
            prefetch_after.is_empty() || prefetch_after.len() == emitted,
            "prefetch_after must be empty or one op per emitted chip"
        );
        let prefetch_dep = |chip: meshslice_mesh::ChipId| -> Vec<OpId> {
            prefetch_after
                .get(chip.index())
                .copied()
                .into_iter()
                .collect()
        };
        let spec = self.spec();
        let s_count = self.slice_count as u64;
        let shape = problem.shape;
        let (pr, pc) = (mesh.rows(), mesh.cols());
        let mesh_shape = mesh.shape();
        let a_sub = problem.a_shard_bytes(mesh_shape, elem_bytes) / s_count;
        let b_sub = problem.b_shard_bytes(mesh_shape, elem_bytes) / s_count;
        let c_sub = problem.c_shard_bytes(mesh_shape, elem_bytes) / s_count;
        // With S = 1 the algorithm *is* Collective: real implementations
        // skip the identity slicing, and so does the schedule.
        let slicing = self.slice_count > 1;
        // Per-chip compute-order chain, seeded with the previous pass.
        let mut last_gemm: Vec<Option<OpId>> = if prev_gemms.is_empty() {
            vec![None; emitted]
        } else {
            prev_gemms.iter().copied().map(Some).collect()
        };

        let (a_rows, a_cols) = problem.a_shard_dims(mesh_shape);
        let (b_rows, b_cols) = problem.b_shard_dims(mesh_shape);
        let (c_rows, c_cols) = problem.c_shard_dims(mesh_shape);
        let a = pb.input_a(a_rows, a_cols);
        let b = pb.input_b(b_rows, b_cols);
        // OS accumulates partial products into C; LS/RS scatter each
        // slice's columns/rows into a zero-initialized C (or, with S = 1,
        // one ReduceScatter writes the whole shard).
        let c = if problem.dataflow == Dataflow::Os || slicing {
            pb.zeros(c_rows, c_cols)
        } else {
            pb.reg(c_rows, c_cols)
        };

        for s in 0..self.slice_count {
            match problem.dataflow {
                Dataflow::Os => {
                    let tag_a = pb.sim().next_tag();
                    let tag_b = pb.sim().next_tag();
                    let local =
                        GemmShape::new(shape.m / pr, shape.n / pc, shape.k / self.slice_count);
                    let a_src = if slicing {
                        pb.reg(a_rows, a_cols / self.slice_count)
                    } else {
                        a
                    };
                    let b_src = if slicing {
                        pb.reg(b_rows / self.slice_count, b_cols)
                    } else {
                        b
                    };
                    let ga = pb.gathered(a_src, problem.a_axis().unwrap());
                    let gb = pb.gathered(b_src, problem.b_axis().unwrap());
                    let ag_a_act = pb.action(DataOp::AllGather {
                        src: a_src,
                        dst: ga,
                        axis: problem.a_axis().unwrap(),
                    });
                    let ag_b_act = pb.action(DataOp::AllGather {
                        src: b_src,
                        dst: gb,
                        axis: problem.b_axis().unwrap(),
                    });
                    for chip in pb.chips() {
                        let a_deps = if slicing {
                            let sc = pb.sim().slice_copy(chip, a_sub, &prefetch_dep(chip));
                            pb.attach(
                                sc,
                                DataOp::SliceCols {
                                    chip,
                                    src: a,
                                    dst: a_src,
                                    spec,
                                    index: s,
                                },
                            );
                            vec![sc]
                        } else {
                            prefetch_dep(chip)
                        };
                        let ag_a = pb.sim().collective(
                            chip,
                            tag_a,
                            CollectiveKind::AllGather,
                            problem.a_axis().unwrap(),
                            a_sub,
                            2,
                            &a_deps,
                        );
                        pb.anchor(ag_a_act, ag_a);
                        let b_deps = if slicing {
                            let sc = pb.sim().slice_copy(chip, b_sub, &prefetch_dep(chip));
                            pb.attach(
                                sc,
                                DataOp::SliceRows {
                                    chip,
                                    src: b,
                                    dst: b_src,
                                    spec,
                                    index: s,
                                },
                            );
                            vec![sc]
                        } else {
                            prefetch_dep(chip)
                        };
                        let ag_b = pb.sim().collective(
                            chip,
                            tag_b,
                            CollectiveKind::AllGather,
                            problem.b_axis().unwrap(),
                            b_sub,
                            2,
                            &b_deps,
                        );
                        pb.anchor(ag_b_act, ag_b);
                        let mut gemm_deps = vec![ag_a, ag_b];
                        gemm_deps.extend(last_gemm[chip.index()]);
                        let gemm = pb.sim().gemm(chip, local, &gemm_deps);
                        pb.attach(
                            gemm,
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
                        last_gemm[chip.index()] = Some(gemm);
                    }
                }
                Dataflow::Ls => {
                    let tag_b = pb.sim().next_tag();
                    let tag_c = pb.sim().next_tag();
                    let local =
                        GemmShape::new(shape.m / pr, shape.n / self.slice_count, shape.k / pc);
                    let b_src = if slicing {
                        pb.reg(b_rows / self.slice_count, b_cols)
                    } else {
                        b
                    };
                    let gb = pb.gathered(b_src, problem.b_axis().unwrap());
                    let partial = pb.zeros(local.m, local.n);
                    let scattered = if slicing {
                        pb.reg(c_rows, c_cols / self.slice_count)
                    } else {
                        c
                    };
                    let ag_act = pb.action(DataOp::AllGather {
                        src: b_src,
                        dst: gb,
                        axis: problem.b_axis().unwrap(),
                    });
                    let rds_act = pb.action(DataOp::ReduceScatter {
                        src: partial,
                        dst: scattered,
                        axis: problem.c_axis().unwrap(),
                    });
                    for chip in pb.chips() {
                        let b_deps = if slicing {
                            let sc = pb.sim().slice_copy(chip, b_sub, &prefetch_dep(chip));
                            pb.attach(
                                sc,
                                DataOp::SliceRows {
                                    chip,
                                    src: b,
                                    dst: b_src,
                                    spec,
                                    index: s,
                                },
                            );
                            vec![sc]
                        } else {
                            prefetch_dep(chip)
                        };
                        let ag_b = pb.sim().collective(
                            chip,
                            tag_b,
                            CollectiveKind::AllGather,
                            problem.b_axis().unwrap(),
                            b_sub,
                            2,
                            &b_deps,
                        );
                        pb.anchor(ag_act, ag_b);
                        let mut gemm_deps = vec![ag_b];
                        gemm_deps.extend(last_gemm[chip.index()]);
                        let gemm = pb.sim().gemm(chip, local, &gemm_deps);
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
                        last_gemm[chip.index()] = Some(gemm);
                        let rds = pb.sim().collective(
                            chip,
                            tag_c,
                            CollectiveKind::ReduceScatter,
                            problem.c_axis().unwrap(),
                            c_sub,
                            2,
                            &[gemm],
                        );
                        pb.anchor(rds_act, rds);
                        if slicing {
                            let sc = pb.sim().slice_copy(chip, c_sub, &[rds]);
                            pb.attach(
                                sc,
                                DataOp::UnsliceCols {
                                    chip,
                                    src: scattered,
                                    dst: c,
                                    spec,
                                    index: s,
                                },
                            );
                        }
                    }
                }
                Dataflow::Rs => {
                    let tag_a = pb.sim().next_tag();
                    let tag_c = pb.sim().next_tag();
                    let local =
                        GemmShape::new(shape.m / self.slice_count, shape.n / pc, shape.k / pr);
                    let a_src = if slicing {
                        pb.reg(a_rows, a_cols / self.slice_count)
                    } else {
                        a
                    };
                    let ga = pb.gathered(a_src, problem.a_axis().unwrap());
                    let partial = pb.zeros(local.m, local.n);
                    let scattered = if slicing {
                        pb.reg(c_rows / self.slice_count, c_cols)
                    } else {
                        c
                    };
                    let ag_act = pb.action(DataOp::AllGather {
                        src: a_src,
                        dst: ga,
                        axis: problem.a_axis().unwrap(),
                    });
                    let rds_act = pb.action(DataOp::ReduceScatter {
                        src: partial,
                        dst: scattered,
                        axis: problem.c_axis().unwrap(),
                    });
                    for chip in pb.chips() {
                        let a_deps = if slicing {
                            let sc = pb.sim().slice_copy(chip, a_sub, &prefetch_dep(chip));
                            pb.attach(
                                sc,
                                DataOp::SliceCols {
                                    chip,
                                    src: a,
                                    dst: a_src,
                                    spec,
                                    index: s,
                                },
                            );
                            vec![sc]
                        } else {
                            prefetch_dep(chip)
                        };
                        let ag_a = pb.sim().collective(
                            chip,
                            tag_a,
                            CollectiveKind::AllGather,
                            problem.a_axis().unwrap(),
                            a_sub,
                            2,
                            &a_deps,
                        );
                        pb.anchor(ag_act, ag_a);
                        let mut gemm_deps = vec![ag_a];
                        gemm_deps.extend(last_gemm[chip.index()]);
                        let gemm = pb.sim().gemm(chip, local, &gemm_deps);
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
                        last_gemm[chip.index()] = Some(gemm);
                        let rds = pb.sim().collective(
                            chip,
                            tag_c,
                            CollectiveKind::ReduceScatter,
                            problem.c_axis().unwrap(),
                            c_sub,
                            2,
                            &[gemm],
                        );
                        pb.anchor(rds_act, rds);
                        if slicing {
                            let sc = pb.sim().slice_copy(chip, c_sub, &[rds]);
                            pb.attach(
                                sc,
                                DataOp::UnsliceRows {
                                    chip,
                                    src: scattered,
                                    dst: c,
                                    spec,
                                    index: s,
                                },
                            );
                        }
                    }
                }
            }
        }
        // Every emitted chip ran at least one partial GeMM (S >= 1); an
        // SPMD builder emits chip 0 alone.
        let gemms = last_gemm.into_iter().flatten().collect();
        Ok((gemms, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_tensor::GemmShape;

    fn check_functional(
        df: Dataflow,
        mesh: (usize, usize),
        shape: (usize, usize, usize),
        s: usize,
        block: usize,
    ) {
        let mesh = Torus2d::new(mesh.0, mesh.1);
        let problem = GemmProblem::new(GemmShape::new(shape.0, shape.1, shape.2), df);
        let algo = MeshSlice::new(s, block);
        let (a, b) = problem.random_inputs(&mesh, 99);
        let c = algo.execute(&mesh, problem, &a, &b).unwrap();
        let expect = problem.reference(&a.assemble(), &b.assemble());
        assert!(
            c.assemble().approx_eq(&expect, 1e-4),
            "{df} S={s} B={block}: max diff {}",
            c.assemble().max_abs_diff(&expect)
        );
    }

    #[test]
    fn os_matches_dense() {
        // K/Pc = 24/3 = 8, K/Pr = 24/2 = 12... both must divide by S*B = 4.
        check_functional(Dataflow::Os, (2, 3), (4, 6, 24), 2, 2);
    }

    #[test]
    fn ls_matches_dense() {
        // N/Pr = 24/2 = 12, N/Pc = 24/3 = 8; S*B = 4 divides both.
        check_functional(Dataflow::Ls, (2, 3), (4, 24, 6), 2, 2);
    }

    #[test]
    fn rs_matches_dense() {
        check_functional(Dataflow::Rs, (2, 3), (24, 6, 4), 2, 2);
    }

    #[test]
    fn slice_count_one_equals_collective() {
        check_functional(Dataflow::Os, (2, 2), (4, 4, 8), 1, 2);
    }

    #[test]
    fn deep_slicing_still_correct() {
        check_functional(Dataflow::Os, (2, 2), (4, 4, 32), 8, 2);
    }

    #[test]
    fn rejects_unsliceable_k() {
        let mesh = Torus2d::new(2, 2);
        // K/Pc = 6 is not divisible by S*B = 4.
        let problem = GemmProblem::new(GemmShape::new(4, 4, 12), Dataflow::Os);
        let err = MeshSlice::new(2, 2).check(&mesh, problem).unwrap_err();
        assert!(matches!(err, GemmError::Indivisible { .. }));
    }

    #[test]
    fn schedule_flops_equal_problem_flops() {
        let mesh = Torus2d::new(2, 4);
        let shape = GemmShape::new(64, 64, 64);
        for df in Dataflow::ALL {
            let problem = GemmProblem::new(shape, df);
            let prog = MeshSlice::new(4, 2).schedule(&mesh, problem, 2).unwrap();
            assert_eq!(prog.total_flops(), shape.flops(), "{df}");
        }
    }

    #[test]
    fn schedule_with_s1_has_no_slice_ops() {
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(32, 32, 32), Dataflow::Os);
        let prog = MeshSlice::new(1, 8).schedule(&mesh, problem, 2).unwrap();
        let has_slice = prog
            .ops()
            .iter()
            .any(|op| matches!(op.kind, meshslice_sim::OpKind::SliceCopy { .. }));
        assert!(!has_slice);
    }

    #[test]
    fn schedule_op_count_scales_with_s() {
        let mesh = Torus2d::new(2, 2);
        let problem = GemmProblem::new(GemmShape::new(64, 64, 64), Dataflow::Os);
        let p2 = MeshSlice::new(2, 2).schedule(&mesh, problem, 2).unwrap();
        let p4 = MeshSlice::new(4, 2).schedule(&mesh, problem, 2).unwrap();
        assert_eq!(p4.len(), 2 * p2.len());
    }
}
