//! The symmetry quotient of an SPMD program on a torus.
//!
//! MeshSlice and most of its baselines are SPMD: every chip runs a
//! translated copy of one op list over its own links and HBM. On a
//! physical torus nothing couples the chips except the ring steps, and a
//! ring step's upstream neighbour runs the same op list, so it reaches
//! step `k − 1` at exactly the instant the chip itself does. One chip's
//! schedule is then every chip's schedule, and the engine can lower and
//! run that chip alone (see [`LoweredProgram`](crate::LoweredProgram)).
//!
//! A program is symmetric only by construction: one built from an SPMD
//! template ([`ProgramBuilder::spmd`]) runs a translated copy of chip 0's
//! ops on every chip, and its template is the representative. A program
//! built op by op ([`ProgramBuilder::new`]: Cannon's skewed prologue, a
//! hand-built test program) is never inspected for symmetry; it runs the
//! full node graph.
//!
//! [`ProgramBuilder::spmd`]: crate::ProgramBuilder::spmd
//! [`ProgramBuilder::new`]: crate::ProgramBuilder::new

use meshslice_mesh::Torus2d;

use crate::config::{NetworkModel, SimConfig};
use crate::program::Program;

/// Chip 0's ops of `program`, as a program whose dependencies index that
/// op list, when `program` was built from an SPMD template and runs on a
/// physical torus of at least two chips (a shared fabric couples every
/// transfer through its bisection bandwidth); `None` otherwise.
///
/// Lowering the returned program without ring wiring numbers its nodes
/// in the order chip 0's nodes take in the full lowering.
pub(crate) fn representative<'p>(
    mesh: &Torus2d,
    cfg: &SimConfig,
    program: &'p Program,
) -> Option<&'p Program> {
    let torus = mesh.num_chips() >= 2 && cfg.network == NetworkModel::PhysicalTorus;
    program.template().filter(|_| torus)
}

#[cfg(test)]
mod tests {
    use meshslice_mesh::{ChipId, CommAxis, LinkDir};
    use meshslice_tensor::GemmShape;

    use super::*;
    use crate::lower::lower;
    use crate::program::{OpId, ProgramBuilder};

    /// An SPMD step loop emitted into `b`: slice, all-gather on both axes,
    /// send-recv, GeMM, chained across `steps` (MeshSlice's shape).
    fn spmd_into(mut b: ProgramBuilder, steps: usize) -> Program {
        let mut last = vec![None; b.mesh().num_chips()];
        for _ in 0..steps {
            let (ta, tb) = (b.next_tag(), b.next_tag());
            for chip in b.chips() {
                let prev: Vec<OpId> = last[chip.index()].into_iter().collect();
                let sc = b.slice_copy(chip, 4096, &prev);
                let ag_a = b.all_gather(chip, ta, CommAxis::InterCol, 1 << 16, &[sc]);
                let ag_b = b.collective(
                    chip,
                    tb,
                    crate::CollectiveKind::AllGather,
                    CommAxis::InterRow,
                    1 << 15,
                    2,
                    &[sc],
                );
                let sr = b.send_recv(chip, LinkDir::RowPlus, 512, &prev);
                let g = b.gemm(chip, GemmShape::new(128, 128, 64), &[ag_a, ag_b, sr]);
                last[chip.index()] = Some(g);
            }
        }
        b.build()
    }

    /// [`spmd_into`] recorded as an SPMD template.
    fn spmd(mesh: &Torus2d, steps: usize) -> Program {
        spmd_into(ProgramBuilder::spmd(mesh), steps)
    }

    fn detect<'p>(mesh: &Torus2d, program: &'p Program) -> Option<&'p Program> {
        representative(mesh, &SimConfig::tpu_v4(), program)
    }

    #[test]
    fn spmd_programs_quotient_to_chip_zero() {
        for (rows, cols) in [(2, 2), (3, 5), (1, 4), (4, 1)] {
            let mesh = Torus2d::new(rows, cols);
            let template = spmd(&mesh, 3);
            let want = template.template().expect("an SPMD build is a template");
            assert_eq!(detect(&mesh, &template), Some(want));
            assert!(want.ops().iter().all(|op| op.chip == ChipId(0)));
            // The same ops emitted chip by chip run the full graph.
            let op_by_op = spmd_into(ProgramBuilder::new(&mesh), 3);
            assert_eq!(op_by_op, template);
            assert_eq!(detect(&mesh, &op_by_op), None);
        }
    }

    #[test]
    fn the_representative_graph_is_chip_zero_of_the_full_graph() {
        // Node for node, in order: the same work and the same own-chip
        // dependencies. Only the ring steps' cross-chip edges are gone.
        let (mesh, cfg) = (Torus2d::new(3, 4), SimConfig::tpu_v4());
        let program = spmd(&mesh, 3);
        let full = lower(&mesh, &cfg, &program, true);
        let rep = lower(&mesh, &cfg, detect(&mesh, &program).unwrap(), false);
        let chip0: Vec<usize> = (0..full.nodes.len())
            .filter(|&i| full.nodes[i].chip == 0)
            .collect();
        assert_eq!(chip0.len(), rep.nodes.len());
        let mut rep_of = vec![usize::MAX; full.nodes.len()];
        for (r, &f) in chip0.iter().enumerate() {
            rep_of[f] = r;
        }
        for (r, &f) in chip0.iter().enumerate() {
            let (a, b) = (&full.nodes[f], &rep.nodes[r]);
            let work = |n: &crate::lower::Node| {
                (
                    n.resource,
                    n.category,
                    n.sync,
                    n.timer,
                    n.flow_bytes,
                    n.flow_cap,
                )
            };
            assert_eq!(work(a), work(b), "node {f}");
            let own: Vec<usize> = full
                .deps(f)
                .iter()
                .filter(|&&d| full.nodes[d as usize].chip == 0)
                .map(|&d| rep_of[d as usize])
                .collect();
            let rep_deps: Vec<usize> = rep.deps(r).iter().map(|&d| d as usize).collect();
            assert_eq!(own, rep_deps, "node {f}");
        }
    }

    #[test]
    fn a_shared_fabric_or_a_single_chip_is_rejected() {
        let mesh = Torus2d::new(2, 2);
        let program = spmd(&mesh, 1);
        let fabric = SimConfig::gpu_logical_mesh(1e12);
        assert!(representative(&mesh, &fabric, &program).is_none());
        let single = Torus2d::new(1, 1);
        assert!(detect(&single, &spmd(&single, 2)).is_none());
    }
}
