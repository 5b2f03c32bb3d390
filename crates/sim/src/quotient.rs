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
//! A program built from an SPMD template ([`ProgramBuilder::spmd`]) is
//! symmetric by construction, and its template is the representative.
//! [`representative`] checks an op-by-op program (a hand-built one, or a
//! fused multi-pass schedule) in one linear pass instead.
//!
//! [`ProgramBuilder::spmd`]: crate::ProgramBuilder::spmd

use meshslice_mesh::{ChipId, Torus2d};

use crate::config::{NetworkModel, SimConfig};
use crate::program::{Op, OpId, OpKind, Program};

/// Chip 0's ops of `program`, as a program whose dependencies index that
/// op list, when `program` is invariant under torus translation on
/// `mesh`; `None` otherwise.
///
/// The network must be a physical torus (a shared fabric couples every
/// transfer through its bisection bandwidth) of more than one chip. A
/// template program then qualifies as it is. An op-by-op program
/// qualifies when
///
/// - every chip has as many ops,
/// - every chip's `i`-th op matches chip 0's `i`-th op in kind, shape,
///   bytes, axis, direction and lanes, and depends on the same op
///   positions **of its own chip** (so no dependency crosses chips), and
/// - every collective shares its tag with the same op position of its
///   upstream ring neighbour, so the lowering wires each ring step to the
///   neighbour's copy of the chip's own previous step.
///
/// Lowering the returned program without ring wiring numbers its nodes
/// in the order chip 0's nodes take in the full lowering.
pub(crate) fn representative(
    mesh: &Torus2d,
    cfg: &SimConfig,
    program: &Program,
) -> Option<Program> {
    let chips = mesh.num_chips();
    if chips < 2 || cfg.network != NetworkModel::PhysicalTorus {
        return None;
    }
    if let Some(template) = program.template() {
        return Some(template.clone());
    }
    let ops = program.ops();
    if !ops.len().is_multiple_of(chips) {
        return None;
    }
    let per_chip = ops.len() / chips;
    // pos[i]: op i's position in its chip's op list; at[c * per_chip + p]:
    // the op at position p of chip c.
    let mut pos = vec![0u32; ops.len()];
    let mut at = vec![0u32; ops.len()];
    let mut next = vec![0u32; chips];
    for (i, op) in ops.iter().enumerate() {
        let c = op.chip.index();
        let p = next[c] as usize;
        if p == per_chip {
            return None;
        }
        next[c] += 1;
        pos[i] = p as u32;
        at[c * per_chip + p] = i as u32;
    }
    let mirrors = |i: usize| {
        let (op, chip) = (&ops[i], ops[i].chip);
        let twin = &ops[at[pos[i] as usize] as usize];
        untagged(&op.kind) == untagged(&twin.kind)
            && op.deps.len() == twin.deps.len()
            && op
                .deps
                .iter()
                .zip(&twin.deps)
                .all(|(d, e)| ops[d.index()].chip == chip && pos[d.index()] == pos[e.index()])
            && match op.kind {
                OpKind::Collective { axis, tag, .. } if mesh.ring_len(axis) > 1 => {
                    let up = mesh.neighbor_chip(chip, axis.backward_link()).index();
                    let upstream = &ops[at[up * per_chip + pos[i] as usize] as usize];
                    matches!(upstream.kind, OpKind::Collective { tag: t, .. } if t == tag)
                }
                _ => true,
            }
    };
    if !(0..ops.len()).all(mirrors) {
        return None;
    }
    let ops = at[..per_chip]
        .iter()
        .map(|&i| {
            let op = &ops[i as usize];
            Op {
                chip: ChipId(0),
                kind: op.kind.clone(),
                deps: op
                    .deps
                    .iter()
                    .map(|d| OpId(pos[d.index()] as usize))
                    .collect(),
            }
        })
        .collect();
    Some(Program::from_ops(ops))
}

/// `kind` with any collective tag cleared, so ops doing the same work
/// compare equal.
fn untagged(kind: &OpKind) -> OpKind {
    let mut kind = kind.clone();
    if let OpKind::Collective { tag, .. } = &mut kind {
        *tag = 0;
    }
    kind
}

#[cfg(test)]
mod tests {
    use meshslice_mesh::{CommAxis, Coord, LinkDir};
    use meshslice_tensor::GemmShape;

    use super::*;
    use crate::lower::lower;
    use crate::program::ProgramBuilder;

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

    /// [`spmd_into`] emitted op by op.
    fn spmd(mesh: &Torus2d, steps: usize) -> Program {
        spmd_into(ProgramBuilder::new(mesh), steps)
    }

    fn detect(mesh: &Torus2d, program: &Program) -> Option<Program> {
        representative(mesh, &SimConfig::tpu_v4(), program)
    }

    #[test]
    fn spmd_programs_quotient_to_chip_zero() {
        for (rows, cols) in [(2, 2), (3, 5), (1, 4), (4, 1)] {
            let mesh = Torus2d::new(rows, cols);
            let template = spmd_into(ProgramBuilder::spmd(&mesh), 3);
            let want = template.template().expect("an SPMD build is a template");
            assert_eq!(detect(&mesh, &template).as_ref(), Some(want));
            assert_eq!(detect(&mesh, &spmd(&mesh, 3)).as_ref(), Some(want));
            assert!(want.ops().iter().all(|op| op.chip == ChipId(0)));
        }
    }

    #[test]
    fn the_representative_graph_is_chip_zero_of_the_full_graph() {
        // Node for node, in order: the same work and the same own-chip
        // dependencies. Only the ring steps' cross-chip edges are gone.
        let (mesh, cfg) = (Torus2d::new(3, 4), SimConfig::tpu_v4());
        let program = spmd_into(ProgramBuilder::spmd(&mesh), 3);
        let full = lower(&mesh, &cfg, &program, true);
        let rep = lower(&mesh, &cfg, &detect(&mesh, &program).unwrap(), false);
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
    fn one_perturbed_op_on_one_chip_is_rejected() {
        let mesh = Torus2d::new(2, 3);
        let program = spmd(&mesh, 2);
        assert!(detect(&mesh, &program).is_some());
        // The last chip's ops in the second step.
        let find = |pred: &dyn Fn(&OpKind) -> bool| {
            program
                .ops()
                .iter()
                .rposition(|op| op.chip == ChipId(5) && pred(&op.kind))
                .unwrap()
        };
        let slice = find(&|k| matches!(k, OpKind::SliceCopy { .. }));
        let gemm = find(&|k| matches!(k, OpKind::Gemm { .. }));
        let send = find(&|k| matches!(k, OpKind::SendRecv { .. }));
        type Perturb = fn(&mut Op);
        let perturbations: [(usize, Perturb); 5] = [
            (slice, |op| op.kind = OpKind::SliceCopy { bytes: 4097 }),
            (gemm, |op| {
                op.kind = OpKind::Gemm {
                    shape: GemmShape::new(128, 64, 128),
                }
            }),
            (send, |op| {
                op.kind = OpKind::SendRecv {
                    dir: LinkDir::RowMinus,
                    bytes: 512,
                }
            }),
            // A dependency on a different op of the same chip, and one
            // fewer.
            (gemm, |op| op.deps[2] = op.deps[0]),
            (gemm, |op| op.deps.truncate(2)),
        ];
        for (i, perturb) in perturbations {
            let mut ops = program.ops().to_vec();
            perturb(&mut ops[i]);
            let p = Program::from_ops(ops);
            assert!(detect(&mesh, &p).is_none(), "perturbed op {i} accepted");
        }
    }

    #[test]
    fn a_cross_chip_dependency_is_rejected() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let firsts: Vec<OpId> = mesh
            .chips()
            .map(|chip| b.slice_copy(chip, 64, &[]))
            .collect();
        // Every chip waits on its right-hand neighbour's copy: the same
        // shape everywhere, but the dependency leaves the chip.
        for chip in mesh.chips() {
            let right = mesh.neighbor_chip(chip, LinkDir::ColPlus);
            b.gemm(chip, GemmShape::new(8, 8, 8), &[firsts[right.index()]]);
        }
        assert!(detect(&mesh, &b.build()).is_none());
    }

    #[test]
    fn a_skewed_prologue_is_rejected() {
        // Cannon's shape: chip (i, j) shifts i times before its GeMM.
        let mesh = Torus2d::new(3, 3);
        let mut b = ProgramBuilder::new(&mesh);
        for chip in mesh.chips() {
            let mut prev = Vec::new();
            for _ in 0..mesh.coord_of(chip).row() {
                prev = vec![b.send_recv(chip, LinkDir::ColMinus, 256, &prev)];
            }
            b.gemm(chip, GemmShape::new(8, 8, 8), &prev);
        }
        assert!(detect(&mesh, &b.build()).is_none());
    }

    #[test]
    fn mismatched_ring_tags_are_rejected() {
        // Both columns all-gather, but column 1 runs its two collectives
        // in the opposite tag order: the same shapes, but each ring step
        // would wait on a different op position upstream.
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let (t0, t1) = (b.next_tag(), b.next_tag());
        for chip in mesh.chips() {
            let swap = mesh.coord_of(chip) == Coord::new(1, 1);
            let (first, second) = if swap { (t1, t0) } else { (t0, t1) };
            b.all_gather(chip, first, CommAxis::InterRow, 256, &[]);
            b.all_gather(chip, second, CommAxis::InterRow, 256, &[]);
        }
        assert!(detect(&mesh, &b.build()).is_none());
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
