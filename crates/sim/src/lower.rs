//! Lowering a [`Program`] to the executable node graph.
//!
//! Every [`OpKind`] expands to one or more *nodes*. A node optionally holds
//! a resource (the chip's compute unit or one of its four link directions),
//! pays a synchronization delay, and then runs a fixed timer and/or an HBM
//! flow in parallel; it completes when both finish.
//!
//! Ring collectives expand into a launch node followed by `P − 1` step
//! nodes per lane. Step `k` of a chip depends on its own step `k − 1` *and*
//! on the upstream neighbor's step `k − 1` — the data it forwards — which
//! reproduces the neighbor-synchronized ring of the paper's Figure 3
//! without any global barrier.

use std::collections::HashMap;

use meshslice_mesh::{ChipId, CommAxis, LinkDir, Torus2d};

use crate::config::{NetworkModel, SimConfig};
use crate::program::{OpKind, Program};

/// The exclusive resource a node occupies while running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Resource {
    /// No resource (launch overheads, join points).
    None,
    /// The chip's compute unit (GeMMs and slicing kernels).
    Compute,
    /// One ICI link direction of the chip.
    Link(LinkDir),
}

/// Which report bucket a node's busy time lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Category {
    Compute,
    Slice,
    CommLaunch,
    CommTransfer,
}

/// One executable node.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) chip: usize,
    /// Index of the program op this node was lowered from (set by
    /// [`lower`] after each op expands; used for trace-span attribution).
    pub(crate) op: usize,
    pub(crate) resource: Resource,
    /// Synchronization delay after acquiring the resource, attributed to
    /// the `comm_sync` bucket.
    pub(crate) sync: f64,
    /// Fixed busy duration (runs in parallel with the flow).
    pub(crate) timer: f64,
    /// HBM flow bytes (0 = no flow).
    pub(crate) flow_bytes: f64,
    /// Individual rate cap of the flow.
    pub(crate) flow_cap: f64,
    /// Wire bytes drawn from the shared fabric (0 = none / physical
    /// torus). Only link transfers set this, and only under
    /// [`NetworkModel::SharedFabric`].
    pub(crate) fabric_bytes: f64,
    pub(crate) category: Category,
    pub(crate) deps: Vec<usize>,
}

/// The lowered graph.
#[derive(Clone, Debug)]
pub(crate) struct ExecGraph {
    pub(crate) nodes: Vec<Node>,
    /// Exit node of each program op (completion of this node completes
    /// the op), indexed by op id.
    pub(crate) op_exit: Vec<usize>,
}

struct Lowerer<'a> {
    cfg: &'a SimConfig,
    nodes: Vec<Node>,
    /// Last node of the previously lowered op per chip, for the
    /// no-overlap serialization mode.
    chip_chain: Vec<Option<usize>>,
    /// Last node issued on each (chip, link direction). Real ICI channels
    /// process operations in issue order, so every link op depends on its
    /// predecessor on the same link — without this, the ring steps of a
    /// later collective would overtake the remaining steps of an earlier
    /// one in the link queue and destroy software pipelining.
    link_chain: Vec<[Option<usize>; 4]>,
}

impl<'a> Lowerer<'a> {
    fn push(&mut self, mut node: Node) -> usize {
        // Link chaining can duplicate an existing dependency edge.
        node.deps.sort_unstable();
        node.deps.dedup();
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn zero_node(&mut self, chip: usize, deps: Vec<usize>) -> usize {
        self.push(Node {
            chip,
            op: usize::MAX,
            resource: Resource::None,
            sync: 0.0,
            timer: 0.0,
            flow_bytes: 0.0,
            flow_cap: 0.0,
            fabric_bytes: 0.0,
            category: Category::CommLaunch,
            deps,
        })
    }

    fn launch_node(&mut self, chip: usize, deps: Vec<usize>) -> usize {
        let t = self.cfg.t_launch.as_secs();
        self.push(Node {
            chip,
            op: usize::MAX,
            resource: Resource::None,
            sync: 0.0,
            timer: t,
            flow_bytes: 0.0,
            flow_cap: 0.0,
            fabric_bytes: 0.0,
            category: Category::CommLaunch,
            deps,
        })
    }

    fn link_step(&mut self, chip: usize, dir: LinkDir, bytes: u64, mut deps: Vec<usize>) -> usize {
        if let Some(prev) = self.link_chain[chip][dir.index()] {
            deps.push(prev);
        }
        // Before the synchronized send, the NIC stages the outgoing
        // sub-shard from HBM into its buffer (store-and-forward at chip
        // granularity) — a second-order cost the analytical model of
        // §3.2.2 does not include.
        let staging = bytes as f64 / self.cfg.hbm_bandwidth;
        // A ring step reads the outgoing shard from HBM and writes the
        // incoming one, so the HBM demand is twice the step bytes; the
        // flow cap of twice the link bandwidth makes an uncontended step
        // take exactly bytes / link_bw.
        let fabric_bytes = match self.cfg.network {
            NetworkModel::PhysicalTorus => 0.0,
            NetworkModel::SharedFabric { .. } => bytes as f64,
        };
        let n = self.push(Node {
            chip,
            op: usize::MAX,
            resource: Resource::Link(dir),
            sync: self.cfg.t_sync.as_secs() + staging,
            timer: 0.0,
            flow_bytes: 2.0 * bytes as f64,
            flow_cap: 2.0 * self.cfg.link_bandwidth,
            fabric_bytes,
            category: Category::CommTransfer,
            deps,
        });
        self.link_chain[chip][dir.index()] = Some(n);
        n
    }

    /// Lowers a collective for one chip; returns (entry node, exit node)
    /// and records the per-lane step nodes for cross-chip wiring.
    #[allow(clippy::too_many_arguments)]
    fn collective(
        &mut self,
        chip: usize,
        axis: CommAxis,
        ring_len: usize,
        shard_bytes: u64,
        lanes: u8,
        deps: Vec<usize>,
        steps_out: &mut Vec<Vec<usize>>,
    ) -> (usize, usize) {
        if ring_len <= 1 {
            let n = self.zero_node(chip, deps);
            steps_out.clear();
            return (n, n);
        }
        let launch = self.launch_node(chip, deps);
        let mut lane_finals = Vec::new();
        steps_out.clear();
        for lane in 0..lanes {
            let dir = if lane == 0 {
                axis.forward_link()
            } else {
                axis.backward_link()
            };
            let lane_bytes = shard_bytes / lanes as u64;
            let mut chain = Vec::with_capacity(ring_len - 1);
            let mut prev = launch;
            for _step in 0..ring_len - 1 {
                let n = self.link_step(chip, dir, lane_bytes.max(1), vec![prev]);
                chain.push(n);
                prev = n;
            }
            lane_finals.push(prev);
            steps_out.push(chain);
        }
        let exit = if lane_finals.len() == 1 {
            lane_finals[0]
        } else {
            self.zero_node(chip, lane_finals)
        };
        (launch, exit)
    }
}

/// Per-collective bookkeeping for cross-chip wiring.
#[derive(Default)]
struct CollectiveGroup {
    /// chip -> per-lane step node chains.
    steps: HashMap<usize, Vec<Vec<usize>>>,
    axis: Option<CommAxis>,
}

/// Lowers `program` for `mesh`. With `wire_rings` unset, ring steps
/// depend only on their own chip's previous step: the lowering of a
/// symmetry-quotient representative (see [`crate::quotient`]), whose
/// upstream neighbour reaches step `k − 1` at the same instant.
pub(crate) fn lower(
    mesh: &Torus2d,
    cfg: &SimConfig,
    program: &Program,
    wire_rings: bool,
) -> ExecGraph {
    let mut lw = Lowerer {
        cfg,
        // Every op lowers to a bounded handful of nodes per chip it
        // touches; reserving a generous estimate up front avoids the
        // doubling reallocations of a ~100 B/node vector that otherwise
        // dominate lowering of six-figure-node graphs.
        nodes: Vec::with_capacity(16 * program.ops().len()),
        chip_chain: vec![None; mesh.num_chips()],
        link_chain: vec![[None; 4]; mesh.num_chips()],
    };
    // op index -> (entry node, exit node)
    let mut op_nodes: Vec<(usize, usize)> = Vec::with_capacity(program.ops().len());
    let mut groups: HashMap<u64, CollectiveGroup> = HashMap::new();

    for (op_idx, op) in program.ops().iter().enumerate() {
        let chip = op.chip.index();
        let node_start = lw.nodes.len();
        let mut deps: Vec<usize> = op.deps.iter().map(|d| op_nodes[d.index()].1).collect();
        if !cfg.overlap_collectives {
            // Real-hardware mode (§5.3): the compiler serializes every
            // chip's operations in program order.
            if let Some(prev) = lw.chip_chain[chip] {
                deps.push(prev);
            }
        }
        let entry_exit = match &op.kind {
            OpKind::Gemm { shape } => {
                let timer = cfg.t_kernel_launch.as_secs() + cfg.gemm_flop_time(*shape).as_secs();
                let n = lw.push(Node {
                    chip,
                    op: usize::MAX,
                    resource: Resource::Compute,
                    sync: 0.0,
                    timer,
                    flow_bytes: cfg.gemm_hbm_bytes(*shape) as f64,
                    flow_cap: cfg.hbm_bandwidth,
                    fabric_bytes: 0.0,
                    category: Category::Compute,
                    deps,
                });
                (n, n)
            }
            OpKind::SliceCopy { bytes } => {
                let n = lw.push(Node {
                    chip,
                    op: usize::MAX,
                    resource: Resource::Compute,
                    sync: 0.0,
                    timer: cfg.t_kernel_launch.as_secs(),
                    flow_bytes: (2 * bytes.max(&1)) as f64,
                    flow_cap: cfg.hbm_bandwidth,
                    fabric_bytes: 0.0,
                    category: Category::Slice,
                    deps,
                });
                (n, n)
            }
            OpKind::SendRecv { dir, bytes } => {
                let launch = lw.launch_node(chip, deps);
                let step = lw.link_step(chip, *dir, (*bytes).max(1), vec![launch]);
                (launch, step)
            }
            OpKind::Collective {
                axis,
                tag,
                shard_bytes,
                lanes,
                kind: _,
            } => {
                let ring_len = mesh.ring_len(*axis);
                let mut steps = Vec::new();
                let (entry, exit) = lw.collective(
                    chip,
                    *axis,
                    ring_len,
                    *shard_bytes,
                    *lanes,
                    deps,
                    &mut steps,
                );
                if wire_rings {
                    let group = groups.entry(*tag).or_default();
                    group.axis = Some(*axis);
                    group.steps.insert(chip, steps);
                }
                (entry, exit)
            }
            OpKind::PipelinedBcast { axis, bytes } => {
                let p = mesh.ring_len(*axis);
                if p <= 1 {
                    let n = lw.zero_node(chip, deps);
                    (n, n)
                } else {
                    let d = cfg.summa_packets.max(1);
                    // Unidirectional packet streaming, exactly Figure 3
                    // (left): P + D - 2 stages with P - 2 bubbles per link.
                    let stages = (p + d - 2) as f64;
                    let launch = lw.launch_node(chip, deps);
                    // One node occupies the link for the whole pipelined
                    // stream: `stages` synchronizations plus `stages`
                    // packet transfers (bubbles included — each link is
                    // idle for P − 2 of the stages, which is exactly the
                    // inefficiency of Figure 3, left).
                    let flow_bytes = 2.0 * *bytes as f64 * stages / d as f64;
                    let dir = axis.forward_link();
                    let mut node_deps = vec![launch];
                    if let Some(prev) = lw.link_chain[chip][dir.index()] {
                        node_deps.push(prev);
                    }
                    let fabric = match cfg.network {
                        NetworkModel::PhysicalTorus => 0.0,
                        NetworkModel::SharedFabric { .. } => *bytes as f64,
                    };
                    let n = lw.push(Node {
                        chip,
                        op: usize::MAX,
                        resource: Resource::Link(dir),
                        sync: stages * cfg.t_sync.as_secs(),
                        timer: 0.0,
                        flow_bytes: flow_bytes.max(1.0),
                        flow_cap: 2.0 * cfg.link_bandwidth,
                        fabric_bytes: fabric,
                        category: Category::CommTransfer,
                        deps: node_deps,
                    });
                    lw.link_chain[chip][dir.index()] = Some(n);
                    (launch, n)
                }
            }
        };
        for node in node_start..lw.nodes.len() {
            lw.nodes[node].op = op_idx;
        }
        lw.chip_chain[chip] = Some(entry_exit.1);
        op_nodes.push(entry_exit);
    }

    // Cross-chip wiring: step k depends on the upstream neighbor's step
    // k − 1 within the same collective and lane.
    for group in groups.values() {
        let axis = group.axis.expect("group has an axis");
        for (&chip, lanes) in &group.steps {
            if lanes.is_empty() {
                continue; // singleton ring
            }
            for (lane_idx, chain) in lanes.iter().enumerate() {
                // Lane 0 flows forward: this chip receives from its ring
                // predecessor. Lane 1 flows backward: from its successor.
                let from = if lane_idx == 0 {
                    axis.backward_link()
                } else {
                    axis.forward_link()
                };
                let upstream = mesh.neighbor_chip(ChipId(chip), from);
                let upstream_chain = &group.steps[&upstream.index()][lane_idx];
                for (k, &node) in chain.iter().enumerate().skip(1) {
                    let dep = upstream_chain[k - 1];
                    lw.nodes[node].deps.push(dep);
                }
            }
        }
    }

    ExecGraph {
        nodes: lw.nodes,
        op_exit: op_nodes.iter().map(|&(_, exit)| exit).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CollectiveKind, ProgramBuilder};
    use meshslice_tensor::GemmShape;

    #[test]
    fn gemm_lowers_to_one_compute_node() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(256, 256, 256), &[]);
        let g = lower(&mesh, &SimConfig::tpu_v4(), &b.build(), true);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].resource, Resource::Compute);
        assert!(g.nodes[0].timer > 0.0);
        assert!(g.nodes[0].flow_bytes > 0.0);
    }

    #[test]
    fn collective_lowers_to_launch_plus_ring_steps() {
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 4096, &[]);
        }
        let g = lower(&mesh, &SimConfig::tpu_v4(), &b.build(), true);
        // Per chip: 1 launch + 3 steps.
        assert_eq!(g.nodes.len(), 4 * 4);
        let steps: Vec<_> = g
            .nodes
            .iter()
            .filter(|n| matches!(n.resource, Resource::Link(_)))
            .collect();
        assert_eq!(steps.len(), 12);
        // Step nodes after the first must have a cross-chip dependency.
        let two_deps = g.nodes.iter().filter(|n| n.deps.len() == 2).count();
        assert_eq!(two_deps, 8); // steps 1 and 2 on each of 4 chips
    }

    #[test]
    fn singleton_ring_collective_is_free() {
        let mesh = Torus2d::new(1, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            // InterRow rings have length 1 on a 1-row mesh.
            b.all_gather(chip, tag, CommAxis::InterRow, 4096, &[]);
        }
        let g = lower(&mesh, &SimConfig::tpu_v4(), &b.build(), true);
        assert_eq!(g.nodes.len(), 2);
        assert!(g
            .nodes
            .iter()
            .all(|n| n.timer == 0.0 && n.flow_bytes == 0.0));
    }

    #[test]
    fn two_lane_collective_splits_bytes() {
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.collective(
                chip,
                tag,
                CollectiveKind::AllGather,
                CommAxis::InterRow,
                4096,
                2,
                &[],
            );
        }
        let g = lower(&mesh, &SimConfig::tpu_v4(), &b.build(), true);
        let step_bytes: Vec<_> = g
            .nodes
            .iter()
            .filter(|n| matches!(n.resource, Resource::Link(_)))
            .map(|n| n.flow_bytes)
            .collect();
        // 2 lanes x 3 steps per chip, each carrying half the shard
        // (flow bytes are 2x the wire bytes).
        assert_eq!(step_bytes.len(), 4 * 6);
        assert!(step_bytes.iter().all(|&b| b == 2.0 * 2048.0));
        // Joins: one per chip.
        let joins = g
            .nodes
            .iter()
            .filter(|n| n.resource == Resource::None && n.deps.len() == 2)
            .count();
        assert_eq!(joins, 4);
    }

    #[test]
    fn no_overlap_mode_serializes_per_chip() {
        let mesh = Torus2d::new(1, 1);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        b.gemm(ChipId(0), GemmShape::new(8, 8, 8), &[]);
        let cfg = SimConfig {
            overlap_collectives: false,
            ..SimConfig::tpu_v4()
        };
        let g = lower(&mesh, &cfg, &b.build(), true);
        assert_eq!(g.nodes[1].deps, vec![0]);
    }

    #[test]
    fn pipelined_bcast_carries_bubble_overhead() {
        let mesh = Torus2d::new(8, 1);
        let mut b = ProgramBuilder::new(&mesh);
        for chip in mesh.chips() {
            b.pipelined_bcast(chip, CommAxis::InterRow, 16_000, &[]);
        }
        let cfg = SimConfig::tpu_v4();
        let g = lower(&mesh, &cfg, &b.build(), true);
        let step = g
            .nodes
            .iter()
            .find(|n| matches!(n.resource, Resource::Link(_)))
            .unwrap();
        // stages = P + D - 2 = 8 + 16 - 2 = 22; sync = 22 * t_sync.
        assert!((step.sync - 22.0 * cfg.t_sync.as_secs()).abs() < 1e-12);
        // flow bytes = 2 * bytes * stages / D > 2 * bytes (bubbles).
        assert!(step.flow_bytes > 2.0 * 16_000.0);
    }
}
