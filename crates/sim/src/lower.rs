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

use meshslice_mesh::{CommAxis, LinkDir, Torus2d};

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

/// One executable node: the fields the event loop reads, packed into one
/// cache line. Its dependencies live in [`ExecGraph`]'s flat buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
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
    pub(crate) chip: u32,
    pub(crate) resource: Resource,
    pub(crate) category: Category,
}

impl Node {
    /// A node on `chip` that holds no resource and does no work.
    fn idle(chip: usize) -> Node {
        Node {
            sync: 0.0,
            timer: 0.0,
            flow_bytes: 0.0,
            flow_cap: 0.0,
            fabric_bytes: 0.0,
            chip: chip as u32,
            resource: Resource::None,
            category: Category::CommLaunch,
        }
    }
}

/// The lowered graph.
#[derive(Clone, Debug)]
pub(crate) struct ExecGraph {
    pub(crate) nodes: Vec<Node>,
    /// Index of the program op each node was lowered from (for trace-span
    /// attribution).
    pub(crate) node_op: Vec<u32>,
    /// Dependency lists in CSR form: node `i` waits on
    /// `deps[dep_starts[i]..dep_starts[i + 1]]`.
    dep_starts: Vec<u32>,
    deps: Vec<u32>,
    /// Exit node of each program op (completion of this node completes
    /// the op), indexed by op id.
    pub(crate) op_exit: Vec<u32>,
}

impl ExecGraph {
    /// The nodes `node` waits on: its own chip's dependencies, sorted and
    /// deduplicated, then (for ring steps after the first) the upstream
    /// neighbour's previous step.
    pub(crate) fn deps(&self, node: usize) -> &[u32] {
        &self.deps[self.dep_starts[node] as usize..self.dep_starts[node + 1] as usize]
    }

    /// Every node's [`deps`](Self::deps), in node order.
    pub(crate) fn dep_lists(&self) -> impl Iterator<Item = &[u32]> {
        (self.dep_starts.windows(2)).map(|w| &self.deps[w[0] as usize..w[1] as usize])
    }
}

/// Placeholder for a ring dependency not yet wired.
const UNWIRED: u32 = u32::MAX;

struct Lowerer<'a> {
    cfg: &'a SimConfig,
    graph: ExecGraph,
    /// Dependencies of the next node, gathered before [`Lowerer::push`].
    pending: Vec<u32>,
    /// Last node of the previously lowered op per chip, for the
    /// no-overlap serialization mode.
    chip_chain: Vec<Option<u32>>,
    /// Last node issued on each (chip, link direction). Real ICI channels
    /// process operations in issue order, so every link op depends on its
    /// predecessor on the same link — without this, the ring steps of a
    /// later collective would overtake the remaining steps of an earlier
    /// one in the link queue and destroy software pipelining.
    link_chain: Vec<[Option<u32>; 4]>,
}

impl<'a> Lowerer<'a> {
    /// Appends `node` waiting on the pending dependencies (sorted and
    /// deduplicated: link chaining can duplicate an edge), plus one slot
    /// for a ring dependency if `ring_slot`.
    fn push(&mut self, node: Node, ring_slot: bool) -> u32 {
        let g = &mut self.graph;
        self.pending.sort_unstable();
        self.pending.dedup();
        g.deps.append(&mut self.pending);
        g.deps.extend(ring_slot.then_some(UNWIRED));
        g.dep_starts.push(g.deps.len() as u32);
        g.nodes.push(node);
        g.nodes.len() as u32 - 1
    }

    fn zero_node(&mut self, chip: usize) -> u32 {
        self.push(Node::idle(chip), false)
    }

    fn launch_node(&mut self, chip: usize) -> u32 {
        let timer = self.cfg.t_launch.as_secs();
        let node = Node {
            timer,
            ..Node::idle(chip)
        };
        self.push(node, false)
    }

    /// A kernel on the chip's compute unit: `timer` of fixed work beside
    /// an HBM flow of `flow_bytes`.
    fn kernel(&mut self, chip: usize, timer: f64, flow_bytes: f64, category: Category) -> u32 {
        let node = Node {
            timer,
            flow_bytes,
            flow_cap: self.cfg.hbm_bandwidth,
            resource: Resource::Compute,
            category,
            ..Node::idle(chip)
        };
        self.push(node, false)
    }

    /// A transfer of `bytes` over link `dir`, queued behind the link's
    /// previous node: it pays `sync`, then streams `flow_bytes` of HBM
    /// traffic at up to twice the link bandwidth.
    fn link_node(
        &mut self,
        chip: usize,
        dir: LinkDir,
        sync: f64,
        flow_bytes: f64,
        bytes: u64,
        ring_slot: bool,
    ) -> u32 {
        self.pending.extend(self.link_chain[chip][dir.index()]);
        let fabric_bytes = match self.cfg.network {
            NetworkModel::PhysicalTorus => 0.0,
            NetworkModel::SharedFabric { .. } => bytes as f64,
        };
        let node = Node {
            sync,
            flow_bytes,
            flow_cap: 2.0 * self.cfg.link_bandwidth,
            fabric_bytes,
            resource: Resource::Link(dir),
            category: Category::CommTransfer,
            ..Node::idle(chip)
        };
        let n = self.push(node, ring_slot);
        self.link_chain[chip][dir.index()] = Some(n);
        n
    }

    fn link_step(&mut self, chip: usize, dir: LinkDir, bytes: u64, ring_slot: bool) -> u32 {
        // Before the synchronized send, the NIC stages the outgoing
        // sub-shard from HBM into its buffer (store-and-forward at chip
        // granularity) — a second-order cost the analytical model of
        // §3.2.2 does not include.
        let staging = bytes as f64 / self.cfg.hbm_bandwidth;
        let sync = self.cfg.t_sync.as_secs() + staging;
        // A ring step reads the outgoing shard from HBM and writes the
        // incoming one, so the HBM demand is twice the step bytes; the
        // flow cap of twice the link bandwidth makes an uncontended step
        // take exactly bytes / link_bw.
        self.link_node(chip, dir, sync, 2.0 * bytes as f64, bytes, ring_slot)
    }

    /// Lowers a collective for one chip, waiting on the pending
    /// dependencies; returns (entry node, exit node).
    ///
    /// The nodes are laid out as the launch, then each lane's `P − 1`
    /// steps in order, then (two lanes) a join, so step `k` of lane `l`
    /// is node `launch + 1 + l·(P − 1) + k`. With `ring_slots`, every step
    /// after the first keeps a slot for its upstream dependency (see
    /// [`Lowerer::wire`]).
    fn collective(
        &mut self,
        chip: usize,
        axis: CommAxis,
        ring_len: usize,
        shard_bytes: u64,
        lanes: u8,
        ring_slots: bool,
    ) -> (u32, u32) {
        if ring_len <= 1 {
            let n = self.zero_node(chip);
            return (n, n);
        }
        let launch = self.launch_node(chip);
        let lane_bytes = (shard_bytes / lanes as u64).max(1);
        for lane in 0..lanes {
            let dir = if lane == 0 {
                axis.forward_link()
            } else {
                axis.backward_link()
            };
            self.pending.push(launch);
            let mut prev = self.link_step(chip, dir, lane_bytes, false);
            for _ in 1..ring_len - 1 {
                prev = self.next_step(prev, ring_slots);
            }
            self.link_chain[chip][dir.index()] = Some(prev);
        }
        let steps = ring_len as u32 - 1;
        let exit = if lanes == 1 {
            launch + steps
        } else {
            self.pending.extend([launch + steps, launch + 2 * steps]);
            self.zero_node(chip)
        };
        (launch, exit)
    }

    /// The ring step after `step` on the same lane: a copy of it that
    /// waits on it alone (it is also the link's last node), plus a slot
    /// for the upstream dependency if `ring_slot`.
    fn next_step(&mut self, step: u32, ring_slot: bool) -> u32 {
        let g = &mut self.graph;
        g.deps.push(step);
        g.deps.extend(ring_slot.then_some(UNWIRED));
        g.dep_starts.push(g.deps.len() as u32);
        g.nodes.push(g.nodes[step as usize]);
        g.nodes.len() as u32 - 1
    }

    /// Points step `k ≥ 1` of `lane` of the collective launched at
    /// `launch` at step `k − 1` of the upstream copy launched at
    /// `upstream`: the data it forwards.
    fn wire(&mut self, launch: u32, upstream: u32, lane: u32, ring_len: usize) {
        let steps = ring_len as u32 - 1;
        let first = 1 + lane * steps;
        for k in 1..steps {
            let node = (launch + first + k) as usize;
            let slot = self.graph.dep_starts[node + 1] as usize - 1;
            self.graph.deps[slot] = upstream + first + k - 1;
        }
    }
}

/// Lowers `program` for `mesh` in one pass over the ops plus one over the
/// collectives, relying on the program being ordered (every dependency
/// points to an earlier op, as [`ProgramBuilder::build`] guarantees).
///
/// With `wire_rings` unset, ring steps depend only on their own chip's
/// previous step: the lowering of a symmetry-quotient representative (see
/// [`crate::quotient`]), whose upstream neighbour reaches step `k − 1` at
/// the same instant.
///
/// [`ProgramBuilder::build`]: crate::ProgramBuilder::build
pub(crate) fn lower(
    mesh: &Torus2d,
    cfg: &SimConfig,
    program: &Program,
    wire_rings: bool,
) -> ExecGraph {
    let num_ops = program.len();
    let chips = mesh.num_chips();
    // Every op lowers to a bounded handful of nodes per chip it touches;
    // reserving a generous estimate up front avoids the doubling
    // reallocations that otherwise dominate lowering of six-figure-node
    // graphs.
    let cap = 16 * num_ops;
    let mut lw = Lowerer {
        cfg,
        graph: ExecGraph {
            nodes: Vec::with_capacity(cap),
            node_op: Vec::with_capacity(cap),
            dep_starts: Vec::with_capacity(cap + 1),
            deps: Vec::with_capacity(2 * cap),
            op_exit: Vec::with_capacity(num_ops),
        },
        pending: Vec::new(),
        chip_chain: vec![None; chips],
        link_chain: vec![[None; 4]; chips],
    };
    lw.graph.dep_starts.push(0);
    // Dense per-tag ring bookkeeping: each tag's group number, and
    // (group, chip) -> launch node of the chip's copy of the collective.
    let mut group_of: HashMap<u64, usize> = HashMap::new();
    let mut launches: Vec<u32> = Vec::new();
    // (chip, launch, group, axis, lanes) of every collective whose steps
    // wait on a neighbour.
    let mut rings = Vec::new();

    // An SPMD template is walked chip copy by chip copy, never expanded.
    program.for_each_op(|op_chip, kind, deps| {
        let chip = op_chip.index();
        let op_idx = lw.graph.op_exit.len();
        let exits = &lw.graph.op_exit;
        lw.pending.extend(deps.iter().map(|d| exits[d.index()]));
        if !cfg.overlap_collectives {
            // Real-hardware mode (§5.3): the compiler serializes every
            // chip's operations in program order.
            lw.pending.extend(lw.chip_chain[chip]);
        }
        let exit = match kind {
            OpKind::Gemm { shape } => {
                let timer = cfg.t_kernel_launch.as_secs() + cfg.gemm_flop_time(*shape).as_secs();
                let flow_bytes = cfg.gemm_hbm_bytes(*shape) as f64;
                lw.kernel(chip, timer, flow_bytes, Category::Compute)
            }
            OpKind::SliceCopy { bytes } => {
                let timer = cfg.t_kernel_launch.as_secs();
                let flow_bytes = (2 * bytes.max(&1)) as f64;
                lw.kernel(chip, timer, flow_bytes, Category::Slice)
            }
            OpKind::SendRecv { dir, bytes } => {
                let launch = lw.launch_node(chip);
                lw.pending.push(launch);
                lw.link_step(chip, *dir, (*bytes).max(1), false)
            }
            OpKind::Collective {
                axis,
                tag,
                shard_bytes,
                lanes,
                ..
            } => {
                let ring_len = mesh.ring_len(*axis);
                let wired = wire_rings && ring_len > 1;
                let (launch, exit) =
                    lw.collective(chip, *axis, ring_len, *shard_bytes, *lanes, wired);
                if wired {
                    let g = *group_of.entry(*tag).or_insert_with(|| {
                        launches.resize(launches.len() + chips, UNWIRED);
                        launches.len() / chips - 1
                    });
                    launches[g * chips + chip] = launch;
                    rings.push((op_chip, launch, g, *axis, *lanes));
                }
                exit
            }
            OpKind::PipelinedBcast { axis, bytes } => {
                let p = mesh.ring_len(*axis);
                if p <= 1 {
                    lw.zero_node(chip)
                } else {
                    let d = cfg.summa_packets.max(1);
                    // Unidirectional packet streaming, exactly Figure 3
                    // (left): P + D - 2 stages with P - 2 bubbles per link.
                    let stages = (p + d - 2) as f64;
                    let launch = lw.launch_node(chip);
                    // One node occupies the link for the whole pipelined
                    // stream: `stages` synchronizations plus `stages`
                    // packet transfers (bubbles included — each link is
                    // idle for P − 2 of the stages, which is exactly the
                    // inefficiency of Figure 3, left).
                    let flow_bytes = 2.0 * *bytes as f64 * stages / d as f64;
                    let sync = stages * cfg.t_sync.as_secs();
                    lw.pending.push(launch);
                    let dir = axis.forward_link();
                    lw.link_node(chip, dir, sync, flow_bytes.max(1.0), *bytes, false)
                }
            }
        };
        let g = &mut lw.graph;
        g.node_op.resize(g.nodes.len(), op_idx as u32);
        g.op_exit.push(exit);
        lw.chip_chain[chip] = Some(exit);
    });

    // Cross-chip wiring: step k depends on the upstream neighbor's step
    // k − 1 within the same collective and lane.
    for (chip, launch, g, axis, lanes) in rings {
        for lane in 0..lanes {
            // Lane 0 flows forward: this chip receives from its ring
            // predecessor. Lane 1 flows backward: from its successor.
            let from = if lane == 0 {
                axis.backward_link()
            } else {
                axis.forward_link()
            };
            let upstream = mesh.neighbor_chip(chip, from);
            let up_launch = launches[g * chips + upstream.index()];
            assert_ne!(up_launch, UNWIRED, "ring of {chip:?} is incomplete");
            lw.wire(launch, up_launch, lane as u32, mesh.ring_len(axis));
        }
    }
    lw.graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CollectiveKind, ProgramBuilder};
    use meshslice_mesh::ChipId;
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
        let two_deps = (0..g.nodes.len()).filter(|&i| g.deps(i).len() == 2).count();
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
        let joins = (0..g.nodes.len())
            .filter(|&i| g.nodes[i].resource == Resource::None && g.deps(i).len() == 2)
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
        assert_eq!(g.deps(1), [0]);
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
