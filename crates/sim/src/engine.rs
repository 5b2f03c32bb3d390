//! The discrete-event execution engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::OnceLock;

use meshslice_mesh::Torus2d;

use crate::config::{NetworkModel, SimConfig};
use crate::failure::{AbortInfo, ChipFailure, FailureOutcome};
use crate::hbm::HbmChannel;
use crate::lower::{lower, Category, ExecGraph, Node, Resource};
use crate::observe::EngineObserver;
use crate::perturb::ClusterProfile;
use crate::program::Program;
use crate::quotient;
use crate::report::{SimReport, TimeBreakdown};
use crate::time::{Duration, Time};

/// Executes [`Program`]s on a simulated cluster.
///
/// The engine is deterministic: events are ordered by (time, insertion
/// sequence) and all state updates are single-threaded, so repeated runs of
/// the same program produce identical reports.
///
/// # Example
///
/// ```
/// use meshslice_mesh::Torus2d;
/// use meshslice_sim::{Engine, GemmShape, ProgramBuilder, SimConfig};
///
/// let mesh = Torus2d::new(1, 1);
/// let mut b = ProgramBuilder::new(&mesh);
/// b.gemm(meshslice_mesh::ChipId(0), GemmShape::new(1024, 1024, 1024), &[]);
/// let report = Engine::new(mesh, SimConfig::tpu_v4()).run(&b.build());
/// assert!(report.flop_utilization() > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    mesh: Torus2d,
    config: SimConfig,
}

/// A [`Program`] lowered against one engine's mesh and timing model,
/// ready to be executed any number of times.
///
/// Lowering depends on the mesh and the non-fault fields of [`SimConfig`]
/// but **not** on [`SimConfig::faults`] — variability is applied at run
/// time. A `LoweredProgram` may therefore be shared across engines that
/// differ only in their fault profile (the robust-tuning hot path), and
/// across threads (`LoweredProgram` is `Send + Sync`).
///
/// When the program was built from an SPMD template and runs on a
/// physical torus, it also holds a *symmetry quotient*: chip 0's node
/// graph alone. Fault-free, failure-free runs observed by `()` execute
/// that one chip, counting each busy-time addition once per chip,
/// bit-identical to the full graph. Other runs use the full graph,
/// lowered on first use and kept.
///
/// Produced by [`Engine::lower_program`]; consumed by
/// [`Engine::run_lowered_with_scratch`] and [`Engine::run_observed`].
#[derive(Clone, Debug)]
pub struct LoweredProgram {
    /// The source program (shared), for trace attribution and for
    /// lowering the full graph on demand.
    pub(crate) program: Program,
    /// The mesh and timing model the graphs are lowered for.
    lowering: Engine,
    /// Chip 0's graph, when the program has an SPMD template.
    representative: Option<Executable>,
    /// The whole cluster's graph: lowered up front when there is no
    /// representative, otherwise by the first run that needs it.
    full: OnceLock<Executable>,
    total_flops: u64,
}

/// One lowered node graph plus the forms the event loop reads.
#[derive(Clone, Debug)]
pub(crate) struct Executable {
    pub(crate) graph: ExecGraph,
    /// Reverse dependency lists in CSR form: the dependents of node `i`
    /// are `dep_targets[dep_starts[i]..dep_starts[i + 1]]`.
    dep_starts: Vec<u32>,
    dep_targets: Vec<u32>,
    /// Initial `deps_left` counters (copied into scratch per run).
    deps_left_init: Vec<u32>,
    /// Nodes with no dependencies, in index order.
    roots: Vec<usize>,
    /// Each node's sync class: the index of its synchronization delay
    /// among the graph's first [`SYNC_CLASSES`] distinct ones, or
    /// [`NO_SYNC_CLASS`] (no delay, or a rarer one).
    sync_class: Vec<u8>,
    /// Number of sync classes in use.
    sync_classes: usize,
    /// Chips whose state a run of this graph keeps (1 for a
    /// representative).
    chips: usize,
}

impl Executable {
    fn new(graph: ExecGraph, chips: usize) -> Self {
        let n = graph.nodes.len();
        // One pass over the nodes: dependency counts, roots, sync
        // classes, and each node's dependent count (in `dep_starts`,
        // shifted by one for the prefix sum below).
        let mut deps_left_init = Vec::with_capacity(n);
        let mut roots = Vec::new();
        let mut delays: Vec<u64> = Vec::new();
        let mut sync_class = Vec::with_capacity(n);
        let mut dep_starts = vec![0u32; n + 1];
        // The last sync delay classed: ring steps repeat their
        // predecessor's.
        let mut last = (0.0f64.to_bits(), NO_SYNC_CLASS);
        for (i, (node, deps)) in graph.nodes.iter().zip(graph.dep_lists()).enumerate() {
            deps_left_init.push(deps.len() as u32);
            if deps.is_empty() {
                roots.push(i);
            }
            for &d in deps {
                dep_starts[d as usize + 1] += 1;
            }
            if node.sync.to_bits() != last.0 {
                last = (node.sync.to_bits(), sync_class_of(node.sync, &mut delays));
            }
            sync_class.push(last.1);
        }
        // Reverse the flat dependency buffer: prefix-sum the counts, then
        // fill in dependent order.
        for i in 0..n {
            dep_starts[i + 1] += dep_starts[i];
        }
        let mut dep_targets = vec![0u32; dep_starts[n] as usize];
        let mut cursor = dep_starts.clone();
        for (i, deps) in graph.dep_lists().enumerate() {
            for &d in deps {
                let at = &mut cursor[d as usize];
                dep_targets[*at as usize] = i as u32;
                *at += 1;
            }
        }
        Executable {
            graph,
            dep_starts,
            dep_targets,
            deps_left_init,
            roots,
            sync_class,
            sync_classes: delays.len(),
            chips,
        }
    }
}

/// The sync class of a node with synchronization delay `sync`, given the
/// distinct delays classed so far (`delays`, as bits), which it may
/// extend.
fn sync_class_of(sync: f64, delays: &mut Vec<u64>) -> u8 {
    if sync <= 0.0 {
        return NO_SYNC_CLASS;
    }
    let bits = sync.to_bits();
    match delays.iter().position(|&d| d == bits) {
        Some(c) => c as u8,
        None if delays.len() < SYNC_CLASSES => {
            delays.push(bits);
            delays.len() as u8 - 1
        }
        None => NO_SYNC_CLASS,
    }
}

impl LoweredProgram {
    /// Number of lowered execution nodes a fault-free, unobserved run
    /// executes: one chip's worth under the symmetry quotient, otherwise
    /// the whole cluster's.
    pub fn num_nodes(&self) -> usize {
        let nominal = self.representative.as_ref();
        nominal.unwrap_or_else(|| self.full()).graph.nodes.len()
    }

    /// The representative, if a run under the non-ideal `profile`, with
    /// or without an injected failure, observed by `O` may execute it:
    /// only runs that neither break the symmetry nor look at individual
    /// chips do.
    fn quotient_for<O: EngineObserver>(
        &self,
        profile: Option<&ClusterProfile>,
        failure: bool,
    ) -> Option<&Executable> {
        let symmetric_run = profile.is_none() && !failure && !O::OBSERVES;
        self.representative.as_ref().filter(|_| symmetric_run)
    }

    /// The whole cluster's graph (what recorders index), lowered on
    /// first use.
    pub(crate) fn full(&self) -> &Executable {
        self.full.get_or_init(|| {
            let Engine { mesh, config } = &self.lowering;
            Executable::new(lower(mesh, config, &self.program, true), mesh.num_chips())
        })
    }
}

/// Reusable run-state buffers for [`Engine::run_lowered_with_scratch`]
/// and [`Engine::run_observed`].
///
/// A run clears and refills these buffers instead of allocating a dozen
/// fresh `Vec`s; results are bit-for-bit identical to a fresh-allocation
/// run. A scratch is not tied to any engine, mesh, or program — the same value
/// can serve runs of any size in sequence (but not concurrently: use one
/// scratch per worker thread).
#[derive(Debug, Default)]
pub struct RunScratch {
    deps_left: Vec<u32>,
    phase: Vec<Phase>,
    compute_units: Vec<ResourceState>,
    links: Vec<[ResourceState; 4]>,
    /// Fluid channels: one HBM per chip, then the shared fabric in
    /// logical-mesh mode. A channel's index is its wake slot.
    hbm: Vec<HbmChannel>,
    heap: BinaryHeap<Reverse<(EventKey, Event)>>,
    /// Pending [`Event::SyncDone`]s of the nodes of each sync class, in
    /// key order (see [`Run::schedule_sync`]).
    syncs: Vec<VecDeque<(EventKey, u32)>>,
    /// Pending channel wake-ups, one replaceable slot per channel (the
    /// fabric's slot is the chip count). Kept out of `heap` so channel
    /// reconfigurations replace their wake instead of piling stale entries.
    wakes: WakeQueue,
    /// Spare buffers for flow-completion batches (take/put-back; a pool
    /// because completion handling can recursively drain more flows).
    done_pool: Vec<Vec<usize>>,
    busy_start_time: Vec<f64>,
    /// Per-chip completed compute-unit busy time (the cumulative measure
    /// used for overlap accounting; always on, O(1) per node).
    compute_cum: Vec<f64>,
    /// Busy-interval start of the chip's currently active compute node.
    compute_since: Vec<Option<f64>>,
    /// Compute measure snapshot taken when a transfer node went busy.
    overlap_at_start: Vec<f64>,
}

impl RunScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears `v` and refills it with `n` copies of `val`, keeping capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, val: T) {
    v.clear();
    v.resize(n, val);
}

/// Adds `x` to `acc` `copies` times in sequence: the order in which the
/// full engine accumulates the same addition from every chip of a
/// symmetric program (summing `copies * x` once rounds differently).
#[inline]
fn add_copies(acc: &mut f64, x: f64, copies: usize) {
    for _ in 0..copies {
        *acc += x;
    }
}

/// An event's place in the run's total order: its time, mapped so that
/// unsigned order is [`Time`]'s order, in the high 64 bits and its
/// sequence number in the low 64. One integer compare replaces a
/// `total_cmp` plus a tie-break on every heap step.
type EventKey = u128;

/// How many distinct synchronization delays get a FIFO of their own.
/// A program's ring steps share a handful (two per GPT-3 FC pass); the
/// nodes of rarer delays go through the event heap.
const SYNC_CLASSES: usize = 8;

/// The sync class of a node whose delay has no FIFO.
const NO_SYNC_CLASS: u8 = u8::MAX;

/// Sorts after every key [`event_key`] makes (it would decode to a NaN
/// time): the head of an empty queue.
const NO_EVENT: EventKey = EventKey::MAX;

/// The key of an event at `t` seconds that takes sequence number `seq`.
///
/// # Panics
///
/// Panics if `t` is negative or not finite, as [`Time::from_secs`] does.
#[inline]
fn event_key(t: f64, seq: u64) -> EventKey {
    let bits = Time::from_secs(t).as_secs().to_bits();
    // `f64::total_cmp` as an unsigned order: set the sign bit of a
    // non-negative time, flip every bit of a negative one. `from_secs`
    // admits one negative value, -0.0, which thus keys just below +0.0,
    // where `Time::cmp` sorts it.
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    (EventKey::from(ordered) << 64) | EventKey::from(seq)
}

/// The time, in seconds, that [`event_key`] packed into `key`.
#[inline]
fn key_time(key: EventKey) -> f64 {
    let ordered = (key >> 64) as u64;
    f64::from_bits(ordered ^ ((((!ordered as i64) >> 63) as u64) | 1 << 63))
}

/// Heap events are ordered by their [`EventKey`]; the sequence number in
/// it is unique, so the derived `Ord` on `Event` is never consulted — it
/// exists only so the payload can live directly in the heap tuple (no
/// side-table indirection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The post-resource synchronization delay elapsed.
    SyncDone(usize),
    /// The fixed busy timer of a node elapsed.
    TimerDone(usize),
    /// A link-outage window of one chip starts or ends: in-flight
    /// transfers on that chip's links must be re-rated.
    FaultEdge { chip: usize },
    /// The permanent chip failure of this run occurs (at most one per
    /// run, so the event needs no payload).
    ChipFail,
    /// A neighbor-sync watchdog expires: if the failure has fired and
    /// this is the earliest pending watchdog, the failure is detected
    /// and the run aborts.
    FailTimeout,
}

/// Permanent-failure bookkeeping of one run (present only when
/// [`Engine::run_observed`] is given a failure; `None` keeps the normal
/// path structurally unchanged).
#[derive(Clone, Copy, Debug)]
struct FailCtx {
    /// The chip that dies.
    chip: u32,
    /// Detection latency: a live node stalled on the dead chip is
    /// noticed one timeout after the stall begins (the neighbor sync
    /// that never arrives).
    timeout: f64,
    /// Earliest pending watchdog expiry (`INFINITY` until a stall).
    detect_at: f64,
    /// Whether the failure instant has passed.
    fired: bool,
}

/// Where the event loop's next event comes from.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Wake,
    Sync(usize),
}

/// Per-node lifecycle state. The busy-interval start is not carried here —
/// it is always `busy_start_time[node]`, written when the node goes busy —
/// so the enum stays 2 bytes and the phase array cache-resident.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Blocked,
    Queued,
    Syncing,
    Busy { parts_left: u8 },
    Done,
}

#[derive(Clone, Debug, Default)]
struct ResourceState {
    busy: bool,
    queue: VecDeque<usize>,
}

/// Sentinel for "slot not in the wake queue".
const WAKE_ABSENT: u32 = u32::MAX;

/// Indexed min-queue of pending channel wake-ups: one slot per HBM channel
/// plus one for the shared fabric. A channel reconfiguration *replaces* the
/// channel's pending wake in place instead of pushing another entry onto
/// the event heap, so stale wake-ups never accumulate.
///
/// Dispatch order is bit-identical to pushing every wake onto the shared
/// heap: each update takes the next global sequence number exactly as a
/// pushed event would, so the surviving (latest) wake keeps the same
/// key it would have had there — and the superseded entries this queue
/// drops were version-mismatched no-ops.
#[derive(Clone, Debug, Default)]
struct WakeQueue {
    /// Per-slot version of the pending wake.
    version: Vec<u64>,
    /// Pending (key, slot) entries, a binary min-heap by key. Keys sit
    /// in the entries, so a sift reads no side table.
    heap: Vec<(EventKey, u32)>,
    /// Slot → position in `heap`, or [`WAKE_ABSENT`].
    pos: Vec<u32>,
}

impl WakeQueue {
    /// Empties the queue and sizes it for `slots` channels.
    fn reset(&mut self, slots: usize) {
        refill(&mut self.version, slots, 0);
        self.heap.clear();
        refill(&mut self.pos, slots, WAKE_ABSENT);
    }

    /// Inserts or replaces the pending wake of `slot`.
    fn set(&mut self, slot: usize, key: EventKey, version: u64) {
        self.version[slot] = version;
        let p = self.pos[slot];
        if p == WAKE_ABSENT {
            self.heap.push((key, slot as u32));
            self.sift_up(self.heap.len() - 1);
        } else {
            let p = p as usize;
            let earlier = key < self.heap[p].0;
            self.heap[p].0 = key;
            if earlier {
                self.sift_up(p);
            } else {
                self.sift_down(p);
            }
        }
    }

    /// The smallest pending key, or [`NO_EVENT`] if no wake is pending.
    fn peek(&self) -> EventKey {
        self.heap.first().map_or(NO_EVENT, |e| e.0)
    }

    /// Removes and returns the earliest wake as (slot, version).
    fn pop(&mut self) -> (usize, u64) {
        let last = self.heap.pop().expect("pop on empty wake queue");
        let slot = match self.heap.first_mut() {
            Some(head) => {
                let slot = std::mem::replace(head, last).1 as usize;
                self.sift_down(0);
                slot
            }
            None => last.1 as usize,
        };
        self.pos[slot] = WAKE_ABSENT;
        (slot, self.version[slot])
    }

    /// Places `entry` at heap position `p` and records where it went.
    fn place(&mut self, p: usize, entry: (EventKey, u32)) {
        self.heap[p] = entry;
        self.pos[entry.1 as usize] = p as u32;
    }

    /// Moves the entry at heap position `p` up to its place.
    fn sift_up(&mut self, mut p: usize) {
        let entry = self.heap[p];
        while p > 0 {
            let parent = (p - 1) / 2;
            if entry.0 >= self.heap[parent].0 {
                break;
            }
            self.place(p, self.heap[parent]);
            p = parent;
        }
        self.place(p, entry);
    }

    /// Moves the entry at heap position `p` down to its place.
    fn sift_down(&mut self, mut p: usize) {
        let entry = self.heap[p];
        let len = self.heap.len();
        loop {
            let l = 2 * p + 1;
            if l >= len {
                break;
            }
            let child = if l + 1 < len && self.heap[l + 1].0 < self.heap[l].0 {
                l + 1
            } else {
                l
            };
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.place(p, self.heap[child]);
            p = child;
        }
        self.place(p, entry);
    }
}

/// The state of one run. The scratch buffers are moved in for the run
/// and handed back after it.
struct Run<'a, O> {
    /// The graph; its dependency lists are read only by failure
    /// detection.
    graph: &'a ExecGraph,
    /// The graph's nodes.
    nodes: &'a [Node],
    /// Each node's sync class (see [`Executable`]).
    sync_class: &'a [u8],
    /// Active variability profile. `None` when the config carries no
    /// profile *or* an ideal one — the fault hooks then cost nothing and
    /// the simulation is bit-for-bit the unperturbed one.
    profile: Option<&'a ClusterProfile>,
    /// The caller's scratch, reset for this run.
    s: RunScratch,
    dep_starts: &'a [u32],
    dep_targets: &'a [u32],
    /// Wake slot of the shared fabric's channel in `s.hbm` (logical-mesh
    /// mode only).
    fabric: Option<usize>,
    seq: u64,
    makespan: f64,
    /// How many chips each busy-time addition stands for.
    copies: usize,
    buckets: Buckets,
    completed: usize,
    /// Total comm-transfer busy time that ran while the same chip's
    /// compute unit was busy (the paper's "hidden" communication).
    overlapped: f64,
    /// Permanent-failure context (`None` on the normal path).
    failure: Option<FailCtx>,
    /// Detection time once a watchdog fires; set at most once, and the
    /// event loop stops at it.
    aborted: Option<f64>,
    obs: &'a mut O,
}

#[derive(Clone, Debug, Default)]
struct Buckets {
    compute: f64,
    slice: f64,
    comm_launch: f64,
    comm_sync: f64,
    comm_transfer: f64,
}

impl Engine {
    /// Creates an engine for the given mesh and hardware model.
    pub fn new(mesh: Torus2d, config: SimConfig) -> Self {
        Engine { mesh, config }
    }

    /// The mesh this engine simulates.
    pub fn mesh(&self) -> &Torus2d {
        &self.mesh
    }

    /// The hardware configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// A sibling engine on the same mesh whose config differs only in its
    /// fault profile — the replay hook for pricing one lowered program
    /// under many perturbations: lowering does not depend on
    /// [`SimConfig::faults`], so a [`LoweredProgram`] built by `self` can
    /// be run by the sibling (and vice versa) without re-lowering.
    pub fn with_faults(&self, profile: ClusterProfile) -> Engine {
        Engine {
            mesh: self.mesh.clone(),
            config: self.config.clone().with_faults(profile),
        }
    }

    /// Runs a program to completion and reports timing: lowers it, then
    /// runs it on fresh scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if the program deadlocks (its rings wait on each other),
    /// which would indicate a bug in the schedule builder.
    pub fn run(&self, program: &Program) -> SimReport {
        self.run_lowered_with_scratch(&self.lower_program(program), &mut RunScratch::new())
    }

    /// Lowers a program once, for repeated execution via
    /// [`run_lowered_with_scratch`](Self::run_lowered_with_scratch) /
    /// [`run_observed`](Self::run_observed).
    ///
    /// The lowered form does not depend on [`SimConfig::faults`], so it can
    /// be reused across engines that differ only in their fault profile.
    /// A program built from an SPMD template lowers only chip 0 here,
    /// straight from the template (see [`LoweredProgram`]); its full graph
    /// waits for the first run that needs it.
    pub fn lower_program(&self, program: &Program) -> LoweredProgram {
        let representative = quotient::representative(&self.mesh, &self.config, program)
            .map(|rep| Executable::new(lower(&self.mesh, &self.config, rep, false), 1));
        let full = match representative {
            Some(_) => OnceLock::new(),
            None => OnceLock::from(Executable::new(
                lower(&self.mesh, &self.config, program, true),
                self.mesh.num_chips(),
            )),
        };
        LoweredProgram {
            program: program.clone(),
            lowering: Engine {
                mesh: self.mesh.clone(),
                config: SimConfig {
                    faults: None,
                    ..self.config.clone()
                },
            },
            representative,
            full,
            total_flops: program.total_flops(),
        }
    }

    /// Runs a pre-lowered program reusing the caller's scratch buffers —
    /// the hottest path: no validation, no lowering, no run-state
    /// allocation. Bit-for-bit identical to [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the lowered program was built for a mesh of a different
    /// size, or if the program deadlocks.
    pub fn run_lowered_with_scratch(
        &self,
        lowered: &LoweredProgram,
        scratch: &mut RunScratch,
    ) -> SimReport {
        self.run_observed(lowered, scratch, None, &mut ())
            .into_completed()
            .expect("a run without an injected failure never aborts")
    }

    /// Runs a pre-lowered program on the caller's scratch buffers, under
    /// an optional permanent chip failure, reporting every schedule
    /// instant to `observer` (see [`EngineObserver`]; `()` observes
    /// nothing). The observer cannot change the run: the outcome is
    /// bit-for-bit the same whatever observer is attached.
    ///
    /// `failure` is a [`ChipFailure`] and the neighbor-sync timeout, in
    /// seconds. The failed chip freezes at the failure instant: in-flight
    /// work stalls forever and nothing new starts there. Surviving chips
    /// keep executing until one of them blocks with every remaining
    /// dependency on the dead chip — the per-ring-step neighbor sync that
    /// would have released it never arrives — and a watchdog declares the
    /// failure detected one timeout after that stall. The run then aborts
    /// with an [`AbortInfo`]. If no live node ever depends on the dead
    /// chip, the end-of-run barrier detects the missing chip one timeout
    /// after the last live completion instead.
    ///
    /// A failure at or after natural completion (or none at all) returns
    /// [`FailureOutcome::Completed`] with a report **bit-for-bit
    /// identical** to [`run`](Self::run) — the failure path adds no
    /// floating-point work to unaffected runs.
    ///
    /// # Panics
    ///
    /// Panics if the lowered program or the fault profile was built for a
    /// mesh of a different size, if the failed chip is outside the mesh,
    /// if the failure time or timeout is not finite and non-negative, or
    /// if a run without a failure deadlocks.
    pub fn run_observed<O: EngineObserver>(
        &self,
        lowered: &LoweredProgram,
        scratch: &mut RunScratch,
        failure: Option<(ChipFailure, f64)>,
        observer: &mut O,
    ) -> FailureOutcome {
        let chips = self.mesh.num_chips();
        if let Some((cf, timeout)) = &failure {
            assert!(
                cf.chip < chips,
                "failed chip {} outside {chips}-chip mesh",
                cf.chip
            );
            assert!(
                cf.at.is_finite() && cf.at >= 0.0,
                "failure time {} must be finite and non-negative",
                cf.at
            );
            assert!(
                timeout.is_finite() && *timeout >= 0.0,
                "sync timeout {timeout} must be finite and non-negative"
            );
        }
        let lowered_chips = lowered.lowering.mesh.num_chips();
        assert_eq!(
            lowered_chips, chips,
            "lowered program was built for {lowered_chips} chips but the mesh has {chips}"
        );
        let profile = self.config.faults.as_ref();
        if let Some(p) = profile {
            assert_eq!(
                p.num_chips(),
                chips,
                "fault profile covers {} chips but the mesh has {chips}",
                p.num_chips()
            );
        }
        // An ideal profile would only multiply by exactly 1.0 everywhere;
        // dropping it keeps the unperturbed fast path and makes the
        // bit-for-bit equivalence structural.
        let profile = profile.filter(|p| !p.is_ideal());

        let quotient = lowered.quotient_for::<O>(profile, failure.is_some());
        let (exe, copies) = match quotient {
            Some(rep) => (rep, chips),
            None => (lowered.full(), 1),
        };
        let flops = lowered.total_flops;
        let outcome = self.execute(flops, exe, copies, scratch, profile, failure, observer);
        #[cfg(debug_assertions)]
        if quotient.is_some() {
            let full = lowered.full();
            let want = self.execute(flops, full, 1, &mut RunScratch::new(), None, None, &mut ());
            assert_eq!(
                outcome, want,
                "the symmetry quotient diverged from the full graph"
            );
        }
        outcome
    }

    /// The event loop: runs `exe`, a graph of a program of `total_flops`,
    /// on `scratch`. Each busy-time addition counts `copies` times, once
    /// per chip a representative stands for.
    #[allow(clippy::too_many_arguments)]
    fn execute<O: EngineObserver>(
        &self,
        total_flops: u64,
        exe: &Executable,
        copies: usize,
        scratch: &mut RunScratch,
        profile: Option<&ClusterProfile>,
        failure: Option<(ChipFailure, f64)>,
        observer: &mut O,
    ) -> FailureOutcome {
        let n = exe.graph.nodes.len();
        let chips = exe.chips;

        // Reset the scratch buffers to exactly the state a fresh
        // allocation would have, keeping their capacity.
        scratch.deps_left.clear();
        scratch.deps_left.extend_from_slice(&exe.deps_left_init);
        refill(&mut scratch.phase, n, Phase::Blocked);
        scratch.compute_units.truncate(chips);
        for rs in &mut scratch.compute_units {
            rs.busy = false;
            rs.queue.clear();
        }
        scratch
            .compute_units
            .resize_with(chips, ResourceState::default);
        scratch.links.truncate(chips);
        for dirs in &mut scratch.links {
            for rs in dirs {
                rs.busy = false;
                rs.queue.clear();
            }
        }
        scratch.links.resize_with(chips, Default::default);
        scratch.hbm.truncate(chips);
        for ch in &mut scratch.hbm {
            ch.reset(self.config.hbm_bandwidth);
        }
        while scratch.hbm.len() < chips {
            scratch.hbm.push(HbmChannel::new(self.config.hbm_bandwidth));
        }
        let fabric = match self.config.network {
            NetworkModel::PhysicalTorus => None,
            NetworkModel::SharedFabric {
                bisection_bandwidth,
            } => {
                scratch.hbm.push(HbmChannel::new(bisection_bandwidth));
                Some(chips)
            }
        };
        scratch.heap.clear();
        scratch.syncs.truncate(exe.sync_classes);
        for q in &mut scratch.syncs {
            q.clear();
        }
        scratch.syncs.resize_with(exe.sync_classes, VecDeque::new);
        scratch.wakes.reset(chips + 1);
        for buf in &mut scratch.done_pool {
            buf.clear();
        }
        refill(&mut scratch.busy_start_time, n, 0.0);
        refill(&mut scratch.compute_cum, chips, 0.0);
        refill(&mut scratch.compute_since, chips, None);
        refill(&mut scratch.overlap_at_start, n, 0.0);

        let mut run = Run {
            graph: &exe.graph,
            nodes: &exe.graph.nodes,
            sync_class: &exe.sync_class,
            profile,
            s: std::mem::take(scratch),
            dep_starts: &exe.dep_starts,
            dep_targets: &exe.dep_targets,
            fabric,
            seq: 0,
            makespan: 0.0,
            copies,
            buckets: Buckets::default(),
            completed: 0,
            overlapped: 0.0,
            failure: failure.map(|(cf, timeout)| FailCtx {
                chip: cf.chip as u32,
                timeout,
                detect_at: f64::INFINITY,
                fired: false,
            }),
            aborted: None,
            obs: observer,
        };

        // Outage boundaries are known up front; scheduling them as events
        // re-rates in-flight transfers exactly at each edge.
        if let Some(p) = profile {
            for chip in 0..chips {
                for edge in p.edge_times(chip) {
                    run.schedule(edge, Event::FaultEdge { chip });
                }
            }
        }

        // The permanent failure, if any, is a pre-scheduled event too.
        if let Some((cf, _)) = &failure {
            run.schedule(cf.at, Event::ChipFail);
        }

        // The roots were snapshotted at lowering time, before starting any
        // of them: zero-duration roots can complete instantly and make
        // further nodes ready (through the normal dependency path), which
        // must not be re-readied by this loop.
        for &i in &exe.roots {
            if run.s.phase[i] == Phase::Blocked {
                run.ready(i, 0.0);
            }
        }
        // Several sources of events, one total order: the shared heap,
        // the per-channel wake queue and the sync-class FIFOs draw
        // sequence numbers from the same counter, so taking the least of
        // their head keys dispatches in exactly the order a single
        // combined heap would. Keys are unique, so only an empty source
        // ties the [`NO_EVENT`] sentinel.
        loop {
            // A detected failure stops the cluster: events past the
            // detection instant are never dispatched.
            if run.aborted.is_some() {
                break;
            }
            let mut key = run.s.heap.peek().map_or(NO_EVENT, |Reverse((k, _))| *k);
            let mut source = Source::Heap;
            let wake_key = run.s.wakes.peek();
            if wake_key < key {
                key = wake_key;
                source = Source::Wake;
            }
            for (class, q) in run.s.syncs.iter().enumerate() {
                if let Some(&(k, _)) = q.front() {
                    if k < key {
                        key = k;
                        source = Source::Sync(class);
                    }
                }
            }
            let t = key_time(key);
            match source {
                _ if key == NO_EVENT => break,
                Source::Heap => {
                    let Reverse((_, event)) = run.s.heap.pop().expect("checked");
                    run.dispatch(event, t);
                }
                Source::Wake => {
                    let (slot, version) = run.s.wakes.pop();
                    run.wake(slot, version, t);
                }
                Source::Sync(class) => {
                    let (_, node) = run.s.syncs[class].pop_front().expect("checked");
                    run.dispatch(Event::SyncDone(node as usize), t);
                }
            }
        }
        let abort = match &failure {
            Some((cf, timeout)) if run.completed < n => {
                // Detected by a stalled live node's watchdog, or — when
                // only dead-chip work remained — by the end-of-run
                // barrier one timeout after the last live completion.
                let detected = run.aborted.unwrap_or(run.makespan.max(cf.at) + timeout);
                Some(AbortInfo {
                    failure_time: Duration::from_secs(cf.at),
                    detected_at: Duration::from_secs(detected),
                    completed_nodes: run.completed,
                    total_nodes: n,
                })
            }
            Some(_) => None,
            None => {
                assert_eq!(
                    run.completed, n,
                    "program deadlocked: {} of {n} nodes completed",
                    run.completed
                );
                None
            }
        };

        let report = SimReport::new(
            Duration::from_secs(run.makespan),
            self.mesh.num_chips(),
            self.config.peak_flops,
            total_flops,
            TimeBreakdown {
                compute: Duration::from_secs(run.buckets.compute),
                slice: Duration::from_secs(run.buckets.slice),
                comm_launch: Duration::from_secs(run.buckets.comm_launch),
                comm_sync: Duration::from_secs(run.buckets.comm_sync),
                comm_transfer: Duration::from_secs(run.buckets.comm_transfer),
            },
            Duration::from_secs(run.overlapped),
        );
        *scratch = run.s;
        match abort {
            Some(info) => FailureOutcome::Aborted(info),
            None => FailureOutcome::Completed(report),
        }
    }
}

impl<O: EngineObserver> Run<'_, O> {
    fn schedule(&mut self, t: f64, event: Event) {
        self.seq += 1;
        self.s.heap.push(Reverse((event_key(t, self.seq), event)));
    }

    /// Schedules `node`'s [`Event::SyncDone`] at `t` (the current instant
    /// plus its sync delay), through its sync class's FIFO when it has
    /// one. A FIFO stays in key order with no sifting: the current
    /// instant never decreases, rounding `now + delay` is monotone in
    /// `now` for one delay, and sequence numbers only grow.
    fn schedule_sync(&mut self, node: usize, t: f64) {
        match self.sync_class[node] {
            NO_SYNC_CLASS => self.schedule(t, Event::SyncDone(node)),
            class => {
                self.seq += 1;
                let key = event_key(t, self.seq);
                let q = &mut self.s.syncs[class as usize];
                debug_assert!(q.back().is_none_or(|&(k, _)| k < key));
                q.push_back((key, node as u32));
            }
        }
    }

    /// Whether `node` lives on the dead chip of a fired failure.
    #[inline]
    fn node_frozen(&self, node: usize) -> bool {
        self.chip_dead(self.nodes[node].chip as usize)
    }

    /// Whether `chip` is the dead chip of a fired failure.
    #[inline]
    fn chip_dead(&self, chip: usize) -> bool {
        match &self.failure {
            Some(f) => f.fired && f.chip as usize == chip,
            None => false,
        }
    }

    /// Settles channel `slot` up to `t` and completes the flows that
    /// finished; a no-op when the channel was already settled at `t` (as
    /// when several nodes go busy on one chip at one instant), and no
    /// more than an advance when no flow finished.
    /// Completion buffers come from a pool because completing a node can
    /// recursively settle more channels. Forced inline, like
    /// `reschedule`: without it the wake and busy paths of the event loop
    /// measurably slow down.
    #[inline(always)]
    fn settle(&mut self, slot: usize, t: f64) {
        let channel = &mut self.s.hbm[slot];
        if channel.is_settled_at(t) || !channel.advance(t) {
            return;
        }
        let mut done = self.s.done_pool.pop().unwrap_or_default();
        self.s.hbm[slot].take_completed_into(&mut done);
        for &node in &done {
            self.part_done(node, t);
        }
        done.clear();
        self.s.done_pool.push(done);
    }

    /// A wake-up of channel `slot`: completes its finished flows unless
    /// the wake is stale or the channel belongs to the dead chip (frozen).
    fn wake(&mut self, slot: usize, version: u64, t: f64) {
        if self.chip_dead(slot) || self.s.hbm[slot].version() != version {
            return;
        }
        self.settle(slot, t);
        self.reschedule(slot, t);
    }

    fn dispatch(&mut self, event: Event, t: f64) {
        match event {
            Event::SyncDone(node) => {
                if self.node_frozen(node) {
                    return;
                }
                if self.s.phase[node] == Phase::Syncing {
                    self.begin_busy(node, t);
                }
            }
            Event::TimerDone(node) => self.part_done(node, t),
            Event::ChipFail => self.on_chip_fail(t),
            Event::FailTimeout => {
                // A stall watchdog expired: the earliest one to fire is the
                // true detection time (stalls on a dead chip never resolve,
                // so the earliest-armed watchdog is never cancelled).
                if self.failure.as_ref().is_some_and(|f| f.fired) && self.aborted.is_none() {
                    self.aborted = Some(t);
                }
            }
            Event::FaultEdge { chip } => {
                if self.chip_dead(chip) {
                    return; // outage edges on a dead chip are moot
                }
                // An outage window on one of this chip's links starts or
                // ends: settle the chip's HBM channel up to now, then
                // re-rate its in-flight link transfers.
                self.settle(chip, t);
                self.retune_chip_links(chip, t);
                self.reschedule(chip, t);
                if let Some(slot) = self.fabric {
                    self.settle(slot, t);
                    self.retune_fabric_links(chip, t);
                    self.reschedule(slot, t);
                }
            }
        }
    }

    /// Re-rates the in-flight link flows of one chip's HBM channel to the
    /// profile's current bandwidth multipliers. Flows of other resources
    /// (GeMM/slice streaming) are untouched.
    fn retune_chip_links(&mut self, chip: usize, t: f64) {
        let Some(profile) = self.profile else { return };
        let nodes = self.nodes;
        self.s.hbm[chip].retune_caps(|node| {
            let info = &nodes[node];
            match info.resource {
                Resource::Link(dir) => {
                    Some(info.flow_cap * profile.link_multiplier_at(chip, dir, t))
                }
                _ => None,
            }
        });
    }

    /// Same as [`retune_chip_links`](Self::retune_chip_links) but for the
    /// shared-fabric flows injected by that chip.
    fn retune_fabric_links(&mut self, chip: usize, t: f64) {
        let Some(profile) = self.profile else { return };
        let nodes = self.nodes;
        if let Some(slot) = self.fabric {
            self.s.hbm[slot].retune_caps(|node| {
                let info = &nodes[node];
                if info.chip as usize != chip {
                    return None;
                }
                match info.resource {
                    Resource::Link(dir) => {
                        // Fabric injection is capped at half the HBM-side
                        // cap (the link wire rate), scaled the same way.
                        Some(info.flow_cap * profile.link_multiplier_at(chip, dir, t) / 2.0)
                    }
                    _ => None,
                }
            });
        }
    }

    /// Replaces the pending wake of a channel slot, consuming the next
    /// global sequence number exactly as [`schedule`](Self::schedule)
    /// would — the surviving wake's key matches what a shared heap push
    /// would have produced.
    fn schedule_wake(&mut self, slot: usize, t: f64, version: u64) {
        self.seq += 1;
        self.s.wakes.set(slot, event_key(t, self.seq), version);
    }

    /// Replaces the pending wake of channel `slot` with its next flow
    /// completion, if any.
    #[inline(always)]
    fn reschedule(&mut self, slot: usize, t: f64) {
        let channel = &self.s.hbm[slot];
        if let Some(dt) = channel.next_completion_in() {
            let version = channel.version();
            self.schedule_wake(slot, t + dt, version);
        }
    }

    fn resource_state(&mut self, node: usize) -> Option<&mut ResourceState> {
        let chip = self.nodes[node].chip as usize;
        match self.nodes[node].resource {
            Resource::None => None,
            Resource::Compute => Some(&mut self.s.compute_units[chip]),
            Resource::Link(dir) => Some(&mut self.s.links[chip][dir.index()]),
        }
    }

    /// The chip's cumulative compute-unit busy time at instant `t` (a
    /// monotone measure; the overlap of an interval `[s, t]` with the
    /// chip's compute-busy set is exactly `measure(t) − measure(s)`).
    fn compute_measure(&self, chip: usize, t: f64) -> f64 {
        self.s.compute_cum[chip] + self.s.compute_since[chip].map_or(0.0, |s| t - s)
    }

    /// The just-fired failure froze `FailCtx::chip`: suppress every event
    /// on it from now on, then scan for live nodes that are already stalled
    /// on the dead chip and arm their detection watchdog.
    fn on_chip_fail(&mut self, t: f64) {
        let dead = {
            let Some(f) = self.failure.as_mut() else {
                return;
            };
            if f.fired {
                return;
            }
            f.fired = true;
            f.chip
        };
        if (0..self.s.phase.len()).any(|d| self.stalled_on_dead(d, dead)) {
            self.stall_watchdog(t);
        }
    }

    /// Whether live node `node` is blocked with every remaining dependency
    /// on the dead chip — a stall that can never resolve, which is what the
    /// neighbor-sync watchdog detects.
    fn stalled_on_dead(&self, node: usize, dead: u32) -> bool {
        self.nodes[node].chip != dead
            && self.s.phase[node] == Phase::Blocked
            && self.s.deps_left[node] > 0
            && self.graph.deps(node).iter().all(|&dep| {
                self.s.phase[dep as usize] == Phase::Done || self.nodes[dep as usize].chip == dead
            })
    }

    /// Arms (or tightens) the failure-detection watchdog: a stall that
    /// began at `t` is declared a failure `sync_timeout` later. Only an
    /// earlier stall can move the detection time forward.
    fn stall_watchdog(&mut self, t: f64) {
        let expiry = match self.failure.as_mut() {
            Some(f) if f.fired && t + f.timeout < f.detect_at => {
                f.detect_at = t + f.timeout;
                f.detect_at
            }
            _ => return,
        };
        self.schedule(expiry, Event::FailTimeout);
    }

    fn ready(&mut self, node: usize, t: f64) {
        if self.node_frozen(node) {
            return; // the dead chip never starts new work
        }
        debug_assert_eq!(
            self.s.phase[node],
            Phase::Blocked,
            "node {node} readied twice"
        );
        self.obs.node_ready(node, t);
        let acquired = match self.resource_state(node) {
            None => true,
            Some(rs) => {
                if rs.busy {
                    rs.queue.push_back(node);
                    false
                } else {
                    rs.busy = true;
                    true
                }
            }
        };
        if acquired {
            self.begin_sync(node, None, t);
        } else {
            self.s.phase[node] = Phase::Queued;
        }
    }

    /// `node` acquired its lane at `t` (handed over by `from` if it
    /// queued); its synchronization delay starts now.
    fn begin_sync(&mut self, node: usize, from: Option<usize>, t: f64) {
        self.obs.resource_acquired(node, from, t);
        let sync = self.nodes[node].sync;
        if sync > 0.0 {
            self.s.phase[node] = Phase::Syncing;
            self.schedule_sync(node, t + sync);
        } else {
            self.begin_busy(node, t);
        }
    }

    fn begin_busy(&mut self, node: usize, t: f64) {
        let info = self.nodes[node];
        let chip = info.chip as usize;
        self.s.busy_start_time[node] = t;
        add_copies(&mut self.buckets.comm_sync, info.sync, self.copies);
        match (info.resource, info.category) {
            // The compute unit is exclusive, so at most one node per chip
            // is ever active here.
            (Resource::Compute, _) => self.s.compute_since[chip] = Some(t),
            (_, Category::CommTransfer) => {
                self.s.overlap_at_start[node] = self.compute_measure(chip, t);
            }
            _ => {}
        }
        let fabric_slot = self.fabric.filter(|_| info.fabric_bytes > 0.0);
        let mut parts = 0u8;
        if info.timer > 0.0 {
            parts += 1;
        }
        if info.flow_bytes > 0.0 {
            parts += 1;
        }
        if fabric_slot.is_some() {
            parts += 1;
        }
        if parts == 0 {
            self.s.phase[node] = Phase::Busy { parts_left: 0 };
            self.complete(node, t);
            return;
        }
        self.s.phase[node] = Phase::Busy { parts_left: parts };
        let (mut timer, flow_bytes, mut flow_cap, fabric_bytes) = (
            info.timer,
            info.flow_bytes,
            info.flow_cap,
            info.fabric_bytes,
        );
        if let Some(profile) = self.profile {
            // Variability hooks: a straggler chip stretches compute-unit
            // timers; a degraded (or in-outage) link lowers the rate cap
            // of its transfer flows. Outage edges later re-rate in-flight
            // flows via `Event::FaultEdge`.
            match info.resource {
                Resource::Compute => timer *= profile.compute_slowdown(chip),
                Resource::Link(dir) => flow_cap *= profile.link_multiplier_at(chip, dir, t),
                Resource::None => {}
            }
        }
        if timer > 0.0 {
            self.schedule(t + timer, Event::TimerDone(node));
        }
        if flow_bytes > 0.0 {
            self.settle(chip, t);
            self.s.hbm[chip].add_flow(node, flow_bytes, flow_cap);
            self.reschedule(chip, t);
        }
        if let Some(slot) = fabric_slot {
            self.settle(slot, t);
            // Per-transfer injection stays capped at the link rate.
            self.s.hbm[slot].add_flow(node, fabric_bytes, flow_cap / 2.0);
            self.reschedule(slot, t);
        }
    }

    fn part_done(&mut self, node: usize, t: f64) {
        if self.node_frozen(node) {
            return; // in-flight work on the dead chip never finishes
        }
        if let Phase::Busy { parts_left } = self.s.phase[node] {
            if parts_left <= 1 {
                self.s.phase[node] = Phase::Busy { parts_left: 0 };
                self.complete(node, t);
            } else {
                self.s.phase[node] = Phase::Busy {
                    parts_left: parts_left - 1,
                };
            }
        } else {
            panic!(
                "part completion for node {node} in phase {:?}",
                self.s.phase[node]
            );
        }
    }

    fn complete(&mut self, node: usize, t: f64) {
        match self.s.phase[node] {
            Phase::Busy { .. } => {}
            ref p => panic!("completing node {node} in phase {p:?}"),
        }
        let busy_start = self.s.busy_start_time[node];
        let info = self.nodes[node];
        let chip = info.chip as usize;
        let busy = t - busy_start;
        let bucket = match info.category {
            Category::Compute => &mut self.buckets.compute,
            Category::Slice => &mut self.buckets.slice,
            Category::CommLaunch => &mut self.buckets.comm_launch,
            Category::CommTransfer => &mut self.buckets.comm_transfer,
        };
        add_copies(bucket, busy, self.copies);
        match (info.resource, info.category) {
            (Resource::Compute, _) => {
                self.s.compute_cum[chip] += busy;
                self.s.compute_since[chip] = None;
            }
            (_, Category::CommTransfer) => {
                // Transfer time covered by the chip's compute-busy set over
                // this node's busy interval — communication the schedule
                // actually hid under computation.
                let hidden = self.compute_measure(chip, t) - self.s.overlap_at_start[node];
                add_copies(&mut self.overlapped, hidden.max(0.0), self.copies);
            }
            _ => {}
        }
        self.s.phase[node] = Phase::Done;
        self.completed += 1;
        self.obs.node_completed(node, busy_start, t);
        self.makespan = self.makespan.max(t);

        let handoff = self.resource_state(node).and_then(|rs| {
            let next = rs.queue.pop_front();
            rs.busy = next.is_some();
            next
        });
        if let Some(next) = handoff {
            self.begin_sync(next, Some(node), t);
        }

        let dead = match &self.failure {
            Some(f) if f.fired => Some(f.chip),
            _ => None,
        };
        let start = self.dep_starts[node] as usize;
        let end = self.dep_starts[node + 1] as usize;
        for i in start..end {
            let d = self.dep_targets[i] as usize;
            self.s.deps_left[d] -= 1;
            if self.s.deps_left[d] == 0 {
                self.ready(d, t);
            } else if let Some(dead) = dead {
                if self.stalled_on_dead(d, dead) {
                    self.stall_watchdog(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::{
        GemmShape, NodeSpan, OpTrace, OpTraceRecorder, RunTimeline, SpanKind, SpanRecorder,
        SpanTrack, TimelineRecorder,
    };
    use meshslice_mesh::{ChipId, CommAxis, LinkDir};

    fn cfg() -> SimConfig {
        SimConfig::tpu_v4()
    }

    fn run_traced(engine: &Engine, program: &Program) -> (SimReport, Vec<OpTrace>) {
        let lowered = engine.lower_program(program);
        let mut rec = OpTraceRecorder::new(&lowered);
        let outcome = engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut rec);
        (outcome.into_completed().unwrap(), rec.into_traces())
    }

    fn run_spans(engine: &Engine, program: &Program) -> (SimReport, Vec<NodeSpan>) {
        let lowered = engine.lower_program(program);
        let mut rec = SpanRecorder::new(&lowered);
        let outcome = engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut rec);
        (outcome.into_completed().unwrap(), rec.into_spans())
    }

    fn run_timeline(engine: &Engine, program: &Program) -> (SimReport, RunTimeline) {
        let lowered = engine.lower_program(program);
        let mut rec = TimelineRecorder::new(&lowered);
        let outcome = engine.run_observed(&lowered, &mut RunScratch::new(), None, &mut rec);
        (outcome.into_completed().unwrap(), rec.into_timeline())
    }

    fn run_with_failure(
        engine: &Engine,
        program: &Program,
        failure: crate::ChipFailure,
        sync_timeout: f64,
    ) -> FailureOutcome {
        let lowered = engine.lower_program(program);
        engine.run_observed(
            &lowered,
            &mut RunScratch::new(),
            Some((failure, sync_timeout)),
            &mut (),
        )
    }

    #[test]
    fn empty_program_finishes_instantly() {
        let mesh = Torus2d::new(2, 2);
        let b = ProgramBuilder::new(&mesh);
        let report = Engine::new(mesh, cfg()).run(&b.build());
        assert_eq!(report.makespan().as_secs(), 0.0);
    }

    #[test]
    fn single_gemm_matches_compute_model() {
        let mesh = Torus2d::new(1, 1);
        let shape = GemmShape::new(4096, 4096, 4096);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), shape, &[]);
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let expect = cfg().gemm_flop_time(shape).as_secs() + cfg().t_kernel_launch.as_secs();
        // HBM streaming of a large square GeMM is far below the flop time,
        // so the makespan equals the compute model exactly.
        assert!((report.makespan().as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn dependent_gemms_serialize() {
        let mesh = Torus2d::new(1, 1);
        let shape = GemmShape::new(1024, 1024, 1024);
        let mut b = ProgramBuilder::new(&mesh);
        let g1 = b.gemm(ChipId(0), shape, &[]);
        b.gemm(ChipId(0), shape, &[g1]);
        let report = Engine::new(mesh.clone(), cfg()).run(&b.build());

        let mut b2 = ProgramBuilder::new(&mesh);
        b2.gemm(ChipId(0), shape, &[]);
        let single = Engine::new(mesh, cfg()).run(&b2.build());
        let ratio = report.makespan().as_secs() / single.makespan().as_secs();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn independent_gemms_on_one_chip_also_serialize() {
        // The compute unit is exclusive.
        let mesh = Torus2d::new(1, 1);
        let shape = GemmShape::new(1024, 1024, 1024);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), shape, &[]);
        b.gemm(ChipId(0), shape, &[]);
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let one = cfg().gemm_flop_time(shape).as_secs() + cfg().t_kernel_launch.as_secs();
        assert!(report.makespan().as_secs() > 1.9 * one);
    }

    #[test]
    fn gemms_on_different_chips_run_in_parallel() {
        let mesh = Torus2d::new(1, 2);
        let shape = GemmShape::new(1024, 1024, 1024);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), shape, &[]);
        b.gemm(ChipId(1), shape, &[]);
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let one = cfg().gemm_flop_time(shape).as_secs() + cfg().t_kernel_launch.as_secs();
        assert!((report.makespan().as_secs() - one).abs() < 1e-9);
    }

    #[test]
    fn ring_all_gather_takes_p_minus_1_steps() {
        let mesh = Torus2d::new(8, 1);
        let shard: u64 = 1 << 20; // 1 MiB
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, shard, &[]);
        }
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let c = cfg();
        let staging = shard as f64 / c.hbm_bandwidth;
        let expect = c.t_launch.as_secs()
            + 7.0 * (c.t_sync.as_secs() + staging + shard as f64 / c.link_bandwidth);
        assert!(
            (report.makespan().as_secs() - expect).abs() < 1e-9,
            "makespan {} vs {expect}",
            report.makespan().as_secs()
        );
    }

    #[test]
    fn bidirectional_all_gather_is_nearly_twice_as_fast() {
        let shard: u64 = 1 << 22;
        let run = |lanes: u8| {
            let mesh = Torus2d::new(8, 1);
            let mut b = ProgramBuilder::new(&mesh);
            let tag = b.next_tag();
            for chip in mesh.chips() {
                b.collective(
                    chip,
                    tag,
                    crate::CollectiveKind::AllGather,
                    CommAxis::InterRow,
                    shard,
                    lanes,
                    &[],
                );
            }
            Engine::new(mesh, cfg())
                .run(&b.build())
                .makespan()
                .as_secs()
        };
        let uni = run(1);
        let bi = run(2);
        assert!(bi < 0.6 * uni, "bi {bi} vs uni {uni}");
    }

    #[test]
    fn late_chip_delays_the_ring() {
        // One chip computes before joining the collective; the whole ring
        // finishes later than launch + steps because step k waits for the
        // upstream chip's step k-1.
        let mesh = Torus2d::new(4, 1);
        let shard: u64 = 1 << 20;
        let shape = GemmShape::new(2048, 2048, 2048);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            if chip == ChipId(0) {
                let g = b.gemm(chip, shape, &[]);
                b.all_gather(chip, tag, CommAxis::InterRow, shard, &[g]);
            } else {
                b.all_gather(chip, tag, CommAxis::InterRow, shard, &[]);
            }
        }
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let c = cfg();
        let gemm_time = c.gemm_flop_time(shape).as_secs() + c.t_kernel_launch.as_secs();
        let collective =
            c.t_launch.as_secs() + 3.0 * (c.t_sync.as_secs() + shard as f64 / c.link_bandwidth);
        // Lower bound: the straggler's own timeline.
        assert!(report.makespan().as_secs() >= gemm_time + collective - 1e-9);
    }

    #[test]
    fn hbm_contention_stretches_transfers() {
        // A chip streaming a memory-bound GeMM while sending over a link
        // slows the link transfer only if HBM is saturated; with a narrow
        // HBM the makespan must exceed the uncontended link time.
        let narrow = SimConfig {
            hbm_bandwidth: 60e9, // below 2 x link demand + compute demand
            ..cfg()
        };
        let mesh = Torus2d::new(1, 1);
        let bytes: u64 = 1 << 26;
        let mut b = ProgramBuilder::new(&mesh);
        b.send_recv(ChipId(0), LinkDir::RowPlus, bytes, &[]);
        b.slice_copy(ChipId(0), bytes, &[]);
        let report = Engine::new(mesh.clone(), narrow.clone()).run(&b.build());

        let mut b2 = ProgramBuilder::new(&mesh);
        b2.send_recv(ChipId(0), LinkDir::RowPlus, bytes, &[]);
        let alone = Engine::new(mesh, narrow).run(&b2.build());
        assert!(report.makespan() > alone.makespan());
    }

    #[test]
    fn no_overlap_mode_serializes_comm_and_compute() {
        let mesh = Torus2d::new(4, 1);
        let shard: u64 = 8 << 20;
        let shape = GemmShape::new(4096, 4096, 4096);
        let build = || {
            let mut b = ProgramBuilder::new(&Torus2d::new(4, 1));
            let tag = 99;
            for chip in Torus2d::new(4, 1).chips() {
                b.all_gather(chip, tag, CommAxis::InterRow, shard, &[]);
                b.gemm(chip, shape, &[]);
            }
            b.build()
        };
        let overlapped = Engine::new(mesh.clone(), cfg()).run(&build());
        let serial_cfg = SimConfig {
            overlap_collectives: false,
            ..cfg()
        };
        let serial = Engine::new(mesh, serial_cfg).run(&build());
        assert!(serial.makespan() > overlapped.makespan());
        // Serial is at least the sum of both phases.
        let c = cfg();
        let comm =
            c.t_launch.as_secs() + 3.0 * (c.t_sync.as_secs() + shard as f64 / c.link_bandwidth);
        let comp = c.gemm_flop_time(shape).as_secs();
        assert!(serial.makespan().as_secs() >= comm + comp - 1e-9);
    }

    #[test]
    fn report_utilization_reflects_compute_fraction() {
        let mesh = Torus2d::new(1, 1);
        let shape = GemmShape::new(8192, 8192, 8192);
        let mut b = ProgramBuilder::new(&mesh);
        b.gemm(ChipId(0), shape, &[]);
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let util = report.flop_utilization();
        assert!(util > 0.8 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn shared_fabric_contention_slows_collectives() {
        // The same program under a physical torus, a generous fabric, and
        // a starved fabric: torus == generous < starved.
        let build = || {
            let mesh = Torus2d::new(4, 4);
            let mut b = ProgramBuilder::new(&mesh);
            let tag = b.next_tag();
            for chip in mesh.chips() {
                b.all_gather(chip, tag, CommAxis::InterRow, 8 << 20, &[]);
            }
            b.build()
        };
        let mesh = Torus2d::new(4, 4);
        let torus = Engine::new(mesh.clone(), cfg()).run(&build());
        // 16 chips x 1 active lane each: plenty of bisection.
        let generous = Engine::new(
            mesh.clone(),
            crate::SimConfig::gpu_logical_mesh(100e9 * 64.0),
        )
        .run(&build());
        let starved = Engine::new(mesh, crate::SimConfig::gpu_logical_mesh(100e9)).run(&build());
        assert!(
            (generous.makespan().as_secs() - torus.makespan().as_secs()).abs() < 1e-9,
            "generous fabric should match the torus"
        );
        assert!(
            starved.makespan().as_secs() > 2.0 * torus.makespan().as_secs(),
            "starved fabric {} vs torus {}",
            starved.makespan(),
            torus.makespan()
        );
    }

    #[test]
    fn fabric_contention_grows_with_concurrent_rings() {
        // Two concurrent collectives on different axes share the fabric;
        // on a physical torus they are independent.
        let build = || {
            let mesh = Torus2d::new(4, 4);
            let mut b = ProgramBuilder::new(&mesh);
            let t1 = b.next_tag();
            let t2 = b.next_tag();
            for chip in mesh.chips() {
                b.all_gather(chip, t1, CommAxis::InterRow, 8 << 20, &[]);
                b.all_gather(chip, t2, CommAxis::InterCol, 8 << 20, &[]);
            }
            b.build()
        };
        let mesh = Torus2d::new(4, 4);
        // Fabric sized to fit exactly one ring's worth of transfers.
        let fabric_cfg = crate::SimConfig::gpu_logical_mesh(16.0 * 50e9);
        let torus = Engine::new(mesh.clone(), cfg()).run(&build());
        let fabric = Engine::new(mesh, fabric_cfg).run(&build());
        assert!(fabric.makespan() > torus.makespan());
    }

    #[test]
    fn traced_run_reports_every_op_within_the_makespan() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(512, 512, 512), &[ag]);
        }
        let program = b.build();
        let (report, traces) = run_traced(&Engine::new(mesh, cfg()), &program);
        assert_eq!(traces.len(), program.len());
        for t in &traces {
            assert!(t.completed <= report.makespan());
        }
        // Each chip's GeMM completes after its AllGather.
        for pair in traces.chunks(2) {
            assert!(pair[1].completed >= pair[0].completed);
            assert_eq!(pair[0].chip, pair[1].chip);
        }
    }

    #[test]
    fn ideal_profile_is_bit_for_bit_identical() {
        let build = || {
            let mesh = Torus2d::new(4, 4);
            let mut b = ProgramBuilder::new(&mesh);
            let tag = b.next_tag();
            for chip in mesh.chips() {
                let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
                b.gemm(chip, GemmShape::new(1024, 1024, 1024), &[ag]);
            }
            b.build()
        };
        let mesh = Torus2d::new(4, 4);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&build());
        let ideal_cfg = cfg().with_faults(crate::ClusterProfile::ideal(16));
        let ideal = Engine::new(mesh, ideal_cfg).run(&build());
        assert_eq!(baseline, ideal);
    }

    #[test]
    fn straggler_chip_stretches_the_makespan() {
        let build = || {
            let mesh = Torus2d::new(2, 2);
            let mut b = ProgramBuilder::new(&mesh);
            for chip in mesh.chips() {
                b.gemm(chip, GemmShape::new(2048, 2048, 2048), &[]);
            }
            b.build()
        };
        let mesh = Torus2d::new(2, 2);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&build());
        let slow_cfg =
            cfg().with_faults(crate::ClusterProfile::ideal(4).with_compute_slowdown(3, 2.0));
        let slowed = Engine::new(mesh, slow_cfg).run(&build());
        let ratio = slowed.makespan().as_secs() / baseline.makespan().as_secs();
        // Compute dominates this program, so a 2x straggler on the
        // critical path roughly doubles the makespan.
        assert!(ratio > 1.9 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn degraded_link_slows_the_ring() {
        let build = || {
            let mesh = Torus2d::new(4, 1);
            let mut b = ProgramBuilder::new(&mesh);
            let tag = b.next_tag();
            for chip in mesh.chips() {
                b.all_gather(chip, tag, CommAxis::InterRow, 4 << 20, &[]);
            }
            b.build()
        };
        let mesh = Torus2d::new(4, 1);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&build());
        // The ring flows forward over RowPlus; halving one chip's RowPlus
        // bandwidth gates every ring step behind the slow hop.
        let degraded_cfg = cfg().with_faults(crate::ClusterProfile::ideal(4).with_link_multiplier(
            1,
            LinkDir::RowPlus,
            0.5,
        ));
        let degraded = Engine::new(mesh, degraded_cfg).run(&build());
        assert!(
            degraded.makespan().as_secs() > 1.3 * baseline.makespan().as_secs(),
            "degraded {} vs baseline {}",
            degraded.makespan(),
            baseline.makespan()
        );
    }

    #[test]
    fn outage_rerates_an_in_flight_transfer() {
        // A single long transfer; an outage window in its middle drops the
        // link to 10% for a known interval. During the window the flow
        // falls behind by window * (1 - floor) * rate bytes, which it
        // recovers at the full rate afterwards — so the completion shifts
        // by exactly window * (1 - floor).
        let mesh = Torus2d::new(1, 1);
        let bytes: u64 = 65_000_000_000; // 1 s uncontended at 65 GB/s
        let build = || {
            let mut b = ProgramBuilder::new(&Torus2d::new(1, 1));
            b.send_recv(ChipId(0), LinkDir::RowPlus, bytes, &[]);
            b.build()
        };
        let baseline = Engine::new(mesh.clone(), cfg()).run(&build());
        let window = 0.05;
        let floor = 0.1;
        let start = baseline.makespan().as_secs() / 2.0;
        let mut profile = crate::ClusterProfile::ideal(1);
        profile.add_outage(
            0,
            LinkDir::RowPlus,
            crate::LinkOutage::new(start, start + window, floor),
        );
        let outage_cfg = cfg().with_faults(profile);
        let outage = Engine::new(mesh, outage_cfg).run(&build());
        let expect = baseline.makespan().as_secs() + window * (1.0 - floor);
        assert!(
            (outage.makespan().as_secs() - expect).abs() < 1e-6,
            "outage makespan {} vs expected {expect}",
            outage.makespan().as_secs()
        );
    }

    #[test]
    fn outage_after_completion_changes_nothing() {
        let mesh = Torus2d::new(1, 1);
        let build = || {
            let mut b = ProgramBuilder::new(&Torus2d::new(1, 1));
            b.send_recv(ChipId(0), LinkDir::RowPlus, 1 << 20, &[]);
            b.build()
        };
        let baseline = Engine::new(mesh.clone(), cfg()).run(&build());
        let late = baseline.makespan().as_secs() + 1.0;
        let mut profile = crate::ClusterProfile::ideal(1);
        profile.add_outage(
            0,
            LinkDir::RowPlus,
            crate::LinkOutage::new(late, late + 0.1, 0.1),
        );
        let outage_cfg = cfg().with_faults(profile);
        let unaffected = Engine::new(mesh, outage_cfg).run(&build());
        assert_eq!(baseline.makespan(), unaffected.makespan());
    }

    #[test]
    #[should_panic(expected = "fault profile covers")]
    fn profile_chip_count_mismatch_panics() {
        let mesh = Torus2d::new(2, 2);
        let b = ProgramBuilder::new(&mesh);
        let bad = cfg().with_faults(crate::ClusterProfile::ideal(3));
        Engine::new(mesh, bad).run(&b.build());
    }

    #[test]
    fn spans_cover_every_busy_interval() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(512, 512, 512), &[ag]);
        }
        let program = b.build();
        let (report, spans) = run_spans(&Engine::new(mesh, cfg()), &program);
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(s.end > s.start);
            assert!(s.end <= report.makespan());
            assert!(s.op.index() < program.len());
        }
        // One compute span per chip (the GeMM), on the compute lane.
        let compute: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Compute)
            .collect();
        assert_eq!(compute.len(), 4);
        assert!(compute.iter().all(|s| s.track == SpanTrack::Compute));
        // Spans on one lane never overlap (exclusive resources).
        for pair in spans.windows(2) {
            if pair[0].chip == pair[1].chip && pair[0].track == pair[1].track {
                assert!(pair[1].start.as_secs() >= pair[0].end.as_secs() - 1e-12);
            }
        }
        // The traced and span-collecting runs agree on timing.
        let plain = Engine::new(Torus2d::new(2, 2), cfg()).run(&program);
        assert_eq!(plain, report);
    }

    #[test]
    fn overlap_is_zero_without_concurrent_compute() {
        // Pure communication: nothing to hide the transfers under.
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
        }
        let report = Engine::new(mesh, cfg()).run(&b.build());
        assert_eq!(report.overlapped_comm(), Duration::ZERO);
        assert_eq!(report.overlap_efficiency(), 0.0);
    }

    #[test]
    fn overlap_counts_comm_hidden_under_compute() {
        // Independent AllGather + long GeMM per chip: the transfers run
        // entirely under the compute shadow.
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(8192, 8192, 8192), &[]);
        }
        let report = Engine::new(mesh, cfg()).run(&b.build());
        let eff = report.overlap_efficiency();
        assert!(eff > 0.9 && eff <= 1.0, "overlap efficiency {eff}");
    }

    #[test]
    fn no_overlap_mode_hides_nothing() {
        let mesh = Torus2d::new(4, 1);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(2048, 2048, 2048), &[]);
        }
        let serial_cfg = SimConfig {
            overlap_collectives: false,
            ..cfg()
        };
        let report = Engine::new(mesh, serial_cfg).run(&b.build());
        assert!(report.totals().comm_transfer > Duration::ZERO);
        assert!(
            report.overlapped_comm().as_secs() < 1e-12,
            "serialized run hid {}",
            report.overlapped_comm()
        );
    }

    #[test]
    fn overlap_equals_span_intersection() {
        // The O(1)-per-node overlap accounting must agree with the
        // explicit geometry: intersect every transfer span with the
        // owning chip's compute-lane spans.
        let mesh = Torus2d::new(4, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        let tag2 = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 2 << 20, &[]);
            b.gemm(chip, GemmShape::new(4096, 4096, 4096), &[]);
            b.reduce_scatter(chip, tag2, CommAxis::InterCol, 1 << 20, &[]);
        }
        let program = b.build();
        let (report, spans) = run_spans(&Engine::new(mesh, cfg()), &program);
        let mut recomputed = 0.0;
        for t in spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommTransfer && s.end > s.start)
        {
            for c in spans
                .iter()
                .filter(|s| s.chip == t.chip && s.track == SpanTrack::Compute)
            {
                let lo = t.start.as_secs().max(c.start.as_secs());
                let hi = t.end.as_secs().min(c.end.as_secs());
                recomputed += (hi - lo).max(0.0);
            }
        }
        assert!(report.overlapped_comm().as_secs() > 0.0);
        assert!(
            (report.overlapped_comm().as_secs() - recomputed).abs() < 1e-9,
            "engine {} vs spans {recomputed}",
            report.overlapped_comm().as_secs()
        );
    }

    #[test]
    fn instrumented_timeline_orders_every_node() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(1024, 1024, 1024), &[ag]);
        }
        let program = b.build();
        let (report, timeline) = run_timeline(&Engine::new(mesh, cfg()), &program);
        assert!(!timeline.nodes.is_empty());
        assert_eq!(timeline.finish_seq.len(), timeline.nodes.len());
        let eps = 1e-12;
        for rec in &timeline.nodes {
            assert!(rec.ready <= rec.acquired);
            assert!(rec.acquired <= rec.busy_start);
            assert!(rec.busy_start <= rec.finish);
            assert!(rec.finish <= report.makespan());
            // The busy interval starts exactly after the sync delay.
            assert!(
                (rec.busy_start.as_secs() - rec.acquired.as_secs() - rec.sync.as_secs()).abs()
                    < 1e-9
            );
            // Ready means every dependency has finished.
            for &d in &rec.deps {
                assert!(timeline.nodes[d].finish.as_secs() <= rec.ready.as_secs() + eps);
            }
            // A resource predecessor releases the lane at acquisition time.
            if let Some(p) = rec.res_pred {
                assert_eq!(timeline.nodes[p].track, rec.track);
                assert_eq!(timeline.nodes[p].chip, rec.chip);
                assert_eq!(timeline.nodes[p].finish, rec.acquired);
            }
        }
        // finish_seq is a permutation ordered by completion time.
        let mut seen = vec![false; timeline.nodes.len()];
        let mut prev = Duration::ZERO;
        for &i in &timeline.finish_seq {
            assert!(!seen[i]);
            seen[i] = true;
            assert!(timeline.nodes[i].finish >= prev);
            prev = timeline.nodes[i].finish;
        }
        assert!(seen.iter().all(|&s| s));
        // The last completion is the makespan.
        assert_eq!(
            timeline.nodes[*timeline.finish_seq.last().unwrap()].finish,
            report.makespan()
        );
    }

    #[test]
    fn deterministic_repeated_runs() {
        let build = || {
            let mesh = Torus2d::new(4, 4);
            let mut b = ProgramBuilder::new(&mesh);
            let tag_a = b.next_tag();
            let tag_b = b.next_tag();
            for chip in mesh.chips() {
                let ag1 = b.all_gather(chip, tag_a, CommAxis::InterRow, 1 << 20, &[]);
                let ag2 = b.all_gather(chip, tag_b, CommAxis::InterCol, 1 << 19, &[]);
                b.gemm(chip, GemmShape::new(512, 512, 512), &[ag1, ag2]);
            }
            b.build()
        };
        let mesh = Torus2d::new(4, 4);
        let r1 = Engine::new(mesh.clone(), cfg()).run(&build());
        let r2 = Engine::new(mesh, cfg()).run(&build());
        assert_eq!(r1.makespan(), r2.makespan());
        assert_eq!(r1.totals().comm_transfer, r2.totals().comm_transfer);
    }

    /// An SPMD ring program whose chips depend on each other through an
    /// all-gather, so killing a chip stalls the survivors.
    fn ring_program(mesh: &Torus2d) -> Program {
        let mut b = ProgramBuilder::spmd(mesh);
        let tag = b.next_tag();
        for chip in b.chips() {
            let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(1024, 1024, 1024), &[ag]);
        }
        b.build()
    }

    #[test]
    fn failure_after_completion_is_bit_for_bit_identical() {
        let mesh = Torus2d::new(2, 2);
        let program = ring_program(&mesh);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&program);
        let late = crate::ChipFailure {
            chip: 0,
            at: baseline.makespan().as_secs() * 2.0,
        };
        let outcome = run_with_failure(&Engine::new(mesh, cfg()), &program, late, 1e-3);
        match outcome {
            crate::FailureOutcome::Completed(report) => assert_eq!(report, baseline),
            crate::FailureOutcome::Aborted(info) => panic!("late failure aborted: {info:?}"),
        }
    }

    #[test]
    fn mid_run_chip_death_aborts_with_detection_latency() {
        let mesh = Torus2d::new(2, 2);
        let program = ring_program(&mesh);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&program);
        let at = baseline.makespan().as_secs() * 0.25;
        let timeout = 1e-3;
        let outcome = run_with_failure(
            &Engine::new(mesh, cfg()),
            &program,
            crate::ChipFailure { chip: 3, at },
            timeout,
        );
        let info = outcome.aborted().expect("mid-run failure must abort");
        assert_eq!(info.failure_time.as_secs(), at);
        // Detection happens only after a survivor stalls and its watchdog
        // expires: strictly after the failure plus the sync timeout floor.
        assert!(info.detected_at.as_secs() >= at + timeout);
        assert!(info.completed_nodes < info.total_nodes);
        // Detection must not wait forever: bounded by the failure-free
        // makespan plus the timeout.
        assert!(info.detected_at.as_secs() <= baseline.makespan().as_secs() + timeout + 1e-9);
    }

    #[test]
    fn failure_at_time_zero_detects_via_first_stall() {
        let mesh = Torus2d::new(2, 2);
        let program = ring_program(&mesh);
        let timeout = 5e-4;
        let outcome = run_with_failure(
            &Engine::new(mesh, cfg()),
            &program,
            crate::ChipFailure { chip: 0, at: 0.0 },
            timeout,
        );
        let info = outcome.aborted().expect("immediate failure must abort");
        assert!(info.detected_at.as_secs() >= timeout);
        assert_eq!(info.failure_time.as_secs(), 0.0);
    }

    #[test]
    fn degraded_torus_profile_stretches_communication() {
        let mesh = Torus2d::new(4, 4);
        let program = ring_program(&mesh);
        let baseline = Engine::new(mesh.clone(), cfg()).run(&program);
        let degraded = crate::degraded_torus_profile(&mesh, 5);
        let slowed = Engine::new(mesh, cfg().with_faults(degraded)).run(&program);
        assert!(
            slowed.makespan() > baseline.makespan(),
            "degraded {} vs baseline {}",
            slowed.makespan(),
            baseline.makespan()
        );
    }

    #[test]
    fn only_fault_free_unobserved_runs_take_the_quotient() {
        let mesh = Torus2d::new(4, 4);
        let program = ring_program(&mesh);
        let lowered = Engine::new(mesh.clone(), cfg()).lower_program(&program);
        assert_eq!(lowered.num_nodes() * 16, lowered.full().graph.nodes.len());
        assert!(lowered.quotient_for::<()>(None, false).is_some());
        assert!(lowered.quotient_for::<((), ())>(None, false).is_some());
        let straggler = crate::ClusterProfile::ideal(16).with_compute_slowdown(3, 2.0);
        assert!(lowered
            .quotient_for::<()>(Some(&straggler), false)
            .is_none());
        assert!(lowered.quotient_for::<()>(None, true).is_none());
        assert!(lowered.quotient_for::<SpanRecorder>(None, false).is_none());
        assert!(lowered
            .quotient_for::<((), OpTraceRecorder)>(None, false)
            .is_none());
        // Graphs that are not symmetric have no quotient to take.
        let fabric = Engine::new(mesh, crate::SimConfig::gpu_logical_mesh(1e12));
        let lowered = fabric.lower_program(&program);
        assert_eq!(lowered.num_nodes(), lowered.full().graph.nodes.len());
        assert!(lowered.quotient_for::<()>(None, false).is_none());
    }

    #[test]
    fn a_failure_run_reports_the_full_graph() {
        let mesh = Torus2d::new(2, 2);
        let program = ring_program(&mesh);
        let engine = Engine::new(mesh, cfg());
        let lowered = engine.lower_program(&program);
        let outcome = engine.run_observed(
            &lowered,
            &mut RunScratch::new(),
            Some((crate::ChipFailure { chip: 3, at: 0.0 }, 1e-3)),
            &mut (),
        );
        let info = outcome.aborted().expect("immediate failure must abort");
        assert_eq!(info.total_nodes, 4 * lowered.num_nodes());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn failure_on_missing_chip_panics() {
        let mesh = Torus2d::new(2, 2);
        let program = ring_program(&mesh);
        run_with_failure(
            &Engine::new(mesh, cfg()),
            &program,
            crate::ChipFailure { chip: 9, at: 1.0 },
            1e-3,
        );
    }

    /// A non-negative finite f64 from raw bits: the whole range, zero,
    /// subnormals and `f64::MAX` included.
    fn non_negative_finite(bits: u64) -> f64 {
        f64::from_bits(bits % f64::INFINITY.to_bits())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Packed keys order events exactly as `(Time::cmp, seq)` did, and
        /// give the time back bit for bit. `pick` makes a quarter of the
        /// pairs ties and a quarter adjacent floats.
        #[test]
        fn packed_keys_order_like_time_then_seq(
            a_bits in proptest::prelude::any::<u64>(),
            b_bits in proptest::prelude::any::<u64>(),
            pick in 0u8..4,
            sa in proptest::prelude::any::<u64>(),
            sb in proptest::prelude::any::<u64>(),
        ) {
            let a = non_negative_finite(a_bits);
            let b = match pick {
                0 => a,
                1 => non_negative_finite(a.to_bits() + 1),
                _ => non_negative_finite(b_bits),
            };
            let want = (Time::from_secs(a), sa).cmp(&(Time::from_secs(b), sb));
            proptest::prop_assert_eq!(event_key(a, sa).cmp(&event_key(b, sb)), want);
            proptest::prop_assert_eq!(key_time(event_key(a, sa)).to_bits(), a.to_bits());
            proptest::prop_assert!(event_key(a, sa) < NO_EVENT);
        }
    }

    #[test]
    fn negative_zero_keys_where_time_sorts_it() {
        // `Time::from_secs` admits -0.0, and `Time::cmp` (a total order)
        // puts it just below +0.0: so does its key, whatever the seqs.
        assert!(Time::from_secs(-0.0) < Time::from_secs(0.0));
        assert!(event_key(-0.0, u64::MAX) < event_key(0.0, 0));
        assert!(event_key(-0.0, 7) < event_key(-0.0, 8));
        assert!(event_key(0.0, u64::MAX) < event_key(f64::from_bits(1), 0));
        assert_eq!(key_time(event_key(-0.0, 3)).to_bits(), (-0.0f64).to_bits());
        assert_eq!(key_time(event_key(0.0, 3)).to_bits(), 0.0f64.to_bits());
        assert!(event_key(f64::MAX, u64::MAX) < NO_EVENT);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn keys_reject_negative_times() {
        event_key(-f64::MIN_POSITIVE, 0);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn keys_reject_nan() {
        event_key(f64::NAN, 0);
    }
}
