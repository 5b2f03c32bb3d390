//! Batch-bucket phase-cost tables: the serving plan cache.
//!
//! Continuous batching changes the decode batch size at every step, but
//! lowering a fresh plan per step would dwarf the simulated work. The
//! fleet simulator instead quantizes both phases to power-of-two
//! *buckets* — prefill by chunk tokens, decode by batch size — and
//! prices each bucket exactly once per `(model, mesh, S)` triple:
//! schedule the four FC GeMMs with MeshSlice (weight-stationary `Rs`,
//! so weights stay resident between requests), lower once, and replay
//! the lowered plan on both the nominal engine and a degraded-torus
//! engine (one chip dead, traffic detoured). Steps then cost a table
//! lookup, and a mid-simulation chip death switches the replica from
//! the nominal to the degraded column of the same table.
//!
//! Requests falling between buckets are padded up to the next bucket —
//! the same rounding a real serving engine's CUDA-graph / XLA-program
//! cache performs.
//!
//! Building a table is the expensive part of serving simulation — the
//! fleet loop itself is just lookups — so [`CostTableCache`] dedups
//! builds across a whole tuning grid: one build per
//! `(model, mesh, S, batch-cap class)`, warmed in parallel with
//! per-worker [`RunScratch`] reuse and one shared [`ScheduleCache`],
//! then sliced down to each candidate's batch cap by
//! [`ReplicaCosts::with_max_batch`] (bit-for-bit what a direct build at
//! that cap produces).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use meshslice::autotuner::{Autotuner, ScheduleCache};
use meshslice::llm::{FcGemm, LlmConfig, TrainingSetup};
use meshslice::memory::{inference_footprint, kv_bytes_per_token, HBM_BYTES};
use meshslice::par;
use meshslice::{Dataflow, Engine, GemmProblem, MeshShape, SimConfig};
use meshslice_mesh::Torus2d;
use meshslice_sim::{degraded_torus_profile, RunScratch};

/// Largest prefill chunk (tokens) the tables are sized for.
pub const MAX_PREFILL_TOKENS: usize = 8192;

/// Context length the decode KV-streaming term is priced at. Decode is
/// memory-bound on reading the KV cache; the table prices it at a fixed
/// nominal context so bucket costs stay state-independent.
pub const NOMINAL_KV_CONTEXT: usize = 512;

/// Smallest batch cap [`CostTableCache`] builds tables at: caps below
/// this share one cached build and read a truncated view of it.
pub const CACHED_BATCH_CAP: usize = 32;

/// Typed lookup error: the phase-cost table has no buckets, so no cost
/// can be quoted. [`build_replica_costs`] never returns such a table
/// (empty tables make the build infeasible), so hitting this means a
/// hand-assembled [`ReplicaCosts`] skipped validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyCostTable;

impl fmt::Display for EmptyCostTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase cost table has no feasible buckets")
    }
}

impl std::error::Error for EmptyCostTable {}

/// Which engine columns a table build prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostProfile {
    /// Price both the nominal and the degraded-torus column (two
    /// replays per GeMM). Required to simulate a [`ChipDeath`].
    ///
    /// [`ChipDeath`]: crate::fleet::ChipDeath
    Full,
    /// Price the nominal column only and mirror it into the degraded
    /// one; halves the replay work. The tuner uses this profile — it
    /// never injects failures, so the degraded column is never read.
    /// [`ServingSpec::validate`] rejects nominal-only tables when a
    /// failure is injected.
    ///
    /// [`ServingSpec::validate`]: crate::fleet::ServingSpec::validate
    NominalOnly,
}

/// The simulated cost of one phase execution at one bucket size, under
/// the nominal and the degraded (one dead chip) torus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BucketCost {
    /// Bucket size: decode batch, or prefill chunk tokens.
    pub size: usize,
    /// All-layers phase latency on the healthy mesh, seconds.
    pub nominal_secs: f64,
    /// Same phase on the degraded torus (dead chip detoured), seconds.
    pub degraded_secs: f64,
}

/// Bucketed costs of one phase, ascending by size.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseCostTable {
    /// Feasible buckets, ascending.
    pub buckets: Vec<BucketCost>,
}

impl PhaseCostTable {
    /// Cost of serving `n` units (batch rows or chunk tokens): the
    /// smallest bucket that fits, or the largest bucket if `n` exceeds
    /// every bucket (the fleet loop never builds such steps, but the
    /// table stays total). Binary search — buckets are ascending.
    ///
    /// # Errors
    ///
    /// [`EmptyCostTable`] when the table has no buckets.
    pub fn cost_secs(&self, n: usize, degraded: bool) -> Result<f64, EmptyCostTable> {
        let i = self.buckets.partition_point(|b| b.size < n);
        let b = self
            .buckets
            .get(i)
            .or_else(|| self.buckets.last())
            .ok_or(EmptyCostTable)?;
        Ok(if degraded {
            b.degraded_secs
        } else {
            b.nominal_secs
        })
    }

    /// Largest bucket size.
    pub fn max_size(&self) -> usize {
        self.buckets.last().map(|b| b.size).unwrap_or(0)
    }
}

/// Everything one replica needs to serve: the two phase tables plus the
/// KV-cache accounting constants its admission control enforces.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaCosts {
    /// Mesh shape of the replica.
    pub mesh: MeshShape,
    /// Requested slice count (clamped per GeMM to the largest legal S).
    pub slice_count: usize,
    /// Decode batch-size cap of the batching policy.
    pub max_batch: usize,
    /// Prefill cost by chunk tokens.
    pub prefill: PhaseCostTable,
    /// Decode cost by batch size.
    pub decode: PhaseCostTable,
    /// Per-chip KV bytes one token pins.
    pub kv_bytes_per_token: u64,
    /// Per-chip KV budget: HBM minus weights and workspace.
    pub kv_budget_bytes: u64,
    /// Whether the degraded column was actually priced
    /// ([`CostProfile::Full`]) or mirrors the nominal one.
    pub degraded_priced: bool,
}

impl ReplicaCosts {
    /// KV tokens that fit the budget.
    pub fn kv_capacity_tokens(&self) -> usize {
        (self.kv_budget_bytes / self.kv_bytes_per_token.max(1)) as usize
    }

    /// A copy of these tables restricted to decode batches of at most
    /// `max_batch`. Bucket feasibility and cost are independent of the
    /// cap, so this equals a direct [`build_replica_costs`] at the
    /// smaller cap bit for bit; `None` when no decode bucket survives
    /// (exactly when the direct build would be infeasible).
    pub fn with_max_batch(&self, max_batch: usize) -> Option<ReplicaCosts> {
        assert!(max_batch > 0, "batching policy needs a positive batch cap");
        let decode = PhaseCostTable {
            buckets: self
                .decode
                .buckets
                .iter()
                .copied()
                .take_while(|b| b.size <= max_batch)
                .collect(),
        };
        if decode.buckets.is_empty() {
            return None;
        }
        Some(ReplicaCosts {
            decode,
            max_batch,
            ..self.clone()
        })
    }
}

/// Builds the bucketed phase-cost tables for serving `model` on one
/// replica of shape `mesh` with requested slice count `requested_s` and
/// decode batches up to `max_batch`, pricing the [`CostProfile::Full`]
/// columns with fresh tuner/schedule/scratch state.
///
/// Returns `None` when the configuration cannot serve at all: the
/// weights don't leave a KV budget on this mesh, or no decode/prefill
/// bucket divides over it.
pub fn build_replica_costs(
    model: &LlmConfig,
    mesh: MeshShape,
    requested_s: usize,
    max_batch: usize,
    cfg: &SimConfig,
) -> Option<ReplicaCosts> {
    let tuner = Autotuner::new(cfg.clone());
    let schedules = ScheduleCache::new();
    let mut scratch = RunScratch::new();
    build_replica_costs_with(
        model,
        mesh,
        requested_s,
        max_batch,
        cfg,
        CostProfile::Full,
        &tuner,
        &schedules,
        &mut scratch,
    )
}

/// [`build_replica_costs`] with the expensive state supplied by the
/// caller, so a sweep can share one [`ScheduleCache`] across builds and
/// reuse one [`RunScratch`] per worker (both bit-for-bit neutral), and
/// can skip the degraded-column replays via
/// [`CostProfile::NominalOnly`].
#[allow(clippy::too_many_arguments)]
pub fn build_replica_costs_with(
    model: &LlmConfig,
    mesh: MeshShape,
    requested_s: usize,
    max_batch: usize,
    cfg: &SimConfig,
    profile: CostProfile,
    tuner: &Autotuner,
    schedules: &ScheduleCache,
    scratch: &mut RunScratch,
) -> Option<ReplicaCosts> {
    assert!(max_batch > 0, "batching policy needs a positive batch cap");
    let footprint = inference_footprint(model, mesh, requested_s, MAX_PREFILL_TOKENS);
    let kv_budget = footprint.kv_budget(HBM_BYTES);
    let per_token = kv_bytes_per_token(model, mesh.num_chips(), cfg.elem_bytes);
    if kv_budget < per_token {
        return None; // weights fit at most; no room for a single KV token
    }

    let torus = Torus2d::from_shape(mesh);
    let nominal = Engine::new(torus.clone(), cfg.clone());
    // The priced failure: the center chip dies and its traffic detours,
    // mirroring `meshslice-recovery`'s degraded-continuation pricing.
    let degraded = match profile {
        CostProfile::Full => {
            let dead_chip = mesh.num_chips() / 2;
            Some(nominal.with_faults(degraded_torus_profile(&torus, dead_chip)))
        }
        CostProfile::NominalOnly => None,
    };

    let mut price_phase = |sizes: &[usize],
                           gemms_of: &dyn Fn(usize) -> Vec<FcGemm>,
                           non_fc_of: &dyn Fn(usize) -> f64|
     -> PhaseCostTable {
        let mut buckets = Vec::new();
        'bucket: for &size in sizes {
            let mut nominal_secs = 0.0;
            let mut degraded_secs = 0.0;
            for gemm in gemms_of(size) {
                let problem = GemmProblem::new(gemm.shape, Dataflow::Rs);
                if problem.check_divisible(mesh).is_err() {
                    continue 'bucket;
                }
                let algo = tuner.meshslice_for(mesh, problem, requested_s);
                let (s, block) = (algo.slice_count(), algo.block());
                let program = match schedules.schedule(&torus, problem, s, block, cfg.elem_bytes) {
                    Ok(p) => p,
                    Err(_) => continue 'bucket,
                };
                // Lower once, replay under both fault profiles.
                let lowered = nominal.lower_program(&program);
                let gemm_nominal = nominal
                    .run_lowered_with_scratch(&lowered, scratch)
                    .makespan()
                    .as_secs();
                nominal_secs += gemm_nominal;
                degraded_secs += match &degraded {
                    Some(engine) => engine
                        .run_lowered_with_scratch(&lowered, scratch)
                        .makespan()
                        .as_secs(),
                    None => gemm_nominal,
                };
            }
            let layers = model.layers as f64;
            let non_fc = non_fc_of(size);
            buckets.push(BucketCost {
                size,
                nominal_secs: nominal_secs * layers + non_fc,
                degraded_secs: degraded_secs * layers + non_fc,
            });
        }
        PhaseCostTable { buckets }
    };

    let chips = mesh.num_chips();
    // `non_fc_block_time` prices forward + backward; serving runs the
    // forward pass only, roughly a third of the combined cost.
    let fwd_non_fc = |setup: TrainingSetup| -> f64 {
        model.non_fc_block_time(setup, chips, cfg).as_secs() / 3.0 * model.layers as f64
    };
    // Decode additionally streams every request's KV cache per layer.
    let kv_stream = |batch: usize| -> f64 {
        let bytes =
            (batch * NOMINAL_KV_CONTEXT) as f64 * 2.0 * model.hidden as f64 * cfg.elem_bytes as f64
                / chips as f64;
        bytes / cfg.hbm_bandwidth * model.layers as f64
    };

    let decode_sizes: Vec<usize> = std::iter::successors(Some(1usize), |b| Some(b * 2))
        .take_while(|&b| b <= max_batch)
        .collect();
    let decode = price_phase(&decode_sizes, &|b| model.decode_gemms(b), &|b| {
        fwd_non_fc(TrainingSetup {
            batch: b,
            seq_len: 1,
        }) + kv_stream(b)
    });

    let prefill_sizes: Vec<usize> = std::iter::successors(Some(256usize), |t| Some(t * 2))
        .take_while(|&t| t <= MAX_PREFILL_TOKENS)
        .collect();
    let prefill = price_phase(&prefill_sizes, &|t| model.prefill_gemms(1, t), &|t| {
        fwd_non_fc(TrainingSetup {
            batch: 1,
            seq_len: t,
        })
    });

    if decode.buckets.is_empty() || prefill.buckets.is_empty() {
        return None;
    }
    Some(ReplicaCosts {
        mesh,
        slice_count: requested_s,
        max_batch,
        prefill,
        decode,
        kv_bytes_per_token: per_token,
        kv_budget_bytes: kv_budget,
        degraded_priced: matches!(profile, CostProfile::Full),
    })
}

/// Identity of one cached table build: the model dimensions (not just
/// the name), the mesh, the requested slice count, and the batch-cap
/// class the build was sized for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct TableKey {
    model: String,
    hidden: usize,
    heads: usize,
    layers: usize,
    ffn_mult: usize,
    mesh: MeshShape,
    requested_s: usize,
    cap: usize,
}

impl TableKey {
    fn new(model: &LlmConfig, mesh: MeshShape, requested_s: usize, cap: usize) -> TableKey {
        TableKey {
            model: model.name.clone(),
            hidden: model.hidden,
            heads: model.heads,
            layers: model.layers,
            ffn_mult: model.ffn_mult,
            mesh,
            requested_s,
            cap,
        }
    }
}

/// The batch-cap class a candidate cap shares a cached build with:
/// builds are sized to the next power of two, at least
/// [`CACHED_BATCH_CAP`], so every cap the tuner sweeps reads a
/// truncated view of one build.
fn cap_class(max_batch: usize) -> usize {
    max_batch.next_power_of_two().max(CACHED_BATCH_CAP)
}

/// A keyed cache of [`ReplicaCosts`] table builds.
///
/// Table building is a pure function of
/// `(model, mesh, requested S, batch cap, sim config, profile)`, so a
/// tuning grid that sweeps `(replicas, max_batch)` on top of
/// `(mesh, S)` re-derives the identical tables many times.  The cache
/// builds each `(model, mesh, S, cap class)` exactly once — on demand,
/// or ahead of time in parallel via [`warm`](Self::warm) — shares one
/// [`ScheduleCache`] across all builds, and hands out `Arc`'d tables
/// (sliced per candidate cap by [`ReplicaCosts::with_max_batch`]).
/// Infeasible builds are cached too, so a grid full of oversized
/// layouts fails fast.
///
/// The cache is `Sync`; a single instance can serve all workers of a
/// [`par::parallel_map`] sweep.
pub struct CostTableCache {
    cfg: SimConfig,
    profile: CostProfile,
    tuner: Autotuner,
    schedules: ScheduleCache,
    tables: Mutex<HashMap<TableKey, Option<Arc<ReplicaCosts>>>>,
    hits: AtomicUsize,
    builds: AtomicUsize,
}

impl CostTableCache {
    /// An empty cache building tables under `profile`.
    pub fn new(cfg: SimConfig, profile: CostProfile) -> CostTableCache {
        CostTableCache {
            tuner: Autotuner::new(cfg.clone()),
            cfg,
            profile,
            schedules: ScheduleCache::new(),
            tables: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
        }
    }

    /// The profile tables are built under.
    pub fn profile(&self) -> CostProfile {
        self.profile
    }

    /// Number of cached builds (feasible and infeasible).
    pub fn len(&self) -> usize {
        self.tables.lock().expect("cost table cache poisoned").len()
    }

    /// Whether the cache holds no builds.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Tables built from scratch so far (including cached infeasibles).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Schedules the shared [`ScheduleCache`] built across all table
    /// builds, for cache-efficiency reporting.
    pub fn schedule_cache_stats(&self) -> (usize, usize) {
        (self.schedules.hits(), self.schedules.builds())
    }

    /// Builds every table the `(mesh, S, max_batch)` triples of a grid
    /// will need, in parallel over `threads` workers with one
    /// [`RunScratch`] per worker. Triples collapsing to the same cached
    /// key are built once; already-cached keys are skipped. Returns the
    /// number of fresh builds.
    pub fn warm(
        &self,
        model: &LlmConfig,
        keys: &[(MeshShape, usize, usize)],
        threads: usize,
    ) -> usize {
        let mut todo: Vec<(MeshShape, usize, usize)> = Vec::new();
        {
            let tables = self.tables.lock().expect("cost table cache poisoned");
            for &(mesh, s, max_batch) in keys {
                let cap = cap_class(max_batch);
                let key = TableKey::new(model, mesh, s, cap);
                if !tables.contains_key(&key)
                    && !todo.iter().any(|&(m, rs, c)| (m, rs, c) == (mesh, s, cap))
                {
                    todo.push((mesh, s, cap));
                }
            }
        }
        let built = par::parallel_map_with(
            threads,
            &todo,
            RunScratch::new,
            |scratch, &(mesh, s, cap)| {
                build_replica_costs_with(
                    model,
                    mesh,
                    s,
                    cap,
                    &self.cfg,
                    self.profile,
                    &self.tuner,
                    &self.schedules,
                    scratch,
                )
                .map(Arc::new)
            },
        );
        let fresh = built.len();
        let mut tables = self.tables.lock().expect("cost table cache poisoned");
        for ((mesh, s, cap), table) in todo.into_iter().zip(built) {
            tables
                .entry(TableKey::new(model, mesh, s, cap))
                .or_insert(table);
        }
        self.builds.fetch_add(fresh, Ordering::Relaxed);
        fresh
    }

    /// The cached table for this candidate, built on first use:
    /// bit-for-bit what [`build_replica_costs`] produces for the same
    /// arguments under this cache's profile, or `None` when the
    /// candidate cannot serve.
    pub fn replica_costs(
        &self,
        model: &LlmConfig,
        mesh: MeshShape,
        requested_s: usize,
        max_batch: usize,
    ) -> Option<Arc<ReplicaCosts>> {
        assert!(max_batch > 0, "batching policy needs a positive batch cap");
        let cap = cap_class(max_batch);
        let key = TableKey::new(model, mesh, requested_s, cap);
        let cached = {
            let tables = self.tables.lock().expect("cost table cache poisoned");
            tables.get(&key).cloned()
        };
        let base = match cached {
            Some(table) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                table
            }
            None => {
                // Build outside the lock; a duplicate build under a
                // race yields the identical table.
                let mut scratch = RunScratch::new();
                let table = build_replica_costs_with(
                    model,
                    mesh,
                    requested_s,
                    cap,
                    &self.cfg,
                    self.profile,
                    &self.tuner,
                    &self.schedules,
                    &mut scratch,
                )
                .map(Arc::new);
                self.builds.fetch_add(1, Ordering::Relaxed);
                self.tables
                    .lock()
                    .expect("cost table cache poisoned")
                    .entry(key)
                    .or_insert(table)
                    .clone()
            }
        }?;
        if max_batch == base.max_batch {
            Some(base)
        } else {
            base.with_max_batch(max_batch).map(Arc::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LlmConfig {
        LlmConfig::tiny()
    }

    #[test]
    fn tables_are_monotone_and_degraded_is_slower() {
        let cfg = SimConfig::tpu_v4();
        let costs = build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, 8, &cfg)
            .expect("tiny model must fit 4 chips");
        assert!(costs.degraded_priced);
        for table in [&costs.decode, &costs.prefill] {
            assert!(!table.buckets.is_empty());
            for w in table.buckets.windows(2) {
                assert!(w[0].size < w[1].size);
                assert!(w[0].nominal_secs <= w[1].nominal_secs);
            }
            for b in &table.buckets {
                assert!(
                    b.degraded_secs > b.nominal_secs,
                    "bucket {} degraded {} <= nominal {}",
                    b.size,
                    b.degraded_secs,
                    b.nominal_secs
                );
            }
        }
    }

    #[test]
    fn lookup_pads_to_the_next_bucket() {
        let cfg = SimConfig::tpu_v4();
        let costs =
            build_replica_costs(&tiny(), MeshShape::new(2, 2), 1, 8, &cfg).expect("feasible");
        let table = &costs.decode;
        let largest = table.max_size();
        // Between buckets: rounds up. Past the largest: clamps.
        assert_eq!(
            table.cost_secs(largest - 1, false).unwrap(),
            table.cost_secs(largest, false).unwrap()
        );
        assert_eq!(
            table.cost_secs(largest + 100, false).unwrap(),
            table.cost_secs(largest, false).unwrap()
        );
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let cfg = SimConfig::tpu_v4();
        let costs =
            build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, 32, &cfg).expect("feasible");
        for table in [&costs.decode, &costs.prefill] {
            for n in 0..=table.max_size() + 3 {
                let linear = table
                    .buckets
                    .iter()
                    .find(|b| b.size >= n)
                    .unwrap_or(table.buckets.last().unwrap());
                assert_eq!(table.cost_secs(n, false).unwrap(), linear.nominal_secs);
                assert_eq!(table.cost_secs(n, true).unwrap(), linear.degraded_secs);
            }
        }
    }

    #[test]
    fn empty_table_is_a_typed_error_not_a_panic() {
        let table = PhaseCostTable::default();
        assert_eq!(table.cost_secs(4, false), Err(EmptyCostTable));
        assert!(EmptyCostTable.to_string().contains("no feasible buckets"));
    }

    #[test]
    fn oversized_models_are_rejected() {
        // GPT-3 weights (~350 GB) cannot fit 4 TPUv4 chips.
        let cfg = SimConfig::tpu_v4();
        assert!(
            build_replica_costs(&LlmConfig::gpt3(), MeshShape::new(2, 2), 4, 8, &cfg).is_none()
        );
    }

    #[test]
    fn kv_capacity_matches_budget() {
        let cfg = SimConfig::tpu_v4();
        let costs =
            build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, 8, &cfg).expect("feasible");
        let cap = costs.kv_capacity_tokens();
        assert!(cap as u64 * costs.kv_bytes_per_token <= costs.kv_budget_bytes);
        assert!((cap as u64 + 1) * costs.kv_bytes_per_token > costs.kv_budget_bytes);
    }

    #[test]
    fn nominal_only_profile_mirrors_the_degraded_column() {
        let cfg = SimConfig::tpu_v4();
        let full = build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, 8, &cfg).expect("ok");
        let tuner = Autotuner::new(cfg.clone());
        let schedules = ScheduleCache::new();
        let mut scratch = RunScratch::new();
        let nominal = build_replica_costs_with(
            &tiny(),
            MeshShape::new(2, 2),
            4,
            8,
            &cfg,
            CostProfile::NominalOnly,
            &tuner,
            &schedules,
            &mut scratch,
        )
        .expect("ok");
        assert!(!nominal.degraded_priced);
        assert_eq!(nominal.decode.buckets.len(), full.decode.buckets.len());
        for (n, f) in nominal
            .decode
            .buckets
            .iter()
            .chain(&nominal.prefill.buckets)
            .zip(full.decode.buckets.iter().chain(&full.prefill.buckets))
        {
            assert_eq!(n.size, f.size);
            assert_eq!(n.nominal_secs, f.nominal_secs, "nominal column unchanged");
            assert_eq!(n.degraded_secs, n.nominal_secs, "degraded mirrors nominal");
        }
        assert_eq!(nominal.kv_budget_bytes, full.kv_budget_bytes);
    }

    #[test]
    fn truncated_view_matches_a_direct_build() {
        let cfg = SimConfig::tpu_v4();
        let wide = build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, 32, &cfg).expect("ok");
        for cap in [1, 2, 8, 16, 32] {
            // Infeasible caps (no decode bucket divides) must agree too:
            // the view is None exactly when the direct build is.
            let direct = build_replica_costs(&tiny(), MeshShape::new(2, 2), 4, cap, &cfg);
            assert_eq!(wide.with_max_batch(cap), direct, "cap {cap}");
        }
    }

    #[test]
    fn cache_views_match_direct_builds_and_dedup() {
        let cfg = SimConfig::tpu_v4();
        let cache = CostTableCache::new(cfg.clone(), CostProfile::Full);
        let mesh = MeshShape::new(2, 2);
        for &max_batch in &[8, 32, 8, 16] {
            let view = cache
                .replica_costs(&tiny(), mesh, 4, max_batch)
                .expect("feasible");
            let direct = build_replica_costs(&tiny(), mesh, 4, max_batch, &cfg).expect("feasible");
            assert_eq!(*view, direct);
        }
        // All four caps share one cached build of the cap-32 class.
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.len(), 1);
        // Infeasible layouts are cached too.
        assert!(cache
            .replica_costs(&LlmConfig::gpt3(), mesh, 4, 8)
            .is_none());
        assert!(cache
            .replica_costs(&LlmConfig::gpt3(), mesh, 4, 8)
            .is_none());
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn warm_is_thread_invariant_and_skips_known_keys() {
        let cfg = SimConfig::tpu_v4();
        let keys = vec![
            (MeshShape::new(2, 2), 1, 8),
            (MeshShape::new(2, 2), 4, 32),
            (MeshShape::new(2, 2), 4, 8), // same cap class as the 32 build
            (MeshShape::new(4, 1), 4, 8),
        ];
        let serial = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        let parallel = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        assert_eq!(serial.warm(&tiny(), &keys, 1), 3);
        assert_eq!(parallel.warm(&tiny(), &keys, 4), 3);
        assert_eq!(parallel.warm(&tiny(), &keys, 4), 0, "second warm is free");
        for &(mesh, s, max_batch) in &keys {
            assert_eq!(
                serial.replica_costs(&tiny(), mesh, s, max_batch),
                parallel.replica_costs(&tiny(), mesh, s, max_batch)
            );
        }
        let (_, schedule_builds) = parallel.schedule_cache_stats();
        assert!(schedule_builds > 0, "warm exercises the schedule cache");
    }
}
