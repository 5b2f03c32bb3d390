//! The continuous-batching fleet event loop.
//!
//! A fleet is `replicas` identical serving meshes, each running the
//! iteration-level (continuous) batching discipline of Orca/vLLM:
//! requests join the decode batch the step after their prefill and
//! leave the step they emit their last token, so the batch composition
//! changes every iteration instead of every request group. Requests are
//! dispatched to replicas round-robin by id — a state-independent rule,
//! so each replica's timeline can be simulated independently and the
//! whole fleet parallelizes over [`meshslice::par`] with bit-identical
//! results at any thread count.
//!
//! Each replica enforces KV-cache admission control against its HBM
//! budget: requests whose peak KV footprint can never fit are rejected
//! on arrival, and decode-time pressure preempts the most recently
//! admitted request (its KV is dropped and rebuilt by a later
//! re-prefill). A scheduled chip death knocks the replica out for the
//! failover outage (detection plus weight-shard restore from a
//! checkpointed peer), drops its KV, and leaves it serving on the
//! degraded-torus column of the cost tables.

use std::collections::VecDeque;
use std::sync::Arc;

use meshslice::llm::LlmConfig;
use meshslice::par;
use meshslice::{MeshShape, SimConfig};
use meshslice_recovery::ServingFailover;
use meshslice_sim::RunScratch;
use meshslice_telemetry::{
    FleetSeries, Json, LatencySummary, RecordingSink, ReplicaSeriesBuilder, ServingEvent,
    ServingTrace, TraceSink,
};

use crate::arrival::{ArrivalSpec, Request};
use crate::chaos::{route_requests, ChaosSpec, DeathEvent, RoutedTrace, RouterPolicy, ShedPolicy};
use crate::costs::{CostProfile, CostTableCache, PhaseCostTable, ReplicaCosts};

/// A permanent chip failure injected into the fleet mid-simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipDeath {
    /// Which replica loses a chip.
    pub replica: usize,
    /// When, seconds from simulation start.
    pub at_secs: f64,
}

/// One fleet-simulation configuration.
#[derive(Clone, Debug)]
pub struct ServingSpec {
    /// Model being served (weights replicated per replica).
    pub model: LlmConfig,
    /// Mesh shape of each replica.
    pub mesh: MeshShape,
    /// Requested MeshSlice slice count (clamped to legal per GeMM).
    pub slice_count: usize,
    /// Number of identical replicas.
    pub replicas: usize,
    /// Decode batch-size cap of the batching policy.
    pub max_batch: usize,
    /// Offered load.
    pub arrivals: ArrivalSpec,
    /// Length of the request trace to simulate.
    pub num_requests: usize,
    /// Seed of the arrival draw.
    pub seed: u64,
    /// TTFT p99 target, milliseconds.
    pub slo_p99_ttft_ms: f64,
    /// Optional injected chip death. Mutually exclusive with `chaos`.
    pub failure: Option<ChipDeath>,
    /// Optional stochastic fault injection: seeded MTBF-driven chip and
    /// link death arrivals per replica, with optional repair. Mutually
    /// exclusive with `failure`; a zero-rate spec (infinite MTBFs)
    /// reproduces the nominal path byte-for-byte.
    pub chaos: Option<ChaosSpec>,
    /// Optional cross-replica failover routing: requests stranded in a
    /// scheduled blackout window retry with capped exponential backoff
    /// onto survivor replicas. With no blackouts the router is idle and
    /// dispatch equals plain round-robin exactly.
    pub router: Option<RouterPolicy>,
    /// Optional SLO-aware load shedding at each replica's admission
    /// control.
    pub shed: Option<ShedPolicy>,
    /// Prebuilt cost tables to serve from (e.g. a [`CostTableCache`]
    /// view), skipping the per-call table build. Without them the fleet
    /// prices only what it reads: the tables [`build_replica_costs`]
    /// builds when the spec can kill a chip (a scripted `failure`, or
    /// `chaos` with a finite chip or link MTBF), and otherwise the
    /// [`CostProfile::NominalOnly`] tables, whose nominal column is the
    /// same bit for bit. Must match the spec's mesh and batch cap;
    /// [`validate`](Self::validate) rejects mismatches and nominal-only
    /// tables under a spec that can kill a chip.
    ///
    /// [`build_replica_costs`]: crate::costs::build_replica_costs
    pub shared_costs: Option<Arc<ReplicaCosts>>,
    /// Predrawn arrival trace to simulate (ids `0..len`, as
    /// [`ArrivalSpec::generate`] draws them), skipping the per-call
    /// draw. May be longer than `num_requests`; the simulation serves
    /// the prefix, which equals a direct `num_requests`-long draw
    /// because the arrival sampler draws per request.
    pub shared_trace: Option<Arc<[Request]>>,
}

impl ServingSpec {
    /// A spec with sensible defaults: Poisson arrivals at `qps`, slice
    /// count 4, batch cap 32, 200-request trace, 500 ms TTFT SLO.
    pub fn new(model: LlmConfig, mesh: MeshShape, replicas: usize, qps: f64) -> ServingSpec {
        ServingSpec {
            model,
            mesh,
            slice_count: 4,
            replicas,
            max_batch: 32,
            arrivals: ArrivalSpec::poisson(qps),
            num_requests: 200,
            seed: 0,
            slo_p99_ttft_ms: 500.0,
            failure: None,
            chaos: None,
            router: None,
            shed: None,
            shared_costs: None,
            shared_trace: None,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Describes the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.arrivals.validate()?;
        if self.replicas == 0 {
            return Err("fleet needs at least one replica".into());
        }
        if self.max_batch == 0 {
            return Err("batching policy needs a positive batch cap".into());
        }
        if self.num_requests == 0 {
            return Err("request trace must not be empty".into());
        }
        if !(self.slo_p99_ttft_ms.is_finite() && self.slo_p99_ttft_ms > 0.0) {
            return Err(format!(
                "SLO target {} ms must be finite and positive",
                self.slo_p99_ttft_ms
            ));
        }
        if let Some(f) = &self.failure {
            if f.replica >= self.replicas {
                return Err(format!(
                    "failure replica {} out of range ({} replicas)",
                    f.replica, self.replicas
                ));
            }
            if !(f.at_secs.is_finite() && f.at_secs >= 0.0) {
                return Err(format!(
                    "failure time {} must be finite and non-negative",
                    f.at_secs
                ));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
            if self.failure.is_some() {
                return Err(
                    "chaos injection and a scripted chip death are mutually exclusive".into(),
                );
            }
        }
        if let Some(router) = &self.router {
            router.validate()?;
        }
        if let Some(shed) = &self.shed {
            shed.validate()?;
        }
        if let Some(costs) = &self.shared_costs {
            if costs.mesh != self.mesh {
                return Err(format!(
                    "shared cost tables were built for a {} mesh, spec wants {}",
                    costs.mesh, self.mesh
                ));
            }
            if costs.max_batch != self.max_batch {
                return Err(format!(
                    "shared cost tables cap batches at {}, spec wants {}",
                    costs.max_batch, self.max_batch
                ));
            }
            if costs.prefill.buckets.is_empty() || costs.decode.buckets.is_empty() {
                return Err("shared cost tables have no feasible buckets".into());
            }
            if !costs.degraded_priced && self.can_draw_death() {
                // `failure` and `chaos` are exclusive (checked above).
                return Err(if self.failure.is_some() {
                    "shared cost tables are nominal-only but the spec injects a chip death".into()
                } else {
                    "shared cost tables are nominal-only but the chaos spec can draw deaths".into()
                });
            }
        }
        if let Some(trace) = &self.shared_trace {
            if trace.len() < self.num_requests {
                return Err(format!(
                    "shared trace holds {} requests, spec wants {}",
                    trace.len(),
                    self.num_requests
                ));
            }
            if trace[..self.num_requests]
                .iter()
                .enumerate()
                .any(|(i, r)| r.id != i)
            {
                return Err("shared trace ids must be sequential from 0".into());
            }
        }
        Ok(())
    }

    /// Whether a run of this spec can kill a chip: a scripted death, or
    /// chaos with a finite chip or link MTBF. Only then does the fleet
    /// read the degraded column of its cost tables.
    fn can_draw_death(&self) -> bool {
        self.failure.is_some()
            || self.chaos.as_ref().is_some_and(|chaos| {
                chaos.failures.chip_mtbf.is_finite() || chaos.failures.link_mtbf.is_finite()
            })
    }
}

/// The terminal state a request reached. Every offered request reaches
/// exactly one (property-tested in `tests/serving_properties.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Generated every output token.
    Completed,
    /// Rejected at admission: peak KV footprint can never fit.
    Rejected,
    /// Shed by SLO-aware admission control under overload.
    Shed,
    /// The fleet router exhausted its retry budget or deadline with
    /// every candidate replica blacked out.
    TimedOut,
}

/// The fate of one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestOutcome {
    /// Trace id.
    pub id: usize,
    /// Replica it was dispatched to.
    pub replica: usize,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Time to first token, seconds; `None` if rejected.
    pub ttft_secs: Option<f64>,
    /// Mean time per output token after the first, seconds; `None` for
    /// rejected or single-token requests.
    pub tpot_secs: Option<f64>,
    /// Tokens actually generated.
    pub generated_tokens: usize,
    /// Times this request was preempted (KV dropped and rebuilt).
    pub preemptions: usize,
    /// Router retry decisions this request consumed.
    pub retries: usize,
    /// The terminal state reached.
    pub kind: OutcomeKind,
}

/// Per-replica accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplicaStats {
    /// Requests completed.
    pub completed: usize,
    /// Requests rejected at admission (peak KV can never fit).
    pub rejected: usize,
    /// Preemption events under KV pressure (plus failover evictions).
    pub preemptions: usize,
    /// Decode steps executed.
    pub decode_steps: usize,
    /// Prefill chunks executed.
    pub prefill_chunks: usize,
    /// Steps executed on the degraded torus after a failover.
    pub degraded_steps: usize,
    /// Requests shed by SLO-aware admission control.
    pub shed: usize,
    /// Failover events (scripted or chaos-drawn deaths that fired).
    pub failovers: usize,
    /// Whether any injected death hit this replica.
    pub failed_over: bool,
    /// Peak per-chip KV bytes observed.
    pub kv_peak_bytes: u64,
    /// Time of the last event on this replica, seconds.
    pub makespan_secs: f64,
    /// Seconds the replica was out for failover (detection + restore),
    /// clamped to simulated time when an outage is truncated by trace
    /// end.
    pub outage_secs: f64,
    /// Detection share of `outage_secs`, clamped the same way.
    pub detection_secs: f64,
    /// Restore share of `outage_secs` (`outage_secs - detection_secs`).
    pub restore_secs: f64,
    /// Prefill-chunk seconds spent rebuilding preempted or failed-over
    /// requests (token-weighted share of mixed chunks).
    pub reprefill_secs: f64,
    /// Extra step seconds paid for running on the degraded torus
    /// (degraded cost minus what the nominal mesh would have charged).
    pub degraded_extra_secs: f64,
    /// Step seconds executed while load shedding held the degraded
    /// batch cap active.
    pub shed_degraded_secs: f64,
}

/// Fleet-wide chip-death cost accounting: where the wall-clock lost to
/// the failures went. Present in the report when the spec injects a
/// [`ChipDeath`] or a chaos draw fires at least one death; serialized
/// as the `downtime_s` artifact section. Components are clamped to
/// simulated time, so they sum to the observed outage even when trace
/// end truncates an outage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServingDowntime {
    /// Failure-detection seconds across failovers.
    pub detection_secs: f64,
    /// Weight-shard restore seconds across failovers.
    pub restore_secs: f64,
    /// Re-prefill seconds rebuilding evicted KV caches.
    pub reprefill_secs: f64,
    /// Extra step seconds paid on the degraded torus.
    pub degraded_extra_secs: f64,
    /// Replicas that failed over.
    pub failovers: usize,
}

impl ServingDowntime {
    /// Serializes the breakdown (all durations seconds).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("detection", Json::Num(self.detection_secs)),
            ("restore", Json::Num(self.restore_secs)),
            ("reprefill", Json::Num(self.reprefill_secs)),
            ("degraded_extra", Json::Num(self.degraded_extra_secs)),
            ("failovers", Json::Num(self.failovers as f64)),
        ])
    }
}

/// Everything a fleet run reports: the latency order statistics, the
/// throughput actually delivered, and the SLO verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Spec echo: model name.
    pub model: String,
    /// Spec echo: per-replica mesh.
    pub mesh: MeshShape,
    /// Spec echo: requested slice count.
    pub slice_count: usize,
    /// Spec echo: replica count.
    pub replicas: usize,
    /// Spec echo: batch cap.
    pub max_batch: usize,
    /// Spec echo: mean offered load, requests/second.
    pub qps: f64,
    /// Spec echo: arrival seed.
    pub seed: u64,
    /// Spec echo: TTFT p99 target, milliseconds.
    pub slo_p99_ttft_ms: f64,
    /// Requests offered (trace length).
    pub offered: usize,
    /// Requests completed fleet-wide.
    pub completed: usize,
    /// Requests rejected fleet-wide.
    pub rejected: usize,
    /// Preemption events fleet-wide.
    pub preemptions: usize,
    /// Failover events across the fleet (a chaos replica can fail over
    /// more than once).
    pub failovers: usize,
    /// Requests shed by SLO-aware admission control fleet-wide.
    pub shed: usize,
    /// Requests the router timed out (never served).
    pub timed_out: usize,
    /// Router retry decisions fleet-wide.
    pub retries: usize,
    /// Requests the router landed off their round-robin home replica.
    pub redistributed: usize,
    /// Time-to-first-token order statistics, seconds.
    pub ttft: LatencySummary,
    /// Time-per-output-token order statistics, seconds.
    pub tpot: LatencySummary,
    /// Wall-clock of the longest replica timeline, seconds.
    pub makespan_secs: f64,
    /// Step seconds executed under the load-shedding degraded batch
    /// cap, fleet-wide.
    pub degraded_secs: f64,
    /// Tokens generated by completed requests.
    pub generated_tokens: usize,
    /// Generated tokens per chip per second — the headline efficiency.
    pub goodput_tokens_per_chip_s: f64,
    /// Whether TTFT p99 met the target.
    pub slo_attained: bool,
    /// Fraction of completed requests whose TTFT met the target.
    pub slo_attainment: f64,
    /// Per-chip KV budget, bytes.
    pub kv_budget_bytes: u64,
    /// Peak per-chip KV usage across replicas, bytes.
    pub kv_peak_bytes: u64,
    /// Per-replica accounting.
    pub per_replica: Vec<ReplicaStats>,
    /// Chip-death cost breakdown when the spec injects a failure.
    pub downtime: Option<ServingDowntime>,
    /// Windowed per-replica time-series (always computed, O(windows)).
    pub series: FleetSeries,
    /// Per-request outcomes, by trace id.
    pub outcomes: Vec<RequestOutcome>,
}

impl FleetReport {
    /// Total chips across the fleet.
    pub fn total_chips(&self) -> usize {
        self.mesh.num_chips() * self.replicas
    }

    /// Serializes the report to the `serving.schema.json` artifact shape.
    pub fn to_json(&self) -> Json {
        let per_replica = self
            .per_replica
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("completed", Json::Num(r.completed as f64)),
                    ("rejected", Json::Num(r.rejected as f64)),
                    ("preemptions", Json::Num(r.preemptions as f64)),
                    ("decode_steps", Json::Num(r.decode_steps as f64)),
                    ("prefill_chunks", Json::Num(r.prefill_chunks as f64)),
                    ("degraded_steps", Json::Num(r.degraded_steps as f64)),
                    ("shed", Json::Num(r.shed as f64)),
                    ("failovers", Json::Num(r.failovers as f64)),
                    ("failed_over", Json::Bool(r.failed_over)),
                    ("kv_peak_bytes", Json::Num(r.kv_peak_bytes as f64)),
                    ("makespan_secs", Json::Num(r.makespan_secs)),
                    ("outage_secs", Json::Num(r.outage_secs)),
                    ("detection_secs", Json::Num(r.detection_secs)),
                    ("restore_secs", Json::Num(r.restore_secs)),
                    ("reprefill_secs", Json::Num(r.reprefill_secs)),
                    ("degraded_extra_secs", Json::Num(r.degraded_extra_secs)),
                    ("shed_degraded_secs", Json::Num(r.shed_degraded_secs)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema_version", Json::Num(3.0)),
            ("model", Json::Str(self.model.clone())),
            ("mesh_rows", Json::Num(self.mesh.rows() as f64)),
            ("mesh_cols", Json::Num(self.mesh.cols() as f64)),
            ("slice_count", Json::Num(self.slice_count as f64)),
            ("replicas", Json::Num(self.replicas as f64)),
            ("chips_total", Json::Num(self.total_chips() as f64)),
            ("max_batch", Json::Num(self.max_batch as f64)),
            ("qps", Json::Num(self.qps)),
            ("seed", Json::Num(self.seed as f64)),
            ("offered", Json::Num(self.offered as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("preemptions", Json::Num(self.preemptions as f64)),
            ("failovers", Json::Num(self.failovers as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("timed_out", Json::Num(self.timed_out as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("redistributed", Json::Num(self.redistributed as f64)),
            ("ttft_ms", self.ttft.to_json_scaled(1e3)),
            ("tpot_ms", self.tpot.to_json_scaled(1e3)),
            ("makespan_secs", Json::Num(self.makespan_secs)),
            ("degraded_secs", Json::Num(self.degraded_secs)),
            ("generated_tokens", Json::Num(self.generated_tokens as f64)),
            (
                "goodput_tokens_per_chip_s",
                Json::Num(self.goodput_tokens_per_chip_s),
            ),
            ("slo_p99_ttft_ms", Json::Num(self.slo_p99_ttft_ms)),
            ("slo_attained", Json::Bool(self.slo_attained)),
            ("slo_attainment", Json::Num(self.slo_attainment)),
            ("kv_budget_bytes", Json::Num(self.kv_budget_bytes as f64)),
            ("kv_peak_bytes", Json::Num(self.kv_peak_bytes as f64)),
            ("per_replica", Json::Arr(per_replica)),
        ];
        if let Some(d) = &self.downtime {
            fields.push(("downtime_s", d.to_json()));
        }
        fields.push(("timeseries", self.series.to_json()));
        Json::obj(fields)
    }

    /// Prometheus text-exposition export of the fleet headline metrics,
    /// mirroring `RunMetrics::to_prometheus` for training runs.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels = format!("model=\"{}\",mesh=\"{}\"", self.model, self.mesh);
        let mut gauge = |name: &str, extra: &str, v: f64| {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            let sep = if extra.is_empty() { "" } else { "," };
            out.push_str(&format!("{name}{{{labels}{sep}{extra}}} {v}\n"));
        };
        for (q, v) in [
            ("p50", self.ttft.p50),
            ("p95", self.ttft.p95),
            ("p99", self.ttft.p99),
        ] {
            gauge(
                "meshslice_serving_ttft_seconds",
                &format!("quantile=\"{q}\""),
                v,
            );
        }
        for (q, v) in [
            ("p50", self.tpot.p50),
            ("p95", self.tpot.p95),
            ("p99", self.tpot.p99),
        ] {
            gauge(
                "meshslice_serving_tpot_seconds",
                &format!("quantile=\"{q}\""),
                v,
            );
        }
        gauge(
            "meshslice_serving_goodput_tokens_per_chip",
            "",
            self.goodput_tokens_per_chip_s,
        );
        gauge("meshslice_serving_slo_attainment", "", self.slo_attainment);
        for (outcome, v) in [
            ("offered", self.offered),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("shed", self.shed),
            ("timed_out", self.timed_out),
            ("preemptions", self.preemptions),
            ("failovers", self.failovers),
            ("retries", self.retries),
            ("redistributed", self.redistributed),
        ] {
            gauge(
                "meshslice_serving_requests_total",
                &format!("outcome=\"{outcome}\""),
                v as f64,
            );
        }
        gauge(
            "meshslice_serving_kv_peak_bytes",
            "",
            self.kv_peak_bytes as f64,
        );
        gauge(
            "meshslice_serving_kv_budget_bytes",
            "",
            self.kv_budget_bytes as f64,
        );
        for (r, s) in self.per_replica.iter().enumerate() {
            gauge(
                "meshslice_serving_replica_completed",
                &format!("replica=\"{r}\""),
                s.completed as f64,
            );
            gauge(
                "meshslice_serving_replica_makespan_seconds",
                &format!("replica=\"{r}\""),
                s.makespan_secs,
            );
        }
        out
    }
}

/// Simulates the fleet serially. See [`simulate_fleet_threads`].
///
/// # Errors
///
/// Returns a message when the spec is invalid or the model cannot be
/// served on the configured mesh.
pub fn simulate_fleet(spec: &ServingSpec, cfg: &SimConfig) -> Result<FleetReport, String> {
    simulate_fleet_threads(spec, cfg, 1)
}

/// Simulates the fleet while recording the full request-level trace.
///
/// Tracing is observation-only: the returned `FleetReport` is
/// bit-for-bit identical to what [`simulate_fleet_threads`] produces
/// for the same spec (property-tested in `tests/serving_properties.rs`).
///
/// # Errors
///
/// Same conditions as [`simulate_fleet_threads`].
pub fn simulate_fleet_traced(
    spec: &ServingSpec,
    cfg: &SimConfig,
    threads: usize,
) -> Result<(FleetReport, ServingTrace), String> {
    let (report, trace) = run_fleet(spec, cfg, threads, true)?;
    Ok((report, trace.expect("recording was requested")))
}

/// Simulates the fleet with replicas distributed over `threads` workers.
///
/// Dispatch is round-robin by request id and each replica's timeline is
/// simulated independently, so the report is bit-for-bit identical at
/// any thread count.
///
/// # Errors
///
/// Returns a message when the spec is invalid or the model cannot be
/// served on the configured mesh (weights leave no KV budget, or no
/// batch bucket divides over it).
pub fn simulate_fleet_threads(
    spec: &ServingSpec,
    cfg: &SimConfig,
    threads: usize,
) -> Result<FleetReport, String> {
    run_fleet(spec, cfg, threads, false).map(|(report, _)| report)
}

/// Per-replica sink stack: the windowed series is always built (it is
/// part of the report); full event recording is opt-in. Neither feeds
/// back into the loop's arithmetic.
struct ReplicaSinks {
    series: ReplicaSeriesBuilder,
    record: Option<RecordingSink>,
}

impl TraceSink for ReplicaSinks {
    fn event(&mut self, e: &ServingEvent) {
        self.series.event(e);
        if let Some(r) = &mut self.record {
            r.event(e);
        }
    }
}

fn run_fleet(
    spec: &ServingSpec,
    cfg: &SimConfig,
    threads: usize,
    record: bool,
) -> Result<(FleetReport, Option<ServingTrace>), String> {
    spec.validate()?;
    // A spec that cannot kill a chip never reads the degraded column, so
    // its own table build prices the nominal column alone.
    let profile = if spec.can_draw_death() {
        CostProfile::Full
    } else {
        CostProfile::NominalOnly
    };
    let costs: Arc<ReplicaCosts> = match &spec.shared_costs {
        Some(shared) => shared.clone(),
        None => Arc::new(
            CostTableCache::new(cfg.clone(), profile)
                .build(
                    &spec.model,
                    spec.mesh,
                    spec.slice_count,
                    spec.max_batch,
                    &mut RunScratch::new(),
                )
                .ok_or_else(|| {
                format!(
                    "{} cannot be served on a {} mesh: weights leave no KV budget or no batch bucket divides",
                    spec.model.name, spec.mesh
                )
            })?,
        ),
    };
    let failover = ServingFailover::for_model(&spec.model, spec.mesh);
    let owned_trace;
    let trace: &[Request] = match &spec.shared_trace {
        // The prefix of a longer shared draw equals a direct
        // `num_requests`-long draw: the sampler draws per request.
        Some(shared) => &shared[..spec.num_requests],
        None => {
            owned_trace = spec.arrivals.generate(spec.num_requests, spec.seed);
            &owned_trace
        }
    };

    // Death schedules: chaos draws one per replica; a scripted death is
    // a one-event schedule with no repair — that path reproduces the
    // legacy single-death loop decisions bit-for-bit.
    let death_plans: Vec<Vec<DeathEvent>> = if let Some(chaos) = &spec.chaos {
        (0..spec.replicas)
            .map(|r| chaos.replica_deaths(r, spec.mesh.num_chips(), failover.outage_secs()))
            .collect()
    } else {
        let mut plans = vec![Vec::new(); spec.replicas];
        if let Some(f) = &spec.failure {
            plans[f.replica].push(DeathEvent {
                at: f.at_secs,
                repaired_at: f64::INFINITY,
            });
        }
        plans
    };
    let death_events: usize = death_plans.iter().map(Vec::len).sum();

    // Router pre-pass: plan the dispatch around the *scheduled* outage
    // windows before any replica simulates, so per-replica timelines
    // stay independent. With no blackouts the routed streams equal
    // plain round-robin dispatch exactly.
    let mut routed: Option<RoutedTrace> = spec.router.as_ref().map(|policy| {
        let blackouts: Vec<Vec<(f64, f64)>> = death_plans
            .iter()
            .map(|deaths| {
                deaths
                    .iter()
                    .map(|d| (d.at, d.at + failover.outage_secs()))
                    .collect()
            })
            .collect();
        route_requests(trace, spec.replicas, &blackouts, policy)
    });
    let streams: Vec<Vec<Request>> = match routed.as_mut() {
        Some(r) => std::mem::take(&mut r.streams),
        None => {
            // Round-robin dispatch by id: state-independent, so the
            // per-replica request streams — and therefore the simulation
            // — do not depend on how replicas are scheduled onto worker
            // threads.
            let mut streams = vec![Vec::new(); spec.replicas];
            for r in trace {
                streams[r.id % spec.replicas].push(*r);
            }
            streams
        }
    };
    let router_events: Vec<Vec<ServingEvent>> = routed
        .as_mut()
        .map(|r| std::mem::take(&mut r.events))
        .unwrap_or_default();

    let slo_secs = spec.slo_p99_ttft_ms / 1e3;
    let indices: Vec<usize> = (0..spec.replicas).collect();
    let runs = par::parallel_map_threads(threads, &indices, |&r| {
        let ctx = ReplicaCtx {
            costs: &costs,
            requests: &streams[r],
            deaths: &death_plans[r],
            failover: &failover,
            shed: spec.shed.as_ref(),
            slo_secs,
        };
        let mut sinks = ReplicaSinks {
            series: ReplicaSeriesBuilder::new(),
            record: record.then(RecordingSink::default),
        };
        let run = simulate_replica(&ctx, &mut sinks);
        (run, sinks)
    });

    let mut outcomes = Vec::with_capacity(trace.len());
    let mut per_replica = Vec::with_capacity(spec.replicas);
    let mut builders = Vec::with_capacity(spec.replicas);
    let mut recorded: Vec<Vec<ServingEvent>> = Vec::with_capacity(spec.replicas);
    for (r, (run, mut sinks)) in runs.into_iter().enumerate() {
        outcomes.extend(run.outcomes.into_iter().map(|mut o| {
            o.replica = r;
            o
        }));
        per_replica.push(run.stats);
        // Router events fold into the home replica's lanes after the
        // simulation: window binning is order-independent, so this
        // equals having observed them inline.
        if let Some(evs) = router_events.get(r) {
            for e in evs {
                sinks.series.event(e);
            }
        }
        builders.push(sinks.series);
        if let Some(rec) = sinks.record {
            let mut evs = router_events.get(r).cloned().unwrap_or_default();
            evs.extend(rec.events);
            recorded.push(evs);
        }
    }
    outcomes.sort_by_key(|o| o.id);
    if let Some(r) = &routed {
        // Restore user-perceived arrivals: a routed request simulated
        // with its effective (post-backoff) arrival, so the backoff
        // delay it sat through folds back into TTFT.
        for rr in &r.routed {
            let i = outcomes
                .binary_search_by_key(&rr.id, |o| o.id)
                .expect("routed requests land in exactly one stream");
            let o = &mut outcomes[i];
            o.arrival_secs = rr.arrival_secs;
            if let Some(ttft) = &mut o.ttft_secs {
                *ttft += rr.delay_secs;
            }
            o.retries = rr.retries;
        }
        for to in &r.timeouts {
            outcomes.push(RequestOutcome {
                id: to.id,
                replica: to.id % spec.replicas,
                arrival_secs: to.arrival_secs,
                ttft_secs: None,
                tpot_secs: None,
                generated_tokens: 0,
                preemptions: 0,
                retries: to.retries,
                kind: OutcomeKind::TimedOut,
            });
        }
        if !r.timeouts.is_empty() {
            outcomes.sort_by_key(|o| o.id);
        }
    }
    let series = FleetSeries::from_builders(builders);

    let ttft_samples: Vec<f64> = outcomes.iter().filter_map(|o| o.ttft_secs).collect();
    let slo_hits = ttft_samples.iter().filter(|&&t| t <= slo_secs).count();
    let ttft = LatencySummary::from_unsorted(ttft_samples.clone());
    let tpot = LatencySummary::from_unsorted(outcomes.iter().filter_map(|o| o.tpot_secs).collect());

    let completed: usize = per_replica.iter().map(|s| s.completed).sum();
    let generated_tokens: usize = outcomes
        .iter()
        .filter(|o| o.ttft_secs.is_some())
        .map(|o| o.generated_tokens)
        .sum();
    let makespan_secs = per_replica
        .iter()
        .map(|s| s.makespan_secs)
        .fold(0.0, f64::max);
    let total_chips = spec.mesh.num_chips() * spec.replicas;
    let goodput = if makespan_secs > 0.0 {
        generated_tokens as f64 / makespan_secs / total_chips as f64
    } else {
        0.0
    };
    let failovers: usize = per_replica.iter().map(|s| s.failovers).sum();
    let shed: usize = per_replica.iter().map(|s| s.shed).sum();
    let (timed_out, retries, redistributed) = match &routed {
        Some(r) => (r.timeouts.len(), r.retries, r.redistributed),
        None => (0, 0, 0),
    };
    // A scripted death always reports a (possibly zeroed) breakdown; a
    // chaos spec reports one only when a draw actually fired, so a
    // zero-rate chaos run serializes byte-identically to nominal.
    let downtime = (spec.failure.is_some() || death_events > 0).then(|| ServingDowntime {
        detection_secs: per_replica.iter().map(|s| s.detection_secs).sum(),
        restore_secs: per_replica.iter().map(|s| s.restore_secs).sum(),
        reprefill_secs: per_replica.iter().map(|s| s.reprefill_secs).sum(),
        degraded_extra_secs: per_replica.iter().map(|s| s.degraded_extra_secs).sum(),
        failovers,
    });
    let serving_trace = if record {
        Some(ServingTrace {
            model: spec.model.name.clone(),
            mesh: format!("{}", spec.mesh),
            replicas: spec.replicas,
            qps: spec.arrivals.qps,
            seed: spec.seed,
            slo_p99_ttft_ms: spec.slo_p99_ttft_ms,
            events: recorded,
        })
    } else {
        None
    };

    let report = FleetReport {
        model: spec.model.name.to_string(),
        mesh: spec.mesh,
        slice_count: spec.slice_count,
        replicas: spec.replicas,
        max_batch: spec.max_batch,
        qps: spec.arrivals.qps,
        seed: spec.seed,
        slo_p99_ttft_ms: spec.slo_p99_ttft_ms,
        offered: trace.len(),
        completed,
        rejected: per_replica.iter().map(|s| s.rejected).sum(),
        preemptions: per_replica.iter().map(|s| s.preemptions).sum(),
        failovers,
        shed,
        timed_out,
        retries,
        redistributed,
        slo_attained: ttft.count > 0 && ttft.p99 <= slo_secs,
        slo_attainment: if ttft.count > 0 {
            slo_hits as f64 / ttft.count as f64
        } else {
            0.0
        },
        ttft,
        tpot,
        makespan_secs,
        degraded_secs: per_replica.iter().map(|s| s.shed_degraded_secs).sum(),
        generated_tokens,
        goodput_tokens_per_chip_s: goodput,
        kv_budget_bytes: costs.kv_budget_bytes,
        kv_peak_bytes: per_replica
            .iter()
            .map(|s| s.kv_peak_bytes)
            .max()
            .unwrap_or(0),
        per_replica,
        downtime,
        series,
        outcomes,
    };
    Ok((report, serving_trace))
}

struct ReplicaRun {
    outcomes: Vec<RequestOutcome>,
    stats: ReplicaStats,
}

/// Builds the completion event for one finished request.
fn completed_event(
    req: &Request,
    end: f64,
    first: f64,
    generated: usize,
    preempts: usize,
    slo_secs: f64,
) -> ServingEvent {
    let ttft = first - req.arrival_secs;
    ServingEvent::Completed {
        id: req.id,
        t: end,
        ttft,
        generated,
        preemptions: preempts,
        slo_ok: ttft <= slo_secs,
    }
}

/// Per-request progress, one slab slot per stream request. `generated`
/// counts emitted tokens (the first comes out of prefill); a request
/// pins `prompt + generated` KV tokens while resident.
#[derive(Clone, Copy, Default)]
struct ReqState {
    generated: usize,
    first_token: Option<f64>,
    finish: Option<f64>,
    preemptions: usize,
    rejected: bool,
    shed: bool,
}

/// Everything one replica's simulation reads: the cost tables, its
/// request stream, its scheduled death events (sorted by time), the
/// failover timing, and the optional shed policy.
struct ReplicaCtx<'a> {
    costs: &'a ReplicaCosts,
    requests: &'a [Request],
    deaths: &'a [DeathEvent],
    failover: &'a ServingFailover,
    shed: Option<&'a ShedPolicy>,
    slo_secs: f64,
}

/// One replica's timeline: a sequential discrete-event loop over its
/// request stream. All arithmetic is sequential f64, so the result is a
/// pure function of the context — the sink only observes, it never
/// influences the loop.
///
/// Request state lives in one [`ReqState`] slab indexed by stream
/// position, and the batch-assembly buffers are reused across
/// iterations: the steady-state decode path allocates nothing per step
/// (property-tested to leave the report bit-for-bit unchanged).
fn simulate_replica(ctx: &ReplicaCtx<'_>, sink: &mut dyn TraceSink) -> ReplicaRun {
    let ReplicaCtx {
        costs,
        requests,
        deaths,
        failover,
        shed,
        slo_secs,
    } = *ctx;
    let per_token = costs.kv_bytes_per_token;
    let budget = costs.kv_budget_bytes;
    let n = requests.len();

    let mut reqs: Vec<ReqState> = vec![ReqState::default(); n];

    let mut t = 0.0_f64;
    let mut next_arrival = 0usize;
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut active: Vec<usize> = Vec::new(); // admission order (oldest first)
    let mut kv_used = 0u64;
    // The replica serves on the degraded torus while `t` is below this:
    // never for a healthy replica, forever after an unrepaired death
    // (the legacy boolean), or until the repair completes.
    let mut degraded_until = f64::NEG_INFINITY;
    let mut next_death = 0usize;
    let mut outage_starts: Vec<f64> = Vec::new();
    // KV tokens pinned by the waiting queue, priced like the prefill
    // chunk assembly prices them — the shed policy's TTFT projection.
    let mut queued_tokens = 0usize;
    let mut stats = ReplicaStats::default();

    // Per-iteration batch buffers, reused across the whole loop.
    let mut chunk: Vec<usize> = Vec::new();
    let mut fresh_ids: Vec<usize> = Vec::new();
    let mut resumed_ids: Vec<usize> = Vec::new();
    let mut finished: Vec<usize> = Vec::new();

    let kv_of =
        |idx: usize, reqs: &[ReqState]| (requests[idx].prompt_tokens + reqs[idx].generated) as u64;
    let phase_secs = |table: &PhaseCostTable, size: usize, degraded: bool| {
        table
            .cost_secs(size, degraded)
            .expect("replica cost tables are validated non-empty")
    };
    // Nominal per-token prefill rate of the largest bucket: the shed
    // policy projects the backlog's TTFT as `queued_tokens` priced at
    // this rate.
    let prefill_tok_secs = {
        let size = costs.prefill.max_size();
        phase_secs(&costs.prefill, size, false) / size as f64
    };
    let overloaded = |p: &ShedPolicy, depth: usize, queued_tokens: usize| {
        depth >= p.queue_depth || queued_tokens as f64 * prefill_tok_secs > p.ttft_factor * slo_secs
    };

    loop {
        // Admission: a request whose peak KV footprint exceeds the whole
        // budget can never run is rejected; under an overloaded queue
        // the shed policy drops the newest arrivals; everything else
        // queues.
        while next_arrival < n && requests[next_arrival].arrival_secs <= t {
            let idx = next_arrival;
            next_arrival += 1;
            let id = requests[idx].id;
            let at = requests[idx].arrival_secs;
            sink.event(&ServingEvent::Arrival { id, t: at });
            if requests[idx].peak_kv_tokens() as u64 * per_token > budget {
                reqs[idx].rejected = true;
                stats.rejected += 1;
                sink.event(&ServingEvent::Rejected { id, t: at });
            } else if shed.is_some_and(|p| overloaded(p, waiting.len(), queued_tokens)) {
                reqs[idx].shed = true;
                stats.shed += 1;
                sink.event(&ServingEvent::Shed {
                    id,
                    t: at,
                    queue: waiting.len(),
                });
            } else {
                waiting.push_back(idx);
                queued_tokens += requests[idx].prompt_tokens + reqs[idx].generated.max(1);
                sink.event(&ServingEvent::Queued {
                    id,
                    t: at,
                    queue: waiting.len(),
                });
            }
        }

        // Chip death: the replica is out for detection + weight restore,
        // its KV cache is gone (the in-flight batch re-prefills), and it
        // continues on the degraded torus until the repair completes
        // (forever, without a repair model).
        if next_death < deaths.len() && t >= deaths[next_death].at {
            let ev = deaths[next_death];
            next_death += 1;
            stats.failed_over = true;
            stats.failovers += 1;
            degraded_until = degraded_until.max(ev.repaired_at);
            let start = t;
            t += failover.outage_secs();
            outage_starts.push(start);
            sink.event(&ServingEvent::Outage { start, end: t });
            while let Some(idx) = active.pop() {
                reqs[idx].preemptions += 1;
                stats.preemptions += 1;
                waiting.push_front(idx);
                queued_tokens += requests[idx].prompt_tokens + reqs[idx].generated.max(1);
                sink.event(&ServingEvent::Preempted {
                    id: requests[idx].id,
                    t: start,
                });
            }
            kv_used = 0;
            continue;
        }

        let degraded = t < degraded_until;
        // While the shed policy sees overload it can gate prefill
        // admission behind a smaller batch cap; decode drains the
        // resident batch down to it naturally.
        let prefill_cap = match shed {
            Some(p) if overloaded(p, waiting.len(), queued_tokens) => p
                .degraded_max_batch
                .map_or(costs.max_batch, |c| c.min(costs.max_batch)),
            _ => costs.max_batch,
        };
        let shed_cap_active = prefill_cap < costs.max_batch;

        // Prefill-prioritized continuous batching: fill the batch before
        // decoding. A preempted or failed-over request re-prefills its
        // prompt plus everything it had generated.
        if !waiting.is_empty() && active.len() < prefill_cap {
            chunk.clear();
            fresh_ids.clear();
            resumed_ids.clear();
            let mut chunk_tokens = 0usize;
            let mut chunk_kv = 0u64;
            let mut resumed_tokens = 0usize;
            while let Some(&idx) = waiting.front() {
                if active.len() + chunk.len() >= prefill_cap {
                    break;
                }
                let tokens = requests[idx].prompt_tokens + reqs[idx].generated.max(1);
                if !chunk.is_empty() && chunk_tokens + tokens > costs.prefill.max_size() {
                    break;
                }
                if kv_used + chunk_kv + tokens as u64 * per_token > budget {
                    break;
                }
                waiting.pop_front();
                queued_tokens -= tokens;
                chunk.push(idx);
                chunk_tokens += tokens;
                chunk_kv += tokens as u64 * per_token;
                if reqs[idx].generated > 0 {
                    resumed_tokens += tokens;
                    resumed_ids.push(requests[idx].id);
                } else {
                    fresh_ids.push(requests[idx].id);
                }
            }
            if !chunk.is_empty() {
                let start = t;
                let cost = phase_secs(&costs.prefill, chunk_tokens, degraded);
                t += cost;
                stats.prefill_chunks += 1;
                if degraded {
                    stats.degraded_steps += 1;
                    stats.degraded_extra_secs +=
                        cost - phase_secs(&costs.prefill, chunk_tokens, false);
                }
                if shed_cap_active {
                    stats.shed_degraded_secs += cost;
                }
                if chunk_tokens > 0 {
                    stats.reprefill_secs += cost * resumed_tokens as f64 / chunk_tokens as f64;
                }
                finished.clear();
                for &idx in &chunk {
                    reqs[idx].generated = reqs[idx].generated.max(1);
                    if reqs[idx].first_token.is_none() {
                        reqs[idx].first_token = Some(t);
                    }
                    if reqs[idx].generated >= requests[idx].output_tokens {
                        reqs[idx].finish = Some(t);
                        stats.completed += 1;
                        finished.push(idx);
                    } else {
                        kv_used += kv_of(idx, &reqs) * per_token;
                        active.push(idx);
                    }
                }
                stats.kv_peak_bytes = stats.kv_peak_bytes.max(kv_used);
                stats.makespan_secs = t;
                sink.event(&ServingEvent::Prefill {
                    start,
                    end: t,
                    tokens: chunk_tokens,
                    fresh: fresh_ids.clone(),
                    resumed: resumed_ids.clone(),
                    degraded,
                    kv_bytes: kv_used,
                    queue: waiting.len(),
                });
                for &id in &fresh_ids {
                    sink.event(&ServingEvent::FirstToken { id, t });
                }
                for &idx in &finished {
                    let first = reqs[idx]
                        .first_token
                        .expect("completed requests have a first token");
                    sink.event(&completed_event(
                        &requests[idx],
                        t,
                        first,
                        reqs[idx].generated,
                        reqs[idx].preemptions,
                        slo_secs,
                    ));
                }
                continue;
            }
        }

        // Decode step: one token per active request. Under KV pressure,
        // preempt the most recently admitted request (LIFO) — its cache
        // is dropped and rebuilt by a later re-prefill.
        if !active.is_empty() {
            while active.len() > 1 && kv_used + active.len() as u64 * per_token > budget {
                let victim = active.pop().expect("non-empty");
                kv_used -= kv_of(victim, &reqs) * per_token;
                reqs[victim].preemptions += 1;
                stats.preemptions += 1;
                waiting.push_front(victim);
                sink.event(&ServingEvent::Preempted {
                    id: requests[victim].id,
                    t,
                });
            }
            let batch = active.len();
            let start = t;
            let cost = phase_secs(&costs.decode, batch, degraded);
            t += cost;
            stats.decode_steps += 1;
            if degraded {
                stats.degraded_steps += 1;
                stats.degraded_extra_secs += cost - phase_secs(&costs.decode, batch, false);
            }
            if shed_cap_active {
                stats.shed_degraded_secs += cost;
            }
            kv_used += batch as u64 * per_token;
            stats.kv_peak_bytes = stats.kv_peak_bytes.max(kv_used);
            finished.clear();
            let mut i = 0;
            while i < active.len() {
                let idx = active[i];
                reqs[idx].generated += 1;
                if reqs[idx].generated >= requests[idx].output_tokens {
                    reqs[idx].finish = Some(t);
                    stats.completed += 1;
                    kv_used -= kv_of(idx, &reqs) * per_token;
                    active.remove(i);
                    finished.push(idx);
                } else {
                    i += 1;
                }
            }
            stats.makespan_secs = t;
            sink.event(&ServingEvent::Decode {
                start,
                end: t,
                batch,
                degraded,
                kv_bytes: kv_used,
                queue: waiting.len(),
            });
            for &idx in &finished {
                let first = reqs[idx]
                    .first_token
                    .expect("completed requests have a first token");
                sink.event(&completed_event(
                    &requests[idx],
                    t,
                    first,
                    reqs[idx].generated,
                    reqs[idx].preemptions,
                    slo_secs,
                ));
            }
            continue;
        }

        // Idle: jump to the next arrival (or the next scheduled death if
        // it comes first and is still pending).
        if next_arrival < n {
            let mut wake = requests[next_arrival].arrival_secs;
            if next_death < deaths.len() {
                wake = wake.min(deaths[next_death].at.max(t));
            }
            t = t.max(wake);
            continue;
        }
        break;
    }

    // Outage accounting, clamped to simulated time: an outage the trace
    // end truncates only charges the share that actually elapsed, so
    // `detection + restore` always sums to the observed outage.
    for &start in &outage_starts {
        let end = start + failover.outage_secs();
        let observed = if end <= stats.makespan_secs {
            failover.outage_secs()
        } else {
            (stats.makespan_secs - start)
                .max(0.0)
                .min(failover.outage_secs())
        };
        stats.outage_secs += observed;
        let detect = observed.min(failover.detect_secs);
        stats.detection_secs += detect;
        stats.restore_secs += observed - detect;
    }

    let outcomes = requests
        .iter()
        .zip(&reqs)
        .map(|(r, state)| {
            let ttft = state.first_token.map(|ft| ft - r.arrival_secs);
            let tpot = match (state.first_token, state.finish) {
                (Some(ft), Some(fin)) if state.generated > 1 => {
                    Some((fin - ft) / (state.generated - 1) as f64)
                }
                _ => None,
            };
            let kind = if state.rejected {
                OutcomeKind::Rejected
            } else if state.shed {
                OutcomeKind::Shed
            } else {
                OutcomeKind::Completed
            };
            RequestOutcome {
                id: r.id,
                replica: 0, // filled in by the fleet merge
                arrival_secs: r.arrival_secs,
                ttft_secs: ttft,
                tpot_secs: tpot,
                generated_tokens: if kind == OutcomeKind::Completed {
                    state.generated
                } else {
                    0
                },
                preemptions: state.preemptions,
                retries: 0, // filled in by the fleet merge for routed requests
                kind,
            }
        })
        .collect();
    ReplicaRun { outcomes, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{CostProfile, CostTableCache};

    fn tiny() -> LlmConfig {
        LlmConfig::tiny()
    }

    fn tiny_spec(qps: f64) -> ServingSpec {
        let mut spec = ServingSpec::new(tiny(), MeshShape::new(2, 2), 2, qps);
        spec.num_requests = 80;
        spec.seed = 7;
        spec
    }

    #[test]
    fn fleet_completes_all_requests_at_low_load() {
        let report = simulate_fleet(&tiny_spec(5.0), &SimConfig::tpu_v4()).expect("feasible");
        assert_eq!(report.offered, 80);
        assert_eq!(report.completed + report.rejected, 80);
        assert_eq!(report.rejected, 0, "tiny requests all fit the KV budget");
        assert!(report.ttft.p50 > 0.0);
        assert!(report.goodput_tokens_per_chip_s > 0.0);
        assert!(report.slo_attainment > 0.0);
    }

    #[test]
    fn same_seed_same_report_different_seed_differs() {
        let cfg = SimConfig::tpu_v4();
        let a = simulate_fleet(&tiny_spec(5.0), &cfg).expect("feasible");
        let b = simulate_fleet(&tiny_spec(5.0), &cfg).expect("feasible");
        assert_eq!(a.ttft, b.ttft);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        let mut other = tiny_spec(5.0);
        other.seed = 8;
        let c = simulate_fleet(&other, &cfg).expect("feasible");
        assert_ne!(a.ttft, c.ttft);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(20.0);
        spec.replicas = 4;
        let serial = simulate_fleet_threads(&spec, &cfg, 1).expect("feasible");
        for threads in [2, 8] {
            let parallel = simulate_fleet_threads(&spec, &cfg, threads).expect("feasible");
            assert_eq!(serial.ttft, parallel.ttft);
            assert_eq!(serial.tpot, parallel.tpot);
            assert_eq!(serial.outcomes, parallel.outcomes);
            assert_eq!(serial.makespan_secs, parallel.makespan_secs);
        }
    }

    #[test]
    fn overload_raises_tail_latency() {
        let cfg = SimConfig::tpu_v4();
        let light = simulate_fleet(&tiny_spec(2.0), &cfg).expect("feasible");
        let heavy = simulate_fleet(&tiny_spec(2000.0), &cfg).expect("feasible");
        assert!(
            heavy.ttft.p99 > light.ttft.p99,
            "queueing must show up in the tail: {} vs {}",
            heavy.ttft.p99,
            light.ttft.p99
        );
    }

    #[test]
    fn chip_death_degrades_but_does_not_abort() {
        let cfg = SimConfig::tpu_v4();
        // Overloaded, so the fleet is never idle: the outage and the
        // degraded torus must show up as strictly lost throughput rather
        // than being absorbed by slack.
        let mut spec = tiny_spec(2000.0);
        let healthy = simulate_fleet(&spec, &cfg).expect("feasible");
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: healthy.makespan_secs / 4.0,
        });
        let wounded = simulate_fleet(&spec, &cfg).expect("feasible");
        assert_eq!(wounded.failovers, 1);
        assert!(wounded.per_replica[0].failed_over);
        assert!(wounded.per_replica[0].degraded_steps > 0);
        assert_eq!(wounded.completed + wounded.rejected, wounded.offered);
        assert!(wounded.goodput_tokens_per_chip_s > 0.0);
        assert!(
            wounded.goodput_tokens_per_chip_s < healthy.goodput_tokens_per_chip_s,
            "outage + degraded torus must cost throughput"
        );
    }

    #[test]
    fn kv_peak_stays_within_budget() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(500.0);
        spec.max_batch = 64;
        let report = simulate_fleet(&spec, &cfg).expect("feasible");
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert!(report.kv_peak_bytes > 0);
    }

    #[test]
    fn invalid_specs_error_out() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(5.0);
        spec.replicas = 0;
        assert!(simulate_fleet(&spec, &cfg).is_err());
        let mut spec = tiny_spec(5.0);
        spec.failure = Some(ChipDeath {
            replica: 9,
            at_secs: 1.0,
        });
        assert!(simulate_fleet(&spec, &cfg).is_err());
        // GPT-3 on 4 chips: weights cannot fit.
        let spec = ServingSpec::new(LlmConfig::gpt3(), MeshShape::new(2, 2), 1, 5.0);
        let err = simulate_fleet(&spec, &cfg).unwrap_err();
        assert!(err.contains("KV budget"), "{err}");
    }

    #[test]
    fn shared_costs_and_trace_do_not_change_the_report() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(200.0);
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: 0.5,
        });
        let plain = simulate_fleet(&spec, &cfg).expect("feasible");

        let cache = CostTableCache::new(cfg.clone(), CostProfile::Full);
        let mut shared = spec.clone();
        shared.shared_costs = Some(
            cache
                .replica_costs(&spec.model, spec.mesh, spec.slice_count, spec.max_batch)
                .expect("feasible"),
        );
        // Longer draw than needed: the prefix must behave identically.
        shared.shared_trace = Some(Arc::from(
            spec.arrivals.generate(spec.num_requests + 40, spec.seed),
        ));
        let fast = simulate_fleet(&shared, &cfg).expect("feasible");
        assert_eq!(plain, fast, "shared resources must be simulation-neutral");
        assert_eq!(
            plain.to_json().to_string_pretty(),
            fast.to_json().to_string_pretty(),
            "artifacts must be byte-identical"
        );
    }

    #[test]
    fn mismatched_shared_resources_error_out() {
        let cfg = SimConfig::tpu_v4();
        let spec = tiny_spec(5.0);
        let cache = CostTableCache::new(cfg.clone(), CostProfile::NominalOnly);
        let table = cache
            .replica_costs(&spec.model, spec.mesh, spec.slice_count, spec.max_batch)
            .expect("feasible");

        let mut wrong_mesh = spec.clone();
        wrong_mesh.mesh = MeshShape::new(4, 1);
        wrong_mesh.shared_costs = Some(table.clone());
        assert!(simulate_fleet(&wrong_mesh, &cfg)
            .unwrap_err()
            .contains("mesh"));

        let mut wrong_cap = spec.clone();
        wrong_cap.max_batch = 16;
        wrong_cap.shared_costs = Some(table.clone());
        assert!(simulate_fleet(&wrong_cap, &cfg)
            .unwrap_err()
            .contains("cap"));

        // Nominal-only tables cannot price a chip death.
        let mut nominal_death = spec.clone();
        nominal_death.failure = Some(ChipDeath {
            replica: 0,
            at_secs: 1.0,
        });
        nominal_death.shared_costs = Some(table);
        assert!(simulate_fleet(&nominal_death, &cfg)
            .unwrap_err()
            .contains("nominal-only"));

        let mut short_trace = spec.clone();
        short_trace.shared_trace = Some(Arc::from(
            spec.arrivals.generate(spec.num_requests - 1, spec.seed),
        ));
        assert!(simulate_fleet(&short_trace, &cfg)
            .unwrap_err()
            .contains("shared trace"));
    }

    #[test]
    fn report_serializes_with_expected_keys() {
        let report = simulate_fleet(&tiny_spec(5.0), &SimConfig::tpu_v4()).expect("feasible");
        let json = report.to_json();
        for key in [
            "schema_version",
            "ttft_ms",
            "tpot_ms",
            "goodput_tokens_per_chip_s",
            "slo_attained",
            "per_replica",
            "timeseries",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            json.get("ttft_ms")
                .and_then(|t| t.get("count"))
                .and_then(Json::as_usize),
            Some(report.completed)
        );
        assert_eq!(json.get("schema_version").and_then(Json::as_usize), Some(3));
        assert!(
            json.get("downtime_s").is_none(),
            "no failure injected, no downtime section"
        );
    }

    #[test]
    fn tracing_is_observation_only() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(200.0);
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: 0.5,
        });
        let untraced = simulate_fleet(&spec, &cfg).expect("feasible");
        let (traced, trace) = simulate_fleet_traced(&spec, &cfg, 2).expect("feasible");
        assert_eq!(untraced, traced, "tracing must not perturb the report");
        assert_eq!(
            untraced.to_json().to_string_pretty(),
            traced.to_json().to_string_pretty(),
            "artifacts must be byte-identical"
        );
        trace.check_invariants().expect("well-formed trace");
        assert_eq!(trace.replicas, spec.replicas);
        assert!(!trace.is_empty());
    }

    #[test]
    fn blame_matches_reported_ttft() {
        let cfg = SimConfig::tpu_v4();
        let (report, trace) = simulate_fleet_traced(&tiny_spec(500.0), &cfg, 1).expect("feasible");
        let blame = trace.blame();
        assert_eq!(blame.requests.len(), report.completed);
        for b in &blame.requests {
            let outcome = report.outcomes.iter().find(|o| o.id == b.id).expect("id");
            let ttft = outcome.ttft_secs.expect("completed");
            assert!(
                (b.ttft - ttft).abs() < 1e-9,
                "trace ttft must match outcome"
            );
            assert!((b.components_sum() - b.ttft).abs() < 1e-9);
        }
    }

    #[test]
    fn chip_death_produces_a_downtime_breakdown() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(2000.0);
        let healthy = simulate_fleet(&spec, &cfg).expect("feasible");
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: healthy.makespan_secs / 4.0,
        });
        let wounded = simulate_fleet(&spec, &cfg).expect("feasible");
        let d = wounded.downtime.expect("failure injected");
        assert_eq!(d.failovers, 1);
        assert!(d.detection_secs > 0.0 && d.restore_secs > 0.0);
        assert!(d.reprefill_secs > 0.0, "flushed batch must re-prefill");
        assert!(d.degraded_extra_secs > 0.0, "degraded torus costs extra");
        let stats = &wounded.per_replica[0];
        assert!(stats.outage_secs > 0.0);
        assert!((d.detection_secs + d.restore_secs - stats.outage_secs).abs() < 1e-12);
        let json = wounded.to_json();
        assert!(json
            .get("downtime_s")
            .and_then(|v| v.get("reprefill"))
            .is_some());
    }

    #[test]
    fn timeseries_totals_match_the_report() {
        let report = simulate_fleet(&tiny_spec(50.0), &SimConfig::tpu_v4()).expect("feasible");
        let agg = report.series.aggregate();
        assert_eq!(
            agg.iter().map(|w| w.completed).sum::<usize>(),
            report.completed
        );
        assert_eq!(
            agg.iter().map(|w| w.admitted).sum::<usize>(),
            report.offered - report.rejected
        );
        assert_eq!(
            agg.iter().map(|w| w.decode_steps).sum::<usize>(),
            report.per_replica.iter().map(|s| s.decode_steps).sum()
        );
        // Event snapshots are post-step (after finishers release KV), so
        // the series peak lower-bounds the report's mid-step peak.
        let kv_peak = agg.iter().map(|w| w.kv_peak_bytes).max().unwrap_or(0);
        assert!(kv_peak > 0 && kv_peak <= report.kv_peak_bytes);
    }

    #[test]
    fn chaos_multi_death_run_survives_with_routing_and_shedding() {
        use meshslice_faults::FailureSpec;
        let cfg = SimConfig::tpu_v4();
        // 80 arrivals at qps 40 span ~2 s of simulated time; MTBF 2 s
        // per chip x 4 chips x 4 replicas over that horizon fires
        // several deaths mid-trace.
        let mut spec = tiny_spec(40.0);
        spec.replicas = 4;
        spec.chaos = Some(ChaosSpec::new(FailureSpec::chip_mtbf(2.0, 2.0), 13));
        spec.router = Some(RouterPolicy::for_slo(0.5));
        spec.shed = Some(ShedPolicy::for_queue_depth(64));
        let report = simulate_fleet(&spec, &cfg).expect("feasible");
        assert!(report.failovers >= 2, "got {} failovers", report.failovers);
        assert_eq!(
            report.completed + report.rejected + report.shed + report.timed_out,
            report.offered,
            "no request may be stranded"
        );
        assert!(report.goodput_tokens_per_chip_s > 0.0);
        assert!(report.downtime.is_some(), "fired draws price downtime");
        // Every terminal outcome kind is consistent with its fields.
        for o in &report.outcomes {
            match o.kind {
                OutcomeKind::Completed => assert!(o.ttft_secs.is_some()),
                OutcomeKind::Rejected | OutcomeKind::Shed | OutcomeKind::TimedOut => {
                    assert!(o.ttft_secs.is_none());
                    assert_eq!(o.generated_tokens, 0);
                }
            }
        }
        // Bit-identical at any thread count, chaos and router included.
        for threads in [2, 8] {
            let parallel = simulate_fleet_threads(&spec, &cfg, threads).expect("feasible");
            assert_eq!(report, parallel);
        }
    }

    #[test]
    fn repair_returns_the_replica_to_nominal_pricing() {
        use meshslice_faults::FailureSpec;
        use meshslice_recovery::RepairModel;
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(40.0);
        spec.chaos = Some(ChaosSpec::new(FailureSpec::chip_mtbf(2.0, 2.0), 5));
        let forever = simulate_fleet(&spec, &cfg).expect("feasible");
        assert!(forever.failovers >= 1, "the draw must fire");
        // Same death schedule (repair consumes an independent RNG), but
        // the replica returns to nominal pricing after the repair.
        spec.chaos = Some(
            ChaosSpec::new(FailureSpec::chip_mtbf(2.0, 2.0), 5)
                .with_repair(RepairModel::exponential(0.2)),
        );
        let repaired = simulate_fleet(&spec, &cfg).expect("feasible");
        assert_eq!(repaired.failovers, forever.failovers);
        let steps = |r: &FleetReport| {
            r.per_replica
                .iter()
                .map(|s| s.degraded_steps)
                .sum::<usize>()
        };
        assert!(
            steps(&repaired) < steps(&forever),
            "repair must end the degraded window: {} vs {}",
            steps(&repaired),
            steps(&forever)
        );
    }

    #[test]
    fn truncated_outage_clamps_the_downtime_to_simulated_time() {
        let cfg = SimConfig::tpu_v4();
        // One request whose KV footprint can never fit: it is rejected
        // the moment the replica drains arrivals — after the outage —
        // so no step ever runs and the outage is fully truncated.
        let mut spec = tiny_spec(5.0);
        spec.replicas = 1;
        spec.num_requests = 1;
        spec.shared_trace = Some(Arc::from(vec![Request {
            id: 0,
            arrival_secs: 0.1,
            prompt_tokens: 50_000_000_000,
            output_tokens: 1,
        }]));
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: 0.05,
        });
        let report = simulate_fleet(&spec, &cfg).expect("feasible");
        assert_eq!(report.rejected, 1);
        assert_eq!(report.failovers, 1, "the death fired");
        let stats = &report.per_replica[0];
        let d = report.downtime.expect("failure injected");
        assert_eq!(d.failovers, 1);
        // The trace ended before any post-outage work, so the observed
        // outage — and every component priced from it — is zero.
        assert_eq!(stats.outage_secs, 0.0);
        assert_eq!(d.detection_secs, 0.0);
        assert_eq!(d.restore_secs, 0.0);
        assert!((d.detection_secs + d.restore_secs - stats.outage_secs).abs() < 1e-12);
    }

    #[test]
    fn shedding_drops_the_newest_arrivals_under_overload() {
        let cfg = SimConfig::tpu_v4();
        // At qps 50k the whole trace floods in faster than one step, so
        // the admission queue overflows depth 4 immediately.
        let mut spec = tiny_spec(50_000.0);
        spec.shed = Some(ShedPolicy::for_queue_depth(4).with_degraded_cap(4));
        let report = simulate_fleet(&spec, &cfg).expect("feasible");
        assert!(report.shed > 0, "queue depth 4 at qps 50k must shed");
        assert!(report.degraded_secs > 0.0, "the degraded cap must engage");
        assert_eq!(
            report.completed + report.rejected + report.shed,
            report.offered
        );
        let per_replica_shed: usize = report.per_replica.iter().map(|s| s.shed).sum();
        assert_eq!(per_replica_shed, report.shed);
        // An idle shed policy leaves the nominal report byte-identical.
        let mut calm = tiny_spec(2.0);
        let nominal = simulate_fleet(&calm, &cfg).expect("feasible");
        calm.shed = Some(ShedPolicy::for_queue_depth(1_000_000));
        let guarded = simulate_fleet(&calm, &cfg).expect("feasible");
        assert_eq!(nominal, guarded);
        assert_eq!(
            nominal.to_json().to_string_pretty(),
            guarded.to_json().to_string_pretty()
        );
    }

    #[test]
    fn router_redirects_around_a_scripted_death() {
        let cfg = SimConfig::tpu_v4();
        let mut spec = tiny_spec(200.0);
        spec.failure = Some(ChipDeath {
            replica: 0,
            at_secs: 0.05,
        });
        spec.router = Some(RouterPolicy::for_slo(0.5));
        let report = simulate_fleet(&spec, &cfg).expect("feasible");
        assert!(report.retries > 0, "arrivals inside the blackout retry");
        assert!(
            report.redistributed > 0,
            "the survivor replica absorbs the stranded requests"
        );
        assert_eq!(
            report.completed + report.rejected + report.timed_out,
            report.offered
        );
        // Routed requests keep their original arrival and fold the
        // backoff delay into TTFT; their retry count is recorded.
        let routed: Vec<_> = report.outcomes.iter().filter(|o| o.retries > 0).collect();
        assert!(!routed.is_empty());
        for o in &routed {
            assert!(o.kind == OutcomeKind::Completed || o.kind == OutcomeKind::TimedOut);
        }
    }

    #[test]
    fn prometheus_export_names_the_tail() {
        let report = simulate_fleet(&tiny_spec(5.0), &SimConfig::tpu_v4()).expect("feasible");
        let prom = report.to_prometheus();
        assert!(prom.contains("meshslice_serving_ttft_seconds"));
        assert!(prom.contains("quantile=\"p99\""));
        assert!(prom.contains("outcome=\"completed\""));
        assert!(prom.contains("meshslice_serving_replica_completed{"));
    }
}
