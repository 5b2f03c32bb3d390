//! Command-line interface to the MeshSlice reproduction.
//!
//! The `meshslice` binary exposes the autotuner, the cluster simulator,
//! and the 3D-parallelism planner without writing any Rust:
//!
//! ```text
//! meshslice autotune gpt3 256
//! meshslice compare megatron 64
//! meshslice compare baseline.json tuned.json
//! meshslice sweep-mesh gpt3 256
//! meshslice sweep-slice gpt3 32x8
//! meshslice plan3d gpt3 512 256
//! meshslice memory gpt3 256
//! meshslice inference megatron 64
//! meshslice serve --model gpt3 --replicas 2 --qps 40 --slo-p99-ms 500 --seed 7
//! meshslice faults --model gpt3 --chips 64 --straggler 1.5 --seeds 8
//! meshslice resilience --model gpt3 --chips 64 --mtbf 24 --steps 200
//! meshslice trace --model gpt3 --mesh 4x4 --out trace.json --sort
//! meshslice metrics --model gpt3 --mesh 4x4 --format json --out run.json
//! meshslice traffic
//! ```
//!
//! Command parsing and execution live in this library so they are
//! unit-testable; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::experiments::{
    mesh_shape_sweep, slice_count_sweep, straggler_sensitivity, traffic_25d_example,
};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::parallelism::{plan_cluster, PlanOptions};
use meshslice::report::{pct, pct_opt, Table};
use meshslice::training::{end_to_end, simulate_fc_step, Algorithm};
use meshslice::{
    Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshShape, MeshSlice, SimConfig,
};
use meshslice_faults::FailureSpec;
use meshslice_mesh::{MeshView, Torus2d};
use meshslice_recovery::{
    simulate_recovery, tune_resilient, RecoveryParams, RepairModel, DEFAULT_DETECT_SECS,
};
use meshslice_serving::{
    simulate_fleet_threads, simulate_fleet_traced, ArrivalSpec, ChaosSpec, ChipDeath, Request,
    RouterPolicy, ScreenPolicy, ServingSpec, ServingTuning, ShedPolicy, TuneMode,
    DEFAULT_SEGMENT_SECS,
};
use meshslice_sim::{
    NodeSpan, OpKind, Program, RunScratch, RunTimeline, SimReport, SpanRecorder, TimelineRecorder,
};
use meshslice_telemetry::{
    is_serving_artifact, FleetDiff, Json, PathKind, RunDiff, RunMetrics, BUCKET_LABELS,
};

/// A parsed CLI invocation.
// One Command exists per process and lives on the stack for the length
// of `execute`; the size skew from Serve's many optional flags is
// irrelevant, and boxing them would noise up every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `autotune <model> <chips>`: run both autotuner phases and print
    /// the plan.
    Autotune {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `compare <model> <chips>`: simulate one block with every algorithm.
    Compare {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `sweep-mesh <model> <chips>`: estimated vs simulated utilization
    /// across mesh shapes (Figure 13).
    SweepMesh {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `sweep-slice <model> <RxC>`: estimated vs simulated utilization
    /// across slice counts (Figure 14).
    SweepSlice {
        /// Target model.
        model: Model,
        /// Mesh shape, e.g. `32x8`.
        mesh: MeshShape,
    },
    /// `plan3d <model> <chips> <global_batch>`: best DP × PP × 2D-TP
    /// compositions.
    Plan3d {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
        /// Global batch size.
        batch: usize,
    },
    /// `memory <model> <chips>`: per-chip training memory footprint.
    Memory {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `inference <model> <chips>`: decode latency per block vs batch.
    Inference {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `serve [--model M] [--chips N] [--replicas R] [--qps F]
    /// [--trace FILE] [--slo-p99-ms F] [--seed K] [--requests N]
    /// [--fail-at SECS] [--chaos-mtbf SECS] [--repair SECS] [--retries N]
    /// [--shed DEPTH] [--mesh RxC] [--s N] [--max-batch N] [--screen]
    /// [--format text|json|prometheus] [--out FILE] [--trace-out FILE]
    /// [--trace-chrome FILE] [--explain] [--explain-out FILE]
    /// [--threads N]`: simulate a continuous-batching serving fleet and
    /// report TTFT/TPOT percentiles and goodput-per-chip against the
    /// SLO. `--chaos-mtbf` draws seeded multi-death fault injection per
    /// replica (the serving analog of the `resilience` MTBF ladder);
    /// `--retries`/`--shed` enable cross-replica failover routing and
    /// SLO-aware load shedding. The trace/explain flags record the
    /// request-lifecycle event stream (observation-only — the report is
    /// bit-identical with or without them) and decompose tail TTFT into
    /// blame components.
    Serve {
        /// Target model.
        model: Model,
        /// Total chips in the fleet (split across replicas).
        chips: usize,
        /// Replica count; must divide the chip pool.
        replicas: usize,
        /// Mean offered load, requests per second.
        qps: f64,
        /// Rate-multiplier trace file replayed cyclically (one
        /// multiplier per line); steady Poisson when absent.
        trace: Option<String>,
        /// TTFT p99 target, milliseconds.
        slo_p99_ms: f64,
        /// Arrival-draw seed.
        seed: u64,
        /// Request-trace length.
        requests: usize,
        /// Inject a chip death in replica 0 at this time, seconds.
        fail_at: Option<f64>,
        /// Chaos mode: per-chip MTBF, seconds — every replica draws
        /// seeded exponential chip/link deaths over the arrival-trace
        /// span. Mutually exclusive with `--fail-at`.
        chaos_mtbf: Option<f64>,
        /// Mean exponential repair time after a chaos death, seconds;
        /// requires `--chaos-mtbf`. Dead replicas stay degraded forever
        /// when absent.
        repair: Option<f64>,
        /// Cross-replica failover routing with this retry budget:
        /// requests stranded in a blackout window back off and land on
        /// survivor replicas.
        retries: Option<usize>,
        /// SLO-aware load shedding above this waiting-queue depth, with
        /// a halved degraded batch cap while overloaded.
        shed: Option<usize>,
        /// Pin the per-replica mesh, skipping the serving tuner.
        mesh: Option<MeshShape>,
        /// Slice count used with `--mesh` (tuned when `--mesh` absent).
        s: usize,
        /// Decode batch cap used with `--mesh` (tuned when absent).
        max_batch: usize,
        /// Tune with successive-halving screening (prefix-trace
        /// elimination) instead of the full fast path; ignored with
        /// `--mesh`.
        screen: bool,
        /// Output format for the artifact.
        format: ServeFormat,
        /// Also write the JSON artifact here.
        out: Option<String>,
        /// Write the request-lifecycle event stream here as JSONL
        /// (`schemas/serving_trace.schema.json`).
        trace_out: Option<String>,
        /// Write the event stream here as chrome trace-event JSON
        /// (open in Perfetto / `chrome://tracing`).
        trace_chrome: Option<String>,
        /// Print the TTFT blame table (queueing / prefill / preemption /
        /// failover per percentile bucket).
        explain: bool,
        /// Write the blame report here as JSON.
        explain_out: Option<String>,
        /// Worker threads for tuning and replica simulation;
        /// `MESHSLICE_THREADS` or the machine's parallelism when absent.
        /// Results are identical at any count.
        threads: Option<usize>,
    },
    /// `faults [--model M] [--chips N] [--straggler F] [--seeds K]
    /// [--threads N]`: straggler-severity × slice-count sensitivity grid
    /// under seeded fault injection.
    Faults {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
        /// Compute slowdown of the injected straggler (>= 1).
        straggler: f64,
        /// Number of seeded fault draws per grid cell.
        seeds: usize,
        /// Sweep worker threads; `MESHSLICE_THREADS` or the machine's
        /// parallelism when absent. Results are identical at any count.
        threads: Option<usize>,
    },
    /// `resilience [--model M] [--chips N] [--mtbf HOURS] [--steps N]
    /// [--seed K] [--threads N]`: sweep a chip-MTBF ladder, jointly
    /// tuning the plan and the Young–Daly checkpoint interval per rung,
    /// and replay one seeded failure draw through checkpoint/restart.
    Resilience {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
        /// Per-chip MTBF at the center of the ladder, hours.
        mtbf_hours: f64,
        /// Training steps of the modeled run.
        steps: usize,
        /// Seed of the failure draw the simulated column replays.
        seed: u64,
        /// Sweep worker threads; `MESHSLICE_THREADS` or the machine's
        /// parallelism when absent. Results are identical at any count.
        threads: Option<usize>,
    },
    /// `trace [--model M] [--mesh RxC] [--out FILE] [--sort]`: run one FC
    /// GeMM with span collection and emit Chrome trace-event JSON.
    Trace {
        /// Target model.
        model: Model,
        /// Mesh shape, e.g. `4x4`.
        mesh: MeshShape,
        /// Output file; stdout when absent.
        out: Option<String>,
        /// Emit events in canonical `(chip, lane, start)` order so two
        /// runs of the same schedule produce byte-identical traces.
        sort: bool,
    },
    /// `metrics [--model M] [--mesh RxC] [--s N] [--windows N]
    /// [--format F] [--out FILE] [--tunelog FILE] [--threads N]`:
    /// instrument one FC GeMM and report critical-path attribution,
    /// overlap efficiency, and per-lane utilization.
    Metrics {
        /// Target model.
        model: Model,
        /// Mesh shape, e.g. `4x4`.
        mesh: MeshShape,
        /// Slice count to instrument; the analytical best when absent.
        s: Option<usize>,
        /// Number of utilization time-series windows.
        windows: usize,
        /// Output format for the artifact.
        format: MetricsFormat,
        /// Also write the JSON artifact here.
        out: Option<String>,
        /// Run the logged autotuner and write the candidate log here.
        tunelog: Option<String>,
        /// Sweep worker threads; `MESHSLICE_THREADS` or the machine's
        /// parallelism when absent. Results are identical at any count.
        threads: Option<usize>,
    },
    /// `compare <runA.json> <runB.json>`: diff two metric artifacts
    /// written by `metrics --out`.
    CompareRuns {
        /// Baseline artifact path.
        a: String,
        /// Candidate artifact path.
        b: String,
    },
    /// `traffic`: the §7 2.5D-vs-MeshSlice+DP traffic example.
    Traffic,
    /// `mesh <chips> [--max-rank N] [--shape AxB[xC[xD]]]
    /// [--format text|json]`: list the N-D mesh factorizations of a chip
    /// count, or (with `--shape`) every 2D plane view of one N-D shape.
    Mesh {
        /// Cluster size to factor.
        chips: usize,
        /// Largest factorization rank to enumerate (2..=4).
        max_rank: usize,
        /// List the 2D plane views of this shape instead of the
        /// factorization table; its chip product must equal `chips`.
        shape: Option<MeshShape>,
        /// Output format.
        format: MeshListFormat,
    },
    /// `help`: usage text.
    Help,
}

/// The models the CLI knows about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// OpenAI GPT-3 (175B).
    Gpt3,
    /// NVIDIA Megatron-NLG (530B).
    Megatron,
    /// The tiny smoke-test model (fits a handful of chips; used by CI
    /// fast-tune smoke runs).
    Tiny,
}

impl Model {
    fn config(self) -> LlmConfig {
        match self {
            Model::Gpt3 => LlmConfig::gpt3(),
            Model::Megatron => LlmConfig::megatron_nlg(),
            Model::Tiny => LlmConfig::tiny(),
        }
    }

    /// The canonical CLI spelling, used as the `model` meta label.
    pub fn name(self) -> &'static str {
        match self {
            Model::Gpt3 => "gpt3",
            Model::Megatron => "megatron",
            Model::Tiny => "tiny",
        }
    }
}

/// Output format of the `metrics` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable tables.
    Text,
    /// The JSON artifact (`schemas/metrics.schema.json`).
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

/// Output format of the `serve` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFormat {
    /// Human-readable tables.
    Text,
    /// The JSON artifact (`schemas/serving.schema.json`) — the default,
    /// so piping `serve` output yields a schema-valid document.
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

/// Output format of the `mesh` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshListFormat {
    /// Human-readable tables.
    Text,
    /// A JSON document with the same content.
    Json,
}

/// Errors produced while parsing a command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl Error for UsageError {}

/// The usage text printed by `help` and on parse errors.
pub(crate) const USAGE: &str = "\
meshslice — 2D tensor parallelism autotuner & cluster simulator

USAGE:
    meshslice autotune    <gpt3|megatron> <chips>
    meshslice compare     <gpt3|megatron> <chips>
    meshslice compare     <runA.json> <runB.json>
    meshslice sweep-mesh  <gpt3|megatron> <chips>
    meshslice sweep-slice <gpt3|megatron> <RxC>
    meshslice plan3d      <gpt3|megatron> <chips> <global_batch>
    meshslice memory      <gpt3|megatron> <chips>
    meshslice inference   <gpt3|megatron> <chips>
    meshslice serve       [--model gpt3|megatron|tiny] [--chips N] [--replicas R] [--qps F]
                          [--trace FILE] [--slo-p99-ms F] [--seed K] [--requests N]
                          [--fail-at SECS] [--chaos-mtbf SECS] [--repair SECS]
                          [--retries N] [--shed DEPTH]
                          [--mesh RxC] [--s N] [--max-batch N] [--screen]
                          [--format text|json|prometheus] [--out FILE]
                          [--trace-out FILE] [--trace-chrome FILE]
                          [--explain] [--explain-out FILE] [--threads N]
    meshslice faults      [--model gpt3|megatron] [--chips N] [--straggler F] [--seeds K]
                          [--threads N]
    meshslice resilience  [--model gpt3|megatron] [--chips N] [--mtbf HOURS] [--steps N]
                          [--seed K] [--threads N]
    meshslice trace       [--model gpt3|megatron] [--mesh RxC] [--out FILE] [--sort]
    meshslice metrics     [--model gpt3|megatron] [--mesh RxC] [--s N] [--windows N]
                          [--format text|json|prometheus] [--out FILE] [--tunelog FILE]
                          [--threads N]
    meshslice traffic
    meshslice mesh        <chips> [--max-rank N] [--shape AxB[xC[xD]]] [--format text|json]
    meshslice help

Sweeping subcommands (faults, resilience, metrics --tunelog) evaluate candidates on
--threads N worker threads; the MESHSLICE_THREADS environment variable is
the fallback when the flag is absent, then the machine's parallelism.
Output is bit-identical at any thread count.

compare on two .json files diffs either two training metrics artifacts or two
serving artifacts (headline scalars + per-window fleet strips); mixing the two
kinds is an error.";

fn parse_model(s: &str) -> Result<Model, UsageError> {
    match s.to_ascii_lowercase().as_str() {
        "gpt3" | "gpt-3" => Ok(Model::Gpt3),
        "megatron" | "megatron-nlg" => Ok(Model::Megatron),
        "tiny" => Ok(Model::Tiny),
        other => Err(UsageError(format!("unknown model '{other}'"))),
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, UsageError> {
    s.parse()
        .map_err(|_| UsageError(format!("invalid {what} '{s}'")))
}

fn parse_mesh(s: &str) -> Result<MeshShape, UsageError> {
    let (r, c) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| UsageError(format!("mesh shape '{s}' is not of the form RxC")))?;
    let rows = parse_usize(r, "mesh rows")?;
    let cols = parse_usize(c, "mesh cols")?;
    if rows == 0 || cols == 0 {
        return Err(UsageError(format!(
            "mesh shape '{s}' has a zero dimension; both must be positive"
        )));
    }
    Ok(MeshShape::new(rows, cols))
}

/// Parses an N-D mesh shape like `4x4x2`, surfacing the mesh crate's
/// typed validation ([`MeshError`](meshslice_mesh::MeshError)) as a
/// usage error.
fn parse_shape_nd(s: &str) -> Result<MeshShape, UsageError> {
    let sizes: Vec<usize> = s
        .split(['x', 'X'])
        .map(|part| parse_usize(part, "axis size"))
        .collect::<Result<_, _>>()?;
    MeshShape::from_sizes(&sizes).map_err(|e| UsageError(format!("invalid shape '{s}': {e}")))
}

fn parse_mesh_list(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter().map(String::as_str);
    let chips = parse_chips(
        it.next()
            .ok_or_else(|| UsageError("missing argument: chips".into()))?,
    )?;
    let mut max_rank = 3usize;
    let mut shape = None;
    let mut format = MeshListFormat::Text;
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))
        };
        match flag {
            "--max-rank" => {
                max_rank = parse_usize(value(flag)?, "max rank")?;
                if !(2..=meshslice_mesh::MAX_AXES).contains(&max_rank) {
                    return Err(UsageError(format!(
                        "max rank must be between 2 and {}",
                        meshslice_mesh::MAX_AXES
                    )));
                }
            }
            "--shape" => shape = Some(parse_shape_nd(value(flag)?)?),
            "--format" => {
                format = match value(flag)? {
                    "text" => MeshListFormat::Text,
                    "json" => MeshListFormat::Json,
                    other => return Err(UsageError(format!("unknown format '{other}'"))),
                }
            }
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    if let Some(shape) = shape {
        if shape.num_chips() != chips {
            return Err(UsageError(format!(
                "shape {shape} has {} chips, not {chips}",
                shape.num_chips()
            )));
        }
    }
    Ok(Command::Mesh {
        chips,
        max_rank,
        shape,
        format,
    })
}

fn parse_chips(s: &str) -> Result<usize, UsageError> {
    let n = parse_usize(s, "chip count")?;
    if n == 0 {
        return Err(UsageError("chip count must be positive".into()));
    }
    Ok(n)
}

/// Rejects chip counts below the two that weak scaling needs
/// ([`TrainingSetup::weak_scaling`] panics on them).
fn weak_scaling_chips(chips: usize) -> Result<usize, UsageError> {
    if chips < 2 {
        return Err(UsageError(format!(
            "weak scaling needs at least 2 chips, got {chips}"
        )));
    }
    Ok(chips)
}

/// Rejects `chips` unless one of `meshes` divides every weak-scaled FC
/// GeMM of `model` ([`Autotuner::tune`] panics when none does).
fn plannable_chips(model: Model, chips: usize, meshes: &[MeshShape]) -> Result<usize, UsageError> {
    let setup = TrainingSetup::weak_scaling(weak_scaling_chips(chips)?);
    let (config, tuner) = (model.config(), Autotuner::new(SimConfig::tpu_v4()));
    if meshes
        .iter()
        .any(|&mesh| tuner.estimate_on_mesh(&config, setup, mesh).is_some())
    {
        return Ok(chips);
    }
    Err(UsageError(format!(
        "no {chips}-chip mesh shape divides the FC GeMMs of {}",
        model.name()
    )))
}

/// [`plannable_chips`] over every mesh shape the autotuner considers.
fn tunable_chips(model: Model, chips: usize) -> Result<usize, UsageError> {
    plannable_chips(model, chips, &Autotuner::candidate_meshes(chips))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, UsageError> {
    s.parse()
        .map_err(|_| UsageError(format!("invalid {what} '{s}'")))
}

fn parse_threads(s: &str) -> Result<usize, UsageError> {
    let n = parse_usize(s, "thread count")?;
    if n == 0 {
        return Err(UsageError("thread count must be positive".into()));
    }
    Ok(n)
}

fn parse_faults(args: &[String]) -> Result<Command, UsageError> {
    let (mut model, mut chips, mut straggler, mut seeds) = (Model::Gpt3, 16, 2.0, 4);
    let mut threads = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))?;
        match flag {
            "--model" => model = parse_model(value)?,
            "--chips" => chips = parse_chips(value)?,
            "--straggler" => straggler = parse_f64(value, "straggler slowdown")?,
            "--seeds" => seeds = parse_usize(value, "seed count")?,
            "--threads" => threads = Some(parse_threads(value)?),
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    if straggler.is_nan() || straggler < 1.0 {
        return Err(UsageError(format!(
            "straggler slowdown must be >= 1, got {straggler}"
        )));
    }
    if seeds == 0 {
        return Err(UsageError("seed count must be positive".into()));
    }
    tunable_chips(model, chips)?;
    Ok(Command::Faults {
        model,
        chips,
        straggler,
        seeds,
        threads,
    })
}

fn parse_resilience(args: &[String]) -> Result<Command, UsageError> {
    let (mut model, mut chips, mut mtbf_hours) = (Model::Gpt3, 16, 24.0);
    let (mut steps, mut seed, mut threads) = (200usize, 42u64, None);
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))?;
        match flag {
            "--model" => model = parse_model(value)?,
            "--chips" => chips = parse_chips(value)?,
            "--mtbf" => mtbf_hours = parse_f64(value, "MTBF")?,
            "--steps" => steps = parse_usize(value, "step count")?,
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| UsageError(format!("invalid seed '{value}'")))?
            }
            "--threads" => threads = Some(parse_threads(value)?),
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    if mtbf_hours.is_nan() || mtbf_hours <= 0.0 || mtbf_hours.is_infinite() {
        return Err(UsageError(format!(
            "MTBF must be a positive number of hours, got {mtbf_hours}"
        )));
    }
    if steps == 0 {
        return Err(UsageError("step count must be positive".into()));
    }
    tunable_chips(model, chips)?;
    Ok(Command::Resilience {
        model,
        chips,
        mtbf_hours,
        steps,
        seed,
        threads,
    })
}

fn parse_trace(args: &[String]) -> Result<Command, UsageError> {
    let (mut model, mut mesh, mut out, mut sort) = (Model::Gpt3, MeshShape::new(4, 4), None, false);
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if flag == "--sort" {
            sort = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))?;
        match flag {
            "--model" => model = parse_model(value)?,
            "--mesh" => mesh = parse_mesh(value)?,
            "--out" => out = Some(value.to_string()),
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    weak_scaling_chips(mesh.num_chips())?;
    Ok(Command::Trace {
        model,
        mesh,
        out,
        sort,
    })
}

fn parse_metrics(args: &[String]) -> Result<Command, UsageError> {
    let mut model = Model::Gpt3;
    let mut mesh = MeshShape::new(4, 4);
    let mut s = None;
    let mut windows = 16;
    let mut format = MetricsFormat::Text;
    let mut out = None;
    let mut tunelog = None;
    let mut threads = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))?;
        match flag {
            "--model" => model = parse_model(value)?,
            "--mesh" => mesh = parse_mesh(value)?,
            "--s" => s = Some(parse_usize(value, "slice count")?),
            "--windows" => windows = parse_usize(value, "window count")?,
            "--format" => {
                format = match value {
                    "text" => MetricsFormat::Text,
                    "json" => MetricsFormat::Json,
                    "prometheus" | "prom" => MetricsFormat::Prometheus,
                    other => return Err(UsageError(format!("unknown format '{other}'"))),
                }
            }
            "--out" => out = Some(value.to_string()),
            "--tunelog" => tunelog = Some(value.to_string()),
            "--threads" => threads = Some(parse_threads(value)?),
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    if windows == 0 {
        return Err(UsageError("window count must be positive".into()));
    }
    if s == Some(0) {
        return Err(UsageError("slice count must be positive".into()));
    }
    weak_scaling_chips(mesh.num_chips())?;
    Ok(Command::Metrics {
        model,
        mesh,
        s,
        windows,
        format,
        out,
        tunelog,
        threads,
    })
}

fn parse_serve(args: &[String]) -> Result<Command, UsageError> {
    let (mut model, mut chips, mut replicas) = (Model::Gpt3, 32usize, 2usize);
    let (mut qps, mut slo_p99_ms) = (40.0f64, 500.0f64);
    let (mut trace, mut seed, mut requests) = (None, 0u64, 200usize);
    let (mut fail_at, mut mesh, mut s, mut max_batch) = (None, None, 4usize, 32usize);
    let (mut chaos_mtbf, mut repair, mut retries, mut shed) = (None, None, None, None);
    let (mut format, mut out, mut threads) = (ServeFormat::Json, None, None);
    let (mut trace_out, mut trace_chrome) = (None, None);
    let (mut explain, mut explain_out) = (false, None);
    let mut screen = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        // `--explain` and `--screen` are the boolean flags; everything
        // else takes a value.
        if flag == "--explain" {
            explain = true;
            continue;
        }
        if flag == "--screen" {
            screen = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("flag {flag} needs a value")))?;
        match flag {
            "--model" => model = parse_model(value)?,
            "--chips" => chips = parse_chips(value)?,
            "--replicas" => replicas = parse_usize(value, "replica count")?,
            "--qps" => qps = parse_f64(value, "offered load")?,
            "--trace" => trace = Some(value.to_string()),
            "--slo-p99-ms" => slo_p99_ms = parse_f64(value, "SLO target")?,
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| UsageError(format!("invalid seed '{value}'")))?
            }
            "--requests" => requests = parse_usize(value, "request count")?,
            "--fail-at" => fail_at = Some(parse_f64(value, "failure time")?),
            "--chaos-mtbf" => chaos_mtbf = Some(parse_f64(value, "chaos MTBF")?),
            "--repair" => repair = Some(parse_f64(value, "repair time")?),
            "--retries" => retries = Some(parse_usize(value, "retry budget")?),
            "--shed" => shed = Some(parse_usize(value, "shed queue depth")?),
            "--mesh" => mesh = Some(parse_mesh(value)?),
            "--s" => s = parse_usize(value, "slice count")?,
            "--max-batch" => max_batch = parse_usize(value, "batch cap")?,
            "--format" => {
                format = match value {
                    "text" => ServeFormat::Text,
                    "json" => ServeFormat::Json,
                    "prometheus" | "prom" => ServeFormat::Prometheus,
                    other => return Err(UsageError(format!("unknown format '{other}'"))),
                }
            }
            "--out" => out = Some(value.to_string()),
            "--trace-out" => trace_out = Some(value.to_string()),
            "--trace-chrome" => trace_chrome = Some(value.to_string()),
            "--explain-out" => explain_out = Some(value.to_string()),
            "--threads" => threads = Some(parse_threads(value)?),
            other => return Err(UsageError(format!("unknown flag '{other}'"))),
        }
    }
    if !(qps.is_finite() && qps > 0.0) {
        return Err(UsageError(format!(
            "offered load must be a positive number of requests/s, got {qps}"
        )));
    }
    if !(slo_p99_ms.is_finite() && slo_p99_ms > 0.0) {
        return Err(UsageError(format!(
            "SLO target must be a positive number of milliseconds, got {slo_p99_ms}"
        )));
    }
    if replicas == 0 {
        return Err(UsageError("replica count must be positive".into()));
    }
    if requests == 0 {
        return Err(UsageError("request count must be positive".into()));
    }
    if s == 0 {
        return Err(UsageError("slice count must be positive".into()));
    }
    if max_batch == 0 {
        return Err(UsageError("batch cap must be positive".into()));
    }
    if let Some(at) = fail_at {
        if !(at.is_finite() && at >= 0.0) {
            return Err(UsageError(format!(
                "failure time must be finite and non-negative, got {at}"
            )));
        }
    }
    if let Some(mtbf) = chaos_mtbf {
        if !(mtbf.is_finite() && mtbf > 0.0) {
            return Err(UsageError(format!(
                "chaos MTBF must be finite and positive, got {mtbf}"
            )));
        }
        if fail_at.is_some() {
            return Err(UsageError(
                "--fail-at and --chaos-mtbf are mutually exclusive".into(),
            ));
        }
    }
    if let Some(mean) = repair {
        if chaos_mtbf.is_none() {
            return Err(UsageError("--repair requires --chaos-mtbf".into()));
        }
        if !(mean.is_finite() && mean > 0.0) {
            return Err(UsageError(format!(
                "repair time must be finite and positive, got {mean}"
            )));
        }
    }
    if retries == Some(0) {
        return Err(UsageError("retry budget must be positive".into()));
    }
    if shed == Some(0) {
        return Err(UsageError("shed queue depth must be positive".into()));
    }
    Ok(Command::Serve {
        model,
        chips,
        replicas,
        qps,
        trace,
        slo_p99_ms,
        seed,
        requests,
        fail_at,
        chaos_mtbf,
        repair,
        retries,
        shed,
        mesh,
        s,
        max_batch,
        screen,
        format,
        out,
        trace_out,
        trace_chrome,
        explain,
        explain_out,
        threads,
    })
}

/// Rejects a `--fail-at` time strictly past the end of the arrival
/// trace: the death would never fire and the run would silently equal a
/// failure-free one. A death at exactly the last arrival still fires
/// (work is pending when the clock reaches it), so it is allowed.
///
/// # Errors
///
/// Returns a [`UsageError`] naming the horizon when `fail_at` is past
/// the last arrival.
fn check_fail_at_horizon(fail_at: Option<f64>, trace: &[Request]) -> Result<(), UsageError> {
    let (Some(at), Some(last)) = (fail_at, trace.last()) else {
        return Ok(());
    };
    if at > last.arrival_secs {
        return Err(UsageError(format!(
            "--fail-at {at} is past the end of the arrival trace (last arrival at \
             {:.3} s); the death would never fire — lower --fail-at or raise --requests",
            last.arrival_secs
        )));
    }
    Ok(())
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the problem plus the usage text.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    match args.first().map(String::as_str) {
        Some("serve") => return parse_serve(&args[1..]),
        Some("faults") => return parse_faults(&args[1..]),
        Some("resilience") => return parse_resilience(&args[1..]),
        Some("trace") => return parse_trace(&args[1..]),
        Some("metrics") => return parse_metrics(&args[1..]),
        Some("mesh") => return parse_mesh_list(&args[1..]),
        _ => {}
    }
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("help");
    let mut need = |what: &str| -> Result<&str, UsageError> {
        it.next()
            .ok_or_else(|| UsageError(format!("missing argument: {what}")))
    };
    match cmd {
        "autotune" => {
            let model = parse_model(need("model")?)?;
            let chips = tunable_chips(model, parse_chips(need("chips")?)?)?;
            Ok(Command::Autotune { model, chips })
        }
        // `compare` is overloaded: two model/chips positionals simulate
        // the algorithm comparison; two non-model arguments are treated
        // as metric-artifact paths and diffed.
        "compare" => {
            let first = need("model or run file")?;
            let second = need("chips or run file")?;
            match parse_model(first) {
                Ok(model) => Ok(Command::Compare {
                    model,
                    chips: tunable_chips(model, parse_chips(second)?)?,
                }),
                Err(_) => Ok(Command::CompareRuns {
                    a: first.to_string(),
                    b: second.to_string(),
                }),
            }
        }
        "sweep-mesh" => Ok(Command::SweepMesh {
            model: parse_model(need("model")?)?,
            chips: weak_scaling_chips(parse_chips(need("chips")?)?)?,
        }),
        "sweep-slice" => {
            let model = parse_model(need("model")?)?;
            let mesh = parse_mesh(need("mesh shape")?)?;
            plannable_chips(model, mesh.num_chips(), &[mesh])?;
            Ok(Command::SweepSlice { model, mesh })
        }
        "plan3d" => {
            let model = parse_model(need("model")?)?;
            let chips = parse_chips(need("chips")?)?;
            let batch = parse_usize(need("global batch")?, "batch size")?;
            if batch == 0 {
                return Err(UsageError("global batch must be positive".into()));
            }
            Ok(Command::Plan3d {
                model,
                chips,
                batch,
            })
        }
        "memory" => {
            let model = parse_model(need("model")?)?;
            let chips = tunable_chips(model, parse_chips(need("chips")?)?)?;
            Ok(Command::Memory { model, chips })
        }
        "inference" => Ok(Command::Inference {
            model: parse_model(need("model")?)?,
            chips: parse_chips(need("chips")?)?,
        }),
        "traffic" => Ok(Command::Traffic),
        "help" | "-h" | "--help" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command '{other}'"))),
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
///
/// # Errors
///
/// Returns a human-readable message — never panics — when the command
/// cannot run to completion: an artifact fails to load or write, or the
/// requested model has no legal schedule on the requested mesh. `main`
/// maps the error to a nonzero exit code.
pub fn execute(cmd: Command) -> Result<(), String> {
    let cfg = SimConfig::tpu_v4();
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::Autotune { model, chips } => {
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let tuner = Autotuner::new(cfg.clone());
            let plan = tuner.tune(&model, setup, chips);
            println!("{model} on {chips} chips -> mesh {}", plan.mesh_shape);
            let mut t = Table::new(vec![
                "layer".into(),
                "pass".into(),
                "dataflow".into(),
                "S".into(),
            ]);
            for layer in &plan.layers {
                for pass in &layer.passes {
                    t.row(vec![
                        layer.layer.name.into(),
                        pass.pass.to_string(),
                        pass.problem.dataflow.to_string(),
                        pass.slice_count.to_string(),
                    ]);
                }
            }
            println!("{t}");
            println!(
                "estimated FC block time {:.3} ms",
                plan.estimated_block_time.as_secs() * 1e3
            );
        }
        Command::Compare { model, chips } => {
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let mut t = Table::new(vec![
                "algorithm".into(),
                "mesh".into(),
                "FC util".into(),
                "step".into(),
            ]);
            for algo in Algorithm::ALL {
                match simulate_fc_step(&model, setup, chips, algo, &cfg) {
                    Some(r) => {
                        let e2e = end_to_end(&model, setup, chips, &r, &cfg);
                        t.row(vec![
                            algo.name().into(),
                            r.mesh_shape.to_string(),
                            pct(r.utilization()),
                            format!("{:.1} ms", e2e.step.as_secs() * 1e3),
                        ]);
                    }
                    None => t.row(vec![algo.name().into(), "-".into(), "-".into(), "-".into()]),
                }
            }
            println!("{t}");
        }
        Command::SweepMesh { model, chips } => {
            let model = model.config();
            let mut t = Table::new(vec!["mesh".into(), "estimated".into(), "simulated".into()]);
            for p in mesh_shape_sweep(&model, chips, &cfg) {
                t.row(vec![
                    p.mesh.to_string(),
                    pct_opt(p.estimated),
                    pct_opt(p.simulated),
                ]);
            }
            println!("{t}");
        }
        Command::SweepSlice { model, mesh } => {
            let model = model.config();
            let mut t = Table::new(vec!["S".into(), "estimated".into(), "simulated".into()]);
            for p in slice_count_sweep(&model, mesh, &[1, 2, 4, 8, 16, 32, 64], &cfg) {
                t.row(vec![
                    p.requested_s.to_string(),
                    pct(p.estimated),
                    pct(p.simulated),
                ]);
            }
            println!("{t}");
        }
        Command::Plan3d {
            model,
            chips,
            batch,
        } => {
            let model = model.config();
            let plans = plan_cluster(
                &model,
                chips,
                batch,
                2048,
                256,
                &cfg,
                &PlanOptions::default(),
            );
            if plans.is_empty() {
                println!("no feasible DP x PP x TP composition for {chips} chips");
            }
            for p in plans.iter().take(10) {
                println!("{p}");
            }
        }
        Command::Memory { model, chips } => {
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let tuner = Autotuner::new(cfg.clone());
            let plan = tuner.tune(&model, setup, chips);
            let f = meshslice::memory::training_footprint(&model, setup, plan.mesh_shape, 8);
            let gib = |b: u64| format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64);
            let mut t = Table::new(vec!["state".into(), "per chip".into()]);
            t.row(vec!["weights (bf16)".into(), gib(f.weights)]);
            t.row(vec!["weight grads (bf16)".into(), gib(f.weight_grads)]);
            t.row(vec!["optimizer (fp32 x3)".into(), gib(f.optimizer)]);
            t.row(vec!["activations (ckpt)".into(), gib(f.activations)]);
            t.row(vec!["MeshSlice workspace".into(), gib(f.workspace)]);
            t.row(vec!["total".into(), gib(f.total())]);
            println!("{model} on {chips} chips (mesh {}):", plan.mesh_shape);
            println!("{t}");
            println!(
                "fits a 32 GiB TPUv4 HBM: {}",
                if f.total() <= 32 << 30 { "yes" } else { "NO" }
            );
        }
        Command::Inference { model, chips } => {
            let model = model.config();
            let prompt_len = meshslice::experiments::DEFAULT_PROMPT_LEN;
            let rows = meshslice::experiments::inference_study(
                &model,
                chips,
                &[32, 128, 512],
                prompt_len,
                &cfg,
            );
            let fmt = |lat: &Option<f64>| {
                lat.map(|x| format!("{:.1} us", x * 1e6))
                    .unwrap_or_else(|| "-".into())
            };
            let mut t = Table::new(vec![
                "batch".into(),
                "phase".into(),
                "MeshSlice".into(),
                "Collective".into(),
                "Wang".into(),
            ]);
            for r in &rows {
                let mut prefill = vec![r.batch.to_string(), "prefill".into()];
                prefill.extend(r.prefill_latency.iter().map(|(_, lat)| fmt(lat)));
                t.row(prefill);
                let mut decode = vec![r.batch.to_string(), "decode".into()];
                decode.extend(r.block_latency.iter().map(|(_, lat)| fmt(lat)));
                t.row(decode);
            }
            println!(
                "per-block latency, {model} on {chips} chips \
                 (prefill at {prompt_len} prompt tokens; decode per step):"
            );
            println!("{t}");
        }
        Command::Serve {
            model,
            chips,
            replicas,
            qps,
            trace,
            slo_p99_ms,
            seed,
            requests,
            fail_at,
            chaos_mtbf,
            repair,
            retries,
            shed,
            mesh,
            s,
            max_batch,
            screen,
            format,
            out,
            trace_out,
            trace_chrome,
            explain,
            explain_out,
            threads,
        } => {
            if let Some(n) = threads {
                meshslice::par::set_threads(n);
            }
            let workers = meshslice::par::threads();
            let config = model.config();
            let arrivals = match &trace {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    let mut multipliers = Vec::new();
                    for (lineno, line) in text.lines().enumerate() {
                        let line = line.trim();
                        if line.is_empty() || line.starts_with('#') {
                            continue;
                        }
                        let m: f64 = line.parse().map_err(|_| {
                            format!("{path}:{}: invalid rate multiplier '{line}'", lineno + 1)
                        })?;
                        multipliers.push(m);
                    }
                    ArrivalSpec::replay(qps, multipliers, DEFAULT_SEGMENT_SECS)
                }
                None => ArrivalSpec::poisson(qps),
            };
            arrivals.validate().map_err(|e| match &trace {
                Some(path) => format!("{path}: {e}"),
                None => e,
            })?;
            // `--mesh` pins the layout; otherwise the serving tuner picks
            // mesh shape x slice count x batch policy for the pinned
            // replica count on a short evaluation trace.
            let (mesh, s, max_batch, tuned) = match mesh {
                Some(m) => (m, s, max_batch, false),
                None => {
                    let tuner = Autotuner::new(cfg.clone());
                    let tune_requests = requests.min(64);
                    // `--screen` eliminates most of the grid on a prefix
                    // trace; the default fast path fully evaluates it
                    // (bit-identical to the exhaustive reference).
                    let mode = if screen {
                        TuneMode::Screened(ScreenPolicy::auto(tune_requests))
                    } else {
                        TuneMode::Fast
                    };
                    let plan = tuner.tune_serving_mode(
                        &config,
                        chips,
                        Some(replicas),
                        &arrivals,
                        slo_p99_ms,
                        tune_requests,
                        seed,
                        mode,
                        workers,
                    )?;
                    let best = plan.best();
                    if screen {
                        eprintln!(
                            "screening: {} candidates fully evaluated, {} screened out",
                            plan.candidates.len(),
                            plan.screened_out
                        );
                    }
                    (best.mesh, best.slice_count, best.max_batch, true)
                }
            };
            // Pre-draw the arrival trace: the chaos horizon and the
            // `--fail-at` range check both need to know when it ends.
            // Sharing the draw with the simulation is neutral — the
            // fleet would draw the identical trace itself.
            let arrival_trace: Arc<[Request]> = Arc::from(arrivals.generate(requests, seed));
            check_fail_at_horizon(fail_at, &arrival_trace).map_err(|e| e.to_string())?;
            let horizon = arrival_trace.last().map_or(0.0, |r| r.arrival_secs);
            let slo_secs = slo_p99_ms / 1e3;
            let spec = ServingSpec {
                model: config.clone(),
                mesh,
                slice_count: s,
                replicas,
                max_batch,
                arrivals,
                num_requests: requests,
                seed,
                slo_p99_ttft_ms: slo_p99_ms,
                failure: fail_at.map(|at_secs| ChipDeath {
                    replica: 0,
                    at_secs,
                }),
                chaos: chaos_mtbf.map(|mtbf| {
                    let mut chaos = ChaosSpec::new(FailureSpec::chip_mtbf(mtbf, horizon), seed);
                    if let Some(mean) = repair {
                        chaos = chaos.with_repair(RepairModel::exponential(mean));
                    }
                    chaos
                }),
                router: retries.map(|max_retries| RouterPolicy {
                    max_retries,
                    ..RouterPolicy::for_slo(slo_secs)
                }),
                shed: shed.map(|depth| {
                    ShedPolicy::for_queue_depth(depth).with_degraded_cap((max_batch / 2).max(1))
                }),
                shared_costs: None,
                shared_trace: Some(arrival_trace),
            };
            // Any trace/explain flag turns on event recording; the
            // report is bit-identical either way (tracing is
            // observation-only by construction — a property test in
            // `tests/serving_properties.rs` holds the line).
            let tracing =
                trace_out.is_some() || trace_chrome.is_some() || explain || explain_out.is_some();
            let (report, recorded) = if tracing {
                let (report, trace) = simulate_fleet_traced(&spec, &cfg, workers)?;
                (report, Some(trace))
            } else {
                (simulate_fleet_threads(&spec, &cfg, workers)?, None)
            };
            let json = report.to_json();
            match format {
                ServeFormat::Json => println!("{}", json.to_string_pretty()),
                ServeFormat::Prometheus => print!("{}", report.to_prometheus()),
                ServeFormat::Text => {
                    println!(
                        "{config} fleet: {replicas} x {mesh} mesh, S = {s}, batch <= {max_batch}{}",
                        if tuned { " (tuned)" } else { "" }
                    );
                    println!(
                        "offered {} req @ {qps:.1} req/s (seed {seed}): {} completed, \
                         {} rejected, {} preemptions, {} failovers",
                        report.offered,
                        report.completed,
                        report.rejected,
                        report.preemptions,
                        report.failovers
                    );
                    if report.shed + report.timed_out + report.retries > 0 {
                        println!(
                            "resilience: {} shed, {} timed out, {} retried \
                             ({} redistributed), {:.1} s degraded-cap",
                            report.shed,
                            report.timed_out,
                            report.retries,
                            report.redistributed,
                            report.degraded_secs
                        );
                    }
                    let mut t = Table::new(vec![
                        "metric".into(),
                        "p50".into(),
                        "p95".into(),
                        "p99".into(),
                        "mean".into(),
                    ]);
                    for (name, l) in [("TTFT", &report.ttft), ("TPOT", &report.tpot)] {
                        t.row(vec![
                            name.into(),
                            format!("{:.1} ms", l.p50 * 1e3),
                            format!("{:.1} ms", l.p95 * 1e3),
                            format!("{:.1} ms", l.p99 * 1e3),
                            format!("{:.1} ms", l.mean * 1e3),
                        ]);
                    }
                    println!("{t}");
                    println!(
                        "goodput {:.1} tokens/chip/s over {:.1} s ({} tokens, {} chips)",
                        report.goodput_tokens_per_chip_s,
                        report.makespan_secs,
                        report.generated_tokens,
                        report.total_chips()
                    );
                    println!(
                        "SLO p99 TTFT <= {slo_p99_ms:.0} ms: {} (attainment {})",
                        if report.slo_attained { "MET" } else { "MISSED" },
                        pct(report.slo_attainment)
                    );
                    println!(
                        "KV peak {:.2} GiB of {:.2} GiB budget per chip",
                        report.kv_peak_bytes as f64 / (1u64 << 30) as f64,
                        report.kv_budget_bytes as f64 / (1u64 << 30) as f64
                    );
                }
            }
            if let Some(path) = out {
                std::fs::write(&path, json.to_string_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("serving artifact -> {path}");
            }
            if let Some(trace) = recorded {
                if let Some(path) = trace_out {
                    std::fs::write(&path, trace.to_jsonl())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("serving trace -> {path} ({} events)", trace.len());
                }
                if let Some(path) = trace_chrome {
                    std::fs::write(&path, trace.to_chrome_trace())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("chrome trace -> {path}");
                }
                if explain || explain_out.is_some() {
                    let blame = trace.blame();
                    if explain {
                        print!("{}", blame.render_text());
                    }
                    if let Some(path) = explain_out {
                        std::fs::write(&path, blame.to_json().to_string_pretty())
                            .map_err(|e| format!("cannot write {path}: {e}"))?;
                        eprintln!("blame report -> {path}");
                    }
                }
            }
        }
        Command::Faults {
            model,
            chips,
            straggler,
            seeds,
            threads,
        } => {
            if let Some(n) = threads {
                meshslice::par::set_threads(n);
            }
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let tuner = Autotuner::new(cfg.clone());
            let mesh = tuner.tune(&model, setup, chips).mesh_shape;
            // A severity ladder around the requested slowdown, so the
            // table shows where the simulated-optimal S starts to shift.
            let mut severities = vec![
                1.0,
                1.0 + (straggler - 1.0) / 2.0,
                straggler,
                1.0 + 2.0 * (straggler - 1.0),
            ];
            severities.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            let s_values = [1usize, 2, 4, 8];
            let grid = straggler_sensitivity(&model, mesh, &s_values, &severities, seeds, 42, &cfg);
            println!(
                "{model} on {chips} chips (mesh {mesh}), one straggler chip, {seeds} seeded draws:"
            );
            let mut header = vec!["slowdown".to_string()];
            header.extend(s_values.iter().map(|s| format!("S={s}")));
            let mut t = Table::new(header);
            for row in grid.chunks(s_values.len()) {
                let best = row
                    .iter()
                    .min_by(|a, b| a.p95.as_secs().total_cmp(&b.p95.as_secs()))
                    .map(|p| p.requested_s);
                let mut cells = vec![format!("{:.2}x", row[0].severity)];
                cells.extend(row.iter().map(|p| {
                    let mark = if Some(p.requested_s) == best { "*" } else { "" };
                    format!("{:.3} ms{mark}", p.p95.as_secs() * 1e3)
                }));
                t.row(cells);
            }
            println!("{t}");
            println!("p95 FC-block makespan; '*' marks the best slice count per row.");
        }
        Command::Resilience {
            model,
            chips,
            mtbf_hours,
            steps,
            seed,
            threads,
        } => {
            if let Some(n) = threads {
                meshslice::par::set_threads(n);
            }
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let tuner = Autotuner::new(cfg.clone());
            let s_values = [1usize, 2, 4, 8];
            // Parsing rejects non-positive MTBFs and the horizon is at
            // least 1 s, so every spec below is valid.
            let tune = |spec: &FailureSpec| {
                let workers = meshslice::par::threads();
                tune_resilient(&tuner, &model, setup, chips, &s_values, spec, workers)
                    .expect("the CLI builds only valid failure specs")
            };
            // The failure-free plan prices the modeled run length (the
            // horizon failures are drawn over): `steps` nominal steps.
            let calm = tune(&FailureSpec::none());
            let step0 = calm.best().nominal_block.as_secs() * model.layers as f64;
            let horizon = (steps as f64 * step0).max(1.0);
            println!(
                "{model} on {chips} chips, {steps}-step run ({:.1} s nominal), seed {seed}:",
                steps as f64 * step0
            );
            let mut t = Table::new(vec![
                "chip MTBF".into(),
                "mesh".into(),
                "S".into(),
                "checkpoint".into(),
                "expected".into(),
                "simulated".into(),
                "failures".into(),
            ]);
            // An MTBF ladder around the requested value, so the table
            // shows goodput falling as failures get more frequent.
            for factor in [4.0, 2.0, 1.0, 0.5, 0.25] {
                let hours = mtbf_hours * factor;
                let spec = FailureSpec::chip_mtbf(hours * 3600.0, horizon);
                let plan = tune(&spec);
                let best = plan.best();
                let step_secs = best.nominal_block.as_secs() * model.layers as f64;
                let ckpt_every = if best.checkpoint_interval_secs.is_finite() && step_secs > 0.0 {
                    (best.checkpoint_interval_secs / step_secs).round().max(1.0) as usize
                } else {
                    0
                };
                let params = RecoveryParams {
                    step_secs,
                    degraded_step_secs: (best.degraded_block.as_secs() * model.layers as f64)
                        .max(step_secs),
                    num_steps: steps,
                    checkpoint_every: ckpt_every,
                    checkpoint_secs: best.checkpoint_secs,
                    restore_secs: best.checkpoint_secs,
                    detect_secs: DEFAULT_DETECT_SECS,
                };
                let draw = spec.sample(best.mesh_shape.num_chips(), seed);
                let r = simulate_recovery(&params, &draw);
                t.row(vec![
                    format!("{hours:.2} h"),
                    best.mesh_shape.to_string(),
                    best.requested_s.to_string(),
                    if ckpt_every == 0 {
                        "never".into()
                    } else {
                        format!("every {ckpt_every}")
                    },
                    pct(best.expected_goodput),
                    pct(r.goodput()),
                    r.failures_hit.to_string(),
                ]);
            }
            println!("{t}");
            println!(
                "expected: Young–Daly goodput model; simulated: one seeded failure draw \
                 replayed through checkpoint/restart on the tuned plan."
            );
        }
        Command::Trace {
            model,
            mesh,
            out,
            sort,
        } => {
            let model = model.config();
            let torus = Torus2d::from_shape(mesh);
            let problem = fc1_problem(&model, mesh);
            let mut scheduled = None;
            for s in [8usize, 4, 2, 1] {
                if let Some(p) = schedule_fc1_at(&torus, problem, s, cfg.elem_bytes) {
                    scheduled = Some((p, s));
                    break;
                }
            }
            let Some((program, s_used)) = scheduled else {
                return Err(format!(
                    "no legal MeshSlice schedule for {model} FC1 on mesh {mesh}"
                ));
            };
            let (report, spans, _) = run_recorded(&Engine::new(torus, cfg.clone()), &program);
            let json = if sort {
                chrome_trace_json_sorted(&program, &spans)
            } else {
                chrome_trace_json(&program, &spans)
            };
            match out {
                Some(path) => {
                    std::fs::write(&path, &json)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!(
                        "{model} FC1 on mesh {mesh}, S = {s_used}: {} spans, makespan {:.3} ms -> {path}",
                        spans.len(),
                        report.makespan().as_secs() * 1e3
                    );
                }
                None => println!("{json}"),
            }
        }
        Command::Metrics {
            model,
            mesh,
            s,
            windows,
            format,
            out,
            tunelog,
            threads,
        } => {
            if let Some(n) = threads {
                meshslice::par::set_threads(n);
            }
            let config = model.config();
            let problem = fc1_problem(&config, mesh);
            let tuner = Autotuner::new(cfg.clone());
            let (best_s, _) = tuner.best_slice_count(mesh, problem, cfg.elem_bytes);
            let s_used = s.unwrap_or(best_s);
            let Some(m) = fc1_metrics(model, mesh, s_used, windows, &cfg) else {
                return Err(format!(
                    "no legal MeshSlice schedule for {config} FC1 at S = {s_used} on mesh {mesh}"
                ));
            };
            match format {
                MetricsFormat::Json => println!("{}", m.to_json().to_string_pretty()),
                MetricsFormat::Prometheus => print!("{}", m.to_prometheus()),
                MetricsFormat::Text => {
                    println!(
                        "{config} FC1 on mesh {mesh}, S = {s_used} (analytical best {best_s})"
                    );
                    println!(
                        "makespan {:.3} ms | flop util {} | overlap {}",
                        m.makespan * 1e3,
                        pct(m.flop_utilization),
                        pct(m.overlap_efficiency)
                    );
                    let mut svals = tuner.legal_slice_counts(mesh, problem);
                    if !svals.contains(&1) {
                        svals.insert(0, 1);
                    }
                    let mut t = Table::new(vec![
                        "S".into(),
                        "makespan".into(),
                        "overlap".into(),
                        "FC util".into(),
                    ]);
                    for cand in svals {
                        if let Some(cm) = fc1_metrics(model, mesh, cand, 1, &cfg) {
                            let mark = if cand == best_s { "*" } else { "" };
                            t.row(vec![
                                format!("{cand}{mark}"),
                                format!("{:.3} ms", cm.makespan * 1e3),
                                pct(cm.overlap_efficiency),
                                pct(cm.flop_utilization),
                            ]);
                        }
                    }
                    println!("\noverlap vs slice count ('*' = analytical best):");
                    println!("{t}");
                    let mut t = Table::new(vec![
                        "kind".into(),
                        "cluster busy".into(),
                        "critical path".into(),
                    ]);
                    for (i, label) in BUCKET_LABELS.iter().enumerate() {
                        t.row(vec![
                            label.to_string(),
                            format!("{:.3} ms", m.buckets[i] * 1e3),
                            format!("{:.3} ms", m.critical_path.get(PathKind::ALL[i]) * 1e3),
                        ]);
                    }
                    println!("busy time & critical-path attribution:");
                    println!("{t}");
                    println!(
                        "critical path total {:.3} ms (makespan {:.3} ms)",
                        m.critical_path.total() * 1e3,
                        m.makespan * 1e3
                    );
                    println!("\ntop hotspots (critical-path time per chip & kind):");
                    for h in m.hotspots.iter().take(5) {
                        println!(
                            "  chip {:>3} {:<13} {:.3} ms",
                            h.chip,
                            h.kind.label(),
                            h.seconds * 1e3
                        );
                    }
                    println!(
                        "op slack min/mean/max: {:.3} / {:.3} / {:.3} ms",
                        m.slack.0 * 1e3,
                        m.slack.1 * 1e3,
                        m.slack.2 * 1e3
                    );
                }
            }
            if let Some(path) = out {
                std::fs::write(&path, m.to_json().to_string_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("metrics artifact -> {path}");
            }
            if let Some(path) = tunelog {
                let setup = TrainingSetup::weak_scaling(mesh.num_chips());
                let workers = meshslice::par::threads();
                let (_, log) = tuner
                    .tune_on_mesh_logged(&config, setup, mesh, workers)
                    .ok_or_else(|| {
                        format!("cannot tune: a pass does not divide over mesh {mesh}")
                    })?;
                println!("\n{log}");
                std::fs::write(&path, log.to_json().to_string_pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("tune log -> {path}");
            }
        }
        Command::CompareRuns { a, b } => {
            let ja = load_json(&a).map_err(|e| format!("cannot load {a}: {e}"))?;
            let jb = load_json(&b).map_err(|e| format!("cannot load {b}: {e}"))?;
            match (is_serving_artifact(&ja), is_serving_artifact(&jb)) {
                (true, true) => print!("{}", FleetDiff::new(&ja, &jb)?),
                (false, false) => {
                    let ma = RunMetrics::from_json(&ja).map_err(|e| format!("{a}: {e}"))?;
                    let mb = RunMetrics::from_json(&jb).map_err(|e| format!("{b}: {e}"))?;
                    print!("{}", RunDiff::new(ma, mb));
                }
                (sa, _) => {
                    let (serving, training) = if sa { (&a, &b) } else { (&b, &a) };
                    return Err(format!(
                        "cannot compare a serving artifact ({serving}) against a training \
                         metrics artifact ({training}); diff two of the same kind"
                    ));
                }
            }
        }
        Command::Traffic => {
            let mut t = Table::new(vec!["method".into(), "torus".into(), "traffic/chip".into()]);
            for r in traffic_25d_example(cfg.elem_bytes) {
                t.row(vec![
                    r.method,
                    r.torus,
                    format!("{:.0} MB", r.per_chip_bytes as f64 / 1e6),
                ]);
            }
            println!("{t}");
        }
        Command::Mesh {
            chips,
            max_rank,
            shape,
            format,
        } => match shape {
            None => {
                let shapes = Autotuner::candidate_meshes_nd(chips, max_rank);
                match format {
                    MeshListFormat::Text => {
                        println!("{chips} chips, factorizations up to rank {max_rank}:");
                        let mut t = Table::new(vec![
                            "shape".into(),
                            "rank".into(),
                            "axes".into(),
                            "2D planes".into(),
                        ]);
                        for s in &shapes {
                            t.row(vec![
                                s.to_string(),
                                s.rank().to_string(),
                                s.axes()
                                    .iter()
                                    .map(|a| format!("{}={}", a.name(), a.size()))
                                    .collect::<Vec<_>>()
                                    .join(","),
                                MeshView::full(*s).planes().len().to_string(),
                            ]);
                        }
                        println!("{t}");
                    }
                    MeshListFormat::Json => {
                        let arr = shapes
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("shape", Json::Str(s.to_string())),
                                    ("rank", Json::Num(s.rank() as f64)),
                                    (
                                        "axes",
                                        Json::Arr(
                                            s.axes()
                                                .iter()
                                                .map(|a| {
                                                    Json::obj(vec![
                                                        ("name", Json::Str(a.name().to_string())),
                                                        ("size", Json::Num(a.size() as f64)),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "planes",
                                        Json::Num(MeshView::full(*s).planes().len() as f64),
                                    ),
                                ])
                            })
                            .collect();
                        let doc = Json::obj(vec![
                            ("chips", Json::Num(chips as f64)),
                            ("max_rank", Json::Num(max_rank as f64)),
                            ("factorizations", Json::Arr(arr)),
                        ]);
                        println!("{}", doc.to_string_pretty());
                    }
                }
            }
            Some(shape) => {
                let planes = MeshView::full(shape).planes();
                match format {
                    MeshListFormat::Text => {
                        println!("shape {shape}: {} 2D plane views", planes.len());
                        let mut t =
                            Table::new(vec!["plane".into(), "logical".into(), "chips".into()]);
                        for p in &planes {
                            let chips = p.view.chips();
                            let preview = if chips.len() <= 8 {
                                chips
                                    .iter()
                                    .map(|c| c.0.to_string())
                                    .collect::<Vec<_>>()
                                    .join(",")
                            } else {
                                format!("{} chips from {}", chips.len(), chips[0].0)
                            };
                            t.row(vec![
                                p.to_string(),
                                format!(
                                    "{}x{}",
                                    p.view.axis_len(p.row_axis).unwrap_or(0),
                                    p.view.axis_len(p.col_axis).unwrap_or(0)
                                ),
                                preview,
                            ]);
                        }
                        println!("{t}");
                    }
                    MeshListFormat::Json => {
                        let arr = planes
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("plane", Json::Str(p.to_string())),
                                    ("row_axis", Json::Str(p.row_axis.to_string())),
                                    ("col_axis", Json::Str(p.col_axis.to_string())),
                                    (
                                        "fixed",
                                        Json::Arr(
                                            p.fixed
                                                .iter()
                                                .map(|(name, i)| {
                                                    Json::obj(vec![
                                                        ("axis", Json::Str(name.to_string())),
                                                        ("index", Json::Num(*i as f64)),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "chips",
                                        Json::Arr(
                                            p.view
                                                .chips()
                                                .iter()
                                                .map(|c| Json::Num(c.0 as f64))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect();
                        let doc = Json::obj(vec![
                            ("shape", Json::Str(shape.to_string())),
                            ("planes", Json::Arr(arr)),
                        ]);
                        println!("{}", doc.to_string_pretty());
                    }
                }
            }
        },
    }
    Ok(())
}

/// The FC1 forward GeMM of `model` under weak scaling on `mesh` — the
/// problem the observability commands (`trace`, `metrics`) instrument.
fn fc1_problem(model: &LlmConfig, mesh: MeshShape) -> GemmProblem {
    let setup = TrainingSetup::weak_scaling(mesh.num_chips());
    GemmProblem::new(
        GemmShape::new(setup.tokens(), model.ffn_mult * model.hidden, model.hidden),
        Dataflow::Os,
    )
}

/// Schedules `problem` at slice count `s`, preferring the sliced block
/// size and falling back to `block = 1`.
fn schedule_fc1_at(
    torus: &Torus2d,
    problem: GemmProblem,
    s: usize,
    elem_bytes: usize,
) -> Option<Program> {
    [8usize, 1].iter().find_map(|&block| {
        MeshSlice::new(s, block)
            .schedule(torus, problem, elem_bytes)
            .ok()
    })
}

/// Instruments one FC1 forward GeMM of `model` on `mesh` at slice count
/// `s` and collects the metric artifact, labeled with model, mesh, and
/// slice count. Returns `None` when no MeshSlice schedule is legal.
pub fn fc1_metrics(
    model: Model,
    mesh: MeshShape,
    s: usize,
    windows: usize,
    cfg: &SimConfig,
) -> Option<RunMetrics> {
    let config = model.config();
    let torus = Torus2d::from_shape(mesh);
    let problem = fc1_problem(&config, mesh);
    let program = schedule_fc1_at(&torus, problem, s, cfg.elem_bytes)?;
    let (report, spans, timeline) = run_recorded(&Engine::new(torus, cfg.clone()), &program);
    Some(
        RunMetrics::collect(&report, &spans, &timeline, program.len(), windows)
            .with_meta("model", model.name())
            .with_meta("mesh", &mesh.to_string())
            .with_meta("slice_count", &s.to_string()),
    )
}

/// Runs `program` once on `engine`, recording its lane spans and realized
/// timeline — the one engine path behind `trace` and `metrics`.
fn run_recorded(engine: &Engine, program: &Program) -> (SimReport, Vec<NodeSpan>, RunTimeline) {
    let lowered = engine.lower_program(program);
    let mut recorders = (SpanRecorder::new(&lowered), TimelineRecorder::new(&lowered));
    let report = engine
        .run_observed(&lowered, &mut RunScratch::new(), None, &mut recorders)
        .into_completed()
        .expect("no failure was injected");
    (
        report,
        recorders.0.into_spans(),
        recorders.1.into_timeline(),
    )
}

/// Reads a metric artifact written by `metrics --out`.
fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

#[cfg(test)]
fn load_metrics(path: &str) -> Result<RunMetrics, String> {
    RunMetrics::from_json(&load_json(path)?)
}

/// Renders engine spans as Chrome trace-event JSON (the `chrome://tracing`
/// / Perfetto format): one process per chip, one thread per execution lane
/// (compute, the four link directions, host), and one complete (`"X"`)
/// event per busy interval, labeled with the program op it belongs to.
pub fn chrome_trace_json(program: &Program, spans: &[NodeSpan]) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let label = |span: &NodeSpan| -> String {
        let idx = span.op.index();
        if idx >= program.len() {
            return span.kind.name().to_string();
        }
        match &program.ops()[idx].kind {
            OpKind::Gemm { shape } => format!("gemm {shape:?}"),
            OpKind::SliceCopy { bytes } => format!("slice {bytes} B"),
            OpKind::Collective { kind, axis, .. } => format!("{kind:?} {axis}"),
            OpKind::SendRecv { dir, .. } => format!("sendrecv {dir:?}"),
            OpKind::PipelinedBcast { axis, .. } => format!("bcast {axis}"),
        }
    };
    let mut events = Vec::new();
    let mut lanes: Vec<(usize, usize, &'static str)> = spans
        .iter()
        .map(|s| (s.chip.index(), s.track.lane(), s.track.name()))
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut last_chip = usize::MAX;
    for (chip, lane, name) in lanes {
        if chip != last_chip {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{chip},\"args\":{{\"name\":\"chip {chip}\"}}}}"
            ));
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":{chip},\"args\":{{\"sort_index\":{chip}}}}}"
            ));
            last_chip = chip;
        }
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{chip},\"tid\":{lane},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{chip},\"tid\":{lane},\"args\":{{\"sort_index\":{lane}}}}}"
        ));
    }
    for span in spans {
        let ts = span.start.as_secs() * 1e6;
        let dur = (span.end.as_secs() - span.start.as_secs()) * 1e6;
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{ts},\"dur\":{dur}}}",
            escape(&label(span)),
            span.kind.name(),
            span.chip.index(),
            span.track.lane(),
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Like [`chrome_trace_json`], but with duration events in canonical
/// `(chip, lane, start, end, op)` order rather than engine completion
/// order, so two runs of the same schedule serialize byte-identically.
pub fn chrome_trace_json_sorted(program: &Program, spans: &[NodeSpan]) -> String {
    let mut sorted = spans.to_vec();
    sorted.sort_by(|a, b| {
        (a.chip.index(), a.track.lane())
            .cmp(&(b.chip.index(), b.track.lane()))
            .then(a.start.as_secs().total_cmp(&b.start.as_secs()))
            .then(a.end.as_secs().total_cmp(&b.end.as_secs()))
            .then(a.op.index().cmp(&b.op.index()))
    });
    chrome_trace_json(program, &sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand the CLI dispatches on, in the order `USAGE` lists
    /// them. The help-coverage test asserts each one is both parseable and
    /// documented, so this list cannot drift from `parse`.
    const SUBCOMMANDS: [&str; 15] = [
        "autotune",
        "compare",
        "sweep-mesh",
        "sweep-slice",
        "plan3d",
        "memory",
        "inference",
        "serve",
        "faults",
        "resilience",
        "trace",
        "metrics",
        "traffic",
        "mesh",
        "help",
    ];

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_all_commands() {
        assert_eq!(
            parse(&args("autotune gpt3 256")).unwrap(),
            Command::Autotune {
                model: Model::Gpt3,
                chips: 256
            }
        );
        assert_eq!(
            parse(&args("compare megatron 64")).unwrap(),
            Command::Compare {
                model: Model::Megatron,
                chips: 64
            }
        );
        assert_eq!(
            parse(&args("sweep-slice gpt3 32x8")).unwrap(),
            Command::SweepSlice {
                model: Model::Gpt3,
                mesh: MeshShape::new(32, 8)
            }
        );
        assert_eq!(
            parse(&args("plan3d gpt3 512 256")).unwrap(),
            Command::Plan3d {
                model: Model::Gpt3,
                chips: 512,
                batch: 256
            }
        );
        assert_eq!(parse(&args("traffic")).unwrap(), Command::Traffic);
        assert_eq!(
            parse(&args("memory gpt3 256")).unwrap(),
            Command::Memory {
                model: Model::Gpt3,
                chips: 256
            }
        );
        assert_eq!(
            parse(&args("inference megatron 64")).unwrap(),
            Command::Inference {
                model: Model::Megatron,
                chips: 64
            }
        );
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_bad_input_with_usage() {
        let err = parse(&args("autotune gpt5 16")).unwrap_err();
        assert!(err.to_string().contains("unknown model"));
        assert!(err.to_string().contains("USAGE"));
        assert!(parse(&args("autotune gpt3")).is_err());
        assert!(parse(&args("sweep-slice gpt3 328")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
    }

    #[test]
    fn untunable_chip_counts_are_usage_errors_not_panics() {
        // Each of these used to reach a library panic: no feasible mesh
        // shape in `Autotuner::tune`, or fewer than the two chips
        // `TrainingSetup::weak_scaling` needs.
        for line in [
            "autotune gpt3 7",
            "compare gpt3 7",
            "memory gpt3 7",
            "autotune gpt3 3",
            "autotune gpt3 1",
            "sweep-mesh gpt3 1",
            "sweep-slice gpt3 1x1",
            "trace --model gpt3 --mesh 1x1",
            "metrics --model gpt3 --mesh 1x1",
        ] {
            let err = parse(&args(line)).map(execute).expect_err(line);
            assert!(err.to_string().contains("USAGE"), "{line}: {err}");
        }
    }

    #[test]
    fn model_names_are_case_insensitive() {
        assert_eq!(
            parse(&args("compare GPT3 4")).unwrap(),
            Command::Compare {
                model: Model::Gpt3,
                chips: 4
            }
        );
        assert_eq!(
            parse(&args("compare Megatron-NLG 4")).unwrap(),
            Command::Compare {
                model: Model::Megatron,
                chips: 4
            }
        );
    }

    #[test]
    fn executes_cheap_commands() {
        // Smoke: these must not panic or error.
        execute(Command::Help).unwrap();
        execute(Command::Traffic).unwrap();
    }

    #[test]
    fn parses_faults_flags_in_any_order() {
        assert_eq!(
            parse(&args(
                "faults --seeds 8 --model megatron --straggler 1.5 --chips 64"
            ))
            .unwrap(),
            Command::Faults {
                model: Model::Megatron,
                chips: 64,
                straggler: 1.5,
                seeds: 8,
                threads: None
            }
        );
        // Defaults apply when flags are omitted.
        assert_eq!(
            parse(&args("faults")).unwrap(),
            Command::Faults {
                model: Model::Gpt3,
                chips: 16,
                straggler: 2.0,
                seeds: 4,
                threads: None
            }
        );
        assert_eq!(
            parse(&args("faults --threads 2")).unwrap(),
            Command::Faults {
                model: Model::Gpt3,
                chips: 16,
                straggler: 2.0,
                seeds: 4,
                threads: Some(2)
            }
        );
        assert!(parse(&args("faults --straggler 0.5")).is_err());
        assert!(parse(&args("faults --seeds 0")).is_err());
        assert!(parse(&args("faults --threads 0")).is_err());
        assert!(parse(&args("faults --chips")).is_err());
        assert!(parse(&args("faults --frobnicate 3")).is_err());
    }

    #[test]
    fn parses_trace_flags() {
        assert_eq!(
            parse(&args("trace --model gpt3 --mesh 2x4 --out /tmp/t.json")).unwrap(),
            Command::Trace {
                model: Model::Gpt3,
                mesh: MeshShape::new(2, 4),
                out: Some("/tmp/t.json".into()),
                sort: false
            }
        );
        assert_eq!(
            parse(&args("trace")).unwrap(),
            Command::Trace {
                model: Model::Gpt3,
                mesh: MeshShape::new(4, 4),
                out: None,
                sort: false
            }
        );
        // --sort takes no value and composes with other flags.
        assert_eq!(
            parse(&args("trace --sort --mesh 2x2")).unwrap(),
            Command::Trace {
                model: Model::Gpt3,
                mesh: MeshShape::new(2, 2),
                out: None,
                sort: true
            }
        );
        assert!(parse(&args("trace --mesh 44")).is_err());
    }

    #[test]
    fn parses_metrics_flags() {
        assert_eq!(
            parse(&args("metrics")).unwrap(),
            Command::Metrics {
                model: Model::Gpt3,
                mesh: MeshShape::new(4, 4),
                s: None,
                windows: 16,
                format: MetricsFormat::Text,
                out: None,
                tunelog: None,
                threads: None
            }
        );
        assert_eq!(
            parse(&args(
                "metrics --model megatron --mesh 2x4 --s 4 --windows 8 \
                 --format json --out /tmp/m.json --tunelog /tmp/t.json --threads 4"
            ))
            .unwrap(),
            Command::Metrics {
                model: Model::Megatron,
                mesh: MeshShape::new(2, 4),
                s: Some(4),
                windows: 8,
                format: MetricsFormat::Json,
                out: Some("/tmp/m.json".into()),
                tunelog: Some("/tmp/t.json".into()),
                threads: Some(4)
            }
        );
        assert!(parse(&args("metrics --format yaml")).is_err());
        assert!(parse(&args("metrics --windows 0")).is_err());
        assert!(parse(&args("metrics --s 0")).is_err());
        assert!(parse(&args("metrics --threads 0")).is_err());
        assert!(parse(&args("metrics --out")).is_err());
    }

    #[test]
    fn compare_dispatches_on_the_first_argument() {
        assert_eq!(
            parse(&args("compare gpt3 16")).unwrap(),
            Command::Compare {
                model: Model::Gpt3,
                chips: 16
            }
        );
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::CompareRuns {
                a: "a.json".into(),
                b: "b.json".into()
            }
        );
        // A model with a malformed chip count is still a usage error,
        // not a silent fall-through to the run diff.
        assert!(parse(&args("compare gpt3 b.json")).is_err());
        assert!(parse(&args("compare a.json")).is_err());
    }

    #[test]
    fn mesh_subcommand_parses_and_validates() {
        assert_eq!(
            parse(&args("mesh 64")).unwrap(),
            Command::Mesh {
                chips: 64,
                max_rank: 3,
                shape: None,
                format: MeshListFormat::Text,
            }
        );
        assert_eq!(
            parse(&args("mesh 16 --max-rank 4 --shape 4x2x2 --format json")).unwrap(),
            Command::Mesh {
                chips: 16,
                max_rank: 4,
                shape: Some(MeshShape::from_sizes(&[4, 2, 2]).unwrap()),
                format: MeshListFormat::Json,
            }
        );
        // UsageError hardening: every malformed input is a typed usage
        // error, never a panic.
        assert!(parse(&args("mesh")).is_err());
        assert!(parse(&args("mesh 0")).is_err());
        assert!(parse(&args("mesh 64 --max-rank 1")).is_err());
        assert!(parse(&args("mesh 64 --max-rank 5")).is_err());
        assert!(parse(&args("mesh 64 --shape 4x0x4")).is_err());
        assert!(parse(&args("mesh 64 --shape 2x2x2x2x2")).is_err());
        assert!(parse(&args("mesh 16 --shape 4x4x4")).is_err());
        assert!(parse(&args("mesh 64 --format yaml")).is_err());
        assert!(parse(&args("mesh 64 --bogus")).is_err());
    }

    #[test]
    fn mesh_subcommand_executes() {
        for fmt in [MeshListFormat::Text, MeshListFormat::Json] {
            execute(Command::Mesh {
                chips: 64,
                max_rank: 3,
                shape: None,
                format: fmt,
            })
            .unwrap();
            execute(Command::Mesh {
                chips: 16,
                max_rank: 3,
                shape: Some(MeshShape::from_sizes(&[4, 2, 2]).unwrap()),
                format: fmt,
            })
            .unwrap();
        }
    }

    #[test]
    fn help_covers_every_subcommand() {
        for cmd in SUBCOMMANDS {
            assert!(
                USAGE.contains(&format!("meshslice {cmd}")),
                "usage text is missing '{cmd}'"
            );
            // Each subcommand must be recognized by the parser: invoking
            // it bare may complain about missing arguments, never about
            // an unknown command.
            if let Err(e) = parse(&[cmd.to_string()]) {
                assert!(
                    !e.to_string().contains("unknown command"),
                    "parse does not recognize '{cmd}'"
                );
            }
        }
    }

    #[test]
    fn trace_writes_perfetto_loadable_json() {
        let path = std::env::temp_dir().join("meshslice_cli_trace_test.json");
        execute(Command::Trace {
            model: Model::Gpt3,
            mesh: MeshShape::new(2, 2),
            out: Some(path.to_str().unwrap().to_string()),
            sort: false,
        })
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"chip 0\""));
        assert!(json.contains("\"name\":\"compute\""));
        // Every duration event carries ts and dur fields.
        let x_events = json.matches("\"ph\":\"X\"").count();
        assert!(x_events > 0);
        assert_eq!(json.matches("\"dur\":").count(), x_events);
    }

    #[test]
    fn sorted_trace_is_deterministic_and_carries_sort_indices() {
        let cfg = SimConfig::tpu_v4();
        let mesh = MeshShape::new(2, 2);
        let torus = Torus2d::from_shape(mesh);
        let problem = fc1_problem(&Model::Gpt3.config(), mesh);
        let program = schedule_fc1_at(&torus, problem, 2, cfg.elem_bytes).unwrap();
        let engine = Engine::new(torus, cfg);
        let (_, spans_a, _) = run_recorded(&engine, &program);
        let (_, spans_b, _) = run_recorded(&engine, &program);
        let a = chrome_trace_json_sorted(&program, &spans_a);
        assert_eq!(a, chrome_trace_json_sorted(&program, &spans_b));
        assert!(a.contains("\"name\":\"process_sort_index\""));
        assert!(a.contains("\"name\":\"thread_sort_index\""));
    }

    #[test]
    fn metrics_critical_path_sums_to_the_makespan() {
        let cfg = SimConfig::tpu_v4();
        let m = fc1_metrics(Model::Gpt3, MeshShape::new(2, 2), 2, 8, &cfg).unwrap();
        assert!(m.makespan > 0.0);
        assert!(
            (m.critical_path.total() - m.makespan).abs() < 1e-9 * m.makespan,
            "critical path {} vs makespan {}",
            m.critical_path.total(),
            m.makespan
        );
        assert!((0.0..=1.0).contains(&m.overlap_efficiency));
    }

    #[test]
    fn overlap_efficiency_rises_from_one_slice_to_the_tuned_count() {
        let cfg = SimConfig::tpu_v4();
        let mesh = MeshShape::new(4, 4);
        let problem = fc1_problem(&Model::Gpt3.config(), mesh);
        let tuner = Autotuner::new(cfg.clone());
        let (best_s, _) = tuner.best_slice_count(mesh, problem, cfg.elem_bytes);
        assert!(best_s > 1, "tuning should pick S > 1 on a 4x4 mesh");
        let mut svals: Vec<usize> = tuner
            .legal_slice_counts(mesh, problem)
            .into_iter()
            .filter(|&s| s <= best_s)
            .collect();
        if !svals.contains(&1) {
            svals.insert(0, 1);
        }
        let overlaps: Vec<f64> = svals
            .iter()
            .map(|&s| {
                fc1_metrics(Model::Gpt3, mesh, s, 1, &cfg)
                    .unwrap()
                    .overlap_efficiency
            })
            .collect();
        for w in overlaps.windows(2) {
            assert!(
                w[1] > w[0],
                "overlap efficiency not strictly increasing: {overlaps:?} at S {svals:?}"
            );
        }
    }

    #[test]
    fn compare_runs_diffs_two_artifacts() {
        let cfg = SimConfig::tpu_v4();
        let dir = std::env::temp_dir();
        let pa = dir.join("meshslice_cli_cmp_a.json");
        let pb = dir.join("meshslice_cli_cmp_b.json");
        for (path, s) in [(&pa, 1usize), (&pb, 2usize)] {
            let m = fc1_metrics(Model::Gpt3, MeshShape::new(2, 2), s, 4, &cfg).unwrap();
            std::fs::write(path, m.to_json().to_string_pretty()).unwrap();
        }
        let a = load_metrics(pa.to_str().unwrap()).unwrap();
        let b = load_metrics(pb.to_str().unwrap()).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        let diff = RunDiff::new(a, b);
        let text = diff.to_string();
        assert!(text.contains("makespan"));
        assert!(text.contains("slice_count=1"));
        assert!(text.contains("slice_count=2"));
        // Loading a missing file reports an error instead of panicking.
        assert!(load_metrics("/nonexistent/meshslice.json").is_err());
    }

    #[test]
    fn faults_grid_prints_without_panicking() {
        execute(Command::Faults {
            model: Model::Gpt3,
            chips: 4,
            straggler: 1.5,
            seeds: 1,
            threads: Some(1),
        })
        .unwrap();
    }

    #[test]
    fn parses_resilience_flags() {
        assert_eq!(
            parse(&args("resilience")).unwrap(),
            Command::Resilience {
                model: Model::Gpt3,
                chips: 16,
                mtbf_hours: 24.0,
                steps: 200,
                seed: 42,
                threads: None
            }
        );
        assert_eq!(
            parse(&args(
                "resilience --model megatron --chips 64 --mtbf 6 --steps 50 --seed 7 --threads 2"
            ))
            .unwrap(),
            Command::Resilience {
                model: Model::Megatron,
                chips: 64,
                mtbf_hours: 6.0,
                steps: 50,
                seed: 7,
                threads: Some(2)
            }
        );
        assert!(parse(&args("resilience --mtbf 0")).is_err());
        assert!(parse(&args("resilience --mtbf nan")).is_err());
        assert!(parse(&args("resilience --mtbf inf")).is_err());
        assert!(parse(&args("resilience --steps 0")).is_err());
        assert!(parse(&args("resilience --seed -1")).is_err());
        assert!(parse(&args("resilience --threads 0")).is_err());
        assert!(parse(&args("resilience --frobnicate 1")).is_err());
    }

    #[test]
    fn zero_sizes_are_rejected_not_clamped() {
        assert!(parse(&args("trace --mesh 0x4")).is_err());
        assert!(parse(&args("sweep-slice gpt3 4x0")).is_err());
        assert!(parse(&args("autotune gpt3 0")).is_err());
        assert!(parse(&args("faults --chips 0")).is_err());
        assert!(parse(&args("resilience --chips 0")).is_err());
        assert!(parse(&args("plan3d gpt3 16 0")).is_err());
        assert!(parse(&args("plan3d gpt3 0 256")).is_err());
        assert!(parse(&args("serve --chips 0")).is_err());
        assert!(parse(&args("serve --replicas 0")).is_err());
        assert!(parse(&args("serve --requests 0")).is_err());
        assert!(parse(&args("serve --max-batch 0")).is_err());
    }

    #[test]
    fn parses_serve_flags_and_rejects_bad_values() {
        let cmd = parse(&args(
            "serve --model gpt3 --replicas 2 --qps 40 --slo-p99-ms 500 --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                model,
                chips,
                replicas,
                qps,
                slo_p99_ms,
                seed,
                format,
                mesh,
                fail_at,
                ..
            } => {
                assert_eq!(model, Model::Gpt3);
                assert_eq!(chips, 32);
                assert_eq!(replicas, 2);
                assert_eq!(qps, 40.0);
                assert_eq!(slo_p99_ms, 500.0);
                assert_eq!(seed, 7);
                assert_eq!(format, ServeFormat::Json);
                assert_eq!(mesh, None);
                assert_eq!(fail_at, None);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("serve --mesh 4x4 --s 8 --fail-at 2.5 --format text")).unwrap() {
            Command::Serve {
                mesh,
                s,
                fail_at,
                format,
                ..
            } => {
                assert_eq!(mesh, Some(MeshShape::new(4, 4)));
                assert_eq!(s, 8);
                assert_eq!(fail_at, Some(2.5));
                assert_eq!(format, ServeFormat::Text);
            }
            other => panic!("parsed {other:?}"),
        }
        // The observability flags: --explain is boolean, the rest take
        // a path, and "prometheus" is a third format.
        match parse(&args(
            "serve --explain --trace-out t.jsonl --trace-chrome t.json \
             --explain-out blame.json --format prometheus",
        ))
        .unwrap()
        {
            Command::Serve {
                explain,
                trace_out,
                trace_chrome,
                explain_out,
                format,
                ..
            } => {
                assert!(explain);
                assert_eq!(trace_out.as_deref(), Some("t.jsonl"));
                assert_eq!(trace_chrome.as_deref(), Some("t.json"));
                assert_eq!(explain_out.as_deref(), Some("blame.json"));
                assert_eq!(format, ServeFormat::Prometheus);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("serve --qps 12")).unwrap() {
            Command::Serve {
                explain,
                trace_out,
                screen,
                ..
            } => {
                assert!(!explain);
                assert_eq!(trace_out, None);
                assert!(!screen);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("serve --model tiny --screen --qps 12")).unwrap() {
            Command::Serve { model, screen, .. } => {
                assert_eq!(model, Model::Tiny);
                assert!(screen);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve --qps 0")).is_err());
        assert!(parse(&args("serve --qps nope")).is_err());
        assert!(parse(&args("serve --slo-p99-ms -5")).is_err());
        assert!(parse(&args("serve --fail-at -1")).is_err());
        assert!(parse(&args("serve --format yaml")).is_err());
        assert!(parse(&args("serve --bogus 1")).is_err());
        assert!(parse(&args("serve --qps")).is_err());
        assert!(parse(&args("serve --trace-out")).is_err());
    }

    #[test]
    fn parses_serve_resilience_flags_and_rejects_bad_combos() {
        match parse(&args(
            "serve --chaos-mtbf 3600 --repair 120 --retries 5 --shed 32",
        ))
        .unwrap()
        {
            Command::Serve {
                chaos_mtbf,
                repair,
                retries,
                shed,
                fail_at,
                ..
            } => {
                assert_eq!(chaos_mtbf, Some(3600.0));
                assert_eq!(repair, Some(120.0));
                assert_eq!(retries, Some(5));
                assert_eq!(shed, Some(32));
                assert_eq!(fail_at, None);
            }
            other => panic!("parsed {other:?}"),
        }
        // Router and shed work without chaos (they guard a scripted
        // death too); repair is meaningless without a chaos draw.
        assert!(parse(&args("serve --retries 3 --shed 8")).is_ok());
        assert!(parse(&args("serve --fail-at 1.0 --chaos-mtbf 60")).is_err());
        assert!(parse(&args("serve --repair 10")).is_err());
        assert!(parse(&args("serve --chaos-mtbf 0")).is_err());
        assert!(parse(&args("serve --chaos-mtbf -3")).is_err());
        assert!(parse(&args("serve --chaos-mtbf 60 --repair 0")).is_err());
        assert!(parse(&args("serve --retries 0")).is_err());
        assert!(parse(&args("serve --shed 0")).is_err());
        assert!(parse(&args("serve --chaos-mtbf")).is_err());
    }

    #[test]
    fn fail_at_past_the_arrival_horizon_is_a_usage_error() {
        let trace = vec![
            Request {
                id: 0,
                arrival_secs: 0.5,
                prompt_tokens: 8,
                output_tokens: 4,
            },
            Request {
                id: 1,
                arrival_secs: 2.0,
                prompt_tokens: 8,
                output_tokens: 4,
            },
        ];
        // No death, or a death at / before the last arrival: fine.
        assert!(check_fail_at_horizon(None, &trace).is_ok());
        assert!(check_fail_at_horizon(Some(1.0), &trace).is_ok());
        // The boundary: a death at exactly the last arrival still fires.
        assert!(check_fail_at_horizon(Some(2.0), &trace).is_ok());
        // Strictly past the horizon: the death would never fire.
        let err = check_fail_at_horizon(Some(2.5), &trace).unwrap_err();
        assert!(err.to_string().contains("past the end"), "{err}");
        assert!(err.to_string().contains("2.000"), "{err}");
        // An empty trace has no horizon to violate.
        assert!(check_fail_at_horizon(Some(10.0), &[]).is_ok());
        // End-to-end: execute surfaces the horizon error. 4 requests at
        // qps 40 arrive well inside the first second.
        let err = execute(
            parse(&args(
                "serve --model tiny --chips 4 --replicas 1 --requests 4 --qps 40 \
                 --fail-at 1000 --threads 1",
            ))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("past the end"), "{err}");
    }

    #[test]
    fn serve_surfaces_infeasible_layouts_and_bad_traces_as_errors() {
        // Megatron-NLG weights cannot fit 2 replicas of 2 chips.
        let err = execute(
            parse(&args(
                "serve --model megatron --chips 4 --replicas 2 --requests 4 --threads 1",
            ))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("cannot be served"), "{err}");
        let err = execute(parse(&args("serve --trace /nonexistent/meshslice_rates.txt")).unwrap())
            .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // Replicas must divide the chip pool.
        let err = execute(
            parse(&args(
                "serve --chips 32 --replicas 3 --requests 4 --threads 1",
            ))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("divide"), "{err}");
    }

    #[test]
    fn serve_writes_trace_blame_and_serving_diff_artifacts() {
        let dir = std::env::temp_dir();
        let pt = dir.join("meshslice_cli_trace.jsonl");
        let pc = dir.join("meshslice_cli_trace_chrome.json");
        let pb = dir.join("meshslice_cli_blame.json");
        let pa = dir.join("meshslice_cli_serve_a.json");
        let px = dir.join("meshslice_cli_serve_b.json");
        let base = "serve --chips 32 --replicas 2 --mesh 4x4 --s 4 --max-batch 8 --requests 24 \
                    --qps 30 --seed 3 --threads 1 --format text";
        let cmd = format!(
            "{base} --out {} --trace-out {} --trace-chrome {} --explain --explain-out {}",
            pa.display(),
            pt.display(),
            pc.display(),
            pb.display()
        );
        execute(parse(&args(&cmd)).unwrap()).unwrap();
        // JSONL trace: a run header line, then one JSON object per event.
        let jsonl = std::fs::read_to_string(&pt).unwrap();
        let first = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("run"));
        assert!(jsonl.lines().count() > 24);
        for line in jsonl.lines() {
            Json::parse(line).unwrap();
        }
        // Chrome trace parses and the blame report names the buckets.
        Json::parse(&std::fs::read_to_string(&pc).unwrap()).unwrap();
        let blame = Json::parse(&std::fs::read_to_string(&pb).unwrap()).unwrap();
        assert!(blame.get("buckets").is_some());
        assert!(blame.get("p99").is_some());
        // A second run at a different qps diffs against the first.
        let cmd_b = format!(
            "serve --chips 32 --replicas 2 --mesh 4x4 --s 4 --max-batch 8 --requests 24 \
             --qps 60 --seed 3 --threads 1 --format text --out {}",
            px.display()
        );
        execute(parse(&args(&cmd_b)).unwrap()).unwrap();
        execute(Command::CompareRuns {
            a: pa.to_str().unwrap().into(),
            b: px.to_str().unwrap().into(),
        })
        .unwrap();
        // Serving vs training artifacts refuse to diff.
        let cfg = SimConfig::tpu_v4();
        let m = fc1_metrics(Model::Gpt3, MeshShape::new(2, 2), 1, 4, &cfg).unwrap();
        let pm = dir.join("meshslice_cli_serve_metrics.json");
        std::fs::write(&pm, m.to_json().to_string_pretty()).unwrap();
        let err = execute(Command::CompareRuns {
            a: pa.to_str().unwrap().into(),
            b: pm.to_str().unwrap().into(),
        })
        .unwrap_err();
        assert!(err.contains("serving artifact"), "{err}");
        for p in [&pt, &pc, &pb, &pa, &px, &pm] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn tiny_model_screened_tune_writes_an_artifact() {
        // The CI fast-tune smoke in miniature: tune the tiny model with
        // successive-halving screening and check the artifact lands.
        let dir = std::env::temp_dir();
        let out = dir.join("meshslice_cli_tiny_tune.json");
        let cmd = format!(
            "serve --model tiny --chips 8 --replicas 2 --requests 24 --qps 50 \
             --seed 5 --threads 1 --screen --out {}",
            out.display()
        );
        execute(parse(&args(&cmd)).unwrap()).unwrap();
        let artifact = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            artifact.get("model").and_then(Json::as_str),
            Some("tiny"),
            "{artifact:?}"
        );
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn io_failures_surface_as_errors_not_panics() {
        let err = execute(Command::CompareRuns {
            a: "/nonexistent/meshslice_a.json".into(),
            b: "/nonexistent/meshslice_b.json".into(),
        })
        .unwrap_err();
        assert!(err.contains("cannot load"), "{err}");
        let err = execute(Command::Trace {
            model: Model::Gpt3,
            mesh: MeshShape::new(2, 2),
            out: Some("/nonexistent/dir/meshslice_t.json".into()),
            sort: false,
        })
        .unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
    }

    #[test]
    fn resilience_sweep_reports_goodput() {
        execute(Command::Resilience {
            model: Model::Gpt3,
            chips: 4,
            mtbf_hours: 2.0,
            steps: 20,
            seed: 7,
            threads: Some(1),
        })
        .unwrap();
    }
}
