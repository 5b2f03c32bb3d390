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

use std::any::{type_name, Any};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use meshslice::autotuner::Autotuner;
use meshslice::experiments::{
    inference_study, mesh_shape_sweep, slice_count_sweep, straggler_sensitivity,
    traffic_25d_example, DEFAULT_PROMPT_LEN,
};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::parallelism::{plan_cluster, PlanOptions};
use meshslice::report::{pct, pct_opt, Table};
use meshslice::training::{end_to_end, simulate_fc_step, Algorithm};
use meshslice::{
    Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshShape, MeshSlice, SimConfig,
};
use meshslice_faults::FailureSpec;
use meshslice_mesh::{MeshView, Torus2d, MAX_AXES};
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
    /// `autotune`: run both autotuner phases and print the plan.
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
    /// `sweep-mesh`: estimated vs simulated utilization across mesh
    /// shapes (Figure 13).
    SweepMesh {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `sweep-slice`: estimated vs simulated utilization across slice
    /// counts (Figure 14).
    SweepSlice {
        /// Target model.
        model: Model,
        /// Mesh shape, e.g. `32x8`.
        mesh: MeshShape,
    },
    /// `plan3d`: best DP × PP × 2D-TP compositions.
    Plan3d {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
        /// Global batch size.
        batch: usize,
    },
    /// `memory`: per-chip training memory footprint.
    Memory {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `inference`: decode latency per block vs batch.
    Inference {
        /// Target model.
        model: Model,
        /// Cluster size.
        chips: usize,
    },
    /// `serve`: simulate a continuous-batching serving fleet and report
    /// TTFT/TPOT percentiles and goodput-per-chip against the SLO.
    Serve {
        /// Target model.
        model: Model,
        /// Total chips in the fleet (split across replicas); with `--mesh`,
        /// a given `--chips` must equal the mesh's chips × `replicas`.
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
        /// Slice count of the pinned layout; `--s` requires `--mesh`
        /// (the tuner picks it otherwise).
        s: usize,
        /// Decode batch cap of the pinned layout; `--max-batch` requires
        /// `--mesh` (the tuner picks it otherwise).
        max_batch: usize,
        /// Tune with successive-halving screening (prefix-trace
        /// elimination) instead of the full fast path; `--screen`
        /// conflicts with `--mesh`, which skips tuning.
        screen: bool,
        /// Output format for the artifact.
        format: Format,
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
    /// `faults`: straggler-severity × slice-count sensitivity grid under
    /// seeded fault injection.
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
    /// `resilience`: sweep a chip-MTBF ladder, jointly tuning the plan
    /// and the Young–Daly checkpoint interval per rung, and replay one
    /// seeded failure draw through checkpoint/restart.
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
    /// `trace`: run one FC GeMM with span collection and emit Chrome
    /// trace-event JSON.
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
    /// `metrics`: instrument one FC GeMM and report critical-path
    /// attribution, overlap efficiency, and per-lane utilization.
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
        format: Format,
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
    /// `mesh`: list the N-D mesh factorizations of a chip count, or
    /// (with `--shape`) every 2D plane view of one N-D shape.
    Mesh {
        /// Cluster size to factor.
        chips: usize,
        /// Largest factorization rank to enumerate (2..=4).
        max_rank: usize,
        /// List the 2D plane views of this shape instead of the
        /// factorization table; its chip product must equal `chips`.
        shape: Option<MeshShape>,
        /// Output format: text or JSON.
        format: Format,
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

/// Output format of `metrics`, `serve` and `mesh`; each subcommand's
/// table lists the spellings it accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable tables.
    Text,
    /// The metrics or serving artifact (the `serve` default), or `mesh`'s
    /// tables as JSON.
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

/// Errors produced while parsing a command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, usage())
    }
}

impl Error for UsageError {}

/// How a positional's or flag's value is parsed and range-checked.
///
/// A switch takes no value. A count is a positive integer, a rank one in
/// `2..=MAX_AXES`, and a seed any `u64`. Reals are finite, and positive or
/// non-negative; a straggler slowdown is at least 1 and keeps the top of
/// the `faults` severity ladder, `1 + 2(x - 1)`, finite. A mesh is `RxC`,
/// a shape `AxB[xC[xD]]`, a path is taken verbatim, and a format is one of
/// the listed spellings.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Count,
    Rank,
    Seed,
    Positive,
    NonNegative,
    Straggler,
    Model,
    Mesh,
    Shape,
    Path,
    Format(&'static [(&'static str, Format)]),
}

/// A parsed value, of the type its [`Kind`] produces: `()`, `usize`,
/// `u64`, `f64`, [`Model`], [`MeshShape`], `String` or [`Format`].
type Value = Box<dyn Any>;

impl Kind {
    /// Parses and range-checks `s`; `label` names the value in errors.
    fn parse(self, s: &str, label: &str) -> Result<Value, UsageError> {
        let real = |ok: fn(f64) -> bool, rule: &str| match number(s, label)? {
            x if ok(x) => Ok(x),
            x => usage_err(format!("{label} must be {rule}, got {x}")),
        };
        let value: Value = match self {
            Kind::Switch => Box::new(()),
            Kind::Count => match number::<usize>(s, label)? {
                0 => return usage_err(format!("{label} must be positive")),
                n => Box::new(n),
            },
            Kind::Rank => match number::<usize>(s, label)? {
                n if (2..=MAX_AXES).contains(&n) => Box::new(n),
                _ => return usage_err(format!("{label} must be between 2 and {MAX_AXES}")),
            },
            Kind::Seed => Box::new(number::<u64>(s, label)?),
            Kind::Positive => Box::new(real(|x| x.is_finite() && x > 0.0, "finite and positive")?),
            Kind::NonNegative => Box::new(real(
                |x| x.is_finite() && x >= 0.0,
                "finite and non-negative",
            )?),
            Kind::Straggler => match real(|x| x >= 1.0, ">= 1")? {
                x if (1.0 + 2.0 * (x - 1.0)).is_finite() => Box::new(x),
                x => return usage_err(format!("{label} {x:e} overflows the severity ladder")),
            },
            Kind::Model => Box::new(parse_model(s)?),
            Kind::Mesh => Box::new(parse_mesh(s)?),
            Kind::Shape => Box::new(parse_shape_nd(s)?),
            Kind::Path => Box::new(s.to_string()),
            Kind::Format(choices) => match choices.iter().find(|(name, _)| *name == s) {
                Some(&(_, format)) => Box::new(format),
                None => return usage_err(format!("unknown format '{s}'")),
            },
        };
        Ok(value)
    }
}

/// One positional or flag of a subcommand.
struct Arg {
    /// `--flag`, or a positional's noun in "missing argument: …".
    name: &'static str,
    /// The placeholder `USAGE` shows for the value.
    metavar: &'static str,
    kind: Kind,
    /// The noun error messages use for the value ("seed count").
    label: &'static str,
    /// A flag's value when absent, in command-line spelling.
    default: Option<&'static str>,
}

impl Arg {
    fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }
}

type Str = &'static str;

const fn pos(name: Str, metavar: Str, kind: Kind, label: Str) -> Arg {
    flag(name, metavar, kind, label, None)
}

const fn flag(name: Str, metavar: Str, kind: Kind, label: Str, default: Option<Str>) -> Arg {
    Arg {
        name,
        metavar,
        kind,
        label,
        default,
    }
}

const fn switch(name: Str) -> Arg {
    flag(name, "", Kind::Switch, "", None)
}

/// One row of the subcommand table: the arguments `parse` accepts, in
/// `USAGE` order (positionals first), and the constructor that checks
/// the cross-argument rules and builds the [`Command`].
struct Subcommand {
    name: &'static str,
    args: &'static [Arg],
    build: fn(&Args) -> Result<Command, UsageError>,
}

/// The values one command line gave a subcommand's arguments.
struct Args {
    spec: &'static [Arg],
    values: Vec<Option<Value>>,
}

impl Args {
    /// `name`'s table entry and command-line value.
    fn slot(&self, name: &str) -> (&Arg, &Option<Value>) {
        let slot = self.spec.iter().position(|a| a.name == name);
        let slot = slot.unwrap_or_else(|| unreachable!("{name} is not in the table row"));
        (&self.spec[slot], &self.values[slot])
    }

    /// Whether the command line set `name`.
    fn given(&self, name: &str) -> bool {
        self.slot(name).1.is_some()
    }

    /// `name`'s value from the command line, else its table default.
    fn get<T: Clone + 'static>(&self, name: &str) -> Option<T> {
        let default;
        let value = match self.slot(name) {
            (_, Some(v)) => v,
            (arg, None) => {
                default = arg.kind.parse(arg.default?, arg.label).ok()?;
                &default
            }
        };
        let value = value.downcast_ref::<T>().cloned();
        Some(value.unwrap_or_else(|| unreachable!("{name} is not a {}", type_name::<T>())))
    }

    /// [`get`](Self::get) for a positional or a flag with a default.
    fn val<T: Clone + 'static>(&self, name: &str) -> T {
        self.get(name)
            .unwrap_or_else(|| unreachable!("{name} has no value or default"))
    }
}

const MODELS: &str = "gpt3|megatron|tiny";
const MODEL: Arg = pos("model", MODELS, Kind::Model, "model");
const CHIPS: Arg = pos("chips", "chips", Kind::Count, "chip count");
const MODEL_FLAG: Arg = flag("--model", MODELS, Kind::Model, "model", Some("gpt3"));
const THREADS: Arg = flag("--threads", "N", Kind::Count, "thread count", None);
const OUT: Arg = flag("--out", "FILE", Kind::Path, "output path", None);
const TEXT_JSON: Kind = Kind::Format(&[("text", Format::Text), ("json", Format::Json)]);
const TEXT_JSON_PROM: Kind = Kind::Format(&[
    ("text", Format::Text),
    ("json", Format::Json),
    ("prometheus", Format::Prometheus),
    ("prom", Format::Prometheus),
]);

#[rustfmt::skip]
static SERVE: &[Arg] = &[
    MODEL_FLAG,
    flag("--chips",        "N",     Kind::Count,       "chip count",        Some("32")),
    flag("--replicas",     "R",     Kind::Count,       "replica count",     Some("2")),
    flag("--qps",          "F",     Kind::Positive,    "offered load",      Some("40")),
    flag("--trace",        "FILE",  Kind::Path,        "rate trace",        None),
    flag("--slo-p99-ms",   "F",     Kind::Positive,    "SLO target",        Some("500")),
    flag("--seed",         "K",     Kind::Seed,        "seed",              Some("0")),
    flag("--requests",     "N",     Kind::Count,       "request count",     Some("200")),
    flag("--fail-at",      "SECS",  Kind::NonNegative, "failure time",      None),
    flag("--chaos-mtbf",   "SECS",  Kind::Positive,    "chaos MTBF",        None),
    flag("--repair",       "SECS",  Kind::Positive,    "repair time",       None),
    flag("--retries",      "N",     Kind::Count,       "retry budget",      None),
    flag("--shed",         "DEPTH", Kind::Count,       "shed queue depth",  None),
    flag("--mesh",         "RxC",   Kind::Mesh,        "mesh shape",        None),
    flag("--s",            "N",     Kind::Count,       "slice count",       Some("4")),
    flag("--max-batch",    "N",     Kind::Count,       "batch cap",         Some("32")),
    switch("--screen"),
    flag("--format", "text|json|prometheus", TEXT_JSON_PROM, "format",     Some("json")),
    OUT,
    flag("--trace-out",    "FILE",  Kind::Path,        "trace path",        None),
    flag("--trace-chrome", "FILE",  Kind::Path,        "chrome trace path", None),
    switch("--explain"),
    flag("--explain-out",  "FILE",  Kind::Path,        "blame report path", None),
    THREADS,
];

/// Every subcommand, in `USAGE` order. `compare` has two rows: `parse`
/// takes the first row whose leading positional parses, else the last.
#[rustfmt::skip]
static SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { name: "autotune", args: &[MODEL, CHIPS], build: |a| {
        tuned(a, "model", "chips").map(|(model, chips)| Command::Autotune { model, chips })
    } },
    Subcommand { name: "compare", args: &[MODEL, CHIPS], build: |a| {
        tuned(a, "model", "chips").map(|(model, chips)| Command::Compare { model, chips })
    } },
    Subcommand { name: "compare",
        args: &[pos("runA.json", "runA.json", Kind::Path, "run file"),
                pos("runB.json", "runB.json", Kind::Path, "run file")],
        build: |a| Ok(Command::CompareRuns { a: a.val("runA.json"), b: a.val("runB.json") }) },
    Subcommand { name: "sweep-mesh", args: &[MODEL, CHIPS],
        build: |a| {
            let chips = weak_scaling_chips(a.val("chips"))?;
            Ok(Command::SweepMesh { model: a.val("model"), chips })
        } },
    Subcommand { name: "sweep-slice",
        args: &[MODEL, pos("mesh shape", "RxC", Kind::Mesh, "mesh shape")],
        build: |a| {
            let (model, mesh) = (a.val("model"), a.val::<MeshShape>("mesh shape"));
            plannable_chips(model, mesh.num_chips(), &[mesh])?;
            Ok(Command::SweepSlice { model, mesh })
        } },
    Subcommand { name: "plan3d",
        args: &[MODEL, CHIPS, pos("global batch", "global_batch", Kind::Count, "global batch")],
        build: |a| {
            let (model, chips, batch) = (a.val("model"), a.val("chips"), a.val("global batch"));
            Ok(Command::Plan3d { model, chips, batch })
        } },
    Subcommand { name: "memory", args: &[MODEL, CHIPS], build: |a| {
        tuned(a, "model", "chips").map(|(model, chips)| Command::Memory { model, chips })
    } },
    Subcommand { name: "inference", args: &[MODEL, CHIPS],
        build: |a| Ok(Command::Inference { model: a.val("model"), chips: a.val("chips") }) },
    Subcommand { name: "serve", args: SERVE, build: serve },
    Subcommand { name: "faults",
        args: &[
            MODEL_FLAG,
            flag("--chips",     "N", Kind::Count,     "chip count",         Some("16")),
            flag("--straggler", "F", Kind::Straggler, "straggler slowdown", Some("2")),
            flag("--seeds",     "K", Kind::Count,     "seed count",         Some("4")),
            THREADS,
        ],
        build: |a| {
            let (model, chips) = tuned(a, "--model", "--chips")?;
            let (straggler, seeds) = (a.val("--straggler"), a.val("--seeds"));
            Ok(Command::Faults { model, chips, straggler, seeds, threads: a.get("--threads") })
        } },
    Subcommand { name: "resilience",
        args: &[
            MODEL_FLAG,
            flag("--chips", "N",     Kind::Count,    "chip count", Some("16")),
            flag("--mtbf",  "HOURS", Kind::Positive, "MTBF",       Some("24")),
            flag("--steps", "N",     Kind::Count,    "step count", Some("200")),
            flag("--seed",  "K",     Kind::Seed,     "seed",       Some("42")),
            THREADS,
        ],
        build: |a| {
            let (model, chips) = tuned(a, "--model", "--chips")?;
            let (mtbf_hours, steps, seed) = (a.val("--mtbf"), a.val("--steps"), a.val("--seed"));
            let threads = a.get("--threads");
            Ok(Command::Resilience { model, chips, mtbf_hours, steps, seed, threads })
        } },
    Subcommand { name: "trace",
        args: &[MODEL_FLAG, flag("--mesh", "RxC", Kind::Mesh, "mesh shape", Some("4x4")), OUT,
                switch("--sort")],
        build: |a| {
            let (model, mesh, out) = (a.val("--model"), two_chip_mesh(a)?, a.get("--out"));
            Ok(Command::Trace { model, mesh, out, sort: a.given("--sort") })
        } },
    Subcommand { name: "metrics",
        args: &[
            MODEL_FLAG,
            flag("--mesh",    "RxC",  Kind::Mesh,  "mesh shape",    Some("4x4")),
            flag("--s",       "N",    Kind::Count, "slice count",   None),
            flag("--windows", "N",    Kind::Count, "window count",  Some("16")),
            flag("--format", "text|json|prometheus", TEXT_JSON_PROM, "format", Some("text")),
            OUT,
            flag("--tunelog", "FILE", Kind::Path,  "tune log path", None),
            THREADS,
        ],
        build: |a| {
            let (model, mesh, s) = (a.val("--model"), two_chip_mesh(a)?, a.get("--s"));
            let (windows, format) = (a.val("--windows"), a.val("--format"));
            let (out, tunelog, threads) = (a.get("--out"), a.get("--tunelog"), a.get("--threads"));
            Ok(Command::Metrics { model, mesh, s, windows, format, out, tunelog, threads })
        } },
    Subcommand { name: "traffic", args: &[], build: |_| Ok(Command::Traffic) },
    Subcommand { name: "mesh",
        args: &[
            CHIPS,
            flag("--max-rank", "N",           Kind::Rank,  "max rank", Some("3")),
            flag("--shape",    "AxB[xC[xD]]", Kind::Shape, "shape",    None),
            flag("--format",   "text|json",   TEXT_JSON,   "format",   Some("text")),
        ],
        build: |a| {
            let (chips, shape) = (a.val("chips"), a.get::<MeshShape>("--shape"));
            if let Some(shape) = shape.filter(|s| s.num_chips() != chips) {
                let n = shape.num_chips();
                return usage_err(format!("shape {shape} has {n} chips, not {chips}"));
            }
            let (max_rank, format) = (a.val("--max-rank"), a.val("--format"));
            Ok(Command::Mesh { chips, max_rank, shape, format })
        } },
    Subcommand { name: "help", args: &[], build: |_| Ok(Command::Help) },
];

/// The `model` argument and a `chips` count [`tunable_chips`] accepts.
fn tuned(a: &Args, model: &str, chips: &str) -> Result<(Model, usize), UsageError> {
    let model = a.val(model);
    Ok((model, tunable_chips(model, a.val(chips))?))
}

/// The `--mesh` of `trace` and `metrics`, holding the two chips weak
/// scaling needs.
fn two_chip_mesh(a: &Args) -> Result<MeshShape, UsageError> {
    let mesh: MeshShape = a.val("--mesh");
    weak_scaling_chips(mesh.num_chips())?;
    Ok(mesh)
}

/// `serve`'s constructor: the rules that tie one flag to another. A
/// pinned `--mesh` fixes the fleet size and skips the tuner, so the flags
/// it would silently drop are errors, as are the layout knobs without it.
fn serve(a: &Args) -> Result<Command, UsageError> {
    for (x, y) in [("--fail-at", "--chaos-mtbf"), ("--screen", "--mesh")] {
        if a.given(x) && a.given(y) {
            return usage_err(format!("{x} and {y} are mutually exclusive"));
        }
    }
    let needs = [
        ("--repair", "--chaos-mtbf"),
        ("--s", "--mesh"),
        ("--max-batch", "--mesh"),
    ];
    if let Some((x, y)) = needs.into_iter().find(|(x, y)| a.given(x) && !a.given(y)) {
        return usage_err(format!("{x} requires {y}"));
    }
    let (chips, replicas): (usize, usize) = (a.val("--chips"), a.val("--replicas"));
    let mesh: Option<MeshShape> = a.get("--mesh");
    if let Some(m) = mesh.filter(|_| a.given("--chips")) {
        if m.num_chips().checked_mul(replicas) != Some(chips) {
            return usage_err(format!(
                "--chips {chips} disagrees with --mesh {m} x --replicas {replicas}; \
                 drop --chips or make it the product"
            ));
        }
    }
    Ok(Command::Serve {
        model: a.val("--model"),
        chips,
        replicas,
        qps: a.val("--qps"),
        trace: a.get("--trace"),
        slo_p99_ms: a.val("--slo-p99-ms"),
        seed: a.val("--seed"),
        requests: a.val("--requests"),
        fail_at: a.get("--fail-at"),
        chaos_mtbf: a.get("--chaos-mtbf"),
        repair: a.get("--repair"),
        retries: a.get("--retries"),
        shed: a.get("--shed"),
        mesh,
        s: a.val("--s"),
        max_batch: a.val("--max-batch"),
        screen: a.given("--screen"),
        format: a.val("--format"),
        out: a.get("--out"),
        trace_out: a.get("--trace-out"),
        trace_chrome: a.get("--trace-chrome"),
        explain: a.given("--explain"),
        explain_out: a.get("--explain-out"),
        threads: a.get("--threads"),
    })
}

/// Width `USAGE` wraps a subcommand's synopsis at.
const USAGE_WIDTH: usize = 92;

/// The usage text printed by `help` and on parse errors: one synopsis
/// per [`SUBCOMMANDS`] row, then the notes.
fn usage() -> String {
    let mut text =
        String::from("meshslice — 2D tensor parallelism autotuner & cluster simulator\n\nUSAGE:\n");
    for row in SUBCOMMANDS {
        let mut line = format!("    meshslice {:<11}", row.name);
        for arg in row.args {
            let item = match arg.kind {
                Kind::Switch => format!("[{}]", arg.name),
                _ if arg.is_flag() => format!("[{} {}]", arg.name, arg.metavar),
                _ => format!("<{}>", arg.metavar),
            };
            if line.len() + 1 + item.len() > USAGE_WIDTH {
                text += &line;
                text.push('\n');
                line = " ".repeat(25);
            }
            line = format!("{line} {item}");
        }
        text += line.trim_end();
        text.push('\n');
    }
    text + "
Sweeping subcommands (faults, resilience, metrics --tunelog) evaluate candidates on
--threads N worker threads; the MESHSLICE_THREADS environment variable is
the fallback when the flag is absent, then the machine's parallelism.
Output is bit-identical at any thread count.

compare on two .json files diffs either two training metrics artifacts or two
serving artifacts (headline scalars + per-window fleet strips); mixing the two
kinds is an error."
}

fn parse_model(s: &str) -> Result<Model, UsageError> {
    match s.to_ascii_lowercase().as_str() {
        "gpt3" | "gpt-3" => Ok(Model::Gpt3),
        "megatron" | "megatron-nlg" => Ok(Model::Megatron),
        "tiny" => Ok(Model::Tiny),
        other => Err(UsageError(format!("unknown model '{other}'"))),
    }
}

fn number<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, UsageError> {
    s.parse()
        .or_else(|_| usage_err(format!("invalid {what} '{s}'")))
}

fn usage_err<T>(message: impl Into<String>) -> Result<T, UsageError> {
    Err(UsageError(message.into()))
}

fn parse_mesh(s: &str) -> Result<MeshShape, UsageError> {
    let (r, c) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| UsageError(format!("mesh shape '{s}' is not of the form RxC")))?;
    let rows = number(r, "mesh rows")?;
    let cols = number(c, "mesh cols")?;
    if rows == 0 || cols == 0 {
        return usage_err(format!(
            "mesh shape '{s}' has a zero dimension; both must be positive"
        ));
    }
    Ok(MeshShape::new(rows, cols))
}

/// Parses an N-D mesh shape like `4x4x2`, surfacing the mesh crate's
/// typed validation ([`MeshError`](meshslice_mesh::MeshError)) as a
/// usage error.
fn parse_shape_nd(s: &str) -> Result<MeshShape, UsageError> {
    let sizes: Vec<usize> = s
        .split(['x', 'X'])
        .map(|part| number(part, "axis size"))
        .collect::<Result<_, _>>()?;
    MeshShape::from_sizes(&sizes).map_err(|e| UsageError(format!("invalid shape '{s}': {e}")))
}

/// Rejects chip counts below the two that weak scaling needs
/// ([`TrainingSetup::weak_scaling`] panics on them).
fn weak_scaling_chips(chips: usize) -> Result<usize, UsageError> {
    if chips < 2 {
        return usage_err(format!("weak scaling needs at least 2 chips, got {chips}"));
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
    let name = model.name();
    usage_err(format!(
        "no {chips}-chip mesh shape divides the FC GeMMs of {name}"
    ))
}

/// [`plannable_chips`] over every mesh shape the autotuner considers.
fn tunable_chips(model: Model, chips: usize) -> Result<usize, UsageError> {
    plannable_chips(model, chips, &Autotuner::candidate_meshes(chips))
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
        return usage_err(format!(
            "--fail-at {at} is past the end of the arrival trace (last arrival at \
             {:.3} s); the death would never fire — lower --fail-at or raise --requests",
            last.arrival_secs
        ));
    }
    Ok(())
}

/// Parses the argument list (without the program name) against the
/// subcommand's table row: its positionals in order, then its flags in
/// any order, a repeated flag keeping its last value.
///
/// # Errors
///
/// Returns a [`UsageError`] describing the problem plus the usage text.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let (name, rest) = match args.split_first() {
        Some((name, rest)) if !matches!(name.as_str(), "-h" | "--help") => (name.as_str(), rest),
        _ => ("help", &[][..]),
    };
    let leads = |row: &&Subcommand| match (row.args.first(), rest.first()) {
        (Some(arg), Some(s)) => !arg.is_flag() && arg.kind.parse(s, arg.label).is_ok(),
        _ => false,
    };
    let rows = || SUBCOMMANDS.iter().filter(|row| row.name == name);
    let row = rows()
        .find(leads)
        .or_else(|| rows().next_back())
        .ok_or_else(|| UsageError(format!("unknown command '{name}'")))?;
    let mut values: Vec<Option<Value>> = row.args.iter().map(|_| None).collect();
    let mut tokens = rest.iter().map(String::as_str);
    for (slot, arg) in row.args.iter().enumerate().filter(|(_, a)| !a.is_flag()) {
        let s = tokens
            .next()
            .ok_or_else(|| UsageError(format!("missing argument: {}", arg.name)))?;
        values[slot] = Some(arg.kind.parse(s, arg.label)?);
    }
    // Rows without flags ignore trailing arguments, so invocations that
    // pass extras (`autotune gpt3 16 extra`) keep parsing.
    if row.args.iter().any(Arg::is_flag) {
        while let Some(token) = tokens.next() {
            let slot = row
                .args
                .iter()
                .position(|a| a.is_flag() && a.name == token)
                .ok_or_else(|| UsageError(format!("unknown flag '{token}'")))?;
            let arg = &row.args[slot];
            let s = match arg.kind {
                Kind::Switch => "",
                _ => tokens
                    .next()
                    .ok_or_else(|| UsageError(format!("flag {token} needs a value")))?,
            };
            values[slot] = Some(arg.kind.parse(s, arg.label)?);
        }
    }
    (row.build)(&Args {
        spec: row.args,
        values,
    })
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
    if let Command::Serve { threads, .. }
    | Command::Faults { threads, .. }
    | Command::Resilience { threads, .. }
    | Command::Metrics { threads, .. } = &cmd
    {
        if let Some(n) = *threads {
            meshslice::par::set_threads(n);
        }
    }
    match cmd {
        Command::Help => println!("{}", usage()),
        Command::Autotune { model, chips } => {
            let model = model.config();
            let setup = TrainingSetup::weak_scaling(chips);
            let tuner = Autotuner::new(cfg.clone());
            let plan = tuner.tune(&model, setup, chips);
            println!("{model} on {chips} chips -> mesh {}", plan.mesh_shape);
            let mut t = table(&["layer", "pass", "dataflow", "S"]);
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
            let mut t = table(&["algorithm", "mesh", "FC util", "step"]);
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
            let mut t = table(&["mesh", "estimated", "simulated"]);
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
            let mut t = table(&["S", "estimated", "simulated"]);
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
            let options = PlanOptions::default();
            let plans = plan_cluster(&model, chips, batch, 2048, 256, &cfg, &options);
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
            let mut t = table(&["state", "per chip"]);
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
            let prompt_len = DEFAULT_PROMPT_LEN;
            let rows = inference_study(&model, chips, &[32, 128, 512], prompt_len, &cfg);
            let fmt = |lat: &Option<f64>| {
                lat.map(|x| format!("{:.1} us", x * 1e6))
                    .unwrap_or_else(|| "-".into())
            };
            let mut t = table(&["batch", "phase", "MeshSlice", "Collective", "Wang"]);
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
            ..
        } => {
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
                Format::Json => println!("{}", json.to_string_pretty()),
                Format::Prometheus => print!("{}", report.to_prometheus()),
                Format::Text => {
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
                    let mut t = table(&["metric", "p50", "p95", "p99", "mean"]);
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
                write(&path, json.to_string_pretty())?;
                println!("serving artifact -> {path}");
            }
            if let Some(trace) = recorded {
                if let Some(path) = trace_out {
                    write(&path, trace.to_jsonl())?;
                    eprintln!("serving trace -> {path} ({} events)", trace.len());
                }
                if let Some(path) = trace_chrome {
                    write(&path, trace.to_chrome_trace())?;
                    eprintln!("chrome trace -> {path}");
                }
                if explain || explain_out.is_some() {
                    let blame = trace.blame();
                    if explain {
                        print!("{}", blame.render_text());
                    }
                    if let Some(path) = explain_out {
                        write(&path, blame.to_json().to_string_pretty())?;
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
            ..
        } => {
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
            ..
        } => {
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
            let mut t = table(&[
                "chip MTBF",
                "mesh",
                "S",
                "checkpoint",
                "expected",
                "simulated",
                "failures",
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
            let scheduled = [8usize, 4, 2, 1]
                .into_iter()
                .find_map(|s| schedule_fc1_at(&torus, problem, s, cfg.elem_bytes).map(|p| (p, s)));
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
                    write(&path, &json)?;
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
            ..
        } => {
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
                Format::Json => println!("{}", m.to_json().to_string_pretty()),
                Format::Prometheus => print!("{}", m.to_prometheus()),
                Format::Text => {
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
                    let mut t = table(&["S", "makespan", "overlap", "FC util"]);
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
                    let mut t = table(&["kind", "cluster busy", "critical path"]);
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
                write(&path, m.to_json().to_string_pretty())?;
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
                write(&path, log.to_json().to_string_pretty())?;
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
            let mut t = table(&["method", "torus", "traffic/chip"]);
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
            shape: None,
            format,
        } => {
            let shapes = Autotuner::candidate_meshes_nd(chips, max_rank);
            let planes = |s: &MeshShape| MeshView::full(*s).planes().len();
            if format == Format::Json {
                let rows = shapes.iter().map(|s| {
                    let axes = s.axes().iter().map(|a| {
                        Json::obj(vec![
                            ("name", Json::Str(a.name().to_string())),
                            ("size", num(a.size())),
                        ])
                    });
                    Json::obj(vec![
                        ("shape", Json::Str(s.to_string())),
                        ("rank", num(s.rank())),
                        ("axes", Json::Arr(axes.collect())),
                        ("planes", num(planes(s))),
                    ])
                });
                let doc = Json::obj(vec![
                    ("chips", num(chips)),
                    ("max_rank", num(max_rank)),
                    ("factorizations", Json::Arr(rows.collect())),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                println!("{chips} chips, factorizations up to rank {max_rank}:");
                let mut t = table(&["shape", "rank", "axes", "2D planes"]);
                for s in &shapes {
                    let axes: Vec<String> = s
                        .axes()
                        .iter()
                        .map(|a| format!("{}={}", a.name(), a.size()))
                        .collect();
                    t.row(vec![
                        s.to_string(),
                        s.rank().to_string(),
                        axes.join(","),
                        planes(s).to_string(),
                    ]);
                }
                println!("{t}");
            }
        }
        Command::Mesh {
            shape: Some(shape),
            format,
            ..
        } => {
            let planes = MeshView::full(shape).planes();
            if format == Format::Json {
                let rows = planes.iter().map(|p| {
                    let fixed = p.fixed.iter().map(|(name, i)| {
                        Json::obj(vec![
                            ("axis", Json::Str(name.to_string())),
                            ("index", num(*i)),
                        ])
                    });
                    Json::obj(vec![
                        ("plane", Json::Str(p.to_string())),
                        ("row_axis", Json::Str(p.row_axis.to_string())),
                        ("col_axis", Json::Str(p.col_axis.to_string())),
                        ("fixed", Json::Arr(fixed.collect())),
                        (
                            "chips",
                            Json::Arr(p.view.chips().iter().map(|c| num(c.0)).collect()),
                        ),
                    ])
                });
                let doc = Json::obj(vec![
                    ("shape", Json::Str(shape.to_string())),
                    ("planes", Json::Arr(rows.collect())),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                println!("shape {shape}: {} 2D plane views", planes.len());
                let mut t = table(&["plane", "logical", "chips"]);
                for p in &planes {
                    let chips = p.view.chips();
                    let preview = if chips.len() <= 8 {
                        let ids: Vec<String> = chips.iter().map(|c| c.0.to_string()).collect();
                        ids.join(",")
                    } else {
                        format!("{} chips from {}", chips.len(), chips[0].0)
                    };
                    let (rows, cols) = (p.view.axis_len(p.row_axis), p.view.axis_len(p.col_axis));
                    t.row(vec![
                        p.to_string(),
                        format!("{}x{}", rows.unwrap_or(0), cols.unwrap_or(0)),
                        preview,
                    ]);
                }
                println!("{t}");
            }
        }
    }
    Ok(())
}

/// A JSON number from a count.
fn num(x: usize) -> Json {
    Json::Num(x as f64)
}

/// A table with these column headers.
fn table(headers: &[&str]) -> Table {
    Table::new(headers.iter().map(|h| h.to_string()).collect())
}

/// Writes an output file, naming the path on failure.
fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
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
    use std::path::Path;

    fn load_metrics(path: &str) -> Result<RunMetrics, String> {
        RunMetrics::from_json(&load_json(path)?)
    }

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
            // The top of the severity ladder, 1 + 2(x - 1), overflowed
            // to inf and `FaultSpec::sample` panicked on it.
            "faults --model gpt3 --chips 16 --straggler inf --seeds 1",
            "faults --model gpt3 --chips 16 --straggler 1e308 --seeds 1",
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
                format: Format::Text,
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
                format: Format::Json,
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
                format: Format::Text,
            }
        );
        assert_eq!(
            parse(&args("mesh 16 --max-rank 4 --shape 4x2x2 --format json")).unwrap(),
            Command::Mesh {
                chips: 16,
                max_rank: 4,
                shape: Some(MeshShape::from_sizes(&[4, 2, 2]).unwrap()),
                format: Format::Json,
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
        for fmt in [Format::Text, Format::Json] {
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
        let usage = usage();
        for row in SUBCOMMANDS {
            assert!(
                usage.contains(&format!("meshslice {}", row.name)),
                "usage text is missing '{}'",
                row.name
            );
            // Invoking a subcommand bare may complain about missing
            // arguments, never about an unknown command.
            if let Err(e) = parse(&[row.name.to_string()]) {
                assert!(
                    !e.to_string().contains("unknown command"),
                    "parse does not recognize '{}'",
                    row.name
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
                assert_eq!(format, Format::Json);
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
                assert_eq!(format, Format::Text);
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
                assert_eq!(format, Format::Prometheus);
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

    #[test]
    fn straggler_severity_ladder_must_stay_finite() {
        for ok in ["1", "1.5", "8e307"] {
            assert!(
                Kind::Straggler.parse(ok, "straggler slowdown").is_ok(),
                "{ok}"
            );
        }
        for bad in ["0.5", "nan", "inf", "1e308", "-inf", "x"] {
            let err = Kind::Straggler
                .parse(bad, "straggler slowdown")
                .unwrap_err();
            assert!(
                err.to_string().contains("straggler slowdown"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn serve_rejects_flags_it_would_ignore() {
        for line in [
            // An explicit fleet size the pinned layout contradicts.
            "serve --model tiny --chips 64 --replicas 1 --mesh 1x2",
            "serve --chips 16 --replicas 2 --mesh 4x4",
            // Layout knobs without a layout to pin, and a tuner knob
            // with one.
            "serve --s 4",
            "serve --max-batch 8",
            "serve --mesh 4x4 --screen",
        ] {
            let err = parse(&args(line)).unwrap_err().to_string();
            assert!(err.contains("--"), "{line}: {err}");
        }
        for line in [
            "serve --chips 32 --replicas 2 --mesh 4x4 --s 4 --max-batch 8",
            "serve --chips 12 --replicas 3 --mesh 2x2",
            "serve --mesh 4x4 --s 8",
            "serve --screen",
        ] {
            assert!(parse(&args(line)).is_ok(), "{line}");
        }
        // With --mesh and no --chips the default stays in the command;
        // execute sizes the fleet from the mesh.
        match parse(&args("serve --mesh 1x2 --replicas 1")).unwrap() {
            Command::Serve { chips, mesh, .. } => {
                assert_eq!(chips, 32);
                assert_eq!(mesh, Some(MeshShape::new(1, 2)));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    /// Placeholder classes of [`FUZZ_CLASSES`]: the kind's small valid
    /// value, and the value left out.
    const SMALL: &str = "<small>";
    const MISSING: &str = "<missing>";

    /// The value classes the fuzz tests give every argument.
    const FUZZ_CLASSES: [&str; 8] = [SMALL, "0", "-1", "nan", "inf", "1e308", "abc", MISSING];

    /// Flags every fuzz case of a row that has them starts from, so the
    /// cases the parser accepts stay cheap enough to execute.
    const FUZZ_BASE: [(&str, &str); 7] = [
        ("--model", "tiny"),
        ("--chips", "4"),
        ("--replicas", "1"),
        ("--seeds", "1"),
        ("--steps", "4"),
        ("--requests", "4"),
        ("--threads", "1"),
    ];

    /// A small valid value of `arg`; paths point into `dir`.
    fn small(arg: &Arg, dir: &Path) -> String {
        match arg.kind {
            Kind::Switch => String::new(),
            Kind::Count | Kind::Rank => "2".into(),
            Kind::Seed => "7".into(),
            Kind::Positive | Kind::NonNegative | Kind::Straggler => "1.5".into(),
            Kind::Model => "tiny".into(),
            Kind::Mesh | Kind::Shape => "2x2".into(),
            Kind::Path => dir
                .join(arg.name.trim_start_matches('-'))
                .display()
                .to_string(),
            Kind::Format(choices) => choices[choices.len() - 1].0.into(),
        }
    }

    /// The argv of `row` with small positionals and [`FUZZ_BASE`], then
    /// each `(argument index, value class)` override in order.
    fn fuzz_case(row: &Subcommand, overrides: &[(usize, &str)], dir: &Path) -> Vec<String> {
        let mut argv = vec![row.name.to_string()];
        for (i, arg) in row.args.iter().enumerate().filter(|(_, a)| !a.is_flag()) {
            match overrides.iter().rev().find(|(j, _)| *j == i) {
                Some(&(_, MISSING)) => return argv,
                Some(&(_, SMALL)) | None => argv.push(small(arg, dir)),
                Some(&(_, value)) => argv.push(value.into()),
            }
        }
        for (flag, value) in FUZZ_BASE {
            if row.args.iter().any(|a| a.name == flag) {
                argv.extend([flag.into(), value.into()]);
            }
        }
        for &(i, class) in overrides {
            let arg = &row.args[i];
            if arg.is_flag() {
                argv.push(arg.name.into());
                match class {
                    MISSING => {}
                    SMALL if matches!(arg.kind, Kind::Switch) => {}
                    SMALL => argv.push(small(arg, dir)),
                    value => argv.push(value.into()),
                }
            }
        }
        argv
    }

    /// Whether `cmd` is small enough to execute in a unit test: the tiny
    /// model on at most 16 chips, at most 8 requests/steps/seeds, 1 or 2
    /// threads, and every output path in the temp dir.
    fn cheap(cmd: &Command) -> bool {
        let temp = |paths: &[&Option<String>]| {
            paths.iter().all(|p| {
                p.as_deref()
                    .is_none_or(|p| std::path::Path::new(p).starts_with(std::env::temp_dir()))
            })
        };
        let threads = |t: &Option<usize>| matches!(t, Some(1 | 2));
        let tiny = |model: &Model, chips: usize| *model == Model::Tiny && chips <= 16;
        match cmd {
            Command::Autotune { model, chips }
            | Command::Compare { model, chips }
            | Command::SweepMesh { model, chips }
            | Command::Memory { model, chips }
            | Command::Inference { model, chips } => tiny(model, *chips),
            Command::SweepSlice { model, mesh } => tiny(model, mesh.num_chips()),
            Command::Plan3d {
                model,
                chips,
                batch,
            } => tiny(model, *chips) && *batch <= 8,
            Command::Serve {
                model,
                chips,
                replicas,
                requests,
                mesh,
                threads: t,
                out,
                trace_out,
                trace_chrome,
                explain_out,
                ..
            } => {
                let fleet = mesh.map_or(*chips, |m| m.num_chips() * replicas);
                tiny(model, fleet)
                    && *requests <= 8
                    && threads(t)
                    && temp(&[out, trace_out, trace_chrome, explain_out])
            }
            Command::Faults {
                model,
                chips,
                seeds,
                threads: t,
                ..
            } => tiny(model, *chips) && *seeds <= 8 && threads(t),
            Command::Resilience {
                model,
                chips,
                steps,
                threads: t,
                ..
            } => tiny(model, *chips) && *steps <= 8 && threads(t),
            Command::Trace {
                model, mesh, out, ..
            } => tiny(model, mesh.num_chips()) && temp(&[out]),
            Command::Metrics {
                model,
                mesh,
                windows,
                out,
                tunelog,
                threads: t,
                ..
            } => {
                tiny(model, mesh.num_chips())
                    && *windows <= 16
                    && threads(t)
                    && temp(&[out, tunelog])
            }
            Command::Mesh { chips, .. } => *chips <= 16,
            Command::CompareRuns { .. } | Command::Traffic | Command::Help => true,
        }
    }

    /// Parses `argv`: it must give a command or a usage error, and a
    /// [`cheap`] command must execute to `Ok` or `Err`, never panic.
    fn fuzz_one(argv: &[String]) {
        match parse(argv) {
            Err(e) => assert!(e.to_string().contains("USAGE"), "{argv:?}: {e}"),
            Ok(cmd) if cheap(&cmd) => {
                println!("executing {argv:?}");
                let _ = execute(cmd);
            }
            Ok(_) => {}
        }
    }

    /// A fresh, empty directory under the temp dir for one fuzz test's
    /// output paths, so parallel tests share no files.
    fn fuzz_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("meshslice_cli_{test}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fuzz_every_argument_with_every_value_class() {
        let dir = fuzz_dir("fuzz_sweep");
        let mut cases = std::collections::BTreeSet::new();
        for row in SUBCOMMANDS {
            cases.insert(fuzz_case(row, &[], &dir));
            let mut unknown = fuzz_case(row, &[], &dir);
            unknown.push("--bogus".into());
            cases.insert(unknown);
            for i in 0..row.args.len() {
                for class in FUZZ_CLASSES {
                    cases.insert(fuzz_case(row, &[(i, class)], &dir));
                }
            }
        }
        for argv in &cases {
            fuzz_one(argv);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Seeded draws of up to three (argument, value class)
        /// overrides on one subcommand, repeated flags included.
        #[test]
        fn fuzz_argument_combinations(
            row in 0..SUBCOMMANDS.len(),
            args in (0usize..64, 0usize..64, 0usize..64),
            classes in (0..FUZZ_CLASSES.len(), 0..FUZZ_CLASSES.len(), 0..FUZZ_CLASSES.len()),
            picks in 1usize..4,
        ) {
            let row = &SUBCOMMANDS[row];
            let picked = [(args.0, classes.0), (args.1, classes.1), (args.2, classes.2)];
            let overrides: Vec<(usize, &str)> = picked
                .into_iter()
                .take(picks)
                .filter(|_| !row.args.is_empty())
                .map(|(i, c)| (i % row.args.len(), FUZZ_CLASSES[c]))
                .collect();
            let dir = fuzz_dir("fuzz_combinations");
            fuzz_one(&fuzz_case(row, &overrides, &dir));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
