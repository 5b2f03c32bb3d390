//! Wall-clock benchmark of the MeshSlice tuner/simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analytic|robust|pod|serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop of one client: draw a query from the
//! seed, run it through one public entry point of the stack, check the
//! output, repeat until `--seconds` have passed. Times are host time in
//! calibrated milliseconds (see `calibrate`). With `--trace 0` the last
//! stdout line reports the end-to-end metrics: the median and 75th
//! percentile query time and the set-up time; `attempted` is the number
//! of timed queries behind them. With `--trace 1` every query is also replayed
//! one layer call at a time under spans, the replay is checked against
//! the real output, and the line reports each layer's share of the
//! replay's time plus the work counted at each layer. The spans of the
//! first operations are written as a Chrome trace next to the binary.

mod analytic;
mod block;
mod calibrate;
mod pod;
mod rng;
mod robust;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use rng::Rng;
use trace::Tracer;

/// Worker threads of the tuners and fleets that fan out. Fixed so runs
/// on machines with different core counts measure the same work.
pub const THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Operations whose spans go into the written trace.
const TRACE_FILE_OPS: usize = 20;

/// One benchmark workload: a stream of seeded queries against one
/// entry point of the stack.
pub trait Workload: Sized {
    type Query;
    type Output;
    /// Queries run during set-up, so lazy state is built before timing.
    const WARMUP: usize;

    /// The program state queries run against.
    fn new() -> Self;
    /// Draws the next query.
    fn query(&self, rng: &mut Rng) -> Self::Query;
    /// The timed operation.
    fn run(&self, q: &Self::Query) -> Result<Self::Output, String>;
    /// Checks an output against properties the program promises.
    fn check(&self, q: &Self::Query, out: &Self::Output) -> Result<(), String>;
    /// Recomputes `out` one layer call at a time under `tr`; errors if
    /// the replay disagrees.
    fn replay(&self, q: &Self::Query, out: &Self::Output, tr: &mut Tracer) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The linear-interpolated `p`-quantile of `xs` (0 when empty).
fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let at = (xs.len() - 1) as f64 * p;
    let (lo, hi) = (xs[at.floor() as usize], xs[at.ceil() as usize]);
    lo + (hi - lo) * at.fract()
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Runs `f`; returns its output, wall time in ms, and calibrated ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = calibrate::loop_ms();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let after = calibrate::loop_ms();
    (out, wall, calibrate::normalize(wall, before, after))
}

struct Outcome {
    attempted: usize,
    failed: usize,
    first_error: Option<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Builds the program state and runs the warm-up queries,
/// `SETUP_REPEATS` times; returns the last state and the median set-up
/// time in calibrated seconds. Warm-up queries are checked but are not
/// samples, so only a failing one counts as attempted.
fn set_up<W: Workload>(seed: u64, out: &mut Outcome) -> (W, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let mut rng = Rng::new(!seed);
        let ((w, warm), _, ms) = timed(|| {
            let w = W::new();
            let warm: Vec<_> = (0..W::WARMUP)
                .map(|_| {
                    let q = w.query(&mut rng);
                    let r = w.run(&q);
                    (q, r)
                })
                .collect();
            (w, warm)
        });
        times.push(ms / 1e3);
        for (q, r) in warm {
            if let Err(e) = r.and_then(|o| w.check(&q, &o)) {
                out.attempted += 1;
                out.fail(format!("warm-up: {e}"));
            }
        }
        state = Some(w);
    }
    (state.expect("at least one set-up"), median(&times))
}

fn bench<W: Workload>(args: &Args) -> Outcome {
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        first_error: None,
        metrics: Vec::new(),
    };
    let (w, setup_s) = set_up::<W>(args.seed, &mut out);
    let mut rng = Rng::new(args.seed);
    let (mut wall_ms, mut query_ms, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let q = w.query(&mut rng);
        let (r, wall, ms) = timed(|| w.run(&q));
        wall_ms.push(wall);
        query_ms.push(ms);
        out.attempted += 1;
        let verdict = r.and_then(|o| {
            w.check(&q, &o)?;
            if args.trace {
                let (replayed, _, ms) = timed(|| {
                    tracer.begin();
                    let replayed = w.replay(&q, &o, &mut tracer);
                    tracer.end();
                    replayed
                });
                replay_ms.push(ms);
                replayed?;
            }
            Ok(())
        });
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
    let query = median(&query_ms);
    eprintln!(
        "perfbench: {} {} queries, median wall {:.3} ms, calibrated {query:.3} ms",
        args.workload,
        query_ms.len(),
        median(&wall_ms),
    );
    if !args.trace {
        out.metric("query_ms", query, "ms");
        out.metric("query_p75_ms", quantile(&query_ms, 0.75), "ms");
        out.metric("setup_s", setup_s, "s");
        return out;
    }
    out.metric("op_ms", query, "ms");
    out.metric("replay_ms", median(&replay_ms), "ms");
    for (layer, share) in tracer.layer_shares() {
        out.metric(&format!("{layer}_pct"), share, "%");
    }
    for (counter, per_op) in tracer.counts_per_op() {
        out.metric(counter, per_op, "count");
    }
    write_trace(&tracer, args);
    out
}

/// Writes the first operations' spans next to the benchmark binary
/// (inside the build directory); a failure only costs the file.
fn write_trace(tracer: &Tracer, args: &Args) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-trace")))
    else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace(TRACE_FILE_OPS)))
    {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <analytic|robust|pod|serve> --seed N --seconds S \
                 --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "analytic" => bench::<analytic::Analytic>(&args),
        "robust" => bench::<robust::Robust>(&args),
        "pod" => bench::<pod::Pod>(&args),
        "serve" => bench::<serve::Serve>(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    if let Some(e) = &out.first_error {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {e}",
            out.failed, out.attempted
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
