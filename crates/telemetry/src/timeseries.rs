//! Streaming windowed fleet time-series and the serving-run diff.
//!
//! [`ReplicaSeriesBuilder`] is a [`TraceSink`] that folds the fleet
//! event stream into fixed-width time windows *online*: admitted and
//! completed counts, decode-batch occupancy, KV-cache peaks, queue
//! depth, preemption and re-prefill rates, busy/outage seconds, and
//! generated tokens per window. Memory is O(windows), never O(events):
//! when a run outgrows [`MAX_WINDOWS`] bins the builder doubles the
//! window width and merges adjacent pairs, so an arbitrarily long
//! simulation still fits a bounded series (widths are always
//! `BASE_WINDOW_SECS · 2^k`, which is also what lets two runs be
//! aligned for diffing).
//!
//! [`FleetDiff`] compares two serving artifacts — headline scalar
//! deltas plus per-window ASCII strips of the aggregated series — the
//! serving-side sibling of [`crate::RunDiff`] for training runs.

use std::fmt;

use crate::json::Json;
use crate::serving_trace::{ServingEvent, TraceSink};

/// Width of the finest time window, seconds.
pub(crate) const BASE_WINDOW_SECS: f64 = 0.25;

/// Bin-count ceiling; exceeding it doubles the window width.
pub(crate) const MAX_WINDOWS: usize = 4096;

/// One replica's accounting over one time window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesWindow {
    /// Requests admitted to the waiting queue.
    pub admitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Requests shed by SLO-aware admission control.
    pub shed: usize,
    /// Router retry decisions (backoff re-enqueues).
    pub retries: usize,
    /// Requests the router timed out (retry budget or deadline spent).
    pub timed_out: usize,
    /// Decode iterations finishing in the window.
    pub decode_steps: usize,
    /// Sum of decode batch sizes (occupancy = `batch_sum / decode_steps`).
    pub batch_sum: usize,
    /// Prefill chunks finishing in the window.
    pub prefill_chunks: usize,
    /// Prefill chunks that re-admitted preempted work.
    pub reprefills: usize,
    /// Preemption events.
    pub preemptions: usize,
    /// Tokens generated (decode batches + first tokens).
    pub tokens: usize,
    /// Seconds the replica spent in prefill/decode steps.
    pub busy_secs: f64,
    /// Seconds the replica was out for failover.
    pub outage_secs: f64,
    /// Peak per-chip KV bytes observed.
    pub kv_peak_bytes: u64,
    /// Peak waiting-queue depth observed.
    pub queue_peak: usize,
}

impl SeriesWindow {
    fn merge(&self, other: &SeriesWindow) -> SeriesWindow {
        SeriesWindow {
            admitted: self.admitted + other.admitted,
            completed: self.completed + other.completed,
            rejected: self.rejected + other.rejected,
            shed: self.shed + other.shed,
            retries: self.retries + other.retries,
            timed_out: self.timed_out + other.timed_out,
            decode_steps: self.decode_steps + other.decode_steps,
            batch_sum: self.batch_sum + other.batch_sum,
            prefill_chunks: self.prefill_chunks + other.prefill_chunks,
            reprefills: self.reprefills + other.reprefills,
            preemptions: self.preemptions + other.preemptions,
            tokens: self.tokens + other.tokens,
            busy_secs: self.busy_secs + other.busy_secs,
            outage_secs: self.outage_secs + other.outage_secs,
            kv_peak_bytes: self.kv_peak_bytes.max(other.kv_peak_bytes),
            queue_peak: self.queue_peak.max(other.queue_peak),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("admitted", Json::Num(self.admitted as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("timed_out", Json::Num(self.timed_out as f64)),
            ("decode_steps", Json::Num(self.decode_steps as f64)),
            ("batch_sum", Json::Num(self.batch_sum as f64)),
            ("prefill_chunks", Json::Num(self.prefill_chunks as f64)),
            ("reprefills", Json::Num(self.reprefills as f64)),
            ("preemptions", Json::Num(self.preemptions as f64)),
            ("tokens", Json::Num(self.tokens as f64)),
            ("busy_s", Json::Num(self.busy_secs)),
            ("outage_s", Json::Num(self.outage_secs)),
            ("kv_peak_bytes", Json::Num(self.kv_peak_bytes as f64)),
            ("queue_peak", Json::Num(self.queue_peak as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<SeriesWindow, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("window missing numeric '{k}'"))
        };
        Ok(SeriesWindow {
            admitted: num("admitted")? as usize,
            completed: num("completed")? as usize,
            rejected: num("rejected")? as usize,
            shed: num("shed")? as usize,
            retries: num("retries")? as usize,
            timed_out: num("timed_out")? as usize,
            decode_steps: num("decode_steps")? as usize,
            batch_sum: num("batch_sum")? as usize,
            prefill_chunks: num("prefill_chunks")? as usize,
            reprefills: num("reprefills")? as usize,
            preemptions: num("preemptions")? as usize,
            tokens: num("tokens")? as usize,
            busy_secs: num("busy_s")?,
            outage_secs: num("outage_s")?,
            kv_peak_bytes: num("kv_peak_bytes")? as u64,
            queue_peak: num("queue_peak")? as usize,
        })
    }
}

/// Online per-replica window aggregator; implements [`TraceSink`] so the
/// fleet event loop can drive it directly.
#[derive(Clone, Debug)]
pub struct ReplicaSeriesBuilder {
    window_secs: f64,
    windows: Vec<SeriesWindow>,
}

impl Default for ReplicaSeriesBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaSeriesBuilder {
    /// A builder at the finest window width (0.25 s).
    pub fn new() -> ReplicaSeriesBuilder {
        ReplicaSeriesBuilder {
            window_secs: BASE_WINDOW_SECS,
            windows: Vec::new(),
        }
    }

    /// Window index of time `t`, growing (and rebinning) as needed.
    fn slot(&mut self, t: f64) -> usize {
        let t = t.max(0.0);
        loop {
            let idx = (t / self.window_secs) as usize;
            if idx < MAX_WINDOWS {
                if idx >= self.windows.len() {
                    self.windows.resize(idx + 1, SeriesWindow::default());
                }
                return idx;
            }
            self.coarsen();
        }
    }

    /// Doubles the window width, merging adjacent pairs in place.
    fn coarsen(&mut self) {
        self.window_secs *= 2.0;
        let merged: Vec<SeriesWindow> = self
            .windows
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    pair[0].merge(&pair[1])
                } else {
                    pair[0]
                }
            })
            .collect();
        self.windows = merged;
    }

    /// Spreads `kind` seconds of an interval `[s, e]` pro-rata over the
    /// windows it overlaps.
    fn add_interval(&mut self, s: f64, e: f64, outage: bool) {
        let s = s.max(0.0);
        let e = e.max(s);
        let last = self.slot(e);
        let w = self.window_secs;
        let first = ((s / w) as usize).min(last);
        for i in first..=last {
            let lo = i as f64 * w;
            let hi = lo + w;
            let ov = (e.min(hi) - s.max(lo)).max(0.0);
            if ov > 0.0 {
                if outage {
                    self.windows[i].outage_secs += ov;
                } else {
                    self.windows[i].busy_secs += ov;
                }
            }
        }
    }

    /// Folds one event into the series.
    pub fn observe(&mut self, e: &ServingEvent) {
        match e {
            ServingEvent::Arrival { .. } | ServingEvent::FirstToken { .. } => {}
            ServingEvent::Queued { t, queue, .. } => {
                let i = self.slot(*t);
                self.windows[i].admitted += 1;
                self.windows[i].queue_peak = self.windows[i].queue_peak.max(*queue);
            }
            ServingEvent::Rejected { t, .. } => {
                let i = self.slot(*t);
                self.windows[i].rejected += 1;
            }
            ServingEvent::Prefill {
                start,
                end,
                fresh,
                resumed,
                kv_bytes,
                queue,
                ..
            } => {
                self.add_interval(*start, *end, false);
                let i = self.slot(*end);
                self.windows[i].prefill_chunks += 1;
                if !resumed.is_empty() {
                    self.windows[i].reprefills += 1;
                }
                self.windows[i].tokens += fresh.len();
                self.windows[i].kv_peak_bytes = self.windows[i].kv_peak_bytes.max(*kv_bytes);
                self.windows[i].queue_peak = self.windows[i].queue_peak.max(*queue);
            }
            ServingEvent::Decode {
                start,
                end,
                batch,
                kv_bytes,
                queue,
                ..
            } => {
                self.add_interval(*start, *end, false);
                let i = self.slot(*end);
                self.windows[i].decode_steps += 1;
                self.windows[i].batch_sum += batch;
                self.windows[i].tokens += batch;
                self.windows[i].kv_peak_bytes = self.windows[i].kv_peak_bytes.max(*kv_bytes);
                self.windows[i].queue_peak = self.windows[i].queue_peak.max(*queue);
            }
            ServingEvent::Preempted { t, .. } => {
                let i = self.slot(*t);
                self.windows[i].preemptions += 1;
            }
            ServingEvent::Outage { start, end } => {
                self.add_interval(*start, *end, true);
            }
            ServingEvent::Completed { t, .. } => {
                let i = self.slot(*t);
                self.windows[i].completed += 1;
            }
            ServingEvent::Shed { t, queue, .. } => {
                let i = self.slot(*t);
                self.windows[i].shed += 1;
                self.windows[i].queue_peak = self.windows[i].queue_peak.max(*queue);
            }
            ServingEvent::Retried { t, .. } => {
                let i = self.slot(*t);
                self.windows[i].retries += 1;
            }
            // The redistribution itself is already counted by its
            // retry decisions; the landing shows up as a Queued event
            // on the survivor replica.
            ServingEvent::Redistributed { .. } => {}
            ServingEvent::TimedOut { t, .. } => {
                let i = self.slot(*t);
                self.windows[i].timed_out += 1;
            }
        }
    }

    /// Finalizes the builder into a series.
    pub fn finish(self) -> ReplicaSeries {
        ReplicaSeries {
            window_secs: self.window_secs,
            windows: self.windows,
        }
    }
}

impl TraceSink for ReplicaSeriesBuilder {
    fn event(&mut self, e: &ServingEvent) {
        self.observe(e);
    }
}

/// One replica's finished window series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicaSeries {
    /// Window width, seconds.
    pub window_secs: f64,
    /// Windows from `t = 0`, each covering `[i·w, (i+1)·w)`.
    pub windows: Vec<SeriesWindow>,
}

impl ReplicaSeries {
    /// Coarsens to `width` (must be `window_secs · 2^k`); no-op when
    /// already at `width`.
    fn coarsen_to(&mut self, width: f64) {
        while self.window_secs < width * (1.0 - 1e-9) {
            self.window_secs *= 2.0;
            self.windows = self
                .windows
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        p[0].merge(&p[1])
                    } else {
                        p[0]
                    }
                })
                .collect();
        }
    }
}

/// The whole fleet's window series at one common width.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetSeries {
    /// Window width shared by every replica, seconds.
    pub window_secs: f64,
    /// Per-replica series, replica order.
    pub replicas: Vec<ReplicaSeries>,
}

impl FleetSeries {
    /// Assembles per-replica builders, coarsening everything to the
    /// widest width so windows align across replicas.
    pub fn from_builders(builders: Vec<ReplicaSeriesBuilder>) -> FleetSeries {
        let mut replicas: Vec<ReplicaSeries> = builders.into_iter().map(|b| b.finish()).collect();
        let width = replicas
            .iter()
            .map(|r| r.window_secs)
            .fold(BASE_WINDOW_SECS, f64::max);
        for r in &mut replicas {
            r.coarsen_to(width);
        }
        FleetSeries {
            window_secs: width,
            replicas,
        }
    }

    /// Fleet-summed windows (element-wise merge across replicas).
    pub fn aggregate(&self) -> Vec<SeriesWindow> {
        let len = self
            .replicas
            .iter()
            .map(|r| r.windows.len())
            .max()
            .unwrap_or(0);
        let mut out = vec![SeriesWindow::default(); len];
        for r in &self.replicas {
            for (i, w) in r.windows.iter().enumerate() {
                out[i] = out[i].merge(w);
            }
        }
        out
    }

    /// Serializes as the `timeseries` section of the serving artifact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("window_secs", Json::Num(self.window_secs)),
            (
                "replicas",
                Json::Arr(
                    self.replicas
                        .iter()
                        .map(|r| {
                            Json::obj(vec![(
                                "windows",
                                Json::Arr(r.windows.iter().map(|w| w.to_json()).collect()),
                            )])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the `timeseries` section back.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<FleetSeries, String> {
        let window_secs = v
            .get("window_secs")
            .and_then(Json::as_f64)
            .ok_or("timeseries missing 'window_secs'")?;
        let reps = v
            .get("replicas")
            .and_then(Json::as_arr)
            .ok_or("timeseries missing 'replicas'")?;
        let mut replicas = Vec::with_capacity(reps.len());
        for r in reps {
            let ws = r
                .get("windows")
                .and_then(Json::as_arr)
                .ok_or("replica series missing 'windows'")?;
            let windows = ws
                .iter()
                .map(SeriesWindow::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            replicas.push(ReplicaSeries {
                window_secs,
                windows,
            });
        }
        Ok(FleetSeries {
            window_secs,
            replicas,
        })
    }
}

/// Whether a parsed artifact is a serving `FleetReport` (vs a training
/// `RunMetrics` document).
pub fn is_serving_artifact(doc: &Json) -> bool {
    doc.get("ttft_ms").is_some() && doc.get("per_replica").is_some()
}

const SHADES: &[u8] = b" .:-=+*#%@";
const STRIP_COLS: usize = 64;

fn shade(x: f64, max: f64) -> char {
    if x <= 0.0 || max <= 0.0 {
        return ' ';
    }
    let i = ((x / max) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[i.min(SHADES.len() - 1)] as char
}

/// Downsamples to at most [`STRIP_COLS`] values by merging equal runs.
fn strip(values: &[f64]) -> Vec<f64> {
    if values.len() <= STRIP_COLS {
        return values.to_vec();
    }
    let group = values.len().div_ceil(STRIP_COLS);
    values
        .chunks(group)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// A headline scalar compared across two serving runs.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetDelta {
    /// Metric name as it appears in the artifact.
    pub name: &'static str,
    /// Value in run A.
    pub a: f64,
    /// Value in run B.
    pub b: f64,
}

/// Comparison of two serving artifacts: headline scalar deltas plus
/// aligned per-window strips of the fleet-aggregated time-series.
/// Render with `Display`.
#[derive(Clone, Debug)]
pub struct FleetDiff {
    /// Headline metric pairs.
    pub deltas: Vec<FleetDelta>,
    series_a: FleetSeries,
    series_b: FleetSeries,
}

impl FleetDiff {
    /// Builds the diff from two parsed serving artifacts.
    ///
    /// # Errors
    ///
    /// When either document is not a serving artifact or its
    /// `timeseries` section is malformed.
    pub fn new(a: &Json, b: &Json) -> Result<FleetDiff, String> {
        if !is_serving_artifact(a) || !is_serving_artifact(b) {
            return Err("both artifacts must be serving reports (serving.schema.json)".into());
        }
        let scalar = |doc: &Json, path: &[&str]| -> f64 {
            let mut v = doc;
            for k in path {
                match v.get(k) {
                    Some(next) => v = next,
                    None => return 0.0,
                }
            }
            v.as_f64().unwrap_or(0.0)
        };
        let headline: [(&'static str, &[&str]); 10] = [
            ("qps", &["qps"]),
            ("completed", &["completed"]),
            ("rejected", &["rejected"]),
            ("preemptions", &["preemptions"]),
            ("failovers", &["failovers"]),
            ("ttft_p99_ms", &["ttft_ms", "p99"]),
            ("tpot_p50_ms", &["tpot_ms", "p50"]),
            ("goodput_tokens_per_chip_s", &["goodput_tokens_per_chip_s"]),
            ("slo_attainment", &["slo_attainment"]),
            ("makespan_secs", &["makespan_secs"]),
        ];
        let deltas = headline
            .iter()
            .map(|(name, path)| FleetDelta {
                name,
                a: scalar(a, path),
                b: scalar(b, path),
            })
            .collect();
        let series = |doc: &Json| -> Result<FleetSeries, String> {
            match doc.get("timeseries") {
                Some(ts) => FleetSeries::from_json(ts),
                None => Ok(FleetSeries::default()),
            }
        };
        let mut series_a = series(a)?;
        let mut series_b = series(b)?;
        // Align widths so window i means the same wall-clock in both.
        let width = series_a.window_secs.max(series_b.window_secs);
        if width > 0.0 {
            for s in [&mut series_a, &mut series_b] {
                for r in &mut s.replicas {
                    r.coarsen_to(width);
                }
                s.window_secs = width;
            }
        }
        Ok(FleetDiff {
            deltas,
            series_a,
            series_b,
        })
    }
}

impl fmt::Display for FleetDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serving run diff (A vs B)")?;
        writeln!(
            f,
            "{:<27} {:>14} {:>14} {:>10}",
            "metric", "A", "B", "delta"
        )?;
        for d in &self.deltas {
            writeln!(
                f,
                "{:<27} {:>14.3} {:>14.3} {:>+10.3}",
                d.name,
                d.a,
                d.b,
                d.b - d.a
            )?;
        }
        let agg_a = self.series_a.aggregate();
        let agg_b = self.series_b.aggregate();
        if agg_a.is_empty() && agg_b.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "time-series ({}s windows, fleet-aggregated, '{}' = max):",
            self.series_a.window_secs,
            SHADES[SHADES.len() - 1] as char
        )?;
        type Track<'a> = (&'a str, &'a dyn Fn(&SeriesWindow) -> f64);
        let tracks: [Track; 4] = [
            ("tokens/s", &|w| w.tokens as f64),
            ("queue depth", &|w| w.queue_peak as f64),
            ("batch occupancy", &|w| {
                if w.decode_steps == 0 {
                    0.0
                } else {
                    w.batch_sum as f64 / w.decode_steps as f64
                }
            }),
            ("preemptions", &|w| w.preemptions as f64),
        ];
        for (name, get) in tracks {
            let va = strip(&agg_a.iter().map(get).collect::<Vec<_>>());
            let vb = strip(&agg_b.iter().map(get).collect::<Vec<_>>());
            let max = va.iter().chain(&vb).fold(0.0_f64, |m, &x| m.max(x));
            let row = |v: &[f64]| v.iter().map(|&x| shade(x, max)).collect::<String>();
            writeln!(f, "{:<17} A |{}|", name, row(&va))?;
            writeln!(f, "{:<17} B |{}|", "", row(&vb))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(start: f64, end: f64, batch: usize, queue: usize) -> ServingEvent {
        ServingEvent::Decode {
            start,
            end,
            batch,
            degraded: false,
            kv_bytes: 100,
            queue,
        }
    }

    #[test]
    fn windows_bin_counts_and_busy_time() {
        let mut b = ReplicaSeriesBuilder::new();
        b.observe(&ServingEvent::Queued {
            id: 0,
            t: 0.1,
            queue: 1,
        });
        b.observe(&decode(0.0, 0.5, 4, 2)); // spans windows 0 and 1
        b.observe(&ServingEvent::Completed {
            id: 0,
            t: 0.5,
            ttft: 0.2,
            generated: 3,
            preemptions: 0,
            slo_ok: true,
        });
        let s = b.finish();
        assert_eq!(s.window_secs, BASE_WINDOW_SECS);
        assert_eq!(s.windows[0].admitted, 1);
        assert!((s.windows[0].busy_secs - 0.25).abs() < 1e-12);
        assert!((s.windows[1].busy_secs - 0.25).abs() < 1e-12);
        // The step and completion land in the window containing `end`.
        assert_eq!(s.windows[2].decode_steps, 1);
        assert_eq!(s.windows[2].tokens, 4);
        assert_eq!(s.windows[2].completed, 1);
        assert_eq!(s.windows[2].queue_peak, 2);
    }

    #[test]
    fn long_runs_rebin_instead_of_growing_without_bound() {
        let mut b = ReplicaSeriesBuilder::new();
        let horizon = BASE_WINDOW_SECS * (MAX_WINDOWS as f64) * 5.0;
        let step = horizon / 100.0;
        for i in 0..100 {
            let t = i as f64 * step;
            b.observe(&decode(t, t + 0.1, 1, 0));
        }
        let s = b.finish();
        assert!(s.windows.len() <= MAX_WINDOWS);
        assert!(s.window_secs > BASE_WINDOW_SECS);
        // Rebinning conserves totals.
        let steps: usize = s.windows.iter().map(|w| w.decode_steps).sum();
        assert_eq!(steps, 100);
        let busy: f64 = s.windows.iter().map(|w| w.busy_secs).sum();
        assert!((busy - 100.0 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn fleet_series_aligns_replica_widths_and_round_trips() {
        let mut fine = ReplicaSeriesBuilder::new();
        fine.observe(&decode(0.0, 1.0, 2, 0));
        let mut coarse = ReplicaSeriesBuilder::new();
        let far = BASE_WINDOW_SECS * MAX_WINDOWS as f64 * 2.0;
        coarse.observe(&decode(far, far + 1.0, 3, 0));
        let fleet = FleetSeries::from_builders(vec![fine, coarse]);
        assert!(fleet.window_secs > BASE_WINDOW_SECS);
        for r in &fleet.replicas {
            assert_eq!(r.window_secs, fleet.window_secs);
        }
        let parsed = FleetSeries::from_json(&fleet.to_json()).expect("round trip");
        assert_eq!(parsed, fleet);
        let agg = fleet.aggregate();
        assert_eq!(agg.iter().map(|w| w.decode_steps).sum::<usize>(), 2);
    }

    #[test]
    fn fleet_diff_reports_deltas_and_strips() {
        let mut b = ReplicaSeriesBuilder::new();
        b.observe(&decode(0.0, 1.0, 2, 1));
        let series = FleetSeries::from_builders(vec![b]).to_json();
        let mk = |p99: f64| {
            Json::obj(vec![
                ("qps", Json::Num(5.0)),
                ("completed", Json::Num(10.0)),
                ("ttft_ms", Json::obj(vec![("p99", Json::Num(p99))])),
                ("per_replica", Json::Arr(vec![])),
                ("timeseries", series.clone()),
            ])
        };
        let diff = FleetDiff::new(&mk(100.0), &mk(250.0)).expect("serving artifacts");
        let text = diff.to_string();
        assert!(text.contains("ttft_p99_ms"));
        assert!(text.contains("+150.000"));
        assert!(text.contains("tokens/s"));
        let not_serving = Json::obj(vec![("makespan", Json::Num(1.0))]);
        assert!(FleetDiff::new(&not_serving, &mk(1.0)).is_err());
    }

    #[test]
    fn sniffer_distinguishes_serving_artifacts() {
        let serving = Json::obj(vec![
            ("ttft_ms", Json::obj(vec![])),
            ("per_replica", Json::Arr(vec![])),
        ]);
        let training = Json::obj(vec![("lanes", Json::Arr(vec![]))]);
        assert!(is_serving_artifact(&serving));
        assert!(!is_serving_artifact(&training));
    }
}
