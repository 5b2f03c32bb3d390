//! Aggregated per-run metrics: busy fractions, overlap, windowed
//! utilization time series, and critical-path attribution — the
//! machine-readable counterpart of the paper's Figures 4 and 10.

use meshslice_sim::{NodeSpan, SimReport, SpanKind, SpanTrack};

use crate::critical_path::{op_slacks, CriticalPath, PathAttribution, PathKind};
use crate::json::Json;
use meshslice_sim::RunTimeline;

/// Per-chip lane labels, in [`SpanTrack::lane`] order.
pub(crate) const LANE_LABELS: [&str; 6] = ["compute", "row+", "row-", "col+", "col-", "host"];

/// Busy time of one chip's execution lane.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneStat {
    /// Chip index.
    pub chip: usize,
    /// Lane index, in [`SpanTrack::lane`] order: compute, row+, row-,
    /// col+, col-, host.
    pub lane: usize,
    /// Total busy seconds.
    pub busy: f64,
    /// Busy fraction of the makespan, in `[0, 1]`.
    pub utilization: f64,
}

/// Cluster-wide busy fractions over one time window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStat {
    /// Window start, seconds.
    pub start: f64,
    /// Window end, seconds.
    pub end: f64,
    /// Mean compute-lane busy fraction across chips.
    pub compute: f64,
    /// Mean link-lane busy fraction across chips and directions.
    pub link: f64,
}

/// One critical-path hotspot: time the path spent on one chip doing one
/// kind of work.
#[derive(Clone, Debug, PartialEq)]
pub struct Hotspot {
    /// Chip index.
    pub chip: usize,
    /// What the time was spent on.
    pub kind: PathKind,
    /// Critical-path seconds.
    pub seconds: f64,
}

/// The complete metric artifact of one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Free-form labels (model, mesh, slice count, …), emitted under
    /// `meta` in the JSON artifact.
    pub meta: Vec<(String, String)>,
    /// Wall-clock duration, seconds.
    pub makespan: f64,
    /// Cluster size.
    pub num_chips: usize,
    /// Achieved FLOP utilization.
    pub flop_utilization: f64,
    /// Fraction of transfer time hidden under compute.
    pub overlap_efficiency: f64,
    /// Cluster-wide busy seconds per category:
    /// `[compute, slice, comm_launch, comm_sync, comm_transfer]`.
    pub buckets: [f64; 5],
    /// Per-chip, per-lane busy time.
    pub lanes: Vec<LaneStat>,
    /// Windowed busy-fraction time series.
    pub windows: Vec<WindowStat>,
    /// Critical-path time per category; totals to the makespan.
    pub critical_path: PathAttribution,
    /// Critical-path time per `(chip, kind)`, descending.
    pub hotspots: Vec<Hotspot>,
    /// Slack statistics over program operations:
    /// `(min, mean, max)` seconds.
    pub slack: (f64, f64, f64),
}

/// Bucket labels in the order of [`RunMetrics::buckets`].
pub const BUCKET_LABELS: [&str; 5] = [
    "compute",
    "slice",
    "comm_launch",
    "comm_sync",
    "comm_transfer",
];

impl RunMetrics {
    /// Builds the metric artifact from one instrumented run.
    ///
    /// `num_ops` is the program length (for per-op slack);
    /// `num_windows` controls the time-series resolution.
    pub fn collect(
        report: &SimReport,
        spans: &[NodeSpan],
        timeline: &RunTimeline,
        num_ops: usize,
        num_windows: usize,
    ) -> RunMetrics {
        let makespan = report.makespan().as_secs();
        let chips = report.num_chips();
        let totals = report.totals();

        let mut busy = vec![[0.0f64; 6]; chips];
        for s in spans {
            busy[s.chip.index()][s.track.lane()] += s.end.as_secs() - s.start.as_secs();
        }
        let lanes = (0..chips)
            .flat_map(|chip| (0..6).map(move |lane| (chip, lane)))
            .map(|(chip, lane)| LaneStat {
                chip,
                lane,
                busy: busy[chip][lane],
                utilization: if makespan > 0.0 {
                    (busy[chip][lane] / makespan).clamp(0.0, 1.0)
                } else {
                    0.0
                },
            })
            .collect();

        let windows = window_series(spans, makespan, chips, num_windows);

        let path = CriticalPath::extract(timeline);
        let hotspots = path
            .by_chip_kind()
            .into_iter()
            .map(|(chip, kind, seconds)| Hotspot {
                chip: chip.index(),
                kind,
                seconds,
            })
            .collect();

        let slacks = op_slacks(timeline, num_ops);
        let slack = if slacks.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let min = slacks.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = slacks.iter().cloned().fold(0.0, f64::max);
            let mean = slacks.iter().sum::<f64>() / slacks.len() as f64;
            (min, mean, max)
        };

        RunMetrics {
            meta: Vec::new(),
            makespan,
            num_chips: chips,
            flop_utilization: report.flop_utilization(),
            overlap_efficiency: report.overlap_efficiency(),
            buckets: [
                totals.compute.as_secs(),
                totals.slice.as_secs(),
                totals.comm_launch.as_secs(),
                totals.comm_sync.as_secs(),
                totals.comm_transfer.as_secs(),
            ],
            lanes,
            windows,
            critical_path: path.attribution(),
            hotspots,
            slack,
        }
    }

    /// Adds a free-form label to the artifact's `meta` block.
    pub fn with_meta(mut self, key: &str, value: &str) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Serializes to the JSON artifact (schema `schemas/metrics.schema.json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            (
                "meta",
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("makespan_s", Json::Num(self.makespan)),
            ("num_chips", Json::Num(self.num_chips as f64)),
            ("flop_utilization", Json::Num(self.flop_utilization)),
            ("overlap_efficiency", Json::Num(self.overlap_efficiency)),
            (
                "buckets_s",
                Json::Obj(
                    BUCKET_LABELS
                        .iter()
                        .zip(self.buckets)
                        .map(|(k, v)| (k.to_string(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "critical_path_s",
                Json::Obj(
                    PathKind::ALL
                        .iter()
                        .map(|k| (k.label().to_string(), Json::Num(self.critical_path.get(*k))))
                        .chain([("total".to_string(), Json::Num(self.critical_path.total()))])
                        .collect(),
                ),
            ),
            (
                "hotspots",
                Json::Arr(
                    self.hotspots
                        .iter()
                        .map(|h| {
                            Json::obj(vec![
                                ("chip", Json::Num(h.chip as f64)),
                                ("kind", Json::Str(h.kind.label().to_string())),
                                ("seconds", Json::Num(h.seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "lanes",
                Json::Arr(
                    self.lanes
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("chip", Json::Num(l.chip as f64)),
                                ("lane", Json::Str(LANE_LABELS[l.lane].to_string())),
                                ("busy_s", Json::Num(l.busy)),
                                ("utilization", Json::Num(l.utilization)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("start_s", Json::Num(w.start)),
                                ("end_s", Json::Num(w.end)),
                                ("compute_util", Json::Num(w.compute)),
                                ("link_util", Json::Num(w.link)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "op_slack_s",
                Json::obj(vec![
                    ("min", Json::Num(self.slack.0)),
                    ("mean", Json::Num(self.slack.1)),
                    ("max", Json::Num(self.slack.2)),
                ]),
            ),
        ])
    }

    /// Deserializes a JSON artifact produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<RunMetrics, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let meta = match doc.get("meta") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect(),
            _ => Vec::new(),
        };
        let buckets_obj = doc.get("buckets_s").ok_or("missing 'buckets_s'")?;
        let mut buckets = [0.0; 5];
        for (i, label) in BUCKET_LABELS.iter().enumerate() {
            buckets[i] = buckets_obj
                .get(label)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing bucket '{label}'"))?;
        }
        let cp = doc
            .get("critical_path_s")
            .ok_or("missing 'critical_path_s'")?;
        let cp_get = |label: &str| cp.get(label).and_then(Json::as_f64).unwrap_or(0.0);
        let critical_path = PathAttribution {
            compute: cp_get("compute"),
            slice: cp_get("slice"),
            comm_launch: cp_get("comm_launch"),
            comm_sync: cp_get("comm_sync"),
            comm_transfer: cp_get("comm_transfer"),
        };
        let hotspots = doc
            .get("hotspots")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|h| {
                let kind = PathKind::ALL
                    .into_iter()
                    .find(|k| Some(k.label()) == h.get("kind").and_then(Json::as_str))?;
                Some(Hotspot {
                    chip: h.get("chip")?.as_usize()?,
                    kind,
                    seconds: h.get("seconds")?.as_f64()?,
                })
            })
            .collect();
        let lanes = doc
            .get("lanes")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|l| {
                let label = l.get("lane").and_then(Json::as_str)?;
                Some(LaneStat {
                    chip: l.get("chip")?.as_usize()?,
                    lane: LANE_LABELS.iter().position(|x| *x == label)?,
                    busy: l.get("busy_s")?.as_f64()?,
                    utilization: l.get("utilization")?.as_f64()?,
                })
            })
            .collect();
        let windows = doc
            .get("windows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| {
                Some(WindowStat {
                    start: w.get("start_s")?.as_f64()?,
                    end: w.get("end_s")?.as_f64()?,
                    compute: w.get("compute_util")?.as_f64()?,
                    link: w.get("link_util")?.as_f64()?,
                })
            })
            .collect();
        let slack_obj = doc.get("op_slack_s");
        let slack_get = |label: &str| {
            slack_obj
                .and_then(|s| s.get(label))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        Ok(RunMetrics {
            meta,
            makespan: num("makespan_s")?,
            num_chips: doc
                .get("num_chips")
                .and_then(Json::as_usize)
                .ok_or("missing 'num_chips'")?,
            flop_utilization: num("flop_utilization")?,
            overlap_efficiency: num("overlap_efficiency")?,
            buckets,
            lanes,
            windows,
            critical_path,
            hotspots,
            slack: (slack_get("min"), slack_get("mean"), slack_get("max")),
        })
    }

    /// Renders Prometheus text-exposition-format gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels: String = self
            .meta
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect::<Vec<_>>()
            .join(",");
        let base = |name: &str, extra: &str| {
            let mut all = labels.clone();
            if !extra.is_empty() {
                if !all.is_empty() {
                    all.push(',');
                }
                all.push_str(extra);
            }
            if all.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{all}}}")
            }
        };
        out.push_str("# TYPE meshslice_makespan_seconds gauge\n");
        out.push_str(&format!(
            "{} {}\n",
            base("meshslice_makespan_seconds", ""),
            self.makespan
        ));
        out.push_str("# TYPE meshslice_flop_utilization gauge\n");
        out.push_str(&format!(
            "{} {}\n",
            base("meshslice_flop_utilization", ""),
            self.flop_utilization
        ));
        out.push_str("# TYPE meshslice_overlap_efficiency gauge\n");
        out.push_str(&format!(
            "{} {}\n",
            base("meshslice_overlap_efficiency", ""),
            self.overlap_efficiency
        ));
        out.push_str("# TYPE meshslice_bucket_seconds gauge\n");
        for (label, v) in BUCKET_LABELS.iter().zip(self.buckets) {
            out.push_str(&format!(
                "{} {v}\n",
                base("meshslice_bucket_seconds", &format!("kind=\"{label}\""))
            ));
        }
        out.push_str("# TYPE meshslice_critical_path_seconds gauge\n");
        for kind in PathKind::ALL {
            out.push_str(&format!(
                "{} {}\n",
                base(
                    "meshslice_critical_path_seconds",
                    &format!("kind=\"{}\"", kind.label())
                ),
                self.critical_path.get(kind)
            ));
        }
        out.push_str("# TYPE meshslice_lane_utilization gauge\n");
        for l in &self.lanes {
            out.push_str(&format!(
                "{} {}\n",
                base(
                    "meshslice_lane_utilization",
                    &format!("chip=\"{}\",lane=\"{}\"", l.chip, LANE_LABELS[l.lane])
                ),
                l.utilization
            ));
        }
        out
    }
}

/// Cluster-wide busy-fraction time series over `num_windows` equal
/// windows of `[0, makespan]`.
fn window_series(
    spans: &[NodeSpan],
    makespan: f64,
    chips: usize,
    num_windows: usize,
) -> Vec<WindowStat> {
    if makespan <= 0.0 || num_windows == 0 || chips == 0 {
        return Vec::new();
    }
    let width = makespan / num_windows as f64;
    let mut compute = vec![0.0f64; num_windows];
    let mut link = vec![0.0f64; num_windows];
    for s in spans {
        let (acc, lanes) = match s.track {
            SpanTrack::Compute => (&mut compute, 1.0),
            SpanTrack::Link(_) => (&mut link, 4.0),
            SpanTrack::Host => continue,
        };
        let (a, b) = (s.start.as_secs(), s.end.as_secs());
        let first = ((a / width).floor() as usize).min(num_windows - 1);
        let last = ((b / width).ceil() as usize).min(num_windows);
        for (w, slot) in acc.iter_mut().enumerate().take(last).skip(first) {
            let lo = a.max(w as f64 * width);
            let hi = b.min((w + 1) as f64 * width);
            if hi > lo {
                *slot += (hi - lo) / (width * chips as f64 * lanes);
            }
        }
    }
    (0..num_windows)
        .map(|w| WindowStat {
            start: w as f64 * width,
            end: (w + 1) as f64 * width,
            compute: compute[w].clamp(0.0, 1.0),
            link: link[w].clamp(0.0, 1.0),
        })
        .collect()
}

/// Recomputes overlap and bucket totals directly from spans — the
/// reference implementation the engine's O(1) accounting is tested
/// against, and the tool for validating merged reports.
pub fn spans_overlap_and_buckets(spans: &[NodeSpan]) -> (f64, [f64; 5]) {
    let mut buckets = [0.0f64; 5];
    for s in spans {
        let idx = match s.kind {
            SpanKind::Compute => 0,
            SpanKind::Slice => 1,
            SpanKind::CommLaunch => 2,
            SpanKind::CommTransfer => 4,
        };
        buckets[idx] += s.end.as_secs() - s.start.as_secs();
    }
    let mut overlap = 0.0;
    for t in spans.iter().filter(|s| s.kind == SpanKind::CommTransfer) {
        for c in spans
            .iter()
            .filter(|s| s.chip == t.chip && s.track == SpanTrack::Compute)
        {
            let lo = t.start.as_secs().max(c.start.as_secs());
            let hi = t.end.as_secs().min(c.end.as_secs());
            if hi > lo {
                overlap += hi - lo;
            }
        }
    }
    (overlap, buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::instrumented;
    use meshslice_mesh::{CommAxis, Torus2d};
    use meshslice_sim::{Engine, GemmShape, ProgramBuilder, SimConfig};

    fn collect(rows: usize, cols: usize) -> RunMetrics {
        let mesh = Torus2d::new(rows, cols);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 1 << 20, &[]);
            b.gemm(chip, GemmShape::new(2048, 2048, 2048), &[]);
        }
        let program = b.build();
        let (report, spans, timeline) =
            instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        RunMetrics::collect(&report, &spans, &timeline, program.len(), 8)
    }

    #[test]
    fn collect_produces_consistent_metrics() {
        let m = collect(2, 2);
        assert!(m.makespan > 0.0);
        assert_eq!(m.num_chips, 4);
        assert!(m.overlap_efficiency > 0.0 && m.overlap_efficiency <= 1.0);
        assert_eq!(m.lanes.len(), 4 * 6);
        assert!(m.lanes.iter().all(|l| (0.0..=1.0).contains(&l.utilization)));
        assert_eq!(m.windows.len(), 8);
        assert!((m.windows[0].start - 0.0).abs() < 1e-12);
        assert!((m.windows[7].end - m.makespan).abs() < 1e-9);
        // Critical path totals to the makespan.
        assert!((m.critical_path.total() - m.makespan).abs() < 1e-9 * m.makespan);
        assert!(!m.hotspots.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_the_artifact() {
        let m = collect(2, 2)
            .with_meta("model", "test")
            .with_meta("mesh", "2x2");
        let text = m.to_json().to_string_pretty();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn window_fractions_are_bounded_and_reflect_load() {
        let m = collect(2, 2);
        for w in &m.windows {
            assert!((0.0..=1.0).contains(&w.compute));
            assert!((0.0..=1.0).contains(&w.link));
        }
        // Something ran in the first window.
        assert!(m.windows[0].compute + m.windows[0].link > 0.0);
    }

    #[test]
    fn prometheus_output_has_one_line_per_gauge() {
        let m = collect(2, 2).with_meta("model", "t");
        let text = m.to_prometheus();
        assert!(text.contains("meshslice_makespan_seconds{model=\"t\"}"));
        assert!(text.contains("meshslice_bucket_seconds{model=\"t\",kind=\"compute\"}"));
        assert!(text.contains("lane=\"row+\""));
        // No NaNs or empty values.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().unwrap().is_finite(), "line {line}");
        }
    }

    #[test]
    fn span_recomputation_matches_engine_accounting() {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, 2 << 20, &[]);
            b.gemm(chip, GemmShape::new(4096, 4096, 4096), &[]);
        }
        let program = b.build();
        let (report, spans, _) = instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        let (overlap, buckets) = spans_overlap_and_buckets(&spans);
        assert!((overlap - report.overlapped_comm().as_secs()).abs() < 1e-9);
        let totals = report.totals();
        for (got, want) in buckets.iter().zip([
            totals.compute.as_secs(),
            totals.slice.as_secs(),
            totals.comm_launch.as_secs(),
            0.0, // comm_sync has no busy spans
            totals.comm_transfer.as_secs(),
        ]) {
            if want > 0.0 {
                assert!((got - want).abs() < 1e-9, "bucket {got} vs {want}");
            }
        }
    }
}
