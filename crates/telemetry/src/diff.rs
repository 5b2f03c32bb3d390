//! Diffing two metric artifacts: makespan/bucket/overlap deltas,
//! critical-path shifts, and an ASCII per-lane utilization heatmap.

use std::fmt;

use crate::critical_path::PathKind;
use crate::metrics::{RunMetrics, BUCKET_LABELS, LANE_LABELS};

/// Utilization shade ramp, darkest last.
const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

fn shade(utilization: f64) -> char {
    let idx = (utilization.clamp(0.0, 1.0) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx]
}

/// The comparison of two runs, ready to render.
#[derive(Clone, Debug)]
pub struct RunDiff {
    /// Baseline metrics.
    pub a: RunMetrics,
    /// Candidate metrics.
    pub b: RunMetrics,
}

impl RunDiff {
    /// Pairs two artifacts for comparison.
    pub fn new(a: RunMetrics, b: RunMetrics) -> RunDiff {
        RunDiff { a, b }
    }

    /// Makespan change, `b - a`, seconds (negative = faster).
    pub(crate) fn makespan_delta(&self) -> f64 {
        self.b.makespan - self.a.makespan
    }

    /// Relative makespan change, `(b - a) / a`.
    pub(crate) fn makespan_rel(&self) -> f64 {
        if self.a.makespan == 0.0 {
            0.0
        } else {
            self.makespan_delta() / self.a.makespan
        }
    }

    fn lane_util(m: &RunMetrics, chip: usize, lane: usize) -> f64 {
        m.lanes
            .iter()
            .find(|l| l.chip == chip && l.lane == lane)
            .map(|l| l.utilization)
            .unwrap_or(0.0)
    }

    /// Renders the per-chip, per-lane utilization heatmap of both runs
    /// side by side. Rows are chips, columns are the six lanes
    /// (compute, four link directions, host).
    pub(crate) fn heatmap(&self) -> String {
        let chips = self.a.num_chips.max(self.b.num_chips);
        let mut out = String::new();
        out.push_str("      lanes: ");
        out.push_str(&LANE_LABELS.join(" "));
        out.push_str(&format!(
            "   (shade ramp \"{}\")\n",
            SHADES.iter().collect::<String>()
        ));
        out.push_str("chip    A        B\n");
        for chip in 0..chips {
            let row = |m: &RunMetrics| -> String {
                (0..6)
                    .map(|lane| shade(Self::lane_util(m, chip, lane)))
                    .collect()
            };
            out.push_str(&format!(
                "{chip:>4}  [{}]  [{}]\n",
                row(&self.a),
                row(&self.b)
            ));
        }
        out
    }

    /// The lanes whose utilization changed the most, descending by
    /// absolute change: `(chip, lane, a, b)`.
    pub(crate) fn top_lane_changes(&self, limit: usize) -> Vec<(usize, usize, f64, f64)> {
        let chips = self.a.num_chips.max(self.b.num_chips);
        let mut changes: Vec<(usize, usize, f64, f64)> = (0..chips)
            .flat_map(|chip| (0..6).map(move |lane| (chip, lane)))
            .map(|(chip, lane)| {
                (
                    chip,
                    lane,
                    Self::lane_util(&self.a, chip, lane),
                    Self::lane_util(&self.b, chip, lane),
                )
            })
            .filter(|(_, _, a, b)| (a - b).abs() > 1e-12)
            .collect();
        changes.sort_by(|x, y| (y.3 - y.2).abs().total_cmp(&(x.3 - x.2).abs()));
        changes.truncate(limit);
        changes
    }
}

fn meta_line(m: &RunMetrics) -> String {
    if m.meta.is_empty() {
        "(unlabeled)".to_string()
    } else {
        m.meta
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for RunDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A: {}", meta_line(&self.a))?;
        writeln!(f, "B: {}", meta_line(&self.b))?;
        writeln!(
            f,
            "makespan      {:>12.6e}  {:>12.6e}  {:>+8.2}%",
            self.a.makespan,
            self.b.makespan,
            self.makespan_rel() * 100.0
        )?;
        writeln!(
            f,
            "flop util     {:>11.2}%  {:>11.2}%  {:>+8.2}pp",
            self.a.flop_utilization * 100.0,
            self.b.flop_utilization * 100.0,
            (self.b.flop_utilization - self.a.flop_utilization) * 100.0
        )?;
        writeln!(
            f,
            "overlap eff   {:>11.2}%  {:>11.2}%  {:>+8.2}pp",
            self.a.overlap_efficiency * 100.0,
            self.b.overlap_efficiency * 100.0,
            (self.b.overlap_efficiency - self.a.overlap_efficiency) * 100.0
        )?;
        writeln!(f, "-- busy-time buckets (cluster seconds) --")?;
        for (i, label) in BUCKET_LABELS.iter().enumerate() {
            let (a, b) = (self.a.buckets[i], self.b.buckets[i]);
            let rel = if a > 0.0 { (b - a) / a * 100.0 } else { 0.0 };
            writeln!(f, "{label:<14}{a:>12.6e}  {b:>12.6e}  {rel:>+8.2}%")?;
        }
        writeln!(f, "-- critical path (seconds) --")?;
        for kind in PathKind::ALL {
            let (a, b) = (
                self.a.critical_path.get(kind),
                self.b.critical_path.get(kind),
            );
            writeln!(f, "{:<14}{a:>12.6e}  {b:>12.6e}", kind.label())?;
        }
        writeln!(f, "-- lane utilization --")?;
        write!(f, "{}", self.heatmap())?;
        let top = self.top_lane_changes(5);
        if !top.is_empty() {
            writeln!(f, "-- largest lane shifts --")?;
            for (chip, lane, a, b) in top {
                writeln!(
                    f,
                    "chip {chip:<3} {:<8} {:>6.1}% -> {:>6.1}%",
                    LANE_LABELS[lane],
                    a * 100.0,
                    b * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::instrumented;
    use meshslice_mesh::{CommAxis, Torus2d};
    use meshslice_sim::{Engine, GemmShape, ProgramBuilder, SimConfig};

    fn metrics(shard: u64) -> RunMetrics {
        let mesh = Torus2d::new(2, 2);
        let mut b = ProgramBuilder::new(&mesh);
        let tag = b.next_tag();
        for chip in mesh.chips() {
            b.all_gather(chip, tag, CommAxis::InterRow, shard, &[]);
            b.gemm(chip, GemmShape::new(1024, 1024, 1024), &[]);
        }
        let program = b.build();
        let (report, spans, timeline) =
            instrumented(&Engine::new(mesh, SimConfig::tpu_v4()), &program);
        RunMetrics::collect(&report, &spans, &timeline, program.len(), 4)
    }

    #[test]
    fn diff_reports_the_direction_of_change() {
        let diff = RunDiff::new(metrics(1 << 20), metrics(16 << 20));
        // More bytes on the wire: the candidate is slower.
        assert!(diff.makespan_delta() > 0.0);
        assert!(diff.makespan_rel() > 0.0);
    }

    #[test]
    fn heatmap_has_one_row_per_chip() {
        let diff = RunDiff::new(metrics(1 << 20), metrics(4 << 20));
        let map = diff.heatmap();
        let rows = map.lines().filter(|l| l.contains('[')).count();
        assert_eq!(rows, 4);
        // Each bracketed panel holds six lane cells.
        for line in map.lines().filter(|l| l.contains('[')) {
            let first = line.find('[').unwrap();
            let close = line.find(']').unwrap();
            assert_eq!(close - first - 1, 6, "line {line:?}");
        }
    }

    #[test]
    fn display_covers_every_section() {
        let text = RunDiff::new(metrics(1 << 20), metrics(4 << 20)).to_string();
        for needle in [
            "makespan",
            "overlap eff",
            "critical path",
            "lane utilization",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn shade_ramp_is_monotone() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(1.0), '@');
        let mut prev = 0usize;
        for i in 0..=10 {
            let c = shade(i as f64 / 10.0);
            let idx = SHADES.iter().position(|&s| s == c).unwrap();
            assert!(idx >= prev);
            prev = idx;
        }
    }
}
