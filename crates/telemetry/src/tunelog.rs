//! Structured autotuner attribution: predicted vs simulated time for
//! every candidate the tuner evaluated — the paper's Figure 15 error
//! analysis as a queryable artifact.

use std::fmt;

use crate::json::Json;

/// One autotuner candidate: a `(layer, pass, slice count)` point with the
/// analytical prediction and the simulated ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneCandidate {
    /// Mesh rows.
    pub mesh_rows: usize,
    /// Mesh columns.
    pub mesh_cols: usize,
    /// What was tuned, e.g. `"fc1/fwd"`.
    pub label: String,
    /// The dataflow of the candidate schedule.
    pub dataflow: String,
    /// The slice count evaluated.
    pub slice_count: usize,
    /// Analytical cost-model makespan, seconds.
    pub predicted: f64,
    /// Simulated makespan, seconds.
    pub simulated: f64,
    /// Analytical communication time, seconds.
    pub predicted_comm: f64,
    /// Simulated communication (transfer + sync + launch) time, seconds.
    pub simulated_comm: f64,
    /// Whether the tuner selected this candidate.
    pub chosen: bool,
}

impl TuneCandidate {
    /// Signed relative error of the prediction, `(pred - sim) / sim`.
    pub fn rel_error(&self) -> f64 {
        if self.simulated == 0.0 {
            0.0
        } else {
            (self.predicted - self.simulated) / self.simulated
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mesh_rows", Json::Num(self.mesh_rows as f64)),
            ("mesh_cols", Json::Num(self.mesh_cols as f64)),
            ("label", Json::Str(self.label.clone())),
            ("dataflow", Json::Str(self.dataflow.clone())),
            ("slice_count", Json::Num(self.slice_count as f64)),
            ("predicted_s", Json::Num(self.predicted)),
            ("simulated_s", Json::Num(self.simulated)),
            ("predicted_comm_s", Json::Num(self.predicted_comm)),
            ("simulated_comm_s", Json::Num(self.simulated_comm)),
            ("rel_error", Json::Num(self.rel_error())),
            ("chosen", Json::Bool(self.chosen)),
        ])
    }

    fn from_json(doc: &Json) -> Result<TuneCandidate, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        Ok(TuneCandidate {
            mesh_rows: num("mesh_rows")? as usize,
            mesh_cols: num("mesh_cols")? as usize,
            label: text("label")?,
            dataflow: text("dataflow")?,
            slice_count: num("slice_count")? as usize,
            predicted: num("predicted_s")?,
            simulated: num("simulated_s")?,
            predicted_comm: num("predicted_comm_s")?,
            simulated_comm: num("simulated_comm_s")?,
            chosen: doc.get("chosen").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// Every candidate one tuning session evaluated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneLog {
    /// Candidates in evaluation order.
    pub candidates: Vec<TuneCandidate>,
}

impl TuneLog {
    /// Appends a candidate.
    pub fn push(&mut self, candidate: TuneCandidate) {
        self.candidates.push(candidate);
    }

    /// Mean of `|rel_error|` over all candidates; 0 when empty.
    pub(crate) fn mean_abs_rel_error(&self) -> f64 {
        if self.candidates.is_empty() {
            return 0.0;
        }
        self.candidates
            .iter()
            .map(|c| c.rel_error().abs())
            .sum::<f64>()
            / self.candidates.len() as f64
    }

    /// Largest `|rel_error|` over all candidates; 0 when empty.
    pub(crate) fn max_abs_rel_error(&self) -> f64 {
        self.candidates
            .iter()
            .map(|c| c.rel_error().abs())
            .fold(0.0, f64::max)
    }

    /// The chosen candidates, in evaluation order.
    pub fn chosen(&self) -> impl Iterator<Item = &TuneCandidate> {
        self.candidates.iter().filter(|c| c.chosen)
    }

    /// Serializes the log (schema version 1).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            (
                "summary",
                Json::obj(vec![
                    ("candidates", Json::Num(self.candidates.len() as f64)),
                    ("mean_abs_rel_error", Json::Num(self.mean_abs_rel_error())),
                    ("max_abs_rel_error", Json::Num(self.max_abs_rel_error())),
                ]),
            ),
            (
                "candidates",
                Json::Arr(self.candidates.iter().map(TuneCandidate::to_json).collect()),
            ),
        ])
    }

    /// Deserializes a log produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed candidate field.
    pub fn from_json(doc: &Json) -> Result<TuneLog, String> {
        let items = doc
            .get("candidates")
            .and_then(Json::as_arr)
            .ok_or("missing 'candidates' array")?;
        let candidates = items
            .iter()
            .map(TuneCandidate::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TuneLog { candidates })
    }
}

impl fmt::Display for TuneLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:<10} {:>3} {:>12} {:>12} {:>8}  chosen",
            "label", "dataflow", "S", "predicted", "simulated", "err%"
        )?;
        for c in &self.candidates {
            writeln!(
                f,
                "{:<14} {:<10} {:>3} {:>12.4e} {:>12.4e} {:>+8.2}  {}",
                c.label,
                c.dataflow,
                c.slice_count,
                c.predicted,
                c.simulated,
                c.rel_error() * 100.0,
                if c.chosen { "*" } else { "" }
            )?;
        }
        write!(
            f,
            "{} candidates | mean |err| {:.2}% | max |err| {:.2}%",
            self.candidates.len(),
            self.mean_abs_rel_error() * 100.0,
            self.max_abs_rel_error() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(s: usize, predicted: f64, simulated: f64, chosen: bool) -> TuneCandidate {
        TuneCandidate {
            mesh_rows: 4,
            mesh_cols: 4,
            label: "fc1/fwd".to_string(),
            dataflow: "os".to_string(),
            slice_count: s,
            predicted,
            simulated,
            predicted_comm: predicted * 0.3,
            simulated_comm: simulated * 0.35,
            chosen,
        }
    }

    #[test]
    fn error_statistics() {
        let mut log = TuneLog::default();
        log.push(candidate(1, 1.1, 1.0, false)); // +10%
        log.push(candidate(2, 0.8, 1.0, true)); // -20%
        assert!((log.mean_abs_rel_error() - 0.15).abs() < 1e-12);
        assert!((log.max_abs_rel_error() - 0.2).abs() < 1e-12);
        assert_eq!(log.chosen().count(), 1);
    }

    #[test]
    fn json_round_trip() {
        let mut log = TuneLog::default();
        log.push(candidate(1, 1.1, 1.0, false));
        log.push(candidate(4, 0.9, 0.95, true));
        let text = log.to_json().to_string_pretty();
        let back = TuneLog::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn display_is_a_table_with_summary() {
        let mut log = TuneLog::default();
        log.push(candidate(2, 1.0, 1.0, true));
        let text = log.to_string();
        assert!(text.contains("fc1/fwd"));
        assert!(text.contains("mean |err|"));
    }

    #[test]
    fn zero_simulated_time_gives_zero_error() {
        assert_eq!(candidate(1, 0.5, 0.0, false).rel_error(), 0.0);
    }
}
