//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each `benches/*.rs` target (built with `harness = false`) prints the
//! rows/series of one paper table or figure; `cargo bench --workspace`
//! regenerates the full evaluation. `benches/microbench.rs` holds the
//! criterion microbenchmarks of the core primitives.

use meshslice::llm::LlmConfig;
use meshslice::SimConfig;

/// The chip counts of the weak-scaling study (Figure 9).
pub const WEAK_SCALING_CHIPS: [usize; 5] = [16, 32, 64, 128, 256];

/// The chip counts of the strong-scaling study (Figure 12).
pub const STRONG_SCALING_CHIPS: [usize; 3] = [16, 64, 256];

/// The cluster size of the single-point studies (Figures 10, 11, 13;
/// Table 2).
pub(crate) const LARGE_CLUSTER: usize = 256;

/// The two target models of the evaluation.
pub fn models() -> Vec<LlmConfig> {
    vec![LlmConfig::gpt3(), LlmConfig::megatron_nlg()]
}

/// The simulated TPUv4 configuration used throughout §5.1–§5.2.
pub fn sim_config() -> SimConfig {
    SimConfig::tpu_v4()
}

/// Reads `MESHSLICE_BENCH_SCALE` to optionally shrink long-running
/// sweeps: `full` (default) runs the paper's configurations, `quick` caps
/// cluster sizes at 64 chips for smoke-testing the harnesses.
pub fn quick_mode() -> bool {
    std::env::var("MESHSLICE_BENCH_SCALE")
        .map(|v| v == "quick")
        .unwrap_or(false)
}

/// Applies [`quick_mode`] to a chip-count list.
pub fn scale_chips(chips: &[usize]) -> Vec<usize> {
    if quick_mode() {
        chips.iter().copied().filter(|&c| c <= 64).collect()
    } else {
        chips.to_vec()
    }
}

/// The single-point cluster size under [`quick_mode`].
pub fn scale_cluster() -> usize {
    if quick_mode() {
        64
    } else {
        LARGE_CLUSTER
    }
}

/// Writes a table as a CSV artifact under `target/experiments/` and
/// prints where it went; harnesses call this so plotted series are easy
/// to consume downstream.
pub fn save_artifact(table: &meshslice::report::Table, name: &str) {
    // Bench binaries run with the package directory as CWD; anchor the
    // artifacts at the workspace root instead.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("target/experiments").join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!(
            "(series written to {})",
            path.canonicalize().unwrap_or(path.clone()).display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints the standard banner of a regenerated figure/table.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_are_the_papers_two() {
        let m = models();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].name, "GPT-3");
        assert_eq!(m[1].name, "Megatron-NLG");
    }

    #[test]
    fn scale_chips_filters_in_quick_mode() {
        // Not setting the env var here; just exercise the full path.
        assert_eq!(scale_chips(&[16, 256]).len(), 2);
    }
}
