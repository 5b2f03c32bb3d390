//! The FC-block simulation the `robust` and `pod` replays walk through:
//! phase-1 pass problems, one slice count per pass, and one
//! schedule → lower → run per distinct pass spec, merged serially.
//!
//! This is the benchmark's copy of the tuners' loop, built from the same
//! public layer calls. Its spans and counters describe this walk; the
//! replay only checks that it reaches the tuner's output. A change that
//! reuses work inside `tune_robust` or `tune_pod` leaves them unchanged
//! and shows in the end-to-end query time alone.

use meshslice::autotuner::{choose_stationary, pass_problems, Autotuner, LayerPlan};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{DistributedGemm, GemmProblem, MeshSlice};
use meshslice_mesh::{MeshShape, Torus2d};
use meshslice_sim::{Duration, Engine, LoweredProgram, RunScratch, SimReport};

use crate::trace::Tracer;

/// `(problem, slice count, block size)` of one pass.
pub type Spec = (GemmProblem, usize, usize);

/// The three pass problems of every FC layer under the phase-1 dataflow.
pub fn layer_problems(model: &LlmConfig, setup: TrainingSetup) -> Vec<[GemmProblem; 3]> {
    let tokens = setup.tokens();
    model
        .fc_layers()
        .iter()
        .map(|l| {
            let stationary = choose_stationary(tokens, l.input_dim, l.output_dim);
            pass_problems(stationary, tokens, l.input_dim, l.output_dim)
        })
        .collect()
}

/// Block size of a pass: the tuner's block when `s` is a legal slice
/// count, else 1 (the collective fallback).
fn spec(tuner: &Autotuner, problem: GemmProblem, s: usize, legal: &[usize]) -> Spec {
    let block = if legal.contains(&s) { tuner.block() } else { 1 };
    (problem, s, block)
}

/// Every pass at the largest legal slice count not above `requested`;
/// `None` if a pass does not divide over the mesh.
pub fn clamped_specs(
    tuner: &Autotuner,
    problems: &[[GemmProblem; 3]],
    mesh: MeshShape,
    requested: usize,
) -> Option<Vec<Spec>> {
    let mut specs = Vec::new();
    for &problem in problems.iter().flatten() {
        problem.check_divisible(mesh).ok()?;
        let legal = tuner.legal_slice_counts(mesh, problem);
        let s = legal
            .iter()
            .copied()
            .filter(|&x| x <= requested)
            .max()
            .unwrap_or(1);
        specs.push(spec(tuner, problem, s, &legal));
    }
    Some(specs)
}

/// Every pass of already tuned layer plans.
pub fn plan_specs(tuner: &Autotuner, layers: &[LayerPlan], mesh: MeshShape) -> Vec<Spec> {
    layers
        .iter()
        .flat_map(|l| l.passes.iter())
        .map(|p| {
            let legal = tuner.legal_slice_counts(mesh, p.problem);
            spec(tuner, p.problem, p.slice_count, &legal)
        })
        .collect()
}

/// The distinct specs in first-appearance order, and each spec's slot
/// among them (mirrored layers repeat specs).
pub fn dedup(specs: &[Spec]) -> (Vec<Spec>, Vec<usize>) {
    let mut distinct: Vec<Spec> = Vec::new();
    let slots = specs
        .iter()
        .map(|s| match distinct.iter().position(|d| d == s) {
            Some(k) => k,
            None => {
                distinct.push(*s);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, slots)
}

/// Schedules and lowers each distinct spec for `engine`.
pub fn lower_all(
    engine: &Engine,
    distinct: &[Spec],
    tr: &mut Tracer,
) -> Result<Vec<LoweredProgram>, String> {
    let mesh: &Torus2d = engine.mesh();
    let elem_bytes = engine.config().elem_bytes;
    let mut lowered = Vec::with_capacity(distinct.len());
    for &(problem, s, block) in distinct {
        let program = tr
            .layer("plan", || {
                MeshSlice::new(s, block).schedule(mesh, problem, elem_bytes)
            })
            .map_err(|e| format!("schedule {problem:?} S={s}: {e}"))?;
        let l = tr.layer("lower", || engine.lower_program(&program));
        tr.count("lowered_nodes", l.num_nodes());
        lowered.push(l);
    }
    Ok(lowered)
}

/// Simulates each lowered program on `engine` and merges the full pass
/// list serially; returns the block makespan.
pub fn run_block(
    engine: &Engine,
    lowered: &[LoweredProgram],
    slots: &[usize],
    scratch: &mut RunScratch,
    tr: &mut Tracer,
) -> Duration {
    let reports: Vec<SimReport> = lowered
        .iter()
        .map(|l| tr.layer("engine", || engine.run_lowered_with_scratch(l, scratch)))
        .collect();
    tr.count("engine_runs", lowered.len());
    tr.layer("merge", || {
        let all: Vec<SimReport> = slots.iter().map(|&k| reports[k].clone()).collect();
        SimReport::merge_serial(&all).makespan()
    })
}
