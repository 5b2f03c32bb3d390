//! Property tests of program validation.
//!
//! `ProgramBuilder::build` checks collective membership with neighbour
//! arithmetic; here an oracle written against `Torus2d::ring_through`
//! decides independently which random programs are invalid, and the
//! builder must panic on exactly those. Accepted programs must also be
//! in builder order (every dependency points to an earlier op) and lower.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use meshslice_mesh::{ChipId, CommAxis, Torus2d};
use meshslice_sim::{CollectiveKind, Engine, GemmShape, OpId, Program, ProgramBuilder, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One collective participation, as handed to the builder.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Part {
    chip: ChipId,
    tag: u64,
    kind: CollectiveKind,
    axis: CommAxis,
    bytes: u64,
    lanes: u8,
}

impl Part {
    fn params(&self) -> (CollectiveKind, CommAxis, u64, u8) {
        (self.kind, self.axis, self.bytes, self.lanes)
    }
}

/// Whether the participations form valid collectives: per tag, equal
/// parameters, no chip twice, and every ring a participant lies on fully
/// covered.
fn oracle_valid(mesh: &Torus2d, parts: &[Part]) -> bool {
    let mut first: HashMap<u64, Part> = HashMap::new();
    let mut chips: HashMap<u64, HashSet<ChipId>> = HashMap::new();
    for p in parts {
        if first.entry(p.tag).or_insert(*p).params() != p.params() {
            return false;
        }
        if !chips.entry(p.tag).or_default().insert(p.chip) {
            return false;
        }
    }
    parts.iter().all(|p| {
        let ring = mesh.ring_through(mesh.coord_of(p.chip), p.axis);
        ring.members().iter().all(|m| chips[&p.tag].contains(m))
    })
}

fn random_mesh(rng: &mut StdRng) -> Torus2d {
    const FIXED: [(usize, usize); 6] = [(1, 1), (1, 5), (4, 1), (3, 5), (2, 2), (4, 4)];
    if rng.gen_bool(0.5) {
        let (rows, cols) = FIXED[rng.gen_range(0..FIXED.len())];
        Torus2d::new(rows, cols)
    } else {
        Torus2d::new(rng.gen_range(1..6usize), rng.gen_range(1..6usize))
    }
}

fn random_axis(rng: &mut StdRng) -> CommAxis {
    if rng.gen_bool(0.5) {
        CommAxis::InterRow
    } else {
        CommAxis::InterCol
    }
}

/// Random participations on `mesh`: each tag covers the whole mesh, a
/// random set of whole rings, or a random chip subset; some get a
/// duplicate participant or one participant with different parameters.
/// Tags are arbitrary values, and the participations come out shuffled.
fn random_parts(rng: &mut StdRng, mesh: &Torus2d) -> Vec<Part> {
    let mut parts = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let base = Part {
            chip: ChipId(0),
            tag: rng.gen_range(0..1_000_000u64),
            kind: if rng.gen_bool(0.5) {
                CollectiveKind::AllGather
            } else {
                CollectiveKind::ReduceScatter
            },
            axis: random_axis(rng),
            bytes: rng.gen_range(1..4096u64),
            lanes: rng.gen_range(1..3u8),
        };
        if parts.iter().any(|p: &Part| p.tag == base.tag) {
            continue;
        }
        let rings = mesh.rings(base.axis);
        let keep: Vec<bool> = rings.iter().map(|_| rng.gen_bool(0.6)).collect();
        let subset = rng.gen_range(0.2..1.0);
        let mode = rng.gen_range(0..3);
        let start = parts.len();
        for chip in mesh.chips() {
            let ring = rings
                .iter()
                .position(|r| r.members().contains(&chip))
                .expect("every chip lies on one ring per axis");
            let member = match mode {
                0 => true,
                1 => keep[ring],
                _ => rng.gen_bool(subset),
            };
            if member {
                parts.push(Part { chip, ..base });
            }
        }
        if parts.len() > start && rng.gen_bool(0.2) {
            let dup = parts[rng.gen_range(start..parts.len())];
            parts.push(dup);
        }
        if parts.len() > start && rng.gen_bool(0.2) {
            let at = rng.gen_range(start..parts.len());
            let p = &mut parts[at];
            match rng.gen_range(0..4) {
                0 => p.bytes += 1,
                1 => p.lanes = 3 - p.lanes,
                2 => p.axis = random_axis(rng),
                _ => p.kind = CollectiveKind::AllGather,
            }
        }
    }
    for i in (1..parts.len()).rev() {
        parts.swap(i, rng.gen_range(0..i + 1));
    }
    parts
}

/// Builds the participations, each after a GeMM on the same chip that
/// waits on random earlier ops.
fn build(rng: &mut StdRng, mesh: &Torus2d, parts: &[Part]) -> Result<Program, String> {
    let mut b = ProgramBuilder::new(mesh);
    let mut ids: Vec<OpId> = Vec::new();
    for p in parts {
        let deps: Vec<OpId> = ids.iter().copied().filter(|_| rng.gen_bool(0.1)).collect();
        ids.push(b.gemm(p.chip, GemmShape::new(8, 8, 8), &deps));
        let after = [*ids.last().expect("just pushed")];
        let kind = p.kind;
        ids.push(b.collective(p.chip, p.tag, kind, p.axis, p.bytes, p.lanes, &after));
    }
    catch_unwind(AssertUnwindSafe(|| b.build())).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

#[test]
fn build_rejects_exactly_the_programs_the_ring_oracle_rejects() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0018);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..400 {
        let mesh = random_mesh(&mut rng);
        let parts = random_parts(&mut rng, &mesh);
        let valid = oracle_valid(&mesh, &parts);
        let built = build(&mut rng, &mesh, &parts);
        assert_eq!(
            built.is_ok(),
            valid,
            "case {case} on {mesh:?}: oracle says valid={valid}, build gave {:?}\n{parts:?}",
            built.as_ref().err()
        );
        let Ok(program) = built else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        for (i, op) in program.ops().iter().enumerate() {
            assert!(op.deps.iter().all(|d| d.index() < i), "case {case}");
        }
        // Lowering wires every ring step to its upstream neighbour. (The
        // programs are not run: chips issuing collectives in different
        // orders on one link may deadlock.)
        Engine::new(mesh.clone(), SimConfig::tpu_v4()).lower_program(&program);
    }
    // Both verdicts are well represented.
    assert!(
        accepted > 60 && rejected > 60,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn a_duplicate_participant_is_named_at_its_second_op() {
    let mesh = Torus2d::new(3, 5);
    let mut b = ProgramBuilder::new(&mesh);
    for chip in mesh.chips() {
        b.all_gather(chip, 42, CommAxis::InterCol, 64, &[]);
    }
    b.all_gather(ChipId(7), 42, CommAxis::InterCol, 64, &[]);
    let err = catch_unwind(AssertUnwindSafe(|| b.build())).expect_err("duplicate");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert_eq!(msg, "chip chip7 participates twice in collective tag 42");
}
