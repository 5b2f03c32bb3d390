//! Absolute bit pins of engine runs.
//!
//! Most cases are faulted full-graph runs: fault draws, failures and a
//! shared fabric all break the translation symmetry, so these runs
//! execute the whole node graph. The fused training blocks run fault
//! free, through the symmetry quotient. Each case pins
//! the f64 bits of the makespan, the five `TimeBreakdown` buckets and the
//! overlapped communication, or every `AbortInfo` field of a run a chip
//! failure interrupts. The values were recorded before the event loop's
//! packed keys and HBM fast paths went in; any change to the engine's
//! arithmetic or dispatch order shows up here as a changed bit.
//!
//! On a mismatch the failure message prints the whole observed table in
//! source form.

use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::training::simulate_fused_block;
use meshslice::{
    Collective, Dataflow, DistributedGemm, Engine, GemmProblem, GemmShape, MeshSlice, SimConfig,
    Summa,
};
use meshslice_faults::{FaultSpec, JitterModel};
use meshslice_mesh::{CommAxis, LinkDir, Torus2d};
use meshslice_sim::{
    ChipFailure, ClusterProfile, CollectiveKind, FailureOutcome, LinkOutage, OpId, Program,
    ProgramBuilder, RunScratch, SimReport,
};

/// What one case pins.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pin {
    /// Bits of makespan, compute, slice, comm_launch, comm_sync,
    /// comm_transfer and overlapped_comm.
    Done([u64; 7]),
    /// Bits of the failure and detection instants, then the completed
    /// and total node counts.
    Aborted([u64; 2], usize, usize),
}

fn done(r: &SimReport) -> Pin {
    let b = r.totals();
    Pin::Done(
        [
            r.makespan(),
            b.compute,
            b.slice,
            b.comm_launch,
            b.comm_sync,
            b.comm_transfer,
            r.overlapped_comm(),
        ]
        .map(|d| d.as_secs().to_bits()),
    )
}

fn pin_of(outcome: FailureOutcome) -> Pin {
    match outcome {
        FailureOutcome::Completed(r) => done(&r),
        FailureOutcome::Aborted(a) => Pin::Aborted(
            [
                a.failure_time.as_secs().to_bits(),
                a.detected_at.as_secs().to_bits(),
            ],
            a.completed_nodes,
            a.total_nodes,
        ),
    }
}

/// The three algorithms of the grid, on an 8192³ output-stationary GeMM.
fn algorithms() -> Vec<(&'static str, Box<dyn DistributedGemm>)> {
    vec![
        ("meshslice_s8", Box::new(MeshSlice::new(8, 8))),
        ("collective", Box::new(Collective)),
        ("summa", Box::new(Summa::new(8))),
    ]
}

/// The robust tuner's fault draw: a 1.5x straggler on top of log-normal
/// compute jitter, with a quarter of the links degraded to [0.7, 1).
fn robust_profile(chips: usize) -> ClusterProfile {
    FaultSpec::stragglers(1, 1.5)
        .with_jitter(JitterModel::LogNormal { sigma: 0.05 })
        .with_link_degradation(0.25, 0.7)
        .sample(chips, 42)
}

/// A straggler plus outage windows on a few chips' links, placed at
/// fixed fractions of the fault-free makespan `m` so every window opens
/// and closes while transfers are in flight.
fn outage_profile(chips: usize, m: f64) -> ClusterProfile {
    let mut p = ClusterProfile::ideal(chips).with_compute_slowdown(chips / 2, 1.3);
    for (k, chip) in [0, 1, chips - 1].into_iter().enumerate() {
        let start = m * (0.1 + 0.15 * k as f64);
        for dir in LinkDir::ALL {
            p.add_outage(chip, dir, LinkOutage::new(start, start + 0.2 * m, 0.2));
        }
    }
    p
}

/// Runs every case of the grid and returns (name, pin) in grid order.
fn observed() -> Vec<(String, Pin)> {
    let problem = GemmProblem::new(GemmShape::new(8192, 8192, 8192), Dataflow::Os);
    let mut scratch = RunScratch::new();
    let mut out = Vec::new();
    for (rows, cols) in [(2, 8), (4, 4), (8, 8)] {
        let mesh = Torus2d::new(rows, cols);
        let chips = mesh.num_chips();
        let torus = Engine::new(mesh.clone(), SimConfig::tpu_v4());
        let fabric = Engine::new(mesh.clone(), SimConfig::gpu_logical_mesh(400e9));
        for (name, algo) in algorithms() {
            let program = algo.schedule(&mesh, problem, 2).expect("legal schedule");
            let lowered = torus.lower_program(&program);
            let nominal = torus.run_lowered_with_scratch(&lowered, &mut scratch);
            let m = nominal.makespan().as_secs();
            let case = |cond: &str| format!("{rows}x{cols} {name} {cond}");

            let robust = torus.with_faults(robust_profile(chips));
            let r = robust.run_lowered_with_scratch(&lowered, &mut scratch);
            out.push((case("robust"), done(&r)));

            let outage = torus.with_faults(outage_profile(chips, m));
            let r = outage.run_lowered_with_scratch(&lowered, &mut scratch);
            out.push((case("outage"), done(&r)));

            let failure = ChipFailure {
                chip: chips / 2 + 1,
                at: 0.4 * m,
            };
            let r = torus.run_observed(&lowered, &mut scratch, Some((failure, 1e-4)), &mut ());
            out.push((case("chip_failure"), pin_of(r)));

            let fabric_lowered = fabric.lower_program(&program);
            let r = fabric.run_lowered_with_scratch(&fabric_lowered, &mut scratch);
            out.push((case("shared_fabric"), done(&r)));

            // Outage edges also re-rate the fabric's in-flight flows.
            let fabric_outage = fabric.with_faults(outage_profile(chips, m));
            let r = fabric_outage.run_lowered_with_scratch(&fabric_lowered, &mut scratch);
            out.push((case("fabric_outage"), done(&r)));
        }
    }
    out
}

/// Twelve GeMM + collective rounds per chip on 4x4, each collective a
/// different size: more distinct synchronization delays than the engine
/// gives sync events a queue of their own, so both of its sync paths run.
fn many_delays_program(mesh: &Torus2d) -> Program {
    let mut b = ProgramBuilder::new(mesh);
    let mut last: Vec<Option<OpId>> = vec![None; mesh.num_chips()];
    for round in 0..12u64 {
        let tag = b.next_tag();
        let axis = if round % 2 == 0 {
            CommAxis::InterRow
        } else {
            CommAxis::InterCol
        };
        let lanes = 1 + (round % 3 == 0) as u8;
        for chip in mesh.chips() {
            let deps: Vec<OpId> = last[chip.index()].into_iter().collect();
            let g = b.gemm(
                chip,
                GemmShape::new(512, 512, 512 + 64 * round as usize),
                &deps,
            );
            let shard = (round + 1) * 48 * 1024;
            let c = b.collective(
                chip,
                tag,
                CollectiveKind::AllGather,
                axis,
                shard,
                lanes,
                &[g],
            );
            last[chip.index()] = Some(c);
        }
    }
    b.build()
}

fn source_form(rows: &[(String, Pin)]) -> String {
    let mut s = String::new();
    for (name, pin) in rows {
        let body = match pin {
            Pin::Done(bits) => {
                let hex: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
                format!("Done([{}])", hex.join(", "))
            }
            Pin::Aborted([f, d], c, t) => format!("Aborted([{f:#018x}, {d:#018x}], {c}, {t})"),
        };
        s.push_str(&format!("    (\"{name}\", {body}),\n"));
    }
    s
}

use Pin::{Aborted, Done};

/// Recorded on the engine before the packed event keys.
#[rustfmt::skip]
const PINS: &[(&str, Pin)] = &[
    ("2x8 meshslice_s8 robust", Done([0x3f4aa98fe14fa57b, 0x3f7701da84501a4c, 0x3f437260f4199308, 0x3f54f8b588e368fc, 0x3f7471379b9f7f41, 0x3f918c2fbb8e2709, 0x3f803d42fdda122b])),
    ("2x8 meshslice_s8 outage", Done([0x3f4a549eb055afce, 0x3f759e6e50f1cf3f, 0x3f43e258e4802bf8, 0x3f54f8b588e368fc, 0x3f7471379b9f7f41, 0x3f91ad333ae92b28, 0x3f80d57a3a87fcec])),
    ("2x8 meshslice_s8 chip_failure", Aborted([0x3f30a7fe393a9ca0, 0x3f3783f1c4f0ef21], 1965, 2944)),
    ("2x8 meshslice_s8 shared_fabric", Done([0x3f676167cecec0b4, 0x3f753891faa51d18, 0x3f407e1fe91b0b68, 0x3f54f8b588e368fc, 0x3f7471379b9f7f41, 0x3fbb423bda292624, 0x3f86bf85f0f66928])),
    ("2x8 meshslice_s8 fabric_outage", Done([0x3f677adee461ed3d, 0x3f759e6e50f1cf3f, 0x3f407e1fe91b0b68, 0x3f54f8b588e368fc, 0x3f7471379b9f7f41, 0x3fbb423bda292624, 0x3f87160d5d8e63ae])),
    ("2x8 collective robust", Done([0x3f51481b06c0afbc, 0x3f755adcf57939e7, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f570c7bbc0139ee, 0x3f918c2fbb8e266b, 0x0000000000000000])),
    ("2x8 collective outage", Done([0x3f5099a2e97a5d9a, 0x3f7410f73d70f86c, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f570c7bbc0139ee, 0x3f91a0b05ef33027, 0x0000000000000000])),
    ("2x8 collective chip_failure", Aborted([0x3f34dbf00e40eab9, 0x3f3dd39031f1e670], 266, 336)),
    ("2x8 collective shared_fabric", Done([0x3f68cef5613805a0, 0x3f73b26b9f41585a, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f570c7bbc0139ee, 0x3fbb7cdfd9d7bdec, 0x0000000000000000])),
    ("2x8 collective fabric_outage", Done([0x3f698c0c9d9745be, 0x3f7410f73d70f868, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f570c7bbc0139ee, 0x3fbb7cdfd9d7bdec, 0x0000000000000000])),
    ("2x8 summa robust", Done([0x3f636a744568b43e, 0x3f7701da84501a4e, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f83ec460ed80a1d, 0x3f9ce0159016777e, 0x3f4b4c98e3d3892e])),
    ("2x8 summa outage", Done([0x3f61446b5b9db548, 0x3f759e6e50f1cf34, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f83ec460ed80a1d, 0x3f9cb19fdfb79a68, 0x3f48533f40c2278d])),
    ("2x8 summa chip_failure", Aborted([0x3f47d121523aa1c4, 0x3f5f68d7d57b0e68], 630, 640)),
    ("2x8 summa shared_fabric", Done([0x3f6decf71dd8d1bc, 0x3f753891faa51d24, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f83ec460ed80a1d, 0x3fb26c55f6fd010d, 0x3f5530ecd92fb9e8])),
    ("2x8 summa fabric_outage", Done([0x3f6dfe47fd3a3968, 0x3f759e6e50f1cf4b, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f83ec460ed80a1d, 0x3fb2713408256f1e, 0x3f55e247d28d6c5f])),
    ("4x4 meshslice_s8 robust", Done([0x3f42b17f22735e60, 0x3f7701da84501a4a, 0x3f4350bba0f3c358, 0x3f54f8b588e368fc, 0x3f6ea9d3696f3e83, 0x3f8a646086827125, 0x3f89b821e831056b])),
    ("4x4 meshslice_s8 outage", Done([0x3f3fe3c0bd96e588, 0x3f759e6e50f1cf4b, 0x3f43dd6d8c4504c0, 0x3f54f8b588e368fc, 0x3f6ea9d3696f3e83, 0x3f8aad04ffcc3006, 0x3f87d0b07ac5323c])),
    ("4x4 meshslice_s8 chip_failure", Aborted([0x3f2312faabfdb6b1, 0x3f30a1daaf32ad64], 2131, 2432)),
    ("4x4 meshslice_s8 shared_fabric", Done([0x3f61078459dfbc1a, 0x3f753891faa51d0e, 0x3f407e1fe91b0b68, 0x3f54f8b588e368fc, 0x3f6ea9d3696f3e83, 0x3fc02629e9952647, 0x3f9340f16844ee99])),
    ("4x4 meshslice_s8 fabric_outage", Done([0x3f6120fb6f72e8a3, 0x3f759e6e50f1cf35, 0x3f407e1fe91b0b68, 0x3f54f8b588e368fc, 0x3f6ea9d3696f3e83, 0x3fc02629e9952647, 0x3f939a1233c80a7e])),
    ("4x4 collective robust", Done([0x3f47bd95acf3b64f, 0x3f755adcf57939e7, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f51495ccd00eb6e, 0x3f8a6460868270b7, 0x0000000000000000])),
    ("4x4 collective outage", Done([0x3f468dc1e259ccfe, 0x3f7410f73d70f86c, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f51495ccd00eb6e, 0x3f8aee5ffae7bc40, 0x0000000000000000])),
    ("4x4 collective chip_failure", Aborted([0x3f2b088b3a91a75d, 0x3f442c3361fe9100], 265, 272)),
    ("4x4 collective shared_fabric", Done([0x3f63217c7161aa06, 0x3f73b26b9f41585a, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f51495ccd00eb6e, 0x3fc07e1fe91b0b68, 0x0000000000000000])),
    ("4x4 collective fabric_outage", Done([0x3f63de93adc0ea24, 0x3f7410f73d70f868, 0x0000000000000000, 0x3f24f8b588e368f4, 0x3f51495ccd00eb6e, 0x3fc07e1fe91b0b68, 0x0000000000000000])),
    ("4x4 summa robust", Done([0x3f52b7e302fe6e15, 0x3f7701da84501a4e, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f82dfd694ccab1b, 0x3f940f106d6692b4, 0x3f69edef3ad91169])),
    ("4x4 summa outage", Done([0x3f515c67e754a50a, 0x3f759e6e50f1cf39, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f82dfd694ccab1b, 0x3f93d1c4fb87606b, 0x3f5336262503fc3c])),
    ("4x4 summa chip_failure", Aborted([0x3f37f74399501400, 0x3f509df86e83d0b3], 624, 640)),
    ("4x4 summa shared_fabric", Done([0x3f68b8d956c20027, 0x3f753891faa51d16, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f82dfd694ccab1b, 0x3fb5fd7fe17964a8, 0x3f506d1fc8eb1d68])),
    ("4x4 summa fabric_outage", Done([0x3f68d2506c552cb0, 0x3f759e6e50f1cf3d, 0x0000000000000000, 0x3f54f8b588e368fe, 0x3f82dfd694ccab1b, 0x3fb5fd7fe17964a8, 0x3f5336262503fc6e])),
    ("8x8 meshslice_s8 robust", Done([0x3f33ae64500df1bd, 0x3f77d89eb7a00386, 0x3f518d411f857ebe, 0x3f74f8b588e36861, 0x3f9ef6ad570499c0, 0x3f9f0b69f94d4ef6, 0x3f8423513bb5fe3c])),
    ("8x8 meshslice_s8 outage", Done([0x3f340a572b78ee75, 0x3f76e69376583944, 0x3f50db1996a9fb4d, 0x3f74f8b588e36861, 0x3f9ef6ad570499c0, 0x3f9dff927b3f5f11, 0x3f837c24f2f8a063])),
    ("8x8 meshslice_s8 chip_failure", Aborted([0x3f1a199b169831fd, 0x3f2a54cd2868e3c2], 14346, 17920)),
    ("8x8 meshslice_s8 shared_fabric", Done([0x3f7391aee0e2f838, 0x3f76cb3931b62b7e, 0x3f50c6f7a0b5edca, 0x3f74f8b588e36861, 0x3f9ef6ad570499c0, 0x3ff303178297b58c, 0x3f92edda704845ae])),
    ("8x8 meshslice_s8 fabric_outage", Done([0x3f735ced3487f33c, 0x3f76e6937658394c, 0x3f50db1996a9fb4d, 0x3f74f8b588e36861, 0x3f9ef6ad570499c0, 0x3ff2c9b0d966f48b, 0x3f93f52601b8bc9c])),
    ("8x8 collective robust", Done([0x3f3422d8bfd2b466, 0x3f74cfdee72a0922, 0x0000000000000000, 0x3f44f8b588e368fd, 0x3f751808a3b7edd6, 0x3f9f0b69f94d5403, 0x0000000000000000])),
    ("8x8 collective outage", Done([0x3f319ac35cfa08c9, 0x3f73fc9fd3913e53, 0x0000000000000000, 0x3f44f8b588e368fd, 0x3f751808a3b7edd6, 0x3f9dfe436ee27380, 0x0000000000000000])),
    ("8x8 collective chip_failure", Aborted([0x3f166e974551f8ff, 0x3f2a37d9f4c389ca], 2014, 2112)),
    ("8x8 collective shared_fabric", Done([0x3f73a7b91d68b6b4, 0x3f73e4c086237a40, 0x0000000000000000, 0x3f44f8b588e368fd, 0x3f751808a3b7edd6, 0x3ff33dcfe54a383a, 0x0000000000000000])),
    ("8x8 collective fabric_outage", Done([0x3f73bf986ad67ae0, 0x3f73fc9fd3913e6c, 0x0000000000000000, 0x3f44f8b588e368fd, 0x3f751808a3b7edd6, 0x3ff33dcfe54a383a, 0x0000000000000000])),
    ("8x8 summa robust", Done([0x3f4c6c28619cf605, 0x3f77d89eb7a00382, 0x0000000000000000, 0x3f74f8b588e36861, 0x3fa711947cfa26e4, 0x3fa82b7135675fc9, 0x3f405d365736fa67])),
    ("8x8 summa outage", Done([0x3f4ad17f8d9b8488, 0x3f76e6937658395a, 0x0000000000000000, 0x3f74f8b588e36861, 0x3fa711947cfa26e4, 0x3fa7868d7971abc5, 0x0000000000000000])),
    ("8x8 summa chip_failure", Aborted([0x3f32f27025f00a5a, 0x3f4af5e88ccf9556], 2545, 2560)),
    ("8x8 summa shared_fabric", Done([0x3f777f3cf3441af0, 0x3f76cb3931b62b80, 0x0000000000000000, 0x3f74f8b588e36861, 0x3fa711947cfa26e4, 0x3fe5fd7fe1796447, 0x0000000000000000])),
    ("8x8 summa fabric_outage", Done([0x3f7782a83bd85ca9, 0x3f76e6937658394c, 0x0000000000000000, 0x3f74f8b588e36861, 0x3fa711947cfa26e4, 0x3fe5fd7fe1796447, 0x0000000000000000])),
];

#[test]
fn faulted_full_graph_runs_match_their_pins() {
    let got = observed();
    let want: Vec<(String, Pin)> = PINS.iter().map(|(n, p)| (n.to_string(), *p)).collect();
    assert!(
        got == want,
        "engine pins changed; observed table:\n{}",
        source_form(&got)
    );
}

#[test]
fn the_grid_covers_aborted_and_completed_failure_runs() {
    let aborted = PINS
        .iter()
        .filter(|(n, p)| n.ends_with("chip_failure") && matches!(p, Aborted(..)))
        .count();
    assert!(aborted > 0, "no chip-failure case aborts");
    assert!(PINS.iter().any(|(_, p)| matches!(p, Done(_))));
}

/// The many-delays program under the robust draw and under outages.
#[test]
fn many_sync_delays_match_their_pins() {
    let mesh = Torus2d::new(4, 4);
    let torus = Engine::new(mesh.clone(), SimConfig::tpu_v4());
    let lowered = torus.lower_program(&many_delays_program(&mesh));
    let mut scratch = RunScratch::new();
    let m = torus
        .run_lowered_with_scratch(&lowered, &mut scratch)
        .makespan()
        .as_secs();
    let got: Vec<(String, Pin)> = [
        ("robust", torus.with_faults(robust_profile(16))),
        ("outage", torus.with_faults(outage_profile(16, m))),
    ]
    .into_iter()
    .map(|(name, engine)| {
        let r = engine.run_lowered_with_scratch(&lowered, &mut scratch);
        (format!("4x4 many_delays {name}"), done(&r))
    })
    .collect();
    let want: Vec<(String, Pin)> = MANY_DELAYS_PINS
        .iter()
        .map(|(n, p)| (n.to_string(), *p))
        .collect();
    assert!(
        got == want,
        "many-delays pins changed; observed:\n{}",
        source_form(&got)
    );
}

/// Recorded on the engine before the packed event keys.
#[rustfmt::skip]
const MANY_DELAYS_PINS: &[(&str, Pin)] = &[
    ("4x4 many_delays robust", Done([0x3f37f8fa90521f6d, 0x3f452cdf3bf8cc65, 0x0000000000000000, 0x3f4f75104d551d7d, 0x3f5badaa4d940318, 0x3f68595cec2b2453, 0x0000000000000000])),
    ("4x4 many_delays outage", Done([0x3f3a0e81cb5ce2ea, 0x3f43e5bfffebb834, 0x0000000000000000, 0x3f4f75104d551d7d, 0x3f5badaa4d940319, 0x3f6814a8a9a53d5c, 0x0000000000000000])),
];

/// One block's twelve FC passes fused into one MeshSlice program
/// (`simulate_fused_block`), under the weak-scaling setup: the tiny model
/// on 8 chips and GPT-3 on 16.
#[test]
fn fused_blocks_match_their_pins() {
    let cfg = SimConfig::tpu_v4();
    let got: Vec<(String, Pin)> = [(LlmConfig::tiny(), 8), (LlmConfig::gpt3(), 16)]
        .into_iter()
        .map(|(model, chips)| {
            let setup = TrainingSetup::weak_scaling(chips);
            let fused = simulate_fused_block(&model, setup, chips, &cfg).expect("tunable block");
            (
                format!("{} {chips} fused_block", model.name),
                done(&fused.report),
            )
        })
        .collect();
    let want: Vec<(String, Pin)> = FUSED_BLOCK_PINS
        .iter()
        .map(|(n, p)| (n.to_string(), *p))
        .collect();
    assert!(
        got == want,
        "fused-block pins changed; observed:\n{}",
        source_form(&got)
    );
}

/// Recorded on the op-by-op fused build, before it moved to a template.
#[rustfmt::skip]
const FUSED_BLOCK_PINS: &[(&str, Pin)] = &[
    ("tiny 8 fused_block", Done([0x3f2ac3ca26ce22a2, 0x3f34d0d72b18f424, 0x0000000000000000, 0x3f4f75104d551d7d, 0x3f5a0bd9cfd8007e, 0x3f50413a86f96cc6, 0x3f15a93ef697ca70])),
    ("GPT-3 16 fused_block", Done([0x3faa7a1a1544c010, 0x3fe94dde08ce8b66, 0x3fa01787f4024f96, 0x3fa3a92a30553240, 0x3fc0d253d60621fb, 0x3fe7315cdfcdfb66, 0x3fe6e419055c835d])),
];
