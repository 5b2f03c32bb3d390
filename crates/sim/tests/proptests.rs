//! Property-based tests of the simulator's invariants.

use meshslice_mesh::{ChipId, CommAxis, Torus2d};
use meshslice_sim::{Engine, GemmShape, OpTraceRecorder, ProgramBuilder, RunScratch, SimConfig};
use proptest::prelude::*;

fn cfg() -> SimConfig {
    SimConfig::tpu_v4()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A chain of GeMMs on one chip takes exactly the sum of their times
    /// (no hidden parallelism, no lost time), for any chain length.
    #[test]
    fn serial_compute_is_additive(count in 1usize..6, dim in 6usize..10) {
        let n = 1usize << dim; // 64..512
        let mesh = Torus2d::new(1, 1);
        let shape = GemmShape::new(n, n, n);
        let mut b = ProgramBuilder::new(&mesh);
        let mut prev = None;
        for _ in 0..count {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.gemm(ChipId(0), shape, &deps));
        }
        let report = Engine::new(mesh.clone(), cfg()).run(&b.build());

        let mut single = ProgramBuilder::new(&mesh);
        single.gemm(ChipId(0), shape, &[]);
        let one = Engine::new(mesh, cfg()).run(&single.build());
        let ratio = report.makespan().as_secs() / one.makespan().as_secs();
        prop_assert!((ratio - count as f64).abs() < 1e-6, "ratio {ratio} vs {count}");
    }

    /// Ring AllGather time grows monotonically with shard size and with
    /// ring length.
    #[test]
    fn collective_time_is_monotone(
        ring in 2usize..9,
        kib in 1u64..512,
    ) {
        let run = |ring: usize, bytes: u64| {
            let mesh = Torus2d::new(ring, 1);
            let mut b = ProgramBuilder::new(&mesh);
            let tag = b.next_tag();
            for chip in mesh.chips() {
                b.all_gather(chip, tag, CommAxis::InterRow, bytes, &[]);
            }
            Engine::new(mesh, cfg()).run(&b.build()).makespan()
        };
        let bytes = kib * 1024;
        prop_assert!(run(ring, 2 * bytes) >= run(ring, bytes));
        if ring < 8 {
            prop_assert!(run(ring + 1, bytes) >= run(ring, bytes));
        }
    }

    /// Busy-time accounting is conserved: the per-category totals of a
    /// compute-only program equal the known op durations.
    #[test]
    fn compute_accounting_is_exact(count in 1usize..5) {
        let mesh = Torus2d::new(2, 2);
        let shape = GemmShape::new(256, 256, 256);
        let mut b = ProgramBuilder::new(&mesh);
        for chip in mesh.chips() {
            for _ in 0..count {
                b.gemm(chip, shape, &[]);
            }
        }
        let c = cfg();
        let report = Engine::new(mesh, c.clone()).run(&b.build());
        let per_gemm = c.gemm_flop_time(shape).as_secs() + c.t_kernel_launch.as_secs();
        let expect = per_gemm * (4 * count) as f64;
        prop_assert!(
            (report.totals().compute.as_secs() - expect).abs() < 1e-9,
            "accounted {} vs expected {expect}",
            report.totals().compute.as_secs()
        );
        prop_assert_eq!(report.totals().comm_total().as_secs(), 0.0);
    }

    /// Doubling every hardware overhead never makes a program faster.
    #[test]
    fn overheads_are_monotone(ring in 2usize..6, s in 1usize..4) {
        let mesh = Torus2d::new(ring, ring);
        let mut b = ProgramBuilder::new(&mesh);
        for _ in 0..s {
            let tag = b.next_tag();
            for chip in mesh.chips() {
                let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 18, &[]);
                b.gemm(chip, GemmShape::new(128, 128, 128), &[ag]);
            }
        }
        let program = b.build();
        let base = cfg();
        let slow = SimConfig {
            t_sync: meshslice_sim::Duration::from_micros(base.t_sync.as_micros() * 2.0),
            t_launch: meshslice_sim::Duration::from_micros(base.t_launch.as_micros() * 2.0),
            link_bandwidth: base.link_bandwidth / 2.0,
            ..base.clone()
        };
        let fast_t = Engine::new(mesh.clone(), base).run(&program).makespan();
        let slow_t = Engine::new(mesh, slow).run(&program).makespan();
        prop_assert!(slow_t >= fast_t);
    }

    /// Traced completions are consistent: every op completes within the
    /// makespan, and dependencies complete no later than their dependents.
    #[test]
    fn trace_respects_dependencies(ring in 2usize..5, s in 1usize..4) {
        let mesh = Torus2d::new(ring, 1);
        let mut b = ProgramBuilder::new(&mesh);
        for _ in 0..s {
            let tag = b.next_tag();
            for chip in mesh.chips() {
                let ag = b.all_gather(chip, tag, CommAxis::InterRow, 1 << 16, &[]);
                b.gemm(chip, GemmShape::new(64, 64, 64), &[ag]);
            }
        }
        let program = b.build();
        let engine = Engine::new(mesh, cfg());
        let lowered = engine.lower_program(&program);
        let mut rec = OpTraceRecorder::new(&lowered);
        let report = engine
            .run_observed(&lowered, &mut RunScratch::new(), None, &mut rec)
            .into_completed()
            .unwrap();
        let traces = rec.into_traces();
        prop_assert_eq!(traces.len(), program.len());
        for (i, op) in program.ops().iter().enumerate() {
            prop_assert!(traces[i].completed <= report.makespan());
            for d in &op.deps {
                prop_assert!(traces[d.index()].completed <= traces[i].completed);
            }
        }
    }
}
