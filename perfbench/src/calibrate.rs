//! Host-speed calibration.
//!
//! Small shared machines slow every instruction when a co-tenant loads
//! the host: on a 2-vCPU Xeon VM, whole ten-second runs took 1.7× as
//! long as their neighbours, in stretches lasting seconds to minutes.
//! Medians of raw wall time swung by 20–35% between runs; no run length
//! fixes that. So every timed interval is bracketed by fixed loops that
//! belong to the benchmark, never to the program, and is reported as
//! `wall × REFERENCE_MS / loop time`: milliseconds at the host speed at
//! which the loops take `REFERENCE_MS`.
//!
//! Co-tenants do not slow all code alike, so there are two loops with
//! opposite instruction mixes: small-vector allocation churn, like the
//! simulator layers, and dependent floating-point arithmetic with
//! integer division, like the cost model. Either alone tracked one kind
//! of slowdown and missed the other by up to 15%; the geometric mean of
//! the two kept the median query time of every workload within 6%
//! (interquartile range over ten seeds) in all batches measured.

use std::hint::black_box;
use std::time::Instant;

/// Geometric mean of the two loops' wall times, in ms, on the host the
/// benchmark was calibrated on while no co-tenant was loading it.
pub const REFERENCE_MS: f64 = 0.44;

fn alloc_loop() {
    let mut total = 0usize;
    for r in 0..9000 {
        let len = 8 + r % 64;
        let mut v: Vec<u64> = Vec::with_capacity(len);
        for k in 0..len {
            v.push(k as u64 * 3);
        }
        total += black_box(v).iter().sum::<u64>() as usize;
    }
    black_box(total);
}

fn arith_loop() {
    let (mut acc, mut x, mut hits) = (0.0f64, 1.2345f64, 0usize);
    for i in 0..100_000usize {
        let a = (i % 97) as f64 + 1.0;
        let b = x / a + a.sqrt();
        let c = if b > 3.0 { b * 0.5 } else { b + 1.0 };
        acc += c.clamp(0.1, 10.0);
        x = x * 1.0000001 + 0.3;
        if (i * 7919) % (1 + i % 13) == 0 {
            hits += 1;
        }
    }
    black_box((acc, hits));
}

fn wall_ms(f: fn()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs both loops; returns the geometric mean of their wall times, ms.
pub fn loop_ms() -> f64 {
    (wall_ms(alloc_loop) * wall_ms(arith_loop)).sqrt()
}

/// Reference milliseconds of a `wall_ms` interval bracketed by loop
/// runs that took `before` and `after` ms.
pub fn normalize(wall_ms: f64, before: f64, after: f64) -> f64 {
    wall_ms * REFERENCE_MS * 2.0 / (before + after)
}
