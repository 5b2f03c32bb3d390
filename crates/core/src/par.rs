//! Deterministic parallel sweep driver.
//!
//! Every headline sweep of this reproduction — robust tuning, the logged
//! mesh search, the straggler-sensitivity grid, the figure harnesses — is
//! an embarrassingly parallel loop over *independent* simulations. This
//! module fans those loops out over a small hermetic [`std::thread`]
//! scoped pool while preserving the repo's bit-identical determinism
//! guarantee:
//!
//! * each [`Engine`](meshslice_sim::Engine) run stays single-threaded
//!   internally; only whole simulations run concurrently, and
//! * results are placed by **input index**, so the returned `Vec` is
//!   byte-identical to a plain serial `map` regardless of the thread
//!   count or OS scheduling.
//!
//! The worker count resolves, in order, from: an explicit
//! [`set_threads`] override (the CLI's `--threads N`), the
//! `MESHSLICE_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A count of 1 short-circuits to
//! a plain serial loop on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the ambient worker count [`threads`] reports (the CLI's
/// `--threads N`). Passing 0 clears the override, falling back to
/// `MESHSLICE_THREADS` and then the machine's available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The ambient worker count callers pass to [`parallel_map_with`]: the
/// [`set_threads`] override if set, else `MESHSLICE_THREADS` if set and
/// positive, else [`std::thread::available_parallelism`] (1 if unknown).
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("MESHSLICE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `num_threads` workers, returning results in
/// input order.
///
/// Deterministic by construction: output slot `i` always holds
/// `f(&items[i])`, so any thread count — including 1 — yields a `Vec`
/// identical to `items.iter().map(f).collect()`.
pub fn parallel_map_threads<T, R, F>(num_threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(num_threads, items, || (), move |(), item| f(item))
}

/// The general form: each worker builds one private state with `init`
/// (e.g. a [`RunScratch`](meshslice_sim::RunScratch)) and maps its share
/// of `items` through `f(&mut state, &item)`. Results are still placed by
/// input index, so the output is independent of how items were divided
/// among workers.
///
/// With `num_threads <= 1` (or one item), everything runs on the calling
/// thread with a single state — the serial reference path.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn parallel_map_with<T, R, S, F, I>(num_threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
    I: Fn() -> S + Sync,
{
    if num_threads <= 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let workers = num_threads.min(items.len());
    let next = AtomicUsize::new(0);
    let mut partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return out;
                        }
                        out.push((i, f(&mut state, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for part in &mut partials {
        for (i, r) in part.drain(..) {
            debug_assert!(slots[i].is_none(), "item {i} mapped twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("item {i} was never mapped")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = parallel_map_threads(threads, &items, |&x| x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_threads(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map_threads(8, &[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's state counts its own calls; the mapped output must
        // still be position-exact no matter how calls were distributed.
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map_with(
            4,
            &items,
            || 0usize,
            |calls, &x| {
                *calls += 1;
                (x, *calls >= 1)
            },
        );
        for (i, &(x, counted)) in out.iter().enumerate() {
            assert_eq!(x, i);
            assert!(counted);
        }
    }

    #[test]
    fn explicit_override_beats_env() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map_threads(4, &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }
}
