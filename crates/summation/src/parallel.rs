//! Multi-threaded reductions: the OpenMP analogue (§III-B, Table 3).
//!
//! OpenMP's `reduction(+:sum)` leaves the combine location and order
//! unspecified, so bitwise determinism is not guaranteed; adding the
//! `ordered` construct forces the combines into loop-iteration order
//! and restores determinism. We reproduce both flavours with real OS
//! threads:
//!
//! * [`unordered_threaded_sum`] — per-chunk partials combined in
//!   *thread finish order* (a `Mutex<f64>` each worker folds into as it
//!   completes). Run-to-run variability is genuine: it comes from the
//!   OS scheduler, exactly like the OpenMP "normal reduction" column of
//!   Table 3.
//! * [`atomic_cas_sum`] — every element added to a single shared
//!   accumulator with a compare-and-swap loop: the CPU twin of the
//!   GPU `atomicAdd`-only kernel (AO).
//! * [`ordered_threaded_sum`] — partials computed in parallel but
//!   combined in chunk-index order: deterministic regardless of thread
//!   timing, the `ordered` clause analogue.
//! * [`reproducible_threaded_sum`] — partials accumulated exactly via
//!   [`crate::exact::ExactAccumulator`] and merged: deterministic even
//!   across different chunk sizes and thread counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fpna_core::executor::fixed_chunks;

use crate::exact::ExactAccumulator;
use crate::serial::serial_sum;

/// Parallel sum with partials combined in **thread finish order** — the
/// OpenMP "normal reduction". Non-deterministic across runs whenever
/// `threads > 1` and the partials are rounding-sensitive.
pub fn unordered_threaded_sum(xs: &[f64], threads: usize) -> f64 {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || xs.len() < 2 {
        return serial_sum(xs);
    }
    let total = Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for chunk in fixed_chunks(xs.len(), threads) {
            let total = &total;
            scope.spawn(move || {
                let partial = serial_sum(&xs[chunk]);
                // Combine in completion order: whichever thread gets
                // here first folds in first. This is where the
                // non-determinism lives.
                let mut guard = total.lock().unwrap();
                *guard += partial;
            });
        }
    });
    total.into_inner().unwrap()
}

/// Parallel sum where **every element** is added to one shared
/// accumulator via a compare-and-swap loop — the CPU analogue of the
/// GPU `atomicAdd`-only (AO) kernel. Maximally non-deterministic and,
/// like AO in Table 4, dramatically slower than the alternatives
/// because it serialises every addition through one cache line.
pub fn atomic_cas_sum(xs: &[f64], threads: usize) -> f64 {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || xs.len() < 2 {
        return serial_sum(xs);
    }
    let total = AtomicU64::new(0.0f64.to_bits());
    std::thread::scope(|scope| {
        for chunk in fixed_chunks(xs.len(), threads) {
            let total = &total;
            scope.spawn(move || {
                for &x in &xs[chunk] {
                    let mut current = total.load(Ordering::Relaxed);
                    loop {
                        let updated = (f64::from_bits(current) + x).to_bits();
                        match total.compare_exchange_weak(
                            current,
                            updated,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(actual) => current = actual,
                        }
                    }
                }
            });
        }
    });
    f64::from_bits(total.load(Ordering::Relaxed))
}

/// Parallel sum with partials combined in **chunk-index order** — the
/// OpenMP `ordered` reduction. Deterministic for a fixed `(input,
/// threads)` pair no matter how the OS schedules the workers.
pub fn ordered_threaded_sum(xs: &[f64], threads: usize) -> f64 {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || xs.len() < 2 {
        return serial_sum(xs);
    }
    let chunks = fixed_chunks(xs.len(), threads);
    let mut partials = vec![0.0f64; chunks.len()];
    std::thread::scope(|scope| {
        for (slot, chunk) in partials.iter_mut().zip(chunks) {
            scope.spawn(move || {
                *slot = serial_sum(&xs[chunk]);
            });
        }
    });
    serial_sum(&partials)
}

/// Parallel **reproducible** sum: each worker accumulates its chunk
/// exactly, accumulators are merged exactly (in chunk-index order, via
/// [`fpna_core::executor::par_reduce_indexed`]), and the single final
/// rounding makes the result independent of both schedule *and*
/// partitioning (unlike [`ordered_threaded_sum`], whose bits change
/// with the thread count).
///
/// `threads` is the chunk-boundary hint; the chunks run on up to the
/// calling thread's worker budget, or serially inside another fan-out's
/// worker (one shared budget) — the bits are the same either way.
pub fn reproducible_threaded_sum(xs: &[f64], threads: usize) -> f64 {
    assert!(threads > 0, "need at least one thread");
    fpna_core::executor::par_reduce_indexed(
        threads,
        xs.len(),
        |_, range| {
            let mut acc = crate::exact::accumulate_exact(&xs[range]);
            // Canonicalize in parallel: keeps limbs small for the
            // chunk-ordered merges and the merges cheap (span-only).
            acc.normalize();
            acc
        },
        |mut total, part| {
            total.merge(&part);
            total
        },
    )
    .map(|acc| acc.round())
    .unwrap_or_else(|| ExactAccumulator::new().round())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_sum;
    use fpna_core::rng::SplitMix64;

    fn test_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 1e6 - 5e5).collect()
    }

    #[test]
    fn all_variants_agree_to_rounding() {
        let xs = test_data(100_000, 1);
        let reference = exact_sum(&xs);
        let tol = 1e-10 * reference.abs().max(1.0);
        for t in [1, 2, 4, 8] {
            assert!((unordered_threaded_sum(&xs, t) - reference).abs() < tol);
            assert!((ordered_threaded_sum(&xs, t) - reference).abs() < tol);
            assert!((reproducible_threaded_sum(&xs, t) - reference).abs() < tol);
        }
        assert!((atomic_cas_sum(&xs, 4) - reference).abs() < tol);
    }

    #[test]
    fn ordered_is_deterministic_across_runs() {
        let xs = test_data(200_000, 2);
        let first = ordered_threaded_sum(&xs, 8);
        for _ in 0..5 {
            assert_eq!(ordered_threaded_sum(&xs, 8).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn reproducible_is_invariant_to_thread_count() {
        let xs = test_data(50_000, 3);
        let r1 = reproducible_threaded_sum(&xs, 1);
        for t in [2, 3, 4, 7, 16] {
            assert_eq!(
                reproducible_threaded_sum(&xs, t).to_bits(),
                r1.to_bits(),
                "threads={t}"
            );
        }
        // ordered is deterministic per thread count but NOT across
        // thread counts — that's the gap the exact accumulator closes.
        assert_eq!(exact_sum(&xs).to_bits(), r1.to_bits());
    }

    #[test]
    fn unordered_varies_across_runs_eventually() {
        // Not guaranteed per run; assert that over many runs we see at
        // least two distinct bit patterns (overwhelmingly likely with
        // 8 threads on rounding-sensitive data).
        let xs = test_data(400_000, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            seen.insert(unordered_threaded_sum(&xs, 8).to_bits());
        }
        assert!(
            seen.len() > 1,
            "expected run-to-run variability, got a single value"
        );
    }

    #[test]
    fn single_thread_matches_serial() {
        let xs = test_data(1000, 5);
        assert_eq!(
            unordered_threaded_sum(&xs, 1).to_bits(),
            serial_sum(&xs).to_bits()
        );
        assert_eq!(
            ordered_threaded_sum(&xs, 1).to_bits(),
            serial_sum(&xs).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ordered_threaded_sum(&[1.0], 0);
    }
}
