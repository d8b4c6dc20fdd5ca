//! Order-invariant parallel execution of repeated runs.
//!
//! Every experiment in the suite has the same outer shape: execute the
//! same kernel `N` times with per-run seeds and aggregate the results.
//! [`map_runs`] fans those runs out across OS threads while keeping the
//! aggregate **bitwise identical** to a serial execution at any thread
//! count — a working demonstration of the paper's thesis that
//! parallelism and reproducibility are compatible when the algorithm is
//! made order-invariant *by construction*:
//!
//! 1. each run's seed is a pure function of `(base_seed, run_index)`
//!    (SplitMix64 derivation via [`crate::rng::derive_seed`]), never of
//!    which worker picks the run up or when;
//! 2. results are collected into run-index order before any
//!    floating-point aggregation happens, so downstream summaries see
//!    the exact sequence a serial loop would have produced.
//!
//! One worker budget per thread ([`set_threads`], [`threads`]) sizes
//! every fan-out in this module: [`map_runs`] over repeated runs, and
//! [`par_fill`] and [`par_reduce_indexed`] inside a single run. Workers
//! pull indices from a shared atomic counter (dynamic load balancing —
//! runs of a sweep can have very different costs), stash
//! `(index, result)` pairs locally, and the pairs are sorted by index
//! at the end. A fan-out started on a worker runs serially on it, so
//! nested fan-outs share the outer budget instead of multiplying it.
//! Scoped `std` threads, no extra dependencies.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable giving the worker budget of a thread that
/// never calls [`set_threads`].
pub const THREADS_ENV: &str = "FPNA_THREADS";

thread_local! {
    /// This thread's worker budget; `0` until [`set_threads`] or the
    /// first [`threads`] call.
    static THREADS: Cell<usize> = const { Cell::new(0) };

    /// Set inside every worker thread this module spawns. A fan-out
    /// started on a worker runs serially there, so an outer fan-out
    /// and the kernels inside its runs share one budget instead of
    /// multiplying (no nested oversubscription). Chunk *boundaries*
    /// are unaffected, so results stay bitwise identical whether a
    /// kernel runs inside a worker or not.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a thread spawned by one of this module's primitives.
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Set the calling thread's worker budget: how many threads its
/// fan-outs may use. Binaries set it once from `--threads`; a test
/// sets it on its own thread, so tests cannot change each other's
/// budget.
///
/// The budget only ever changes wall-clock time: every primitive in
/// this module is bitwise invariant to it by construction.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn set_threads(threads: usize) {
    assert!(threads > 0, "need at least one worker thread");
    THREADS.with(|t| t.set(threads));
}

/// The calling thread's worker budget: the value set via
/// [`set_threads`], else the [`THREADS_ENV`] environment variable when
/// it holds a positive integer, else 1.
pub fn threads() -> usize {
    THREADS.with(|t| match t.get() {
        0 => {
            let from_env = std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1);
            t.set(from_env);
            from_env
        }
        n => n,
    })
}

/// Fixed chunk boundaries over `0..len`: `min(hint, len)` nearly-equal
/// contiguous ranges. A **pure function of `(len, hint)`** — never of
/// the thread count actually running, which is what lets a combine in
/// chunk-index order stay bitwise identical when the scheduler, the
/// machine, or a nested thread budget changes how many workers show
/// up.
pub fn fixed_chunks(len: usize, num_threads_hint: usize) -> Vec<Range<usize>> {
    assert!(num_threads_hint > 0, "need at least one chunk");
    let pieces = num_threads_hint.min(len);
    if len == 0 {
        return Vec::new();
    }
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let n = base + usize::from(i < extra);
        out.push(start..start + n);
        start += n;
    }
    out
}

/// Run `f(0), …, f(n − 1)` on up to [`threads`] workers and return the
/// results in index order. Serial on a worker thread, on a budget of
/// 1, or for `n <= 1`.
fn fan_out<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 || in_worker() || threads() == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads().min(n) {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                collected
                    .lock()
                    .expect("no worker panics holding the results")
                    .extend(local);
            });
        }
    });
    let mut pairs = collected
        .into_inner()
        .expect("no worker panics holding the results");
    debug_assert_eq!(pairs.len(), n, "every index must report exactly once");
    // Completion order is scheduler-dependent; index order is not.
    // This sort is what makes every fan-out order-invariant.
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Execute `run(i)` for every **global** run index `i` in `range` and
/// return the results in index order, on up to [`threads`] workers.
///
/// The closure must be pure in its index argument (it receives shared
/// references only); any per-run randomness should flow from
/// [`crate::rng::derive_seed`] or an equivalent index-keyed derivation.
/// Under that contract the output is bitwise identical for every
/// thread count. It is also the process-sharding primitive: a shard
/// owning `a..b` of an `0..runs` sweep calls its closure with the
/// global indices `a, a+1, …, b−1`, so every run gets the seed it
/// would have received in a single-process execution and shard
/// boundaries can change freely without moving one bit of any run.
///
/// Called from inside another fan-out's worker, the runs execute
/// serially on the current thread: the outer fan-out already owns the
/// budget, and the serial path is bitwise identical by the same
/// contract.
pub fn map_runs<T, F>(range: Range<usize>, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Observability flags are sampled once per fan-out so the
    // disabled path stays a pair of predictable branches per run.
    // Tracing gives each run its own trace "process" (pid = global run
    // index + 1; pid 0 is everything outside a fan-out), restored
    // afterwards so nested fan-outs keep the outer run's track.
    let tracing = fpna_obs::trace::enabled();
    let profiling = fpna_obs::profile::enabled();
    let _span = fpna_obs::profile::scope("executor.map_runs");
    let start = range.start;
    fan_out(range.len(), |k| {
        let i = start + k;
        let prev = if tracing {
            let p = fpna_obs::trace::current_pid();
            fpna_obs::trace::set_current_pid(i as u64 + 1);
            p
        } else {
            0
        };
        let t0 = profiling.then(std::time::Instant::now);
        let out = run(i);
        if let Some(t0) = t0 {
            fpna_obs::profile::record("executor.run", t0.elapsed().as_nanos() as u64);
        }
        if tracing {
            fpna_obs::trace::set_current_pid(prev);
        }
        out
    })
}

/// Parallel indexed reduction: map the [`fixed_chunks`] of `0..len`
/// for `num_threads_hint` through `map`, on up to [`threads`] workers,
/// then fold the per-chunk partials **strictly in chunk-index order**
/// with `fold`. `map` receives `(chunk_index, index_range)` and must
/// be pure in them. Returns `None` for `len == 0`.
///
/// The hint fixes the chunk boundaries and the budget only how many
/// chunks run at once, so the result is deterministic for a fixed
/// `(len, hint)` pair; it is bitwise equal to the serial execution
/// whenever the value is partition-invariant (exact accumulators) or
/// the chunks are independent.
pub fn par_reduce_indexed<T, M, F>(num_threads_hint: usize, len: usize, map: M, fold: F) -> Option<T>
where
    T: Send,
    M: Fn(usize, Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    let _span = fpna_obs::profile::scope("executor.par_chunk_map");
    let chunks = fixed_chunks(len, num_threads_hint);
    fan_out(chunks.len(), |i| map(i, chunks[i].clone()))
        .into_iter()
        .reduce(fold)
}

/// Fill disjoint regions of `out` in parallel: `out` is viewed as
/// `out.len() / unit` logical indices of `unit` elements each, split
/// into [`threads`] fixed chunks, and `f(index_range, region)` runs
/// once per chunk with exclusive access to that chunk's region.
///
/// Because every region is disjoint the result is bitwise identical to
/// the serial loop for any budget; on a worker the chunks run serially
/// (shared budget).
///
/// # Panics
///
/// Panics if `unit == 0` or `out.len()` is not a multiple of `unit`.
pub fn par_fill<T, F>(out: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit must be positive");
    assert!(out.len().is_multiple_of(unit), "out length must be a multiple of unit");
    let _span = fpna_obs::profile::scope("executor.par_fill");
    let chunks = fixed_chunks(out.len() / unit, threads());
    let mut rest = out;
    let regions: Vec<Mutex<&mut [T]>> = chunks
        .iter()
        .map(|range| {
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * unit);
            rest = tail;
            Mutex::new(region)
        })
        .collect();
    fan_out(chunks.len(), |i| {
        let mut region = regions[i]
            .lock()
            .expect("each region is locked once, so never poisoned");
        f(chunks[i].clone(), &mut region)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| (i as f64).sqrt() * 1e3 + i as f64;
        set_threads(1);
        let reference: Vec<f64> = map_runs(0..100, work);
        for threads in [2, 3, 4, 7, 16] {
            set_threads(threads);
            let got = map_runs(0..100, work);
            let same = reference
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} must match serial bitwise");
        }
    }

    #[test]
    fn map_runs_passes_global_indices() {
        let work = |i: usize| (i as f64).sqrt() * 1e3 + i as f64;
        set_threads(1);
        let full: Vec<f64> = map_runs(0..50, work);
        for threads in [1usize, 3, 8] {
            set_threads(threads);
            // Any partition of 0..50 must reproduce the matching slice
            // of the full sweep bitwise.
            for (a, b) in [(0usize, 50usize), (0, 17), (17, 33), (33, 50), (49, 50), (20, 20)] {
                let part = map_runs(a..b, work);
                assert_eq!(part.len(), b - a);
                let same = full[a..b]
                    .iter()
                    .zip(&part)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "range {a}..{b} threads={threads}");
            }
        }
    }

    #[test]
    fn results_are_in_run_order() {
        set_threads(4);
        let out = map_runs(0..1000, |i| i);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_runs() {
        set_threads(64);
        let out = map_runs(0..3, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn zero_runs() {
        set_threads(4);
        let out: Vec<u8> = map_runs(0..0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        set_threads(0);
    }

    #[test]
    fn fixed_chunks_partition_exactly() {
        for (len, hint) in [(10usize, 3usize), (0, 2), (7, 7), (100, 1), (5, 8), (1_000_000, 4)] {
            let chunks = fixed_chunks(len, hint);
            assert_eq!(chunks.len(), hint.min(len));
            if len == 0 {
                continue;
            }
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks.last().unwrap().end, len);
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            // Pure function of (len, hint): recomputing gives identical
            // boundaries.
            assert_eq!(chunks, fixed_chunks(len, hint));
        }
    }

    #[test]
    fn par_reduce_indexed_is_hint_invariant_for_maps() {
        // Per-index work (a pure map) concatenated in chunk order: the
        // result must not depend on the hint or the budget at all.
        let reference: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        for budget in [1usize, 4] {
            set_threads(budget);
            for hint in [1usize, 2, 4, 7, 16] {
                let flat = par_reduce_indexed(
                    hint,
                    1000,
                    |_, range| range.map(|i| (i as f64).sqrt()).collect::<Vec<_>>(),
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                )
                .unwrap();
                let same = reference
                    .iter()
                    .zip(&flat)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same && flat.len() == 1000, "hint={hint} budget={budget}");
            }
        }
    }

    #[test]
    fn par_reduce_indexed_folds_in_chunk_order() {
        // Concatenation is order-sensitive, so this checks the fold
        // really walks chunks in index order.
        set_threads(4);
        for hint in [1usize, 3, 5, 8] {
            let joined = par_reduce_indexed(
                hint,
                26,
                |_, range| range.map(|i| (b'a' + i as u8) as char).collect::<String>(),
                |a, b| a + &b,
            )
            .unwrap();
            assert_eq!(joined, "abcdefghijklmnopqrstuvwxyz", "hint={hint}");
        }
        assert_eq!(par_reduce_indexed(4, 0, |_, _| 1u32, |a, b| a + b), None);
    }

    #[test]
    fn par_fill_matches_serial_loop() {
        let mut serial = vec![0.0f64; 12 * 3];
        for i in 0..12 {
            for j in 0..3 {
                serial[i * 3 + j] = (i * 3 + j) as f64 * 1.5;
            }
        }
        for budget in [1usize, 2, 4, 7] {
            set_threads(budget);
            let mut out = vec![0.0f64; 12 * 3];
            par_fill(&mut out, 3, |rows, region| {
                for (local, i) in rows.clone().enumerate() {
                    for j in 0..3 {
                        region[local * 3 + j] = (i * 3 + j) as f64 * 1.5;
                    }
                }
            });
            assert_eq!(out, serial, "budget={budget}");
        }
    }

    #[test]
    fn nested_fan_out_collapses_but_bits_do_not_change() {
        let work = |i: usize| {
            // A nested fan-out inside each run: must serialize, and the
            // value must match the flat computation.
            set_threads(4);
            let inner: f64 = map_runs(0..5, |j| ((i * 5 + j) as f64).sqrt()).iter().sum();
            inner
        };
        let reference: Vec<f64> = (0..20).map(work).collect();
        set_threads(4);
        let got = map_runs(0..20, work);
        let same = reference.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
    }

    /// The one-budget claim: an outer fan-out at budget `n` and the
    /// fan-outs inside its closures never run more than `n` inner
    /// closures at once. Each outer closure sets its own budget first,
    /// so a nested fan-out that ignored [`in_worker`] would start `n`
    /// workers of its own. The sleep only widens the window in which
    /// inner closures overlap, so such a fan-out is seen; the bound
    /// holds under any interleaving.
    #[test]
    fn nested_fan_outs_never_exceed_the_budget() {
        struct Gauge {
            live: AtomicUsize,
            peak: AtomicUsize,
        }
        impl Gauge {
            fn leaf(&self) {
                let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
        type Nesting = fn(usize, &Gauge);
        let shapes: [(&str, Nesting); 3] = [
            ("map_runs -> map_runs", |budget, g| {
                map_runs(0..8, |_| {
                    set_threads(budget);
                    map_runs(0..8, |_| g.leaf());
                });
            }),
            ("map_runs -> par_fill", |budget, g| {
                map_runs(0..8, |_| {
                    set_threads(budget);
                    par_fill(&mut [0u8; 8], 1, |_, _| g.leaf());
                });
            }),
            ("par_fill -> map_runs", |budget, g| {
                par_fill(&mut [0u8; 8], 1, |_, _| {
                    set_threads(budget);
                    map_runs(0..8, |_| g.leaf());
                });
            }),
        ];
        for (name, nest) in shapes {
            for budget in [1usize, 3, 4] {
                let gauge = Gauge {
                    live: AtomicUsize::new(0),
                    peak: AtomicUsize::new(0),
                };
                set_threads(budget);
                nest(budget, &gauge);
                let peak = gauge.peak.load(Ordering::SeqCst);
                assert!(
                    peak <= budget,
                    "{name} at budget {budget}: {peak} closures at once"
                );
            }
        }
    }

    #[test]
    fn from_env_defaults_to_serial() {
        // A thread that never sets a budget reads FPNA_THREADS, else 1;
        // either way the budget is a positive count.
        let budget = std::thread::spawn(threads).join().unwrap();
        assert!(budget >= 1);
    }
}
