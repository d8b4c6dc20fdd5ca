//! Order-invariant parallel execution of repeated runs.
//!
//! Every experiment in the suite has the same outer shape: execute the
//! same kernel `N` times with per-run seeds and aggregate the results.
//! [`RunExecutor`] fans those runs out across OS threads while keeping
//! the aggregate **bitwise identical** to a serial execution at any
//! thread count — a working demonstration of the paper's thesis that
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
//! Workers pull run indices from a shared atomic counter (dynamic load
//! balancing — runs of a sweep can have very different costs), stash
//! `(index, result)` pairs locally, and the pairs are sorted by index
//! at the end. The same pattern `fpna_summation::parallel` uses: scoped
//! `std` threads, no extra dependencies.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable providing the default worker count when no
/// explicit `--threads` flag is given (see
/// [`RunExecutor::from_env`]).
pub const THREADS_ENV: &str = "FPNA_THREADS";

// ---------------------------------------------------------------------------
// Intra-run parallelism: one shared thread budget
// ---------------------------------------------------------------------------

/// Process-wide worker-count hint for the *intra-run* primitives
/// ([`par_chunk_map`], [`par_fill`], [`par_reduce_indexed`]): how many
/// threads a single kernel invocation may use. `0` means "not yet
/// configured" — the first read falls back to [`THREADS_ENV`].
static INTRA_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside every executor-spawned worker thread. The intra-run
    /// primitives consult it and collapse to one worker, so an outer
    /// [`RunExecutor::map_runs`] fan-out and the inner kernels share a
    /// single thread budget instead of multiplying (no nested
    /// oversubscription). Chunk *boundaries* are unaffected — they are
    /// a pure function of `(len, hint)` — so results stay bitwise
    /// identical whether a kernel runs inside a worker or not.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a thread spawned by one of this module's primitives.
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Configure the intra-run worker-count hint (normally wired from the
/// same `--threads` flag that sizes the [`RunExecutor`], so one flag
/// governs the whole budget).
///
/// The hint only ever changes wall-clock time: every primitive in this
/// module is bitwise invariant to it by construction.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn set_intra_threads(threads: usize) {
    assert!(threads > 0, "need at least one intra-run worker thread");
    INTRA_THREADS.store(threads, Ordering::Relaxed);
}

/// The intra-run worker-count hint: the value set via
/// [`set_intra_threads`], else the [`THREADS_ENV`] environment
/// variable, else 1.
pub fn intra_threads() -> usize {
    match INTRA_THREADS.load(Ordering::Relaxed) {
        0 => {
            let t = RunExecutor::from_env().threads;
            // Racing initializers compute the same value; store is
            // idempotent.
            INTRA_THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Test support: serializes tests that mutate the process-global
/// intra-thread hint via [`set_intra_threads`]. Without the lock, two
/// such tests running on parallel test threads can flip the hint
/// under each other, so a "serial reference" might be computed with
/// parallelism enabled and the serial==parallel assertion would be
/// vacuous. The guard also restores the serial hint when dropped —
/// including on panic or a failed property case — so a parallel hint
/// never leaks into unrelated tests.
#[doc(hidden)]
pub fn intra_hint_test_guard() -> impl Drop {
    static LOCK: Mutex<()> = Mutex::new(());
    struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            set_intra_threads(1);
        }
    }
    Guard(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
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

/// Map fixed chunks of `0..len` through `f` in parallel and return the
/// per-chunk results **in chunk-index order**.
///
/// Chunk boundaries come from [`fixed_chunks`]`(len, hint)`; `f`
/// receives `(chunk_index, index_range)` and must be pure in them.
/// One OS thread runs per chunk unless the call happens inside another
/// executor worker, in which case the chunks run serially on the
/// current thread (shared budget) — either way the returned vector is
/// identical.
pub fn par_chunk_map_with<T, F>(num_threads_hint: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let _span = fpna_obs::profile::scope("executor.par_chunk_map");
    let chunks = fixed_chunks(len, num_threads_hint);
    if chunks.len() <= 1 || in_worker() {
        return chunks.into_iter().enumerate().map(|(i, r)| f(i, r)).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(chunks.len());
    slots.resize_with(chunks.len(), || None);
    std::thread::scope(|scope| {
        for ((i, range), slot) in chunks.into_iter().enumerate().zip(slots.iter_mut()) {
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                *slot = Some(f(i, range));
            });
        }
    });
    slots.into_iter().map(|s| s.expect("worker finished")).collect()
}

/// [`par_chunk_map_with`] using the ambient [`intra_threads`] hint —
/// the form library kernels call so `--threads` reaches them without
/// plumbing an executor through every signature.
pub fn par_chunk_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    par_chunk_map_with(intra_threads(), len, f)
}

/// Parallel indexed reduction: map fixed chunks through `map`, then
/// fold the per-chunk partials **strictly in chunk-index order** with
/// `fold`. Returns `None` for `len == 0`.
///
/// Deterministic for a fixed `(len, hint)` pair regardless of
/// scheduling; bitwise equal to the serial execution whenever the
/// value is partition-invariant (exact accumulators) or the chunks are
/// independent.
pub fn par_reduce_indexed<T, M, F>(num_threads_hint: usize, len: usize, map: M, fold: F) -> Option<T>
where
    T: Send,
    M: Fn(usize, Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    par_chunk_map_with(num_threads_hint, len, map)
        .into_iter()
        .reduce(fold)
}

/// Fill disjoint regions of `out` in parallel: `out` is viewed as
/// `out.len() / unit` logical indices of `unit` elements each, split
/// into fixed chunks, and `f(index_range, region)` runs once per chunk
/// with exclusive access to that chunk's region.
///
/// Because every region is disjoint the result is bitwise identical to
/// the serial loop for any hint; parallelism is skipped inside another
/// worker (shared budget).
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
    let len = out.len() / unit;
    let chunks = fixed_chunks(len, intra_threads());
    if chunks.len() <= 1 || in_worker() {
        for range in chunks {
            let region = &mut out[range.start * unit..range.end * unit];
            f(range, region);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut consumed = 0usize;
        for range in chunks {
            let (region, tail) = rest.split_at_mut((range.end - range.start) * unit);
            rest = tail;
            consumed += region.len();
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                f(range, region);
            });
        }
        debug_assert_eq!(consumed, len * unit);
    });
}

/// Executes repeated runs across a fixed number of worker threads,
/// collecting results in run-index order.
///
/// `threads == 1` is the serial path: a plain loop, no threads spawned.
/// For any thread count the returned vector is identical — parallelism
/// changes wall-clock time only, never results.
///
/// Workers pull run indices one at a time from a shared atomic
/// counter, and results are sorted into run-index order, so the output
/// never depends on which worker ran which index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunExecutor {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
}

impl Default for RunExecutor {
    fn default() -> Self {
        RunExecutor::serial()
    }
}

impl RunExecutor {
    /// Executor with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        RunExecutor { threads }
    }

    /// The serial executor (one worker, no threads spawned).
    pub fn serial() -> Self {
        RunExecutor { threads: 1 }
    }

    /// Executor configured from the `FPNA_THREADS` environment
    /// variable; unset, empty, or unparsable values mean serial.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(1);
        RunExecutor { threads }
    }

    /// The per-run RNG seed for run `run` of an experiment keyed by
    /// `base_seed` — a pure function of its arguments (SplitMix64
    /// derivation), so the seed a run sees never depends on the thread
    /// count or on scheduling.
    #[inline]
    pub fn run_seed(base_seed: u64, run: usize) -> u64 {
        crate::rng::derive_seed(base_seed, run as u64)
    }

    /// Execute `run(i)` for every **global** run index `i` in `range`
    /// and return the results in index order.
    ///
    /// This is the process-sharding primitive: a shard owning
    /// `range = a..b` of an `0..runs` sweep calls its closure with the
    /// *global* indices `a, a+1, …, b−1`, so index-keyed seeding
    /// ([`RunExecutor::run_seed`] /
    /// [`crate::rng::derive_seed`]) hands every run the seed it would
    /// have received in a single-process execution — shard boundaries
    /// can change freely without moving one bit of any run.
    pub fn map_run_range<T, F>(&self, range: Range<usize>, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = range.start;
        self.map_runs(range.len(), |i| run(start + i))
    }

    /// Execute `run(0), run(1), …, run(runs − 1)` and return the
    /// results in run-index order.
    ///
    /// The closure must be pure in its index argument (it receives
    /// shared references only); any per-run randomness should flow from
    /// [`RunExecutor::run_seed`] or an equivalent index-keyed
    /// derivation. Under that contract the output is bitwise identical
    /// for every thread count.
    ///
    /// Called from inside another executor worker (a nested fan-out),
    /// the runs execute serially on the current thread: the outer
    /// fan-out already owns the thread budget, and the serial path is
    /// bitwise identical by the same contract.
    pub fn map_runs<T, F>(&self, runs: usize, run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Observability flags are sampled once per fan-out so the
        // disabled path stays a pair of predictable branches per run.
        // Tracing gives each run its own trace "process" (pid = run
        // index + 1; pid 0 is everything outside a fan-out), restored
        // afterwards so nested fan-outs keep the outer run's track.
        let tracing = fpna_obs::trace::enabled();
        let profiling = fpna_obs::profile::enabled();
        let _span = fpna_obs::profile::scope("executor.map_runs");
        let run = |i: usize| {
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
        };
        if self.threads == 1 || runs <= 1 || in_worker() {
            return (0..runs).map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(runs));
        let workers = self.threads.min(runs);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= runs {
                            break;
                        }
                        local.push((i, run(i)));
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        let mut pairs = collected.into_inner().unwrap();
        debug_assert_eq!(pairs.len(), runs, "every run must report exactly once");
        // Completion order is scheduler-dependent; run-index order is
        // not. This sort is what makes the executor order-invariant.
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| (i as f64).sqrt() * 1e3 + i as f64;
        let reference: Vec<f64> = RunExecutor::serial().map_runs(100, work);
        for threads in [2, 3, 4, 7, 16] {
            let got = RunExecutor::new(threads).map_runs(100, work);
            let same = reference
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} must match serial bitwise");
        }
    }

    #[test]
    fn map_run_range_passes_global_indices() {
        let work = |i: usize| (i as f64).sqrt() * 1e3 + i as f64;
        let full: Vec<f64> = RunExecutor::serial().map_runs(50, work);
        for threads in [1usize, 3, 8] {
            let ex = RunExecutor::new(threads);
            // Any partition of 0..50 must reproduce the matching slice
            // of the full sweep bitwise.
            for (a, b) in [(0usize, 50usize), (0, 17), (17, 33), (33, 50), (49, 50), (20, 20)] {
                let part = ex.map_run_range(a..b, work);
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
        let out = RunExecutor::new(4).map_runs(1000, |i| i);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_runs() {
        let out = RunExecutor::new(64).map_runs(3, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn zero_runs() {
        let out: Vec<u8> = RunExecutor::new(4).map_runs(0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn run_seed_is_pure_and_distinct() {
        let s0 = RunExecutor::run_seed(42, 0);
        assert_eq!(s0, RunExecutor::run_seed(42, 0));
        assert_ne!(s0, RunExecutor::run_seed(42, 1));
        assert_ne!(s0, RunExecutor::run_seed(43, 0));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        RunExecutor::new(0);
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
    fn par_chunk_map_is_in_chunk_order_and_hint_invariant_for_maps() {
        // Per-index work (a pure map): results must not depend on the
        // hint at all.
        let reference: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        for hint in [1usize, 2, 4, 7, 16] {
            let chunks = par_chunk_map_with(hint, 1000, |_, range| {
                range.map(|i| (i as f64).sqrt()).collect::<Vec<_>>()
            });
            let flat: Vec<f64> = chunks.into_iter().flatten().collect();
            let same = reference.iter().zip(&flat).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && flat.len() == 1000, "hint={hint}");
        }
    }

    #[test]
    fn par_reduce_indexed_folds_in_chunk_order() {
        // Concatenation is order-sensitive, so this checks the fold
        // really walks chunks in index order.
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
        let _hint = intra_hint_test_guard();
        for hint in [1usize, 2, 4, 7] {
            set_intra_threads(hint);
            let mut out = vec![0.0f64; 12 * 3];
            par_fill(&mut out, 3, |rows, region| {
                for (local, i) in rows.clone().enumerate() {
                    for j in 0..3 {
                        region[local * 3 + j] = (i * 3 + j) as f64 * 1.5;
                    }
                }
            });
            assert_eq!(out, serial, "hint={hint}");
        }
    }

    #[test]
    fn nested_fan_out_collapses_but_bits_do_not_change() {
        let work = |i: usize| {
            // A nested fan-out inside each run: must serialize, and the
            // value must match the flat computation.
            let inner: f64 = RunExecutor::new(4)
                .map_runs(5, |j| ((i * 5 + j) as f64).sqrt())
                .iter()
                .sum();
            inner
        };
        let reference: Vec<f64> = (0..20).map(work).collect();
        let got = RunExecutor::new(4).map_runs(20, work);
        let same = reference.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
    }

    #[test]
    fn from_env_defaults_to_serial() {
        // The test environment does not set FPNA_THREADS; and even if a
        // caller does, the executor must hold a positive thread count.
        assert!(RunExecutor::from_env().threads >= 1);
    }
}
