//! Criterion microbenchmarks of every summation algorithm
//! (deterministic and not) — the cost side of the §III trade-off —
//! plus the exact-accumulator merge path (the per-message fixed cost
//! of every reproducible collective) and the span-packed `ExactVec`
//! element loops that reproducible collectives fold their payloads
//! with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fpna_core::rng::SplitMix64;
use fpna_summation::exact::ExactVec;
use fpna_summation::{ExactAccumulator, SumAlgorithm};

fn bench_summation(c: &mut Criterion) {
    let n = 100_000usize;
    let mut rng = fpna_core::rng::SplitMix64::new(1);
    let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
    let mut group = c.benchmark_group("summation");
    group.throughput(Throughput::Elements(n as u64));
    // The threaded rows run four workers: `reproducible(t=4)`'s four
    // exact chunks run on this thread's worker budget, so set it to 4.
    fpna_core::executor::set_threads(4);
    for alg in SumAlgorithm::roster(4) {
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &xs, |b, xs| {
            b.iter(|| alg.sum(std::hint::black_box(xs)))
        });
    }
    // A/B row for the lane-vectorized `add_slice`: same pipeline
    // through the retained scalar reference, so the speedup is read
    // off one run instead of compared across machine states.
    group.bench_with_input(
        BenchmarkId::from_parameter("exact_scalar"),
        &xs,
        |b, xs| {
            b.iter(|| {
                let mut acc = ExactAccumulator::new();
                acc.add_slice_scalar(std::hint::black_box(xs));
                acc.round()
            })
        },
    );
    group.finish();
}

/// The collectives hot pattern: fold many canonical worker partials
/// into one accumulator, one merge per received message, then round
/// once. Watches `merge`'s no-clone span fold plus the span-aware
/// `normalize`/`round` fixed costs.
fn bench_exact_merge(c: &mut Criterion) {
    let parts_n = 64usize;
    let per_part = 1_000usize;
    let mut rng = fpna_core::rng::SplitMix64::new(5);
    let partials: Vec<ExactAccumulator> = (0..parts_n)
        .map(|_| {
            let mut acc: ExactAccumulator = (0..per_part)
                .map(|_| rng.next_f64() * 1e6 - 5e5)
                .collect();
            acc.normalize();
            acc
        })
        .collect();
    let mut group = c.benchmark_group("summation");
    group.throughput(Throughput::Elements(parts_n as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("exact_merge"),
        &partials,
        |b, parts| {
            b.iter(|| {
                let mut total = ExactAccumulator::new();
                for p in std::hint::black_box(parts) {
                    total.merge(p);
                }
                total.round()
            })
        },
    );
    group.finish();
}

/// `ExactVec::add` and `ExactVec::merge` on both sides of the window
/// pass, over 4096-element vectors (one rank's payload in the
/// `fabric_exact` perfbench workload). Each element starts as the
/// exact sum of eight values, like a partial sum in flight. One
/// iteration folds an operand in and then its negation, so the state
/// is the same at every iteration; throughput counts both folds.
///
/// - `narrow`: values uniform in ±5·10⁷, the range `fabric_exact`
///   draws. Nearly every element folds in the window.
/// - `wide`: magnitudes spread over 2^±1000, so nearly every combined
///   span is wider than the window and takes the fallback path.
fn bench_exact_vec(c: &mut Criterion) {
    const LEN: usize = 4096;
    const TERMS: usize = 8;
    let mut rng = SplitMix64::new(9);
    let mut group = c.benchmark_group("summation");
    group.throughput(Throughput::Elements(2 * LEN as u64));
    for range in ["narrow", "wide"] {
        let draw = |rng: &mut SplitMix64| -> Vec<f64> {
            (0..LEN)
                .map(|_| match range {
                    "narrow" => rng.next_f64() * 1e8 - 5e7,
                    _ => (rng.next_f64() - 0.5) * 2f64.powi(rng.next_below(2001) as i32 - 1000),
                })
                .collect()
        };
        let mut state = ExactVec::from_slice(&draw(&mut rng));
        for _ in 1..TERMS {
            state.add(&draw(&mut rng));
        }
        let xs = draw(&mut rng);
        let neg_xs: Vec<f64> = xs.iter().map(|&x| -x).collect();
        group.bench_function(BenchmarkId::new("exact_vec_add", range), |b| {
            b.iter(|| {
                state.add(std::hint::black_box(&xs));
                state.add(std::hint::black_box(&neg_xs));
                state.wire_len()
            })
        });
        let mut other = ExactVec::from_slice(&xs);
        let mut neg_other = ExactVec::from_slice(&neg_xs);
        for _ in 1..TERMS {
            let ys = draw(&mut rng);
            other.add(&ys);
            neg_other.add(&ys.iter().map(|&y| -y).collect::<Vec<f64>>());
        }
        group.bench_function(BenchmarkId::new("exact_vec_merge", range), |b| {
            b.iter(|| {
                state.merge(std::hint::black_box(&other));
                state.merge(std::hint::black_box(&neg_other));
                state.wire_len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_summation, bench_exact_merge, bench_exact_vec);
criterion_main!(benches);
