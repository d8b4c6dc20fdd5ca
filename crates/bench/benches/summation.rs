//! Criterion microbenchmarks of every summation algorithm
//! (deterministic and not) — the cost side of the §III trade-off —
//! plus the exact-accumulator merge path (the per-message fixed cost
//! of every reproducible collective).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
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

criterion_group!(benches, bench_summation, bench_exact_merge);
criterion_main!(benches);
