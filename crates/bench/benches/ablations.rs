//! Timing ablations: pairwise leaf size, exact-accumulator overhead,
//! scheduler-kind overhead in the simulator. (The accuracy/variability
//! ablations are in the `ablations` *binary*.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fpna_gpu_sim::{ScheduleKind, Scheduler};
use fpna_summation::exact::exact_sum;
use fpna_summation::{neumaier_sum, pairwise_sum_with_leaf, serial_sum};

fn bench_leaf_sizes(c: &mut Criterion) {
    let n = 262_144usize;
    let mut rng = fpna_core::rng::SplitMix64::new(5);
    let xs: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let mut group = c.benchmark_group("ablation_block_size");
    group.throughput(Throughput::Elements(n as u64));
    for leaf in [8usize, 32, 128, 512, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &xs, |b, xs| {
            b.iter(|| pairwise_sum_with_leaf(std::hint::black_box(xs), leaf))
        });
    }
    group.finish();
}

fn bench_accumulators(c: &mut Criterion) {
    let n = 65_536usize;
    let mut rng = fpna_core::rng::SplitMix64::new(6);
    let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e6).collect();
    let mut group = c.benchmark_group("ablation_accumulator");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("serial", |b| b.iter(|| serial_sum(std::hint::black_box(&xs))));
    group.bench_function("neumaier", |b| {
        b.iter(|| neumaier_sum(std::hint::black_box(&xs)))
    });
    group.bench_function("exact", |b| b.iter(|| exact_sum(std::hint::black_box(&xs))));
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    // SPA's block finish order: one one-item queue per block.
    let scheduler = Scheduler::new(320);
    let blocks = vec![1u32; 7_813];
    let mut group = c.benchmark_group("ablation_scheduler");
    group.throughput(Throughput::Elements(blocks.len() as u64));
    for (name, kind) in [
        ("wave_biased", ScheduleKind::Seeded(7)),
        ("uniform", ScheduleKind::UniformRandom(7)),
        ("in_order", ScheduleKind::InOrder),
    ] {
        group.bench_function(name, |b| {
            let mut run = 0u64;
            b.iter(|| {
                run += 1;
                scheduler.interleave(&blocks, &kind.for_run(run), |block, _| {
                    std::hint::black_box(block);
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_leaf_sizes, bench_accumulators, bench_scheduler);
criterion_main!(benches);
