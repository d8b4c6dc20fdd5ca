//! Criterion microbenchmarks of the allreduce paths: the in-memory
//! fallback and the event-driven network simulation, across
//! algorithms and topologies — so the regression gate covers the
//! `fpna-net` subsystem from day one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fpna_collectives::{allreduce, allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_net::{LinkSpec, RouteSelect, Topology};

const P: usize = 16;
const M: usize = 1_024;

fn make_ranks() -> Vec<Vec<f64>> {
    let mut rng = fpna_core::rng::SplitMix64::new(11);
    (0..P)
        .map(|_| (0..M).map(|_| rng.next_f64() * 1e6 - 5e5).collect())
        .collect()
}

fn algorithms() -> [(Algorithm, &'static str); 3] {
    [
        (Algorithm::Ring, "ring"),
        (Algorithm::KAryTree { fanout: 4 }, "tree4"),
        (Algorithm::RecursiveDoubling, "recdouble"),
    ]
}

fn bench_in_memory(c: &mut Criterion) {
    let ranks = make_ranks();
    let mut group = c.benchmark_group("allreduce_mem");
    group.throughput(Throughput::Elements((P * M) as u64));
    for (alg, name) in algorithms() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ranks, |b, ranks| {
            b.iter(|| allreduce(std::hint::black_box(ranks), alg, Ordering::RankOrder))
        });
    }
    group.bench_with_input(BenchmarkId::from_parameter("reproducible"), &ranks, |b, ranks| {
        b.iter(|| allreduce(std::hint::black_box(ranks), Algorithm::Ring, Ordering::Reproducible))
    });
    group.finish();
}

fn bench_net_sim(c: &mut Criterion) {
    let ranks = make_ranks();
    let flat = Topology::flat_switch(P, LinkSpec::new(500.0, 25.0));
    let hier = Topology::hierarchical(
        4,
        P / 4,
        LinkSpec::new(200.0, 100.0),
        LinkSpec::new(500.0, 50.0),
        LinkSpec::new(5_000.0, 25.0),
    );
    let cfg = NetConfig::default();
    let mut group = c.benchmark_group("allreduce_net");
    group.throughput(Throughput::Elements((P * M) as u64));
    group.sample_size(10);
    for topo in [&flat, &hier] {
        let tname = if topo.diameter_hops() == 2 { "flat" } else { "hier" };
        for (alg, name) in algorithms() {
            group.bench_with_input(
                BenchmarkId::new(name, tname),
                &ranks,
                |b, ranks| {
                    b.iter(|| {
                        allreduce_on(
                            topo,
                            std::hint::black_box(ranks),
                            alg,
                            Ordering::ArrivalOrder { seed: 42 },
                            &cfg,
                        )
                    })
                },
            );
        }
    }
    group.bench_with_input(
        BenchmarkId::new("reproducible", "hier"),
        &ranks,
        |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &hier,
                    std::hint::black_box(ranks),
                    Algorithm::Ring,
                    Ordering::Reproducible,
                    &cfg,
                )
            })
        },
    );
    // Segmented (pipelined) variants: 8× the message count through the
    // engine for the same payload — the regime the allocation-free
    // event loop exists for.
    group.bench_with_input(
        BenchmarkId::new("ring_seg8", "hier"),
        &ranks,
        |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &hier,
                    std::hint::black_box(ranks),
                    Algorithm::SegmentedRing { segments: 8 },
                    Ordering::ArrivalOrder { seed: 42 },
                    &cfg,
                )
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("tree4_seg8", "hier"),
        &ranks,
        |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &hier,
                    std::hint::black_box(ranks),
                    Algorithm::SegmentedTree { fanout: 4, segments: 8 },
                    Ordering::ArrivalOrder { seed: 42 },
                    &cfg,
                )
            })
        },
    );
    // A heavily segmented ring (32 chunks per segment ⇒ 16-byte
    // messages): the per-message engine cost dominates the payload.
    group.bench_with_input(
        BenchmarkId::new("ring_seg32", "hier"),
        &ranks,
        |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &hier,
                    std::hint::black_box(ranks),
                    Algorithm::SegmentedRing { segments: 32 },
                    Ordering::ArrivalOrder { seed: 42 },
                    &cfg,
                )
            })
        },
    );
    // Topology-aware placement A/B on the deep fabric: the
    // hierarchical reduce against the oblivious fanout-4 tree it
    // replaces (same ordering, same fabric). Fewer NIC/spine events
    // per payload should also be a host-time win, which these rows
    // price against the gate baseline — plus the other aware variants
    // for bit-rot coverage.
    for (alg, name) in [
        (Algorithm::Hierarchical { intra: 4, inter: 4 }, "hier_aware"),
        (Algorithm::FabricRing, "fabricring_aware"),
        (Algorithm::DoubleBinaryTree, "dbt_aware"),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "hier"), &ranks, |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &hier,
                    std::hint::black_box(ranks),
                    alg,
                    Ordering::ArrivalOrder { seed: 42 },
                    &cfg,
                )
            })
        });
    }
    // Contended fabric: seeded background tenants at 25% offered load
    // plus seeded ECMP over a 2-spine fat tree — the multi-tenant path
    // (tenant event injection, admission check, per-link queue/wait
    // accounting, route-group lookup) priced under the same gate.
    let fat = Topology::fat_tree_spines(
        P,
        4,
        2,
        LinkSpec::new(500.0, 25.0),
        LinkSpec::new(1_500.0, 50.0),
    );
    let loaded = NetConfig::default()
        .with_load(0.25, 7)
        .with_route(RouteSelect::SeededEcmp { seed: 7 });
    for (alg, name) in [
        (Algorithm::Ring, "ring_load25"),
        (Algorithm::KAryTree { fanout: 4 }, "tree4_load25"),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "fat2"), &ranks, |b, ranks| {
            b.iter(|| {
                allreduce_on(
                    &fat,
                    std::hint::black_box(ranks),
                    alg,
                    Ordering::ArrivalOrder { seed: 42 },
                    &loaded,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_in_memory, bench_net_sim);
criterion_main!(benches);
