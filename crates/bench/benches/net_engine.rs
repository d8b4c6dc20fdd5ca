//! Criterion microbenchmarks of the raw `fpna-net` event engine —
//! the layer the allocation-free overhaul targets. Unlike the
//! `allreduce_net` suite (whole protocols, value folding included),
//! these isolate the engine primitives: route-table lookups, event
//! scheduling over contended links, and callback-chained sends that
//! exercise message-slot recycling.
//!
//! This suite is deliberately **not** in the committed `bench_gate`
//! baseline: CI compiles and runs it on every push (so it cannot
//! bit-rot) but applies no timing gate — the `allreduce_net` suite
//! already gates the engine end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fpna_net::{LinkSpec, NetConfig, NetSim, Topology};

fn flat() -> Topology {
    Topology::flat_switch(64, LinkSpec::new(500.0, 25.0))
}

fn hier() -> Topology {
    Topology::hierarchical(
        8,
        8,
        LinkSpec::new(200.0, 100.0),
        LinkSpec::new(500.0, 50.0),
        LinkSpec::new(5_000.0, 25.0),
    )
}

/// Jitter of 0.3 of each hop's service time on a quiet fabric.
fn jittered() -> NetConfig {
    NetConfig { jitter_frac: 0.3, jitter_seed: 42, ..NetConfig::default() }
}

/// `(from, to, bytes, inject_ns)` random traffic over `p` ranks.
fn plan(p: usize, count: usize) -> Vec<(usize, usize, u64, f64)> {
    let mut rng = fpna_core::rng::SplitMix64::new(77);
    (0..count)
        .map(|_| {
            let from = rng.next_below(p as u64) as usize;
            let to = rng.next_below(p as u64) as usize;
            (from, to, rng.next_below(1 << 14), rng.next_below(10_000) as f64)
        })
        .collect()
}

/// All-pairs precomputed route lookups + per-hop cost walk — the
/// per-event work `NetSim::run` does, without the heap.
fn bench_route_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_engine");
    for (topo, name) in [(flat(), "flat"), (hier(), "hier")] {
        let p = topo.ranks();
        group.throughput(Throughput::Elements((p * p) as u64));
        group.bench_with_input(BenchmarkId::new("route_table", name), &topo, |b, topo| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for from in 0..p {
                    for to in 0..p {
                        for &l in topo.route_hops(from, to) {
                            acc += topo
                                .link_spec(l as usize)
                                .cost_ns(std::hint::black_box(4096));
                        }
                    }
                }
                acc
            })
        });
    }
    group.finish();
}

/// 1024 random messages through the full event loop: queue churn,
/// dense link-busy updates, jitter sampling.
fn bench_flood(c: &mut Criterion) {
    const MSGS: usize = 1024;
    let mut group = c.benchmark_group("net_engine");
    group.throughput(Throughput::Elements(MSGS as u64));
    for (topo, name) in [(flat(), "flat"), (hier(), "hier")] {
        let traffic = plan(topo.ranks(), MSGS);
        group.bench_with_input(BenchmarkId::new("flood", name), &topo, |b, topo| {
            b.iter(|| {
                let mut sim = NetSim::new(topo, &jittered());
                for (i, &(from, to, bytes, at)) in traffic.iter().enumerate() {
                    sim.send_at(at, from, to, bytes, i as u64);
                }
                let mut last = 0.0f64;
                sim.run(|_, d| last = d.time);
                last
            })
        });
    }
    group.finish();
}

/// The flat flood with the `fpna-obs` event counters switched on —
/// the row that prices the counting path against the plain
/// `flood/flat` row above. The counter flags are sampled once at
/// engine construction into plain branches and tallies are local
/// until one flush per `run`, so the delta should be noise-level.
fn bench_flood_counted(c: &mut Criterion) {
    const MSGS: usize = 1024;
    let mut group = c.benchmark_group("net_engine");
    group.throughput(Throughput::Elements(MSGS as u64));
    let topo = flat();
    let traffic = plan(topo.ranks(), MSGS);
    fpna_obs::counters::reset();
    fpna_obs::counters::set_enabled(true);
    group.bench_with_input(BenchmarkId::new("flood_counted", "flat"), &topo, |b, topo| {
        b.iter(|| {
            let mut sim = NetSim::new(topo, &jittered());
            for (i, &(from, to, bytes, at)) in traffic.iter().enumerate() {
                sim.send_at(at, from, to, bytes, i as u64);
            }
            let mut last = 0.0f64;
            sim.run(|_, d| last = d.time);
            last
        })
    });
    fpna_obs::counters::set_enabled(false);
    fpna_obs::counters::reset();
    group.finish();
}

/// A long callback-driven relay: every delivery injects the next
/// send, so one recycled message slot carries the whole run — the
/// chained-send path protocols live on.
fn bench_relay(c: &mut Criterion) {
    const LEGS: u64 = 4096;
    let topo = hier();
    let p = topo.ranks();
    let mut group = c.benchmark_group("net_engine");
    group.throughput(Throughput::Elements(LEGS));
    group.bench_function("relay_chain", |b| {
        b.iter(|| {
            let mut sim = NetSim::new(&topo, &NetConfig { jitter_frac: 0.0, ..NetConfig::default() });
            sim.send_at(0.0, 0, 1, 256, 0);
            let mut last = 0.0f64;
            sim.run(|sim, d| {
                last = d.time;
                if d.tag < LEGS {
                    sim.send_at(d.time, d.to, (d.to + 1) % p, 256, d.tag + 1);
                }
            });
            last
        })
    });
    group.finish();
}

criterion_group!(benches, bench_route_table, bench_flood, bench_flood_counted, bench_relay);
criterion_main!(benches);
