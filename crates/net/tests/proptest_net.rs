//! Property tests for the interconnect simulator: route sanity, the
//! determinism contract of the zero-jitter engine, the physical lower
//! bound on every delivery, and the allocation-free fast paths against
//! their reference implementations — the precomputed route table vs
//! on-demand BFS, and the dense link-busy vector vs a `HashMap`-keyed
//! reference engine. The multi-tenant fabric rides the same reference:
//! a config at `load == 0` with fixed routing must be bit-for-bit the
//! pre-contention engine whatever its tenant seed, and contended runs
//! (background tenants, seeded ECMP) must replay bitwise from their
//! config alone.

use proptest::prelude::*;

use fpna_net::{Delivery, LinkSpec, NetConfig, NetSim, RouteSelect, RunStats, Topology};
use std::collections::HashMap;

/// Build a topology from one of four builder families; `kind`
/// selects the family, `n1`/`n2` shape it. Family 2 is the multi-spine
/// fat tree, whose cross-group pairs have 2–4 equal-cost routes.
fn make_topo(kind: usize, n1: usize, n2: usize) -> Topology {
    let (edge, core) = (LinkSpec::new(500.0, 25.0), LinkSpec::new(1_500.0, 50.0));
    match kind % 4 {
        0 => Topology::flat_switch(n1, edge),
        1 => Topology::fat_tree_spines(n1, n2.max(2), 1, edge, core),
        2 => Topology::fat_tree_spines(n1, n2.max(2), n2 % 3 + 2, edge, core),
        _ => Topology::hierarchical(
            (n1 - 1) % 4 + 1,
            n2.max(1),
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        ),
    }
}

/// `(from, to, bytes, inject_ns)` message plans over `p` ranks.
fn messages(p: usize, rng_seed: u64, count: usize) -> Vec<(usize, usize, u64, f64)> {
    let mut rng = fpna_core::rng::SplitMix64::new(rng_seed);
    (0..count)
        .map(|_| {
            let from = rng.next_below(p as u64) as usize;
            let to = rng.next_below(p as u64) as usize;
            let bytes = rng.next_below(1 << 16);
            let at = (rng.next_below(10_000)) as f64;
            (from, to, bytes, at)
        })
        .collect()
}

/// Reference event engine: the pre-overhaul implementation — routes
/// recomputed by on-demand BFS ([`Topology::route`]), link busy state
/// in a `HashMap` keyed by the directed vertex pair, messages retained
/// for the whole run — with the identical event ordering (time, then
/// injection sequence) and identical per-hop arithmetic and jitter
/// stream. The fast engine must reproduce its deliveries bit for bit.
fn reference_run(
    topo: &Topology,
    config: &NetConfig,
    plan: &[(usize, usize, u64, f64)],
) -> Vec<(u64, usize, usize, u64, u64)> {
    struct Ev {
        time: f64,
        seq: u64,
        msg: usize,
        hop: usize,
    }
    let routes: Vec<Vec<u32>> = plan.iter().map(|&(f, t, _, _)| topo.route(f, t)).collect();
    let mut events: Vec<Ev> = Vec::new();
    let mut seq = 0u64;
    for (i, &(_, _, _, at)) in plan.iter().enumerate() {
        events.push(Ev { time: at, seq, msg: i, hop: 0 });
        seq += 1;
    }
    let mut busy: HashMap<(usize, usize), f64> = HashMap::new();
    let mut out = Vec::new();
    while !events.is_empty() {
        // Pop the (time, seq)-minimal event — same order the engine's
        // binary heap yields.
        let mut min = 0;
        for (i, e) in events.iter().enumerate().skip(1) {
            let lt = e
                .time
                .total_cmp(&events[min].time)
                .then_with(|| e.seq.cmp(&events[min].seq))
                .is_lt();
            if lt {
                min = i;
            }
        }
        let ev = events.remove(min);
        let (from, to, bytes, _) = plan[ev.msg];
        let route = &routes[ev.msg];
        if ev.hop == route.len() {
            out.push((ev.msg as u64, from, to, bytes, ev.time.to_bits()));
            continue;
        }
        let l = route[ev.hop] as usize;
        let link = topo.link_spec(l);
        let b = busy.entry(topo.link_endpoints(l)).or_insert(0.0);
        let start = ev.time.max(*b);
        let serialize = link.ns_per_byte * bytes as f64;
        *b = start + serialize;
        let j = sample_jitter(
            config,
            ev.msg as u64,
            ev.hop as u64,
            serialize + link.latency_ns,
        );
        events.push(Ev {
            time: start + serialize + link.latency_ns + j,
            seq,
            msg: ev.msg,
            hop: ev.hop + 1,
        });
        seq += 1;
    }
    out
}

/// Everything a contended run observes, bit-exact: the delivery log
/// plus every [`RunStats`] field (floats by `to_bits`).
fn stats_fingerprint(stats: &RunStats) -> Vec<u64> {
    vec![
        stats.makespan_ns.to_bits(),
        stats.deliveries,
        stats.bytes_delivered,
        stats.hops_traversed,
        stats.wait_ns.to_bits(),
        stats.max_wait_ns.to_bits(),
        stats.contended_hops,
        u64::from(stats.max_queue_depth),
        stats.bg_deliveries,
        stats.bg_bytes_delivered,
        stats.bg_hops_traversed,
        stats.bg_dropped,
    ]
}

/// The engine's documented jitter stream, reproduced independently:
/// uniform in `[0, frac · hop_cost)` from a SplitMix64 keyed by
/// `(seed, message, hop)` with one warm-up draw.
fn sample_jitter(config: &NetConfig, msg: u64, hop: u64, hop_cost_ns: f64) -> f64 {
    if config.jitter_frac == 0.0 {
        return 0.0;
    }
    let mut g = fpna_core::rng::SplitMix64::new(
        config.jitter_seed
            ^ msg.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ hop.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    g.next_u64();
    config.jitter_frac * hop_cost_ns * g.next_f64()
}

/// A quiet, fixed-route fabric with jitter `frac` seeded by `seed`.
fn jittered(frac: f64, seed: u64) -> NetConfig {
    NetConfig { jitter_frac: frac, jitter_seed: seed, ..NetConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routes connect the right endpoints, chain hop to hop, and never
    /// exceed the fabric diameter.
    #[test]
    fn routes_are_wellformed(
        kind in 0usize..4,
        n1 in 1usize..20,
        n2 in 1usize..7,
        pair in any::<u64>(),
    ) {
        let topo = make_topo(kind, n1, n2);
        let p = topo.ranks();
        let a = (pair % p as u64) as usize;
        let b = ((pair >> 32) % p as u64) as usize;
        let route = topo.route(a, b);
        if a == b {
            prop_assert!(route.is_empty());
        } else {
            let ends: Vec<(usize, usize)> =
                route.iter().map(|&l| topo.link_endpoints(l as usize)).collect();
            prop_assert_eq!(ends[0].0, topo.rank_vertex(a));
            prop_assert_eq!(ends[ends.len() - 1].1, topo.rank_vertex(b));
            for w in ends.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0, "hops must chain");
            }
            prop_assert!(route.len() <= topo.diameter_hops());
        }
    }

    /// The zero-jitter engine is a pure function of its inputs: same
    /// sends, bitwise-identical deliveries and stats — the property
    /// that makes "software-scheduled interconnect" a meaningful model.
    #[test]
    fn zero_jitter_is_deterministic(
        kind in 0usize..4,
        n1 in 1usize..20,
        n2 in 1usize..7,
        seed in any::<u64>(),
    ) {
        let topo = make_topo(kind, n1, n2);
        let plan = messages(topo.ranks(), seed, 24);
        let run = || {
            let mut sim = NetSim::new(&topo, &jittered(0.0, 0));
            for (i, &(from, to, bytes, at)) in plan.iter().enumerate() {
                sim.send_at(at, from, to, bytes, i as u64);
            }
            let mut log = Vec::new();
            let stats = sim.run(|_, d| log.push((d.tag, d.time.to_bits())));
            (log, stats.makespan_ns.to_bits(), stats.hops_traversed)
        };
        prop_assert_eq!(run(), run());
    }

    /// Jitter may delay and reorder, but never loses or invents
    /// messages, and no message beats the jitter-free uncontended
    /// physics: arrival ≥ injection + Σ(α + β·bytes) along its route.
    #[test]
    fn jitter_preserves_messages_and_respects_lower_bound(
        kind in 0usize..4,
        n1 in 1usize..20,
        n2 in 1usize..7,
        seed in any::<u64>(),
        frac in 0.0..1.5f64,
    ) {
        let topo = make_topo(kind, n1, n2);
        let plan = messages(topo.ranks(), seed ^ 0xABCD, 24);
        let mut sim = NetSim::new(&topo, &jittered(frac, seed));
        for (i, &(from, to, bytes, at)) in plan.iter().enumerate() {
            sim.send_at(at, from, to, bytes, i as u64);
        }
        let mut seen = Vec::new();
        let stats = sim.run(|_, d| seen.push(d));
        prop_assert_eq!(seen.len(), plan.len());
        prop_assert_eq!(stats.deliveries as usize, plan.len());
        let mut max_time = 0.0f64;
        for d in &seen {
            let (from, to, bytes, at) = plan[d.tag as usize];
            prop_assert_eq!((d.from, d.to, d.bytes), (from, to, bytes));
            let floor = at
                + topo
                    .route_hops(from, to)
                    .iter()
                    .map(|&l| topo.link_spec(l as usize).cost_ns(bytes))
                    .sum::<f64>();
            prop_assert!(
                d.time >= floor - 1e-9,
                "message {} arrived at {} before its physical floor {}",
                d.tag, d.time, floor
            );
            max_time = max_time.max(d.time);
        }
        prop_assert_eq!(stats.makespan_ns.to_bits(), max_time.to_bits());
    }

    /// The precomputed route table's slot 0 (what fixed routing rides)
    /// is hop-for-hop identical to the on-demand BFS for **every**
    /// `(from, to)` pair in all four topology families, multi-spine
    /// fat trees included.
    #[test]
    fn precomputed_route_table_matches_on_demand_bfs(
        kind in 0usize..4,
        n1 in 1usize..20,
        n2 in 1usize..7,
    ) {
        let topo = make_topo(kind, n1, n2);
        for a in 0..topo.ranks() {
            for b in 0..topo.ranks() {
                let on_demand = topo.route(a, b);
                prop_assert_eq!(
                    on_demand.as_slice(),
                    topo.route_hops(a, b),
                    "{} {}→{}", topo.name(), a, b
                );
            }
        }
    }

    /// The dense link-busy vector + recycled message slots reproduce
    /// the `HashMap`-busy-state reference engine bit for bit — message
    /// identity, payload metadata and every delivery timestamp — on
    /// random traffic, jittered and jitter-free.
    #[test]
    fn dense_link_busy_matches_hashmap_reference(
        kind in 0usize..4,
        n1 in 1usize..20,
        n2 in 1usize..7,
        seed in any::<u64>(),
        frac in prop_oneof![Just(0.0f64), 0.01..1.2f64],
    ) {
        let topo = make_topo(kind, n1, n2);
        let plan = messages(topo.ranks(), seed ^ 0x7777, 24);
        let config = jittered(frac, seed);
        let mut sim = NetSim::new(&topo, &config);
        for &(from, to, bytes, at) in &plan {
            sim.send_at(at, from, to, bytes, 0);
        }
        let mut got: Vec<(u64, usize, usize, u64, u64)> = Vec::new();
        sim.run(|_, d: Delivery| got.push((d.msg, d.from, d.to, d.bytes, d.time.to_bits())));
        let want = reference_run(&topo, &config, &plan);
        prop_assert_eq!(got, want);
    }

    /// A fabric with the tenants silenced (`load == 0`) and fixed
    /// routing is bit-for-bit the pre-contention engine whatever its
    /// tenant seed: the same delivery log as the retained
    /// `HashMap`-reference engine, and no tenant traffic in the stats.
    /// The multi-tenant machinery must be a strict no-op until switched
    /// on.
    #[test]
    fn quiet_fixed_fabric_is_bitwise_the_pr5_reference(
        kind in 0usize..4,
        n1 in 2usize..20,
        n2 in 1usize..7,
        seed in any::<u64>(),
        frac in prop_oneof![Just(0.0f64), 0.01..1.2f64],
        bg_seed in any::<u64>(),
    ) {
        let topo = make_topo(kind, n1, n2);
        let plan = messages(topo.ranks(), seed ^ 0x51E7, 24);
        let config = NetConfig { bg_seed, ..jittered(frac, seed) };
        let mut sim = NetSim::new(&topo, &config);
        for (i, &(from, to, bytes, at)) in plan.iter().enumerate() {
            sim.send_at(at, from, to, bytes, i as u64);
        }
        let mut got: Vec<(u64, usize, usize, u64, u64)> = Vec::new();
        let stats =
            sim.run(|_, d: Delivery| got.push((d.msg, d.from, d.to, d.bytes, d.time.to_bits())));
        let want = reference_run(&topo, &config, &plan);
        prop_assert_eq!(got, want, "load=0 fabric must equal the reference engine");
        prop_assert_eq!(
            (stats.bg_deliveries, stats.bg_hops_traversed, stats.bg_dropped),
            (0, 0, 0),
            "a quiet fabric carries no tenant traffic"
        );
    }

    /// Background-flow schedules and seeded ECMP route draws are pure
    /// functions of `(seed, config)`: replaying a contended run — any
    /// offered load, either route mode, multi-spine or not — reproduces
    /// every foreground delivery **and every stats counter** bit for
    /// bit, including the background/drop tallies.
    #[test]
    fn contended_runs_replay_bitwise_from_their_seeds(
        p in 4usize..18,
        spines in 1usize..5,
        seed in any::<u64>(),
        frac in prop_oneof![Just(0.0f64), 0.01..0.8f64],
        load in 0.05..1.0f64,
        ecmp in any::<bool>(),
    ) {
        let topo = Topology::fat_tree_spines(
            p,
            4,
            spines,
            LinkSpec::new(500.0, 25.0),
            LinkSpec::new(1_500.0, 50.0),
        );
        let plan = messages(p, seed ^ 0xBEEF, 24);
        let route = if ecmp {
            RouteSelect::SeededEcmp { seed: seed ^ 0xEC }
        } else {
            RouteSelect::Fixed
        };
        let config = NetConfig { load, bg_seed: seed ^ 0xB6, route, ..jittered(frac, seed) };
        let run = || {
            let mut sim = NetSim::new(&topo, &config);
            for (i, &(from, to, bytes, at)) in plan.iter().enumerate() {
                sim.send_at(at, from, to, bytes, i as u64);
            }
            let mut log: Vec<(u64, u64, u64)> = Vec::new();
            let stats = sim.run(|_, d: Delivery| log.push((d.msg, d.tag, d.time.to_bits())));
            (log, stats_fingerprint(&stats))
        };
        let first = run();
        prop_assert_eq!(
            first.0.len(),
            plan.len(),
            "tenants may delay but never eat a foreground message"
        );
        prop_assert_eq!(&first, &run(), "contended run must replay bitwise");
    }
}
