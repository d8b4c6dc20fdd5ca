//! Pins every observable bit of the simulated allreduce.
//!
//! One FNV-1a hash per [`Algorithm`] configuration, folded over a grid
//! of fabrics × network configs × orderings × rank counts × lengths.
//! Each call contributes its value bits, its `elapsed_ns` bits, every
//! [`RunStats`] field and every [`LinkStats`] entry. A protocol
//! rewrite that moves one fold, one timestamp, one message or one
//! link counter anywhere on the grid changes the hash of the
//! algorithm it touched.
//!
//! Each hash was captured once, from the protocols as they stood when
//! this test landed. A moved hash is a change in results, so a hash is
//! never re-captured to make a change pass.

use fpna_collectives::{allreduce_on, Algorithm, NetAllreduce, NetConfig, Ordering};
use fpna_net::{LinkSpec, LinkStats, RouteSelect, RunStats, Topology};

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every observable bit of one run. The destructuring patterns
    /// list every field, so a new stats field fails to compile here
    /// until it is hashed too.
    fn absorb(&mut self, out: &NetAllreduce) {
        self.word(out.values.len() as u64);
        for v in &out.values {
            self.word(v.to_bits());
        }
        self.word(out.elapsed_ns.to_bits());
        let RunStats {
            makespan_ns,
            deliveries,
            bytes_delivered,
            hops_traversed,
            wait_ns,
            max_wait_ns,
            contended_hops,
            nic_hops,
            nic_bytes,
            max_queue_depth,
            bg_deliveries,
            bg_bytes_delivered,
            bg_hops_traversed,
            bg_dropped,
        } = out.stats;
        for w in [
            makespan_ns.to_bits(),
            deliveries,
            bytes_delivered,
            hops_traversed,
            wait_ns.to_bits(),
            max_wait_ns.to_bits(),
            contended_hops,
            nic_hops,
            nic_bytes,
            u64::from(max_queue_depth),
            bg_deliveries,
            bg_bytes_delivered,
            bg_hops_traversed,
            bg_dropped,
        ] {
            self.word(w);
        }
        match &out.link_stats {
            None => self.word(u64::MAX),
            Some(links) => {
                self.word(links.len() as u64);
                for &LinkStats { wait_ns, messages, max_depth } in links {
                    self.word(wait_ns.to_bits());
                    self.word(messages);
                    self.word(u64::from(max_depth));
                }
            }
        }
    }
}

/// The four fabric kinds at `p` ranks. The hierarchical pair splits
/// `p` into `nodes × rpn`; the cyclic one places rank `r` on node
/// `r % nodes`.
fn fabrics(p: usize) -> Vec<Topology> {
    let (nodes, rpn) = match p {
        6 => (3, 2),
        8 => (2, 4),
        _ => (p, 1),
    };
    let intra = LinkSpec::new(200.0, 100.0);
    let nic = LinkSpec::new(500.0, 50.0);
    let inter = LinkSpec::new(5_000.0, 25.0);
    vec![
        Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)),
        Topology::fat_tree_spines(
            p,
            4,
            2,
            LinkSpec::new(500.0, 25.0),
            LinkSpec::new(1_500.0, 50.0),
        ),
        Topology::hierarchical(nodes, rpn, intra, nic, inter),
        Topology::hierarchical_cyclic(nodes, rpn, intra, nic, inter),
    ]
}

/// Quiet; tenants at 0.5 with seeded ECMP and link stats; NIC
/// coalescing at 256 B; zero jitter under tenants at 0.7.
fn configs(seed: u64) -> [NetConfig; 4] {
    [
        NetConfig::default(),
        NetConfig::default()
            .with_load(0.5, seed ^ 0xB6)
            .with_route(RouteSelect::SeededEcmp { seed: seed ^ 0xEC })
            .with_link_stats(true),
        NetConfig::default().with_coalesce(256),
        NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        }
        .with_load(0.7, seed ^ 0x70),
    ]
}

/// Rank counts with the lengths each runs at: the degenerate p ∈ {1, 2}
/// at empty, one-element and short lengths, then a ragged and a
/// power-of-two count at a length neither divides.
const GRID: [(usize, &[usize]); 4] =
    [(1, &[0, 3]), (2, &[0, 1, 5]), (6, &[1, 13]), (8, &[0, 13])];

fn inputs(p: usize, m: usize) -> Vec<Vec<f64>> {
    let mut rng = fpna_core::rng::SplitMix64::new((p * 1_000 + m) as u64);
    (0..p)
        .map(|_| (0..m).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
        .collect()
}

fn fingerprint(alg: Algorithm) -> u64 {
    let mut h = Fnv::new();
    for (p, lengths) in GRID {
        if matches!(alg, Algorithm::RecursiveDoubling) && !p.is_power_of_two() {
            continue;
        }
        for &m in lengths {
            let ranks = inputs(p, m);
            for (ti, topo) in fabrics(p).iter().enumerate() {
                let seed = (p * 100 + m * 10 + ti) as u64;
                for cfg in configs(seed) {
                    for ordering in [
                        Ordering::ArrivalOrder { seed },
                        Ordering::RankOrder,
                        Ordering::Reproducible,
                    ] {
                        let cfg = cfg.with_jitter_seed(seed ^ 0x5EED);
                        h.absorb(&allreduce_on(topo, &ranks, alg, ordering, &cfg));
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn every_netsim_bit_is_pinned() {
    let pinned: [(Algorithm, u64); 12] = [
        (Algorithm::Ring, 0x375b_bcbf_2953_10a9),
        (Algorithm::SegmentedRing { segments: 2 }, 0xead8_30fc_7810_8b12),
        (Algorithm::SegmentedRing { segments: 5 }, 0x3a49_433b_2535_80de),
        (Algorithm::KAryTree { fanout: 2 }, 0x37e0_861f_1e63_cc0b),
        (Algorithm::KAryTree { fanout: 3 }, 0x3575_95f9_6979_4d89),
        (Algorithm::SegmentedTree { fanout: 2, segments: 3 }, 0x5726_527d_ace0_e892),
        (Algorithm::SegmentedTree { fanout: 3, segments: 5 }, 0xbcce_e9d3_f139_26e1),
        (Algorithm::RecursiveDoubling, 0x81ae_cef1_2da9_4ddb),
        (Algorithm::Hierarchical { intra: 2, inter: 2 }, 0xfb54_e7c9_a5c8_7952),
        (Algorithm::Hierarchical { intra: 3, inter: 2 }, 0xb83e_8054_c2c2_838b),
        (Algorithm::FabricRing, 0x6668_5744_90a3_13ff),
        (Algorithm::DoubleBinaryTree, 0x0150_f17e_a574_4d3a),
    ];
    let got: Vec<(Algorithm, u64)> =
        pinned.iter().map(|&(alg, _)| (alg, fingerprint(alg))).collect();
    let report: String = got.iter().map(|(alg, h)| format!("\n  {alg:?}: {h:#018x}")).collect();
    for (&(alg, want), &(_, have)) in pinned.iter().zip(&got) {
        assert_eq!(have, want, "{alg:?} fingerprint moved; all hashes:{report}");
    }
}
