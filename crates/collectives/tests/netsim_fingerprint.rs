//! Pins every observable bit of the simulated allreduce.
//!
//! One FNV-1a hash per ([`Algorithm`] configuration, network config),
//! folded over a grid of fabrics × orderings × rank counts × lengths.
//! Each call contributes its value bits, its `elapsed_ns` bits, every
//! [`RunStats`] field and every [`LinkStats`] entry. A protocol
//! rewrite that moves one fold, one timestamp, one message or one
//! link counter anywhere on the grid changes the hash of the
//! algorithm and network config it touched, and only those.
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

/// The network configs, each hashed on its own.
#[derive(Clone, Copy, Debug)]
enum Net {
    /// The default config.
    Quiet,
    /// Tenants at 0.5 with seeded ECMP and link stats.
    Tenants,
    /// Zero jitter under tenants at 0.7.
    ZeroJitter,
}

fn config(net: Net, seed: u64) -> NetConfig {
    match net {
        Net::Quiet => NetConfig::default(),
        Net::Tenants => NetConfig::default()
            .with_load(0.5, seed ^ 0xB6)
            .with_route(RouteSelect::SeededEcmp { seed: seed ^ 0xEC })
            .with_link_stats(true),
        Net::ZeroJitter => NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        }
        .with_load(0.7, seed ^ 0x70),
    }
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

fn fingerprint(alg: Algorithm, net: Net) -> u64 {
    let mut h = Fnv::new();
    for (p, lengths) in GRID {
        if matches!(alg, Algorithm::RecursiveDoubling) && !p.is_power_of_two() {
            continue;
        }
        for &m in lengths {
            let ranks = inputs(p, m);
            for (ti, topo) in fabrics(p).iter().enumerate() {
                let seed = (p * 100 + m * 10 + ti) as u64;
                let cfg = config(net, seed).with_jitter_seed(seed ^ 0x5EED);
                for ordering in [
                    Ordering::ArrivalOrder { seed },
                    Ordering::RankOrder,
                    Ordering::Reproducible,
                ] {
                    h.absorb(&allreduce_on(topo, &ranks, alg, ordering, &cfg));
                }
            }
        }
    }
    h.0
}

#[test]
fn every_netsim_bit_is_pinned() {
    let pinned: [(Algorithm, Net, u64); 36] = [
        (Algorithm::Ring, Net::Quiet, 0x7573_cc07_a6b6_d35e),
        (Algorithm::SegmentedRing { segments: 2 }, Net::Quiet, 0x0d95_5773_671a_1bc9),
        (Algorithm::SegmentedRing { segments: 5 }, Net::Quiet, 0x2fce_c81f_f78b_ed7b),
        (Algorithm::KAryTree { fanout: 2 }, Net::Quiet, 0x7ea9_2ce9_c908_476a),
        (Algorithm::KAryTree { fanout: 3 }, Net::Quiet, 0x580d_e9ad_7f3c_7e29),
        (Algorithm::SegmentedTree { fanout: 2, segments: 3 }, Net::Quiet, 0x2bc1_addb_9837_bded),
        (Algorithm::SegmentedTree { fanout: 3, segments: 5 }, Net::Quiet, 0x5a2c_609d_c1f6_906f),
        (Algorithm::RecursiveDoubling, Net::Quiet, 0xe463_8f12_8d80_05d0),
        (Algorithm::Hierarchical { intra: 2, inter: 2 }, Net::Quiet, 0x9fa8_4197_b85a_5cd9),
        (Algorithm::Hierarchical { intra: 3, inter: 2 }, Net::Quiet, 0xb0fc_fd44_5419_5382),
        (Algorithm::FabricRing, Net::Quiet, 0xd786_9b09_eebe_b60f),
        (Algorithm::DoubleBinaryTree, Net::Quiet, 0x5906_f362_927a_f570),
        (Algorithm::Ring, Net::Tenants, 0xe11c_6924_40cf_4570),
        (Algorithm::SegmentedRing { segments: 2 }, Net::Tenants, 0xf3e3_56c4_b14e_ff26),
        (Algorithm::SegmentedRing { segments: 5 }, Net::Tenants, 0x0b76_94a1_5a72_0669),
        (Algorithm::KAryTree { fanout: 2 }, Net::Tenants, 0x61f3_51c7_f974_7bee),
        (Algorithm::KAryTree { fanout: 3 }, Net::Tenants, 0x418b_725c_0a81_245f),
        (Algorithm::SegmentedTree { fanout: 2, segments: 3 }, Net::Tenants, 0x89fc_953e_898f_d7fb),
        (Algorithm::SegmentedTree { fanout: 3, segments: 5 }, Net::Tenants, 0x8ac5_9fa4_09e9_ec70),
        (Algorithm::RecursiveDoubling, Net::Tenants, 0xc082_c1ef_fbef_efc7),
        (Algorithm::Hierarchical { intra: 2, inter: 2 }, Net::Tenants, 0x77fb_1f4a_8a05_1d0e),
        (Algorithm::Hierarchical { intra: 3, inter: 2 }, Net::Tenants, 0x8c8d_39cd_c9d0_deb9),
        (Algorithm::FabricRing, Net::Tenants, 0xb8c6_a0d4_7b01_c3a9),
        (Algorithm::DoubleBinaryTree, Net::Tenants, 0xb3bc_2a44_9824_2913),
        (Algorithm::Ring, Net::ZeroJitter, 0x300b_5db0_3f97_b0f4),
        (Algorithm::SegmentedRing { segments: 2 }, Net::ZeroJitter, 0x5ab0_ef6c_4293_104a),
        (Algorithm::SegmentedRing { segments: 5 }, Net::ZeroJitter, 0x2206_835e_8c6c_ba63),
        (Algorithm::KAryTree { fanout: 2 }, Net::ZeroJitter, 0xf68a_e00a_655f_915c),
        (Algorithm::KAryTree { fanout: 3 }, Net::ZeroJitter, 0x6978_f990_3e9c_8293),
        (Algorithm::SegmentedTree { fanout: 2, segments: 3 }, Net::ZeroJitter, 0xd248_0051_51d1_5eb2),
        (Algorithm::SegmentedTree { fanout: 3, segments: 5 }, Net::ZeroJitter, 0x62eb_c395_ba00_05e3),
        (Algorithm::RecursiveDoubling, Net::ZeroJitter, 0x412a_9c77_9be0_7511),
        (Algorithm::Hierarchical { intra: 2, inter: 2 }, Net::ZeroJitter, 0xfea4_afc1_64af_bd99),
        (Algorithm::Hierarchical { intra: 3, inter: 2 }, Net::ZeroJitter, 0x2d32_a129_745c_aa0b),
        (Algorithm::FabricRing, Net::ZeroJitter, 0x3dc8_128d_47b0_a03b),
        (Algorithm::DoubleBinaryTree, Net::ZeroJitter, 0x6ff8_f9e3_afac_b04c),
    ];
    let got: Vec<u64> = pinned.iter().map(|&(alg, net, _)| fingerprint(alg, net)).collect();
    let report: String = pinned
        .iter()
        .zip(&got)
        .map(|(&(alg, net, _), h)| format!("\n        ({alg:?}, Net::{net:?}, {h:#018x}),"))
        .collect();
    for (&(alg, net, want), &have) in pinned.iter().zip(&got) {
        assert_eq!(have, want, "{alg:?} under {net:?} fingerprint moved; all hashes:{report}");
    }
}
