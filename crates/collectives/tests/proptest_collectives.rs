//! Property tests for the collectives — the two invariants the ISSUE
//! pins down:
//!
//! 1. every algorithm × ordering × execution path (in-memory shuffle
//!    fallback and event-driven network simulation) agrees with the
//!    exact column sums to a conditioning-aware tolerance, for
//!    arbitrary rank counts, vector lengths and fanouts;
//! 2. the `Reproducible` ordering is **bitwise** identical across all
//!    algorithms *and* all net-sim jitter seeds and topologies;
//! 3. segmentation is a pure timing knob: the segmented ring/tree are
//!    bitwise equal to their unsegmented bases — under `Reproducible`
//!    at every segment count (the ISSUE's {1, 2, 7, 16}), and for the
//!    order-fixed ring under every ordering.

use proptest::prelude::*;

use fpna_collectives::{allreduce, allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_core::executor::{map_runs, set_threads};
use fpna_core::rng::SplitMix64;
use fpna_net::{LinkSpec, RouteSelect, Topology};
use fpna_summation::exact::exact_sum;

fn make_ranks(p: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..p)
        .map(|_| (0..m).map(|_| rng.next_f64() * 2e6 - 1e6).collect())
        .collect()
}

fn column_exact(ranks: &[Vec<f64>], i: usize) -> f64 {
    exact_sum(&ranks.iter().map(|r| r[i]).collect::<Vec<_>>())
}

/// |out[i] − exact[i]| must stay within a tolerance scaled by the
/// column's absolute mass (non-associativity moves low bits, not
/// magnitudes).
fn assert_close(
    out: &[f64],
    ranks: &[Vec<f64>],
    label: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for i in 0..out.len() {
        let want = column_exact(ranks, i);
        let scale: f64 = ranks.iter().map(|r| r[i].abs()).sum::<f64>().max(1.0);
        prop_assert!(
            (out[i] - want).abs() <= 1e-12 * scale,
            "{label} at column {i}: {} vs exact {want}",
            out[i]
        );
    }
    Ok(())
}

/// Hierarchical topology shaped to hold exactly `p` ranks.
fn hier_for(p: usize) -> Topology {
    // Split p into nodes × ranks-per-node with the largest power-of-two
    // node count ≤ 4 that divides p.
    let nodes = [4usize, 2, 1].into_iter().find(|&n| p.is_multiple_of(n)).unwrap();
    Topology::hierarchical(
        nodes,
        p / nodes,
        LinkSpec::new(200.0, 100.0),
        LinkSpec::new(500.0, 50.0),
        LinkSpec::new(5_000.0, 25.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1, in-memory path: arbitrary p, m, fanout.
    #[test]
    fn every_algorithm_agrees_with_exact_sum(
        p in 1usize..24,
        m in 1usize..48,
        fanout in 2usize..6,
        seed in any::<u64>(),
    ) {
        let ranks = make_ranks(p, m, seed);
        let orderings = [
            Ordering::RankOrder,
            Ordering::ArrivalOrder { seed: seed ^ 0x5A },
            Ordering::Reproducible,
        ];
        for ord in orderings {
            for alg in [Algorithm::Ring, Algorithm::KAryTree { fanout }] {
                let out = allreduce(&ranks, alg, ord);
                assert_close(&out, &ranks, &format!("{alg:?}/{ord:?}"))?;
            }
        }
        // recursive doubling needs a power-of-two rank count
        let p2 = p.next_power_of_two();
        let ranks2 = make_ranks(p2, m, seed ^ 1);
        for ord in orderings {
            let out = allreduce(&ranks2, Algorithm::RecursiveDoubling, ord);
            assert_close(&out, &ranks2, &format!("RecursiveDoubling/{ord:?}"))?;
        }
    }

    /// Invariant 1, network path: the event-driven protocols compute
    /// the same sums on flat and hierarchical fabrics under jitter.
    #[test]
    fn net_sim_agrees_with_exact_sum(
        p in 1usize..12,
        m in 1usize..32,
        fanout in 2usize..6,
        seed in any::<u64>(),
    ) {
        let p = p.next_power_of_two(); // admit recursive doubling too
        let ranks = make_ranks(p, m, seed);
        let cfg = NetConfig::default();
        for topo in [Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)), hier_for(p)] {
            for alg in [
                Algorithm::Ring,
                Algorithm::KAryTree { fanout },
                Algorithm::RecursiveDoubling,
            ] {
                for ord in [
                    Ordering::RankOrder,
                    Ordering::ArrivalOrder { seed: seed ^ 0xA5 },
                    Ordering::Reproducible,
                ] {
                    let out = allreduce_on(&topo, &ranks, alg, ord, &cfg);
                    assert_close(
                        &out.values,
                        &ranks,
                        &format!("{alg:?}/{ord:?} on {}", topo.name()),
                    )?;
                }
            }
        }
    }

    /// Invariant 2: `Reproducible` is bitwise identical across every
    /// algorithm, both execution paths, both topologies, and any
    /// jitter seed.
    #[test]
    fn reproducible_is_bitwise_stable_everywhere(
        p_exp in 0u32..4,
        rpn in 1usize..5,
        m in 1usize..32,
        seed in any::<u64>(),
        jitter_seed in any::<u64>(),
    ) {
        let p = (1usize << p_exp) * rpn.next_power_of_two();
        let ranks = make_ranks(p, m, seed);
        let reference: Vec<u64> = allreduce(&ranks, Algorithm::Ring, Ordering::Reproducible)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let algorithms = [
            Algorithm::Ring,
            Algorithm::KAryTree { fanout: 3 },
            Algorithm::RecursiveDoubling,
        ];
        for alg in algorithms {
            let mem: Vec<u64> = allreduce(&ranks, alg, Ordering::Reproducible)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&mem, &reference, "in-memory {:?}", alg);
        }
        let cfg = NetConfig::default();
        for topo in [Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)), hier_for(p)] {
            for alg in algorithms {
                for js in [jitter_seed, jitter_seed ^ 0xFFFF_0000] {
                    let out = allreduce_on(
                        &topo,
                        &ranks,
                        alg,
                        Ordering::Reproducible,
                        &cfg.with_jitter_seed(js),
                    );
                    let got: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(
                        &got,
                        &reference,
                        "{:?} on {} with jitter seed {}",
                        alg,
                        topo.name(),
                        js
                    );
                }
            }
        }
    }

    /// Invariant 3, reproducible leg: segmented allreduce is bitwise
    /// equal to unsegmented under `Reproducible` ordering at segment
    /// counts {1, 2, 7, 16}, across fabrics and jitter seeds.
    #[test]
    fn segmented_reproducible_is_bitwise_equal_to_unsegmented(
        p in 1usize..12,
        m in 1usize..40,
        fanout in 2usize..5,
        seed in any::<u64>(),
        jitter_seed in any::<u64>(),
    ) {
        let ranks = make_ranks(p, m, seed);
        let cfg = NetConfig::default().with_jitter_seed(jitter_seed);
        for topo in [Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)), hier_for(p)] {
            let ring_ref: Vec<u64> =
                allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::Reproducible, &cfg)
                    .values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
            let tree_ref: Vec<u64> = allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout },
                Ordering::Reproducible,
                &cfg,
            )
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
            prop_assert_eq!(&ring_ref, &tree_ref, "reproducible is algorithm-independent");
            for segments in [1usize, 2, 7, 16] {
                let ring = allreduce_on(
                    &topo,
                    &ranks,
                    Algorithm::SegmentedRing { segments },
                    Ordering::Reproducible,
                    &cfg,
                );
                let got: Vec<u64> = ring.values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &ring_ref, "ring k={} on {}", segments, topo.name());
                let tree = allreduce_on(
                    &topo,
                    &ranks,
                    Algorithm::SegmentedTree { fanout, segments },
                    Ordering::Reproducible,
                    &cfg,
                );
                let got: Vec<u64> = tree.values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &tree_ref, "tree k={} on {}", segments, topo.name());
            }
        }
    }

    /// Invariant 3, order-fixed leg: the ring's per-element combine
    /// order is the rotation at any chunking, so the segmented ring's
    /// values match the plain ring bitwise under *every* ordering (and
    /// the segmented tree matches under rank order, where its fold
    /// order is deterministic).
    #[test]
    fn segmented_values_match_unsegmented_where_order_is_fixed(
        p in 2usize..10,
        m in 1usize..40,
        segments in 1usize..20,
        seed in any::<u64>(),
    ) {
        let ranks = make_ranks(p, m, seed);
        let cfg = NetConfig::default();
        let topo = hier_for(p);
        for ord in [
            Ordering::RankOrder,
            Ordering::ArrivalOrder { seed: seed ^ 0x33 },
        ] {
            let base = allreduce_on(&topo, &ranks, Algorithm::Ring, ord, &cfg);
            let seg = allreduce_on(
                &topo,
                &ranks,
                Algorithm::SegmentedRing { segments },
                ord,
                &cfg,
            );
            prop_assert_eq!(
                seg.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                base.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "ring {:?} k={}",
                ord,
                segments
            );
        }
        let base = allreduce_on(
            &topo,
            &ranks,
            Algorithm::KAryTree { fanout: 3 },
            Ordering::RankOrder,
            &cfg,
        );
        let seg = allreduce_on(
            &topo,
            &ranks,
            Algorithm::SegmentedTree { fanout: 3, segments },
            Ordering::RankOrder,
            &cfg,
        );
        prop_assert_eq!(
            seg.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            base.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "tree rank-order k={}",
            segments
        );
    }

    /// Sweeping a *contended* fabric (background tenants at nonzero
    /// offered load, optionally seeded-ECMP-routed) is invariant to how
    /// the runs are executed: serial and many worker threads produce
    /// bitwise-identical outputs — values and simulated elapsed time —
    /// run for run.
    #[test]
    fn contended_sweeps_are_thread_invariant(
        p_exp in 2u32..5,
        m in 1usize..24,
        seed in any::<u64>(),
        load in 0.1..0.9f64,
        ecmp in any::<bool>(),
        threads in 2usize..6,
    ) {
        let p = 1usize << p_exp;
        let ranks = make_ranks(p, m, seed);
        let topo = Topology::fat_tree_spines(
            p,
            4,
            2,
            LinkSpec::new(500.0, 25.0),
            LinkSpec::new(1_500.0, 50.0),
        );
        let route = if ecmp {
            RouteSelect::SeededEcmp { seed: seed ^ 0xEC }
        } else {
            RouteSelect::Fixed
        };
        let run = |s: u64| {
            let cfg = NetConfig { jitter_frac: 0.2, ..NetConfig::default() }
                .with_jitter_seed(s)
                .with_load(load, s ^ 0xB6)
                .with_route(route);
            let out = allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout: 3 },
                Ordering::ArrivalOrder { seed: s },
                &cfg,
            );
            (
                out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.elapsed_ns.to_bits(),
            )
        };
        let runs = 8usize;
        set_threads(1);
        let serial = map_runs(0..runs, |i| run(i as u64));
        set_threads(threads);
        let threaded = map_runs(0..runs, |i| run(i as u64));
        prop_assert_eq!(&serial, &threaded, "thread count must not change contended runs");
    }
}
