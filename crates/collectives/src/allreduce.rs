//! Allreduce algorithms over simulated ranks.
//!
//! The value semantics are exact: every variant returns the elementwise
//! sum of the per-rank vectors. The *bits* differ by combine order:
//!
//! | algorithm | combine order | deterministic? |
//! |---|---|---|
//! | ring | fixed rotation per segment | yes (always) |
//! | k-ary tree, rank order | children ascending | yes |
//! | k-ary tree, arrival order | seeded shuffle per node | **no** |
//! | recursive doubling | (lower, upper) pairs | yes |
//! | segmented ring / tree | as their unsegmented base | as their base (chunking is a timing knob) |
//! | hierarchical | per-group tree, then leader tree | as the tree (per ordering) |
//! | fabric ring | ring rotation over fabric order | yes (always) |
//! | double binary tree | two mirrored binary trees, half payload each | as the tree (per ordering) |
//! | any algorithm, reproducible | exact accumulators | yes, and identical across algorithms |
//!
//! Note the subtlety the tests pin down: ring and tree are each
//! internally deterministic but give **different bits from each
//! other** — real MPI libraries select algorithms at runtime by message
//! size and topology, so "deterministic per algorithm" still does not
//! give reproducible applications. Only the exact variant is stable
//! across all of it.

use crate::netsim::MAX_SEGMENTS;
use fpna_core::rng::{shuffle, SplitMix64};
use fpna_summation::exact::ExactAccumulator;

/// Reduction topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Ring reduce-scatter + allgather.
    Ring,
    /// Reduction tree with the given fanout (≥ 2).
    KAryTree {
        /// Children per node.
        fanout: usize,
    },
    /// Recursive doubling (rank count must be a power of two).
    RecursiveDoubling,
    /// [`Algorithm::Ring`] with each rank-segment pipelined in
    /// `segments` chunks (NCCL-style overlap): on the network path
    /// chunk `i+1` serializes while chunk `i` propagates. Per element
    /// the combine order is exactly the ring rotation, so **values are
    /// bitwise identical to `Ring` at every segment count**; only the
    /// clock changes. The in-memory path therefore delegates to the
    /// plain ring.
    SegmentedRing {
        /// Pipeline chunk count (≥ 1; 1 means unsegmented).
        segments: usize,
    },
    /// [`Algorithm::KAryTree`] with the payload pipelined in
    /// `segments` chunks flowing up and down the tree back to back.
    /// Per element the fold order matches the unsegmented tree, so the
    /// in-memory path delegates to `KAryTree`; on the network path the
    /// levels overlap and (under arrival order) each chunk's fold
    /// order emerges from its own message timing.
    SegmentedTree {
        /// Children per node (≥ 2).
        fanout: usize,
        /// Pipeline chunk count (≥ 1; 1 means unsegmented).
        segments: usize,
    },
    /// Topology-aware hierarchical allreduce, NCCL/MPI-style: an
    /// `intra`-ary reduction tree *inside* each fabric group (node) to
    /// the group leader, an `inter`-ary allreduce among the leaders
    /// only, then an intra-group broadcast — so bulk traffic stays off
    /// the NIC/spine links and only leaders ever cross. The network
    /// path takes the grouping from the topology (fabric groups,
    /// `Topology::group_of`); the in-memory path, having no fabric,
    /// uses the trivial single-group partition (one intra tree over
    /// everyone, no inter phase).
    Hierarchical {
        /// Children per node of the within-group reduction tree (≥ 2).
        intra: usize,
        /// Children per node of the leader allreduce tree (≥ 2).
        inter: usize,
    },
    /// [`Algorithm::Ring`] with the rotation laid over the physical
    /// fabric order (`Topology::fabric_ring_order`) instead of rank
    /// ids, so consecutive ring neighbours share a fabric group
    /// everywhere except the unavoidable one-seam-per-group crossings.
    /// The combine order is still a fixed rotation — deterministic
    /// under every ordering. In memory (no fabric) the order is the
    /// identity, i.e. exactly [`Algorithm::Ring`].
    FabricRing,
    /// Double binary tree, NCCL-style: two complementary binary trees
    /// run concurrently, the first carrying the lower half of the
    /// payload over ranks in identity order, the second the upper half
    /// over ranks in *mirrored* order (`v ↔ p−1−v`), so each tree's
    /// bandwidth bottleneck sees only half the bytes.
    DoubleBinaryTree,
}

/// Combine-order policy at each reduction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Contributions fold in simulated message-arrival order (seeded).
    ArrivalOrder {
        /// Seed standing in for "what the fabric did this run".
        seed: u64,
    },
    /// Contributions are buffered and folded in rank order —
    /// deterministic; the software-scheduled interconnect model.
    RankOrder,
    /// Exact accumulators travel with the messages; one final rounding.
    Reproducible,
}

/// The input checks both allreduce paths share (see [`allreduce`]'s
/// panics).
pub(crate) fn validate(ranks: &[Vec<f64>], algorithm: Algorithm) {
    assert!(!ranks.is_empty(), "allreduce needs at least one rank");
    let m = ranks[0].len();
    assert!(
        ranks.iter().all(|v| v.len() == m),
        "all ranks must contribute equally-shaped vectors"
    );
    match algorithm {
        Algorithm::KAryTree { fanout } | Algorithm::SegmentedTree { fanout, .. } => {
            assert!(fanout >= 2, "tree fanout must be at least 2")
        }
        Algorithm::Hierarchical { intra, inter } => {
            assert!(intra >= 2 && inter >= 2, "tree fanout must be at least 2")
        }
        Algorithm::RecursiveDoubling => assert!(
            ranks.len().is_power_of_two(),
            "recursive doubling needs a power-of-two rank count"
        ),
        _ => {}
    }
    if let Algorithm::SegmentedRing { segments } | Algorithm::SegmentedTree { segments, .. } =
        algorithm
    {
        assert!(
            (1..=MAX_SEGMENTS).contains(&segments),
            "segment count must be in 1..={MAX_SEGMENTS}, got {segments}"
        );
    }
}

/// Allreduce (sum) over `ranks[r]` vectors of equal length. Returns
/// the reduced vector (identical on every rank after the broadcast
/// phase, which involves no arithmetic).
///
/// # Panics
///
/// Panics on empty input, mismatched lengths, fanout < 2, a segment
/// count of 0 or above [`MAX_SEGMENTS`], or a non-power-of-two rank
/// count for recursive doubling.
pub fn allreduce(ranks: &[Vec<f64>], algorithm: Algorithm, ordering: Ordering) -> Vec<f64> {
    validate(ranks, algorithm);
    let m = ranks[0].len();
    if let Ordering::Reproducible = ordering {
        return reproducible_sum(ranks, m);
    }
    let order_seed = |ordering: Ordering| match ordering {
        Ordering::ArrivalOrder { seed } => Some(seed),
        Ordering::RankOrder => None,
        Ordering::Reproducible => unreachable!(),
    };
    let everyone: Vec<usize> = (0..ranks.len()).collect();
    match algorithm {
        // Segmentation is a wire-level pipelining knob that leaves the
        // per-element rotation alone, and with no fabric in memory the
        // fabric order is the identity: all three are the plain ring.
        Algorithm::Ring | Algorithm::SegmentedRing { .. } | Algorithm::FabricRing => {
            ring_in_order(ranks, m, &everyone)
        }
        Algorithm::KAryTree { fanout } | Algorithm::SegmentedTree { fanout, .. } => {
            tree(ranks, fanout, order_seed(ordering))
        }
        Algorithm::RecursiveDoubling => recursive_doubling(ranks, m),
        // No fabric in memory: the trivial single-group partition
        // (every rank in one group, no inter phase).
        Algorithm::Hierarchical { intra, inter } => {
            hierarchical_in_memory(ranks, &[everyone], intra, inter, order_seed(ordering))
        }
        Algorithm::DoubleBinaryTree => {
            double_binary_tree_in_memory(ranks, order_seed(ordering))
        }
    }
}

/// Exact path: element-wise long accumulators, merged in any order —
/// the order provably cannot matter, so we just fold rank-major.
fn reproducible_sum(ranks: &[Vec<f64>], m: usize) -> Vec<f64> {
    let mut accs: Vec<ExactAccumulator> = (0..m).map(|_| ExactAccumulator::new()).collect();
    for r in ranks {
        for (acc, &v) in accs.iter_mut().zip(r) {
            acc.add(v);
        }
    }
    accs.iter().map(|a| a.round()).collect()
}

/// K-ary reduction tree rooted at rank 0; children of `v` are
/// `f·v + 1 ..= f·v + f`. Each node folds its own buffer first (it is
/// resident), then child results — in rank order or in seeded arrival
/// order.
fn tree(ranks: &[Vec<f64>], fanout: usize, arrival_seed: Option<u64>) -> Vec<f64> {
    let m = ranks[0].len();
    tree_fold(ranks, |v| v, ranks.len(), 0, m, fanout, arrival_seed, 0)
}

/// Salts decorrelating the per-node arrival-order shuffles of the
/// topology-aware variants' distinct tree phases (salt 0 is the plain
/// k-ary tree's keying, kept bit-identical).
const HIER_INTRA_SALT: u64 = 0x48_0001;
const HIER_INTER_SALT: u64 = 0x48_FFFF;
const DBT_SALT_LOWER: u64 = 0xDB70;
const DBT_SALT_UPPER: u64 = 0xDB71;

/// The k-ary tree fold over `count` *virtual* nodes: virtual node `i`
/// reads columns `lo..hi` of `buffers[phys(i)]`, children of `i` are
/// `f·i + 1 ..= f·i + f` (clipped to `count`), and every node folds its
/// own buffer first, then children — ascending, or seeded-shuffled per
/// node under arrival order (`salt` keeps distinct tree instances'
/// shuffles decorrelated). This is the shared value semantics of the
/// plain tree (`phys` = identity), the hierarchical variant's two
/// phases, and each double-binary-tree half.
#[allow(clippy::too_many_arguments)]
fn tree_fold<F: Fn(usize) -> usize + Copy>(
    buffers: &[Vec<f64>],
    phys: F,
    count: usize,
    lo: usize,
    hi: usize,
    fanout: usize,
    arrival_seed: Option<u64>,
    salt: u64,
) -> Vec<f64> {
    #[allow(clippy::too_many_arguments)]
    fn reduce_node<F: Fn(usize) -> usize + Copy>(
        v: usize,
        buffers: &[Vec<f64>],
        phys: F,
        count: usize,
        lo: usize,
        hi: usize,
        fanout: usize,
        arrival_seed: Option<u64>,
        salt: u64,
    ) -> Vec<f64> {
        let mut children: Vec<usize> = (1..=fanout)
            .map(|k| fanout * v + k)
            .filter(|&c| c < count)
            .collect();
        let mut acc = buffers[phys(v)][lo..hi].to_vec();
        if children.is_empty() {
            return acc;
        }
        if let Some(seed) = arrival_seed {
            // arrival order: a per-node seeded shuffle
            let mut rng = SplitMix64::new(
                seed ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                    ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            shuffle(&mut children, &mut rng);
        }
        for c in children {
            let child = reduce_node(c, buffers, phys, count, lo, hi, fanout, arrival_seed, salt);
            for (a, b) in acc.iter_mut().zip(&child) {
                *a += b;
            }
        }
        acc
    }
    reduce_node(0, buffers, phys, count, lo, hi, fanout, arrival_seed, salt)
}

/// Hierarchical fold over an explicit group partition: an `intra`-ary
/// tree inside each group (virtual node `i` = the group's `i`-th
/// member, so the group leader `members[0]` is each tree's root), then
/// an `inter`-ary tree over the leader accumulators in group order.
/// The network path's value semantics under `RankOrder` — netsim's
/// property tests diff its protocol against this function with the
/// topology's fabric groups; [`allreduce`] uses the trivial
/// single-group partition.
pub(crate) fn hierarchical_in_memory(
    ranks: &[Vec<f64>],
    groups: &[Vec<usize>],
    intra: usize,
    inter: usize,
    arrival_seed: Option<u64>,
) -> Vec<f64> {
    let m = ranks[0].len();
    let leader_accs: Vec<Vec<f64>> = groups
        .iter()
        .enumerate()
        .map(|(g, members)| {
            tree_fold(
                ranks,
                |i| members[i],
                members.len(),
                0,
                m,
                intra,
                arrival_seed,
                HIER_INTRA_SALT + g as u64,
            )
        })
        .collect();
    tree_fold(&leader_accs, |g| g, groups.len(), 0, m, inter, arrival_seed, HIER_INTER_SALT)
}

/// Ring fold over an explicit rank order: ring position `s` is rank
/// `order[s]`, segment `s` (the `s`-th element block) accumulates
/// around the permuted ring starting at its owner `order[s]`. The
/// rotation is part of the algorithm, so the bits depend on the
/// segment boundaries but never on timing. [`allreduce`] runs every
/// ring with the identity order; the netsim property tests diff the
/// network fabric-ring protocol against this function with the
/// topology's fabric order.
pub(crate) fn ring_in_order(ranks: &[Vec<f64>], m: usize, order: &[usize]) -> Vec<f64> {
    let p = ranks.len();
    let seg_len = m.div_ceil(p);
    let mut out = vec![0.0f64; m];
    for s in 0..p {
        let lo = (s * seg_len).min(m);
        let hi = ((s + 1) * seg_len).min(m);
        for i in lo..hi {
            let mut acc = ranks[order[s]][i];
            for step in 1..p {
                acc += ranks[order[(s + step) % p]][i];
            }
            out[i] = acc;
        }
    }
    out
}

/// Double binary tree: the lower half of the payload reduces over a
/// binary tree in identity rank order, the upper half over the
/// complementary tree in mirrored order (`v ↔ p−1−v`), so interior
/// ranks of one tree are leaves of the other and each tree carries
/// half the bytes.
pub(crate) fn double_binary_tree_in_memory(
    ranks: &[Vec<f64>],
    arrival_seed: Option<u64>,
) -> Vec<f64> {
    let p = ranks.len();
    let m = ranks[0].len();
    let h = m.div_ceil(2);
    let mut out = tree_fold(ranks, |v| v, p, 0, h, 2, arrival_seed, DBT_SALT_LOWER);
    out.extend(tree_fold(ranks, |v| p - 1 - v, p, h, m, 2, arrival_seed, DBT_SALT_UPPER));
    out
}

/// Recursive doubling: in round `d`, partners `r` and `r ^ d` exchange
/// and both compute `lower + upper` — symmetric, so every rank holds
/// identical bits at every round.
///
/// Double-buffered: round `d` reads generation `cur` and writes
/// generation `next`, then the two swap — no per-round clone of all
/// `p` rank buffers.
fn recursive_doubling(ranks: &[Vec<f64>], m: usize) -> Vec<f64> {
    let p = ranks.len();
    let mut cur: Vec<Vec<f64>> = ranks.to_vec();
    let mut next: Vec<Vec<f64>> = vec![vec![0.0; m]; p];
    let mut d = 1;
    while d < p {
        for (r, buffer) in next.iter_mut().enumerate() {
            let partner = r ^ d;
            let (lower, upper) = if r < partner { (r, partner) } else { (partner, r) };
            for i in 0..m {
                buffer[i] = cur[lower][i] + cur[upper][i];
            }
        }
        std::mem::swap(&mut cur, &mut next);
        d <<= 1;
    }
    cur.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use fpna_summation::exact::exact_sum;

    fn make_ranks(p: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        (0..p)
            .map(|_| (0..m).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
            .collect()
    }

    fn column_exact(ranks: &[Vec<f64>], i: usize) -> f64 {
        exact_sum(&ranks.iter().map(|r| r[i]).collect::<Vec<_>>())
    }

    #[test]
    fn all_variants_compute_the_sum() {
        let ranks = make_ranks(8, 64, 1);
        for (alg, ord) in [
            (Algorithm::Ring, Ordering::RankOrder),
            (Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder),
            (Algorithm::KAryTree { fanout: 4 }, Ordering::ArrivalOrder { seed: 3 }),
            (Algorithm::RecursiveDoubling, Ordering::RankOrder),
            (Algorithm::Ring, Ordering::Reproducible),
            (Algorithm::Hierarchical { intra: 2, inter: 2 }, Ordering::RankOrder),
            (Algorithm::Hierarchical { intra: 4, inter: 2 }, Ordering::ArrivalOrder { seed: 9 }),
            (Algorithm::FabricRing, Ordering::RankOrder),
            (Algorithm::DoubleBinaryTree, Ordering::RankOrder),
            (Algorithm::DoubleBinaryTree, Ordering::ArrivalOrder { seed: 11 }),
        ] {
            let out = allreduce(&ranks, alg, ord);
            for i in [0usize, 17, 63] {
                let want = column_exact(&ranks, i);
                assert!(
                    (out[i] - want).abs() < 1e-6,
                    "{alg:?}/{ord:?} at {i}: {} vs {want}",
                    out[i]
                );
            }
        }
    }

    #[test]
    fn arrival_order_varies_across_runs() {
        let ranks = make_ranks(64, 16, 2);
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let out = allreduce(
                &ranks,
                Algorithm::KAryTree { fanout: 8 },
                Ordering::ArrivalOrder { seed: 100 + run },
            );
            bits.insert(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert!(bits.len() > 1, "arrival order should leak into bits");
    }

    #[test]
    fn rank_order_and_ring_and_doubling_are_deterministic() {
        let ranks = make_ranks(16, 32, 3);
        for alg in [
            Algorithm::Ring,
            Algorithm::KAryTree { fanout: 2 },
            Algorithm::RecursiveDoubling,
            Algorithm::Hierarchical { intra: 2, inter: 3 },
            Algorithm::FabricRing,
            Algorithm::DoubleBinaryTree,
        ] {
            let a = allreduce(&ranks, alg, Ordering::RankOrder);
            let b = allreduce(&ranks, alg, Ordering::RankOrder);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{alg:?}"
            );
        }
    }

    #[test]
    fn different_algorithms_give_different_bits() {
        // The MPI trap: each algorithm deterministic, mutually
        // inconsistent — runtime algorithm selection breaks
        // reproducibility even without timing nondeterminism.
        let ranks = make_ranks(16, 256, 4);
        let ring = allreduce(&ranks, Algorithm::Ring, Ordering::RankOrder);
        let tree = allreduce(&ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder);
        let rd = allreduce(&ranks, Algorithm::RecursiveDoubling, Ordering::RankOrder);
        let differs = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
        };
        assert!(differs(&ring, &tree) || differs(&ring, &rd) || differs(&tree, &rd));
    }

    #[test]
    fn reproducible_is_identical_across_everything() {
        let ranks = make_ranks(32, 64, 5);
        let reference = allreduce(&ranks, Algorithm::Ring, Ordering::Reproducible);
        for alg in [
            Algorithm::Ring,
            Algorithm::KAryTree { fanout: 3 },
            Algorithm::RecursiveDoubling,
            Algorithm::Hierarchical { intra: 2, inter: 2 },
            Algorithm::FabricRing,
            Algorithm::DoubleBinaryTree,
        ] {
            let out = allreduce(&ranks, alg, Ordering::Reproducible);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{alg:?} must agree bitwise in reproducible mode"
            );
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let ranks = make_ranks(1, 8, 6);
        let out = allreduce(&ranks, Algorithm::Ring, Ordering::RankOrder);
        assert_eq!(out, ranks[0]);
        let out = allreduce(&ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder);
        assert_eq!(out, ranks[0]);
    }

    #[test]
    fn double_binary_tree_halves_agree_with_the_exact_sum() {
        // Odd length, so the halves are uneven (5 lower, 4 upper), and
        // an odd rank count, so one rank is a leaf in both trees.
        let ranks = make_ranks(9, 9, 8);
        for ord in [Ordering::RankOrder, Ordering::ArrivalOrder { seed: 21 }] {
            let out = allreduce(&ranks, Algorithm::DoubleBinaryTree, ord);
            for (i, &v) in out.iter().enumerate() {
                let want = column_exact(&ranks, i);
                assert!((v - want).abs() < 1e-6, "{ord:?} element {i}: {v} vs {want}");
            }
        }
    }

    #[test]
    fn double_binary_tree_mirrors_the_fold_between_halves() {
        // Under rank order the lower half folds over the identity tree
        // and the upper half over the mirrored one — with the same
        // value in every column of both halves, the bits can only
        // differ between halves if the mirrored fold really runs in
        // the mirrored order.
        let col = make_ranks(7, 1, 12);
        let ranks: Vec<Vec<f64>> = col.iter().map(|r| vec![r[0], r[0]]).collect();
        let out = allreduce(&ranks, Algorithm::DoubleBinaryTree, Ordering::RankOrder);
        let tree = allreduce(&ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder);
        assert_eq!(out[0].to_bits(), tree[0].to_bits(), "lower half is the identity tree");
        assert!((out[0] - out[1]).abs() < 1e-6);
    }

    #[test]
    fn hierarchical_groups_move_bits_but_not_the_sum() {
        let ranks = make_ranks(16, 32, 10);
        let trivial = allreduce(
            &ranks,
            Algorithm::Hierarchical { intra: 2, inter: 2 },
            Ordering::RankOrder,
        );
        let groups: Vec<Vec<usize>> = (0..4).map(|g| (4 * g..4 * g + 4).collect()).collect();
        let grouped = hierarchical_in_memory(&ranks, &groups, 2, 2, None);
        for i in 0..32 {
            let want = column_exact(&ranks, i);
            assert!((trivial[i] - want).abs() < 1e-6);
            assert!((grouped[i] - want).abs() < 1e-6);
        }
        assert!(
            trivial.iter().zip(&grouped).any(|(a, b)| a.to_bits() != b.to_bits()),
            "the group partition should reassociate the fold"
        );
    }

    #[test]
    fn ring_in_order_with_identity_is_the_plain_ring() {
        let ranks = make_ranks(12, 30, 11);
        let plain = allreduce(&ranks, Algorithm::Ring, Ordering::RankOrder);
        let fabric = allreduce(&ranks, Algorithm::FabricRing, Ordering::RankOrder);
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fabric.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // A permuted order still sums every column, rotated start.
        let order: Vec<usize> = (0..12).map(|s| (5 * s) % 12).collect();
        let permuted = ring_in_order(&ranks, 30, &order);
        for (i, &got) in permuted.iter().enumerate() {
            let want = column_exact(&ranks, i);
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_needs_pow2() {
        let ranks = make_ranks(6, 4, 7);
        allreduce(&ranks, Algorithm::RecursiveDoubling, Ordering::RankOrder);
    }

    #[test]
    #[should_panic(expected = "equally-shaped")]
    fn mismatched_lengths_panic() {
        allreduce(
            &[vec![1.0], vec![1.0, 2.0]],
            Algorithm::Ring,
            Ordering::RankOrder,
        );
    }
}
