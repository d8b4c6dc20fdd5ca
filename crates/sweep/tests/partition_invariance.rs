//! Property tests for the tentpole invariant: merging the shard files
//! of **any** partition of a sweep's runs — any shard count, any
//! uneven boundaries — reproduces the single-process row set and every
//! derived statistic bitwise.
//!
//! The synthetic experiment here has the same shape as the real ones
//! (per-run seeded work keyed by global run index, a few metric
//! columns per cell) but runs in microseconds, so proptest can push
//! hundreds of partitions through the full encode → decode → merge
//! path.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_sweep::rows::SweepRows;
use fpna_sweep::spec::{shard_assignments, SweepSpec};
use fpna_sweep::store::{decode_shard, encode_shard};

/// Synthetic experiment: index-pure rows across two cells with
/// different column widths.
fn compute(seed: u64, range: std::ops::Range<usize>) -> SweepRows {
    let mut rows = SweepRows::new();
    for run in range {
        let mut rng = SplitMix64::new(derive_seed(seed, run as u64));
        let a = rng.next_f64() * 2.0 - 1.0;
        let b = rng.next_f64() * 1e6;
        rows.push("alpha", run, vec![a, a * b, b - a, 4.0]);
        rows.push("beta", run, vec![b]);
    }
    rows
}

/// Merge a partition (list of cut points) through the real shard-file
/// wire format.
fn merge_partition(spec: &SweepSpec, seed: u64, cuts: &[usize]) -> SweepRows {
    let mut rows = SweepRows::new();
    for (shard_id, w) in cuts.windows(2).enumerate() {
        let shard_rows = compute(seed, w[0]..w[1]);
        let text = encode_shard(spec, shard_id, w[0]..w[1], &shard_rows);
        let decoded = decode_shard(&text).expect("wire round trip");
        assert_eq!(decoded.run_range, w[0]..w[1]);
        rows.absorb(decoded.rows).expect("disjoint shards");
    }
    rows
}

fn reports_bitwise_equal(a: &SweepRows, b: &SweepRows, cell: &str) -> bool {
    let (ra, rb) = (a.variability_report(cell), b.variability_report(cell));
    let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    ra.per_run.len() == rb.per_run.len()
        && ra.bitwise_identical_runs == rb.bitwise_identical_runs
        && eq(ra.vermv.mean, rb.vermv.mean)
        && eq(ra.vermv.std_dev, rb.vermv.std_dev)
        && eq(ra.vc.mean, rb.vc.mean)
        && eq(ra.max_abs_diff.max, rb.max_abs_diff.max)
        && ra
            .per_run
            .iter()
            .zip(&rb.per_run)
            .all(|(p, q)| eq(p.0, q.0) && eq(p.1, q.1))
}

#[test]
fn fixed_shard_counts_merge_identically() {
    let seed = 0xD15C0;
    let spec = SweepSpec::new("prop", 21).arg("seed", seed);
    let full = compute(seed, 0..21);
    for shards in [1usize, 2, 3, 7] {
        let cuts: Vec<usize> = {
            let assignments = shard_assignments(&spec, shards);
            let mut c: Vec<usize> = assignments.iter().map(|a| a.run_range.start).collect();
            c.push(21);
            c
        };
        let rows = merge_partition(&spec, seed, &cuts);
        assert_eq!(rows, full, "shards={shards}");
        assert!(reports_bitwise_equal(&rows, &full, "alpha"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ANY partition — arbitrary uneven cut points, including empty
    /// shards — merges to the bitwise single-process result.
    #[test]
    fn arbitrary_partitions_merge_identically(
        runs in 1usize..40,
        seed in any::<u64>(),
        raw_cuts in vec(0usize..40, 0..6),
    ) {
        let spec = SweepSpec::new("prop", runs).arg("seed", seed);
        let mut cuts: Vec<usize> = raw_cuts.into_iter().map(|c| c % (runs + 1)).collect();
        cuts.push(0);
        cuts.push(runs);
        cuts.sort_unstable();
        cuts.dedup();

        let full = compute(seed, 0..runs);
        let rows = merge_partition(&spec, seed, &cuts);
        prop_assert_eq!(&rows, &full, "cuts={:?}", &cuts);
        prop_assert!(reports_bitwise_equal(&rows, &full, "alpha"));
        let (sa, sb) = (rows.run_summary("beta", 0), full.run_summary("beta", 0));
        prop_assert_eq!(sa.mean.to_bits(), sb.mean.to_bits());
        prop_assert_eq!(sa.std_dev.to_bits(), sb.std_dev.to_bits());
    }

    /// Merging in a different shard arrival order must either produce
    /// the same result (rows are keyed by run index) — shuffled merge
    /// order is how cross-machine collection actually happens.
    #[test]
    fn merge_order_is_irrelevant(
        runs in 2usize..30,
        seed in any::<u64>(),
        swap in any::<bool>(),
    ) {
        let spec = SweepSpec::new("prop", runs).arg("seed", seed);
        let mid = runs / 2;
        let mut order = vec![(0usize, 0..mid), (1usize, mid..runs)];
        if swap {
            order.reverse();
        }
        let mut rows = SweepRows::new();
        for (shard_id, range) in order {
            let text = encode_shard(&spec, shard_id, range.clone(), &compute(seed, range));
            rows.absorb(decode_shard(&text).unwrap().rows).unwrap();
        }
        prop_assert_eq!(rows, compute(seed, 0..runs));
    }
}
