//! Property tests for the exact accumulator and the summation family —
//! the invariants that make "reproducible summation" a meaningful
//! claim.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna_summation::exact::{exact_sum, ExactAccumulator, ExactVec};
use fpna_summation::{
    kahan_sum, klein_sum, neumaier_sum, pairwise_sum, serial_sum, SumAlgorithm,
};

fn summable() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e15..1e15f64,
        -1.0..1.0f64,
        -1e-15..1e-15f64,
        Just(0.0),
        Just(-0.0),
    ]
}

/// The adversarial stream for the vectorized-kernel equivalence
/// suites: everything `summable()` covers plus subnormals (zero
/// biased exponent — the lane extraction's implicit-bit edge) and
/// near-overflow magnitudes (the top of the bin table).
fn adversarial() -> impl Strategy<Value = f64> {
    prop_oneof![
        summable(),
        // Subnormals of either sign, including f64::MIN_POSITIVE / 2⁵².
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|b| -f64::from_bits(b)),
        // Huge magnitudes near the top of the exponent range.
        1e300..1e308f64,
        -1e308..-1e300f64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The defining property: the exact sum depends only on the
    /// multiset of inputs, never on order.
    #[test]
    fn exact_sum_order_invariant(mut xs in vec(summable(), 0..400), seed in any::<u64>()) {
        let reference = exact_sum(&xs);
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        fpna_core::rng::shuffle(&mut xs, &mut rng);
        prop_assert_eq!(exact_sum(&xs).to_bits(), reference.to_bits());
        xs.reverse();
        prop_assert_eq!(exact_sum(&xs).to_bits(), reference.to_bits());
    }

    /// Splitting the input at any point and merging the two exact
    /// accumulators gives the same bits as one pass.
    #[test]
    fn exact_merge_partition_invariant(xs in vec(summable(), 1..300), cut in 0usize..300) {
        let cut = cut.min(xs.len());
        let whole = exact_sum(&xs);
        let mut left: ExactAccumulator = xs[..cut].iter().copied().collect();
        let right: ExactAccumulator = xs[cut..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.round().to_bits(), whole.to_bits());
    }

    /// Adding a value and its negation is an exact no-op.
    #[test]
    fn exact_cancellation(xs in vec(summable(), 0..100), y in summable()) {
        let mut with: ExactAccumulator = xs.iter().copied().collect();
        with.add(y);
        with.add(-y);
        let without: ExactAccumulator = xs.iter().copied().collect();
        prop_assert_eq!(with.round().to_bits(), without.round().to_bits());
    }

    /// Every algorithm in the roster computes the same value to a
    /// conditioning-aware tolerance.
    #[test]
    fn roster_agrees(xs in vec(-1e9..1e9f64, 1..500)) {
        let reference = exact_sum(&xs);
        let scale: f64 = xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        for alg in SumAlgorithm::roster(3) {
            let v = alg.sum(&xs);
            prop_assert!((v - reference).abs() <= 1e-12 * scale, "{}: {} vs {}", alg.name(), v, reference);
        }
    }

    /// Compensated sums never do worse than the plain serial sum
    /// (measured against the exact value).
    #[test]
    fn compensation_is_no_worse(xs in vec(-1e12..1e12f64, 2..300)) {
        let exact = exact_sum(&xs);
        let serial_err = (serial_sum(&xs) - exact).abs();
        for f in [kahan_sum, neumaier_sum, klein_sum] {
            let err = (f(&xs) - exact).abs();
            // allow one ulp of slack around equality
            prop_assert!(err <= serial_err + exact.abs() * f64::EPSILON,
                "compensated err {} > serial err {}", err, serial_err);
        }
    }

    /// Pairwise sums are deterministic and within the Higham bound's
    /// ballpark of the exact value.
    #[test]
    fn pairwise_stable_and_accurate(xs in vec(-1e6..1e6f64, 1..1000)) {
        let a = pairwise_sum(&xs);
        prop_assert_eq!(a.to_bits(), pairwise_sum(&xs).to_bits());
        let scale: f64 = xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        prop_assert!((a - exact_sum(&xs)).abs() <= 1e-12 * scale);
    }

    /// Round-tripping a single value through the accumulator is exact.
    #[test]
    fn single_value_roundtrip(x in summable()) {
        let mut acc = ExactAccumulator::new();
        acc.add(x);
        // -0.0 rounds to +0.0; compare by value there
        if x == 0.0 {
            prop_assert_eq!(acc.round(), 0.0);
        } else {
            prop_assert_eq!(acc.round().to_bits(), x.to_bits());
        }
    }

    /// The sparse-span invariant: under arbitrary interleavings of
    /// `add`, `merge` (canonical and raw) and `normalize`, the tracked
    /// `[lo, hi)` window always covers every nonzero limb, and the
    /// value stays exactly the multiset sum of everything folded in.
    #[test]
    fn span_invariant_under_interleavings(
        ops in vec(0u8..5u8, 1..200),
        vals in vec(summable(), 200..201),
    ) {
        let mut acc = ExactAccumulator::new();
        let mut other = ExactAccumulator::new();
        let mut model_acc: Vec<f64> = Vec::new();
        let mut model_other: Vec<f64> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let v = vals[i % vals.len()];
            match op {
                0 => { acc.add(v); model_acc.push(v); }
                1 => { other.add(v); model_other.push(v); }
                2 => {
                    // canonical rhs merge (the wire/worker hand-off)
                    other.normalize();
                    acc.merge(&other);
                    model_acc.extend(model_other.iter().copied());
                }
                3 => {
                    // raw rhs merge (both sides possibly non-canonical)
                    acc.merge(&other);
                    model_acc.extend(model_other.iter().copied());
                }
                _ => acc.normalize(),
            }
            prop_assert!(acc.span_covers_nonzero(), "acc span lost a nonzero limb");
            prop_assert!(other.span_covers_nonzero(), "other span lost a nonzero limb");
        }
        prop_assert_eq!(acc.round().to_bits(), exact_sum(&model_acc).to_bits());
        prop_assert_eq!(other.round().to_bits(), exact_sum(&model_other).to_bits());
    }

    /// Wire round trip is bitwise lossless: encode → decode reproduces
    /// the canonical state (limbs, span, pending) and the same bytes.
    #[test]
    fn wire_round_trip_lossless(xs in vec(summable(), 0..200)) {
        let mut acc: ExactAccumulator = xs.iter().copied().collect();
        // encoding canonicalizes internally; decoding must match the
        // canonicalized state exactly
        let bytes = acc.to_wire_bytes();
        prop_assert!(bytes.len() <= 2 + ExactAccumulator::WIRE_BYTES);
        let decoded = ExactAccumulator::from_wire_bytes(&bytes).unwrap();
        acc.normalize();
        prop_assert!(decoded.state_eq(&acc), "decoded state differs");
        prop_assert_eq!(bytes.len(), acc.wire_len());
        prop_assert_eq!(decoded.to_wire_bytes(), bytes);
        prop_assert_eq!(decoded.round().to_bits(), acc.round().to_bits());
    }

    /// `add_slice` (the binned bulk loop) is bitwise equivalent to
    /// per-element `add`, at every length around its internal
    /// thresholds.
    #[test]
    fn add_slice_matches_per_element_adds(xs in vec(summable(), 0..3000)) {
        let mut bulk = ExactAccumulator::new();
        bulk.add_slice(&xs);
        let per: ExactAccumulator = xs.iter().copied().collect();
        prop_assert!(bulk.span_covers_nonzero());
        prop_assert_eq!(bulk.round().to_bits(), per.round().to_bits());
        // canonical states agree too
        let mut a = bulk.clone();
        let mut b = per.clone();
        a.normalize();
        b.normalize();
        prop_assert!(a.state_eq(&b));
    }

    /// The lane-vectorized `add_slice` (two-pass extraction + 8-way
    /// interleaved sub-bins) is bitwise equivalent to the retained
    /// single-bin scalar reference on adversarial streams: subnormals,
    /// extreme magnitudes, signed zeros, and exact cancellation (the
    /// appended negated copy drives every bin — and every sub-bin
    /// pattern that sums to zero — through the flush path).
    #[test]
    fn lane_add_slice_matches_scalar_reference(
        xs in vec(adversarial(), 0..2600),
        cancel in any::<bool>(),
    ) {
        let mut xs = xs;
        if cancel {
            let neg: Vec<f64> = xs.iter().map(|&x| -x).collect();
            xs.extend(neg);
        }
        let mut lanes = ExactAccumulator::new();
        lanes.add_slice(&xs);
        let mut scalar = ExactAccumulator::new();
        scalar.add_slice_scalar(&xs);
        prop_assert!(lanes.span_covers_nonzero());
        prop_assert_eq!(lanes.round().to_bits(), scalar.round().to_bits());
        lanes.normalize();
        scalar.normalize();
        prop_assert!(lanes.state_eq(&scalar), "lane and scalar canonical states differ");
    }

    /// `normalize` lands in the identical canonical state whether the
    /// raw state was built by the binned bulk `add_slice` or by
    /// per-element `add`, starting from arbitrarily messy
    /// pre-normalization states.
    #[test]
    fn interleaved_add_slice_normalizes_like_per_element_adds(
        xs in vec(adversarial(), 0..600),
        cuts in vec(0usize..600, 0..6),
    ) {
        // Interleave bulk adds and per-element adds so the accumulator
        // carries a mix of binned flushes and single-add deposits when
        // normalization runs.
        let mut a = ExactAccumulator::new();
        let mut b = ExactAccumulator::new();
        let mut prev = 0usize;
        for &cut in cuts.iter().chain(std::iter::once(&xs.len())) {
            let cut = cut.min(xs.len());
            if cut > prev {
                a.add_slice(&xs[prev..cut]);
                for &x in &xs[prev..cut] {
                    b.add(x);
                }
                prev = cut;
            }
        }
        a.normalize();
        b.normalize();
        prop_assert!(a.state_eq(&b), "bulk and per-element canonical states differ");
        prop_assert_eq!(a.round().to_bits(), b.round().to_bits());
    }

    /// The span-packed `ExactVec` holds, after each of its element-wise
    /// operations (build, add a slice, merge a packed vector), exactly
    /// the canonical states of dense accumulators put through the same
    /// `add`/`merge` calls and a `normalize`: same limbs and span, same
    /// rounded bits, and a wire length that is the sum of the dense
    /// ones. `cancel` makes the merged operand the exact negation of
    /// the running state, so every element cancels to zero.
    #[test]
    fn packed_vec_matches_dense_accumulators(
        vals in vec(adversarial(), 0..900),
        cancel in any::<bool>(),
    ) {
        fn check(packed: &ExactVec, dense: &[ExactAccumulator]) -> Result<(), TestCaseError> {
            prop_assert_eq!(packed.len(), dense.len());
            for (i, (p, d)) in packed.iter().zip(dense).enumerate() {
                prop_assert!(p.state_eq(d), "element {} differs from the dense state", i);
            }
            let rounded: Vec<u64> = packed.round().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = dense.iter().map(|d| d.round().to_bits()).collect();
            prop_assert_eq!(rounded, want);
            let wire: usize = dense.iter().map(ExactAccumulator::wire_len).sum();
            prop_assert_eq!(packed.wire_len(), wire);
            Ok(())
        }
        fn dense_of(xs: &[f64]) -> Vec<ExactAccumulator> {
            xs.iter()
                .map(|&x| {
                    let mut acc = ExactAccumulator::new();
                    acc.add(x);
                    acc.normalize();
                    acc
                })
                .collect()
        }
        fn dense_add(dense: &mut [ExactAccumulator], xs: &[f64]) {
            for (d, &x) in dense.iter_mut().zip(xs) {
                d.add(x);
                d.normalize();
            }
        }
        let n = vals.len() / 3;
        let (xs, ys, zs) = (&vals[..n], &vals[n..2 * n], &vals[2 * n..3 * n]);
        let neg = |v: &[f64]| v.iter().map(|&x| -x).collect::<Vec<f64>>();

        let mut packed = ExactVec::from_slice(xs);
        let mut dense = dense_of(xs);
        check(&packed, &dense)?;

        packed.add(ys);
        dense_add(&mut dense, ys);
        check(&packed, &dense)?;

        // A multi-value operand: either zs + xs, or −ys − xs, which
        // cancels the running state `xs + ys` element by element.
        let (first, second) = if cancel { (neg(ys), neg(xs)) } else { (zs.to_vec(), xs.to_vec()) };
        let mut other = ExactVec::from_slice(&first);
        other.add(&second);
        let mut dense_other = dense_of(&first);
        dense_add(&mut dense_other, &second);
        check(&other, &dense_other)?;
        packed.merge(&other);
        for (d, o) in dense.iter_mut().zip(&dense_other) {
            d.merge(o);
            d.normalize();
        }
        check(&packed, &dense)?;
        if cancel {
            prop_assert_eq!(packed.wire_len(), 2 * n, "every element must cancel to zero");
        }
    }

    /// `ExactVec::wire_len_of` prices every raw leaf send of a
    /// reproducible collective without building the payload: it must
    /// equal the packed vector's length and the sum of the dense
    /// accumulators' encoded sizes.
    #[test]
    fn wire_len_of_matches_packed_and_dense(xs in vec(adversarial(), 0..900)) {
        let dense: usize = xs
            .iter()
            .map(|&x| {
                let mut acc = ExactAccumulator::new();
                acc.add(x);
                acc.normalize();
                acc.wire_len()
            })
            .sum();
        prop_assert_eq!(ExactVec::from_slice(&xs).wire_len(), dense);
        prop_assert_eq!(ExactVec::wire_len_of(&xs), dense);
    }

    /// The intra-run parallel reproducible sum is bitwise equal to the
    /// serial sum for every thread-count hint.
    #[test]
    fn reproducible_sum_thread_hint_invariant(xs in vec(summable(), 0..2000)) {
        use fpna_summation::parallel::reproducible_threaded_sum;
        let serial = reproducible_threaded_sum(&xs, 1);
        prop_assert_eq!(serial.to_bits(), exact_sum(&xs).to_bits());
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(
                reproducible_threaded_sum(&xs, threads).to_bits(),
                serial.to_bits(),
                "threads={}", threads
            );
        }
    }
}

/// `digit · 2^(32·limb − 1074)`: one balanced digit in one limb of the
/// accumulator's frame. Exact for `|digit| ≤ 2³¹` up to limb 64.
fn limb_value(limb: usize, digit: i64) -> f64 {
    let k = 32 * limb as i64 - 1074;
    let pow2 = if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    };
    digit as f64 * pow2
}

/// A one-element `ExactVec` and the dense accumulator it must equal,
/// put through the same operations.
#[derive(Clone)]
struct Twin {
    packed: ExactVec,
    dense: ExactAccumulator,
    case: String,
}

impl Twin {
    /// The exact sum of `xs`: `from_slice` of the first value, then one
    /// `add` per value.
    fn sum(xs: &[f64], case: &str) -> Twin {
        let mut t = Twin {
            packed: ExactVec::from_slice(&xs[..1]),
            dense: ExactAccumulator::new(),
            case: case.to_string(),
        };
        t.dense.add(xs[0]);
        t.dense.normalize();
        t.check("from_slice");
        for &x in &xs[1..] {
            t.add(x);
        }
        t
    }

    fn add(&mut self, x: f64) {
        self.packed.add(&[x]);
        self.dense.add(x);
        self.dense.normalize();
        self.check(&format!("add({x:e})"));
    }

    fn merge(&mut self, other: &Twin) {
        self.packed.merge(&other.packed);
        self.dense.merge(&other.dense);
        self.dense.normalize();
        self.check("merge");
    }

    fn check(&self, op: &str) {
        let element = self.packed.iter().next().expect("one element");
        assert!(
            element.state_eq(&self.dense),
            "{}, {op}: {element:?} != {:?}",
            self.case,
            self.dense
        );
        assert_eq!(
            self.packed.wire_len(),
            self.dense.wire_len(),
            "{}, {op}",
            self.case
        );
    }

    /// One past the top occupied limb (0 for zero).
    fn top(&self) -> usize {
        self.dense.span().map_or(0, |(_, hi)| hi)
    }
}

/// Fold `op` into an element summing `elem`, once value by value
/// through `add` and once as a packed sum through `merge` (both
/// orders). Returns the `add` result.
fn add_and_merge(elem: &[f64], op: &[f64], case: &str) -> Twin {
    let mut added = Twin::sum(elem, case);
    for &x in op {
        added.add(x);
    }
    let operand = Twin::sum(op, case);
    let mut merged = Twin::sum(elem, case);
    merged.merge(&operand);
    let mut swapped = operand;
    swapped.merge(&Twin::sum(elem, case));
    added
}

/// The window kernel at its edges, checked with `state_eq` against
/// dense accumulators.
///
/// `assign` and `wire_len_of` take every biased exponent 0..=2046, both
/// signs and three mantissas: the implicit bit alone (zero for the
/// subnormal exponent), all ones, and one with bits 31 and 63 of the
/// shifted chunk set where the mantissa reaches them, so the lower
/// digits carry upward (at shift 11 into the third digit, which the
/// raw split leaves zero).
///
/// `add` and `merge` take an element of extreme digits (`2³¹ − 1`, or
/// `−2³¹` on the negative side) in limbs `lo..lo + len`, against an
/// operand whose split starts at `lo − δ` for `δ` in −3..=3 and puts a
/// digit of the element's sign in each of its three limbs. The combined
/// span runs from within the window's width through exactly its width,
/// where the carry ripples through every limb into the fourth lane, to
/// one limb wider and beyond, where it falls back. Each case is also
/// cancelled to zero. Last, the top of the range: an element doubled
/// from ±`f64::MAX` by self-merges until its top limb is 69, with
/// `add` and `merge` of values at limb 63 and below at every step, so
/// the window crosses into the limbs near 70 where it must fall back.
#[test]
fn window_edges_match_dense_accumulators() {
    // assign / wire_len_of
    let mut singles = Vec::new();
    for biased in 0u64..=2046 {
        let shift = biased.saturating_sub(1) % 32;
        let mut carry = 1 << (31 - shift);
        if shift >= 12 {
            carry |= 1 << (63 - shift);
        }
        for frac in [0, (1 << 52) - 1, carry] {
            for sign in [0, 1u64 << 63] {
                singles.push(f64::from_bits(sign | biased << 52 | frac));
            }
        }
    }
    let packed = ExactVec::from_slice(&singles);
    assert_eq!(packed.len(), singles.len());
    let mut total = 0;
    for (element, &x) in packed.iter().zip(&singles) {
        let mut want = ExactAccumulator::new();
        want.add(x);
        want.normalize();
        assert!(element.state_eq(&want), "assign({x:e})");
        assert_eq!(
            ExactVec::wire_len_of(&[x]),
            want.wire_len(),
            "wire_len_of({x:e})"
        );
        total += want.wire_len();
    }
    assert_eq!(packed.wire_len(), total);
    assert_eq!(ExactVec::wire_len_of(&singles), total);

    // add / merge on both sides of the window's width
    let window = ExactVec::WINDOW;
    let (mut carried_at_width, mut carried_past_width) = (0, 0);
    for base in [3, 20, 40, 58] {
        for delta in -3i64..=3 {
            for len in 1..=window + 1 {
                for sign in [1i64, -1] {
                    let lo = (base as i64 + delta) as usize;
                    let digit = if sign > 0 { (1 << 31) - 1 } else { -(1 << 31) };
                    let mut elem: Vec<f64> = (lo..lo + len).map(|l| limb_value(l, digit)).collect();
                    // Split at `base`, shift 12: digits 2¹², 1, 1.
                    let mantissa = 1.0 + 2f64.powi(-32) + 2f64.powi(-52);
                    let op = sign as f64 * mantissa * limb_value(base + 2, 1);
                    let case = format!("base {base}, delta {delta}, len {len}, sign {sign}");
                    let sum = add_and_merge(&elem, &[op], &case);
                    let (first, top) = (lo.min(base), (lo + len).max(base + 3));
                    let carried = sum.top() > top;
                    carried_at_width += usize::from(carried && top - first == window);
                    carried_past_width += usize::from(carried && top - first == window + 1);
                    elem.push(op);
                    let neg: Vec<f64> = elem.iter().map(|&x| -x).collect();
                    let zero = add_and_merge(&elem, &neg, &format!("{case}, cancelled"));
                    assert_eq!(zero.packed.wire_len(), 2, "{case}: cancels to zero");
                }
            }
        }
    }
    assert!(
        carried_at_width > 0,
        "no case carries out of a span of exactly the window's width"
    );
    assert!(
        carried_past_width > 0,
        "no case carries out of a span one limb wider"
    );

    // the top of the range
    for sign in [1.0, -1.0] {
        let mut big = Twin::sum(&[sign * f64::MAX], "top");
        while big.top() < 70 {
            let copy = big.clone();
            big.merge(&copy);
            big.case = format!("top {} (sign {sign})", big.top());
            for op in [f64::MAX, -f64::MAX, limb_value(63, 1), -1.0, 1e-300] {
                let mut added = big.clone();
                added.add(op);
                let mut merged = big.clone();
                merged.merge(&Twin::sum(&[op, sign * f64::MAX], &big.case));
            }
        }
        let (lo, hi) = big.dense.span().expect("nonzero");
        assert!(lo >= 67 && hi == 70, "the top element spans {lo}..{hi}");
    }
}
