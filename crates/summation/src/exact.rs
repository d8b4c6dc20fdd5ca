//! Exact (Kulisch-style) long-accumulator summation.
//!
//! The strongest fix for FPNA is to make the sum *exact*: accumulate
//! every mantissa into a fixed-point register wide enough to cover the
//! entire `f64` exponent range (~2100 bits), so addition becomes
//! integer arithmetic — associative, commutative, and therefore
//! bitwise reproducible under any permutation or parallel schedule.
//! This is the idea behind reproducible-summation libraries in the
//! ReproBLAS lineage (Ahrens–Demmel–Nguyen, reference 2 of the paper);
//! the long-accumulator variant trades memory (a few hundred bytes) for
//! unconditional exactness.
//!
//! The accumulator stores 32 value bits per `i64` limb, leaving 31 bits
//! of headroom so up to 2²⁸ values can be added between carry
//! normalisations.
//!
//! ```
//! use fpna_summation::ExactAccumulator;
//!
//! let xs = [1e16, 1.0, -1e16, 1.0];
//! let mut acc = ExactAccumulator::new();
//! for &x in &xs { acc.add(x); }
//! assert_eq!(acc.round(), 2.0); // serial f64 summation would return 0.0
//! ```

/// Number of limbs: bit positions run from 0 (2⁻¹⁰⁷⁴) to
/// 2045 + 53 = 2098 (top bit of the largest finite double), plus
/// headroom for carries out of the top.
const LIMBS: usize = 70;

/// Value bits per limb.
const LIMB_BITS: u32 = 32;

/// Spans ending at or below this limb convert to `f64` unscaled: a
/// balanced digit (|d| ≤ 2³¹) in limb 64 weighs at most 2¹⁰⁰⁵.
const UNSCALED_HI: usize = 65;

/// Scale-down, in bits, of [`ExactAccumulator::round`] for spans above
/// [`UNSCALED_HI`]: five limbs, so a digit in the top limb (69) weighs
/// at most 2¹⁰⁰⁵.
const SCALE_BITS: i32 = 5 * LIMB_BITS as i32;

/// Adds allowed between normalisations: each add contributes < 2³²
/// per limb and limbs hold i64, so 2²⁸ keeps |limb| < 2⁶⁰.
const NORMALIZE_EVERY: u32 = 1 << 28;

/// Exact fixed-point accumulator for `f64` values.
///
/// `add` is exact; [`ExactAccumulator::round`] converts the canonical
/// fixed-point value back to the nearest `f64` (faithful to ≤ 1 ulp,
/// deterministic). Because the internal state after any sequence of
/// adds depends only on the *multiset* of inputs, two accumulators fed
/// the same values in different orders are bit-for-bit equal.
///
/// ## Sparse limb span
///
/// Alongside the 70 limbs the accumulator maintains the occupied
/// window `[lo, hi)` — an index interval guaranteed to be a superset
/// of the nonzero limbs (each `add` touches three consecutive limbs;
/// maintaining the hull is one `min` and one `max`). Small-dynamic-
/// range data occupies a handful of limbs, so `normalize`, `round`,
/// `is_zero` and `merge` walk ~6 limbs instead of 70 — the fixed cost
/// that dominates per-element exact pipelines and reproducible
/// collectives. `normalize` tightens the span to the exact nonzero
/// hull; the zero value is represented as the empty span
/// `lo = LIMBS, hi = 0`.
#[derive(Debug, Clone)]
pub struct ExactAccumulator {
    limbs: [i64; LIMBS],
    pending: u32,
    /// First possibly-nonzero limb (inclusive). `LIMBS` when empty.
    lo: u32,
    /// Last possibly-nonzero limb (exclusive). `0` when empty.
    hi: u32,
}

impl Default for ExactAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactAccumulator {
    /// Dense serialized size of the accumulator state: the documented
    /// **upper bound** on what a message carrying one exact per-element
    /// accumulator occupies on a wire. `WIRE_BYTES / 8` is the
    /// worst-case bandwidth inflation over shipping a plain `f64`.
    ///
    /// The wire format the fabric prices is span-encoded — a 2-byte
    /// `[lo, hi)` header plus only the occupied limbs — so real
    /// payloads are far smaller for small-dynamic-range data
    /// (`2 + 8·span ≤ 2 + WIRE_BYTES` bytes);
    /// [`ExactAccumulator::wire_len`] reports the encoded size, and
    /// [`ExactVec`] holds values in that layout.
    pub const WIRE_BYTES: usize = LIMBS * std::mem::size_of::<i64>();

    /// Empty accumulator (value zero).
    pub fn new() -> Self {
        ExactAccumulator {
            limbs: [0; LIMBS],
            pending: 0,
            lo: LIMBS as u32,
            hi: 0,
        }
    }

    /// Add a finite `f64` exactly.
    ///
    /// The hot path is branch-free after the finiteness check: the
    /// value is split into one signed chunk whose three 32-bit digits
    /// are always scattered into three consecutive limbs (zero digits
    /// add zero — cheaper than testing for them).
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input — an exact sum of non-finite
    /// values is undefined.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let (limb, chunk) = split(x);
        self.add_chunk(limb, chunk);
    }

    /// Scatter a [`split`] chunk into limbs `limb..limb + 3`: the two
    /// lower digits zero-extended, the top digit taken with an
    /// arithmetic shift so it carries the sign. The digits sum back to
    /// the chunk exactly.
    #[inline]
    fn add_chunk(&mut self, limb: usize, chunk: i128) {
        // One slice bounds check instead of three element checks.
        let window = &mut self.limbs[limb..limb + 3];
        window[0] += (chunk as u32) as i64;
        window[1] += ((chunk >> LIMB_BITS) as u32) as i64;
        window[2] += (chunk >> (2 * LIMB_BITS)) as i64;
        self.lo = self.lo.min(limb as u32);
        self.hi = self.hi.max(limb as u32 + 3);
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Add every element of a slice exactly — the bulk hot loop behind
    /// [`exact_sum`] and the reproducible parallel/collective paths.
    ///
    /// Exactly equivalent to calling [`ExactAccumulator::add`] per
    /// element (the canonical state, [`ExactAccumulator::round`] and
    /// every merge downstream are bitwise identical); the speed comes
    /// from **exponent binning**: elements are first accumulated as
    /// `bins[biased_exp] ± mantissa` — one integer add and no shifts
    /// per element — and the handful of touched bins (the exponent
    /// hull of the data) is scattered into the limbs once per 1024
    /// elements. The mantissa magnitude is below 2⁵³, so 1024 signed
    /// adds can never overflow a bin.
    ///
    /// The element loop is written as two fixed-width lane passes so
    /// it autovectorizes: pass 1 extracts `(exponent, ±mantissa)` and
    /// the block's exponent hull for a 64-element lane block
    /// branch-free (pure shifts/masks plus a min/max reduction — SIMD
    /// across lanes), pass 2 scatters into **8 interleaved sub-bins
    /// per exponent** (`bins[8e + (i mod 8)]`, unrolled), which breaks
    /// the store-to-load dependency chain a run of same-exponent
    /// elements would otherwise serialize on. Integer addition is
    /// associative and commutative and no sub-bin can overflow (≤ 1024
    /// summands below 2⁵³), so summing the sub-bins at flush
    /// reproduces the single-bin total bit for bit — the canonical
    /// state is **bitwise identical** to
    /// [`ExactAccumulator::add_slice_scalar`] (the property suite
    /// diffs them on adversarial streams).
    ///
    /// The bin table is a thread-local scratch reused across calls.
    /// That reuse is sound because the table is all-zero at every exit
    /// point: each flush re-zeroes exactly the hull its batch wrote,
    /// and the only panic (the finiteness check, read off the fused
    /// hull max) re-zeroes whatever hull its batch had scattered
    /// before it fires.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input.
    pub fn add_slice(&mut self, xs: &[f64]) {
        /// Elements per bin-flush cycle: `1024 · (2⁵³ − 1) < 2⁶³` keeps
        /// every bin (and every sub-bin) exactly representable.
        const FLUSH_EVERY: usize = 1024;
        /// Below this length the binned path's setup is not worth it.
        const BINNED_MIN: usize = 1024;
        /// Extraction-pass lane width.
        const LANES: usize = 64;
        /// Interleaved sub-bins per exponent — enough independent
        /// accumulation chains to hide store-forwarding latency.
        const WAYS: usize = 8;
        if xs.len() < BINNED_MIN {
            for &x in xs {
                self.add(x);
            }
            return;
        }
        std::thread_local! {
            /// WAYS sub-bins per biased exponent (0..=2046; 2047 is
            /// non-finite and rejected per batch below). All-zero
            /// between `add_slice` calls — see the method docs.
            static BINS: std::cell::RefCell<Vec<i64>> =
                std::cell::RefCell::new(vec![0i64; 2048 * WAYS]);
        }
        BINS.with(|cell| {
            let mut bins_guard = cell.borrow_mut();
            let bins = bins_guard.as_mut_slice();
            let mut es = [0u32; LANES];
            let mut ms = [0i64; LANES];
            for batch in xs.chunks(FLUSH_EVERY) {
                let mut blo = 2048usize;
                let mut bhi = 0usize;
                for chunk in batch.chunks(LANES) {
                    let n = chunk.len();
                    // Pass 1: branch-free field extraction into fixed
                    // lanes (`(m ^ s) − s` is the branchless
                    // ±mantissa) with a fused exponent-hull reduction.
                    let (mut clo, mut chi) = (0x7ffu32, 0u32);
                    for (j, &x) in chunk.iter().enumerate() {
                        let bits = x.to_bits();
                        let e = ((bits >> 52) & 0x7ff) as u32;
                        let frac = bits & 0x000f_ffff_ffff_ffff;
                        let mant = (frac | (u64::from(e != 0) << 52)) as i64;
                        let sm = -((bits >> 63) as i64);
                        es[j] = e;
                        ms[j] = (mant ^ sm) - sm;
                        clo = clo.min(e);
                        chi = chi.max(e);
                    }
                    // Finiteness check for free off the fused hull max
                    // (a NaN/inf has biased exponent 0x7ff), *before*
                    // this chunk scatters. Earlier chunks of the batch
                    // may have written `bins` already, so the cold
                    // panic path re-zeroes the hull written so far to
                    // keep the thread-local table clean.
                    if chi == 0x7ff {
                        if blo < bhi {
                            bins[blo * WAYS..bhi * WAYS].fill(0);
                        }
                        panic!("ExactAccumulator::add requires finite input");
                    }
                    blo = blo.min(clo as usize);
                    bhi = bhi.max(chi as usize + 1);
                    // Pass 2: scatter through WAYS independent chains.
                    // The full-block arm is unrolled so each sub-bin
                    // stream is explicit; the tail arm computes the
                    // same `j mod WAYS` mapping.
                    if n == LANES {
                        for g in 0..LANES / WAYS {
                            let j = g * WAYS;
                            bins[es[j] as usize * WAYS] += ms[j];
                            bins[es[j + 1] as usize * WAYS + 1] += ms[j + 1];
                            bins[es[j + 2] as usize * WAYS + 2] += ms[j + 2];
                            bins[es[j + 3] as usize * WAYS + 3] += ms[j + 3];
                            bins[es[j + 4] as usize * WAYS + 4] += ms[j + 4];
                            bins[es[j + 5] as usize * WAYS + 5] += ms[j + 5];
                            bins[es[j + 6] as usize * WAYS + 6] += ms[j + 6];
                            bins[es[j + 7] as usize * WAYS + 7] += ms[j + 7];
                        }
                    } else {
                        for j in 0..n {
                            bins[(es[j] as usize) * WAYS + (j & (WAYS - 1))] += ms[j];
                        }
                    }
                }
                // Scatter the touched exponent hull into the limbs.
                // Each bin total is a signed multiple of
                // 2^(offset − 1074) below 2⁶³ in magnitude, so it
                // lands in three consecutive limbs exactly like a
                // single add (lower digits zero-extended, top digit
                // arithmetic so it carries the sign) and charges one
                // unit of normalization headroom.
                let mut flushed = 0u32;
                let mut lo = self.lo;
                let mut hi = self.hi;
                for i in blo..bhi.max(blo) {
                    // Refold the sub-bins: same summands, integer adds
                    // — exactly the single-bin total. Sub-bins that
                    // cancel to zero still need resetting.
                    let w = &mut bins[i * WAYS..(i + 1) * WAYS];
                    let msum = w.iter().sum::<i64>();
                    w.fill(0);
                    if msum == 0 {
                        continue;
                    }
                    let offset = (i as u32).saturating_sub(1);
                    // `offset ≤ 2046` ⇒ `limb ≤ 63`; the mask is a
                    // no-op that lets the compiler drop the slice
                    // bounds check.
                    let limb = ((offset / LIMB_BITS) as usize) & 63;
                    let shift = offset % LIMB_BITS;
                    let chunk = (msum as i128) << shift; // ≤ 94 bits
                    let window = &mut self.limbs[limb..limb + 3];
                    window[0] += (chunk as u32) as i64;
                    window[1] += ((chunk >> LIMB_BITS) as u32) as i64;
                    window[2] += (chunk >> (2 * LIMB_BITS)) as i64;
                    lo = lo.min(limb as u32);
                    hi = hi.max(limb as u32 + 3);
                    flushed += 1;
                }
                self.lo = lo;
                self.hi = hi;
                self.pending = self.pending.saturating_add(flushed);
                if self.pending >= NORMALIZE_EVERY {
                    self.normalize();
                }
            }
        });
    }

    /// The pre-lane-loop `add_slice`: single-bin exponent binning with
    /// a scalar element loop. Kept verbatim as the reference the
    /// property suite diffs the vectorized [`ExactAccumulator::add_slice`]
    /// against — the two must leave **bitwise identical** state for
    /// every finite input stream.
    #[doc(hidden)]
    pub fn add_slice_scalar(&mut self, xs: &[f64]) {
        const FLUSH_EVERY: usize = 1024;
        const BINNED_MIN: usize = 1024;
        if xs.len() < BINNED_MIN {
            for &x in xs {
                self.add(x);
            }
            return;
        }
        let mut bins = vec![0i64; 2048];
        for batch in xs.chunks(FLUSH_EVERY) {
            assert!(
                batch.iter().all(|x| x.is_finite()),
                "ExactAccumulator::add requires finite input"
            );
            let mut blo = bins.len();
            let mut bhi = 0usize;
            for &x in batch {
                let bits = x.to_bits();
                let e = ((bits >> 52) & 0x7ff) as usize;
                let frac = bits & 0x000f_ffff_ffff_ffff;
                let mant = (frac | ((u64::from(e != 0)) << 52)) as i64;
                let sm = -((bits >> 63) as i64);
                bins[e] += (mant ^ sm) - sm;
                blo = blo.min(e);
                bhi = bhi.max(e + 1);
            }
            let mut flushed = 0u32;
            let mut lo = self.lo;
            let mut hi = self.hi;
            for (i, bin) in bins[blo..bhi.max(blo)].iter_mut().enumerate() {
                let msum = *bin;
                if msum == 0 {
                    continue;
                }
                *bin = 0;
                let offset = ((blo + i) as u32).saturating_sub(1);
                let limb = ((offset / LIMB_BITS) as usize) & 63;
                let shift = offset % LIMB_BITS;
                let chunk = (msum as i128) << shift;
                let window = &mut self.limbs[limb..limb + 3];
                window[0] += (chunk as u32) as i64;
                window[1] += ((chunk >> LIMB_BITS) as u32) as i64;
                window[2] += (chunk >> (2 * LIMB_BITS)) as i64;
                lo = lo.min(limb as u32);
                hi = hi.max(limb as u32 + 3);
                flushed += 1;
            }
            self.lo = lo;
            self.hi = hi;
            self.pending = self.pending.saturating_add(flushed);
            if self.pending >= NORMALIZE_EVERY {
                self.normalize();
            }
        }
    }

    /// Merge another accumulator into this one (exact; used by the
    /// parallel reproducible sum and the reproducible collectives).
    ///
    /// Never clones: only `other`'s occupied span is folded in, the
    /// spans are unioned, and carry propagation stays deferred. The
    /// headroom bookkeeping charges a canonical right-hand side
    /// (`pending == 0`, every limb below 2³¹ — e.g. it arrived
    /// serialized off the wire, or a worker normalized its partial
    /// before hand-off) like two adds; a raw right-hand side carries
    /// its own `pending` count, so limb magnitudes stay bounded even
    /// when **both** sides are non-canonical.
    pub fn merge(&mut self, other: &ExactAccumulator) {
        if other.lo >= other.hi {
            // The span is a superset of the nonzero limbs, so an empty
            // span means `other` is exactly zero.
            return;
        }
        let (olo, ohi) = (other.lo as usize, other.hi as usize);
        self.merge_limbs(olo, &other.limbs[olo..ohi], other.pending);
    }

    /// The body of [`ExactAccumulator::merge`]: fold the occupied
    /// limbs `limbs` of an operand whose span starts at `lo` and which
    /// carries `pending` adds — an `ExactAccumulator`'s own `i64`
    /// limbs, or an [`ExactVec`] element's canonical `i32` ones.
    fn merge_limbs<L: Copy + Into<i64>>(&mut self, lo: usize, limbs: &[L], pending: u32) {
        if limbs.is_empty() {
            return;
        }
        let hi = lo + limbs.len();
        for (a, &b) in self.limbs[lo..hi].iter_mut().zip(limbs) {
            *a += b.into();
        }
        self.lo = self.lo.min(lo as u32);
        self.hi = self.hi.max(hi as u32);
        // Each side's limbs are bounded by `pending · 2³² + 2³¹`, so
        // summing the pending counts keeps the bound valid; both
        // operands sit far below `NORMALIZE_EVERY`, so the fold cannot
        // overflow an i64 before the normalize below runs.
        self.pending = self.pending.saturating_add(pending.max(2));
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Carry-propagate into the canonical *balanced-digit* form: every
    /// limb ends in `[−2^31, 2^31)`. Balanced digits keep the index of
    /// the top nonzero limb aligned with the true magnitude for both
    /// signs (a two's-complement style form would fill all upper limbs
    /// for negative totals and overflow the `f64` conversion). The
    /// canonical form is a pure function of the exact accumulated
    /// value, which is what makes `round` permutation invariant.
    ///
    /// Only the occupied span `[lo, hi)` is walked (limbs outside it
    /// are zero by invariant, and processing a zero limb with zero
    /// carry is the identity), plus however far the final carry
    /// ripples; afterwards the span is tightened to the exact nonzero
    /// hull. The walk is one serial carry chain with no scratch
    /// arrays, so its cost tracks the span, for a long-lived
    /// accumulator and for each element [`ExactVec`]'s fallback path
    /// cycles through alike.
    ///
    /// Public so producers can canonicalize *before* a hand-off (worker
    /// partials, serialized wire messages), which keeps every limb
    /// small and the wire encoding tight.
    pub fn normalize(&mut self) {
        // The base is a power of two, so the euclidean quotient and
        // remainder are an arithmetic shift and a mask; the balanced
        // adjustment (fold remainders >= 2^31 into the next carry) is a
        // comparison turned into a 0/1 chunk, keeping the whole carry
        // chain branch-free.
        const BASE: i64 = 1i64 << LIMB_BITS;
        const HALF: i64 = BASE / 2;
        const MASK: i64 = BASE - 1;
        self.pending = 0;
        if self.lo >= self.hi {
            self.lo = LIMBS as u32;
            self.hi = 0;
            return;
        }
        let lo = self.lo as usize;
        let hi = self.hi as usize;
        let mut carry = 0i64;
        let mut i = lo;
        while i < hi || (carry != 0 && i < LIMBS) {
            let v = self.limbs[i] + carry;
            let r = v & MASK;
            let q = v >> LIMB_BITS;
            let adj = i64::from(r >= HALF);
            self.limbs[i] = r - (adj << LIMB_BITS);
            carry = q + adj;
            i += 1;
        }
        debug_assert_eq!(carry, 0, "accumulator overflow");
        let mut new_lo = lo;
        let mut new_hi = i;
        while new_lo < new_hi && self.limbs[new_lo] == 0 {
            new_lo += 1;
        }
        while new_hi > new_lo && self.limbs[new_hi - 1] == 0 {
            new_hi -= 1;
        }
        if new_lo >= new_hi {
            self.lo = LIMBS as u32;
            self.hi = 0;
        } else {
            self.lo = new_lo as u32;
            self.hi = new_hi as u32;
        }
    }

    /// `true` when the exact value is zero.
    pub fn is_zero(&self) -> bool {
        if self.pending == 0 {
            // Canonical: the span is tight, so zero ⇔ empty span.
            return self.limbs[self.lo as usize..self.hi.max(self.lo) as usize]
                .iter()
                .all(|&l| l == 0);
        }
        let mut probe = self.clone();
        probe.normalize();
        probe.lo >= probe.hi
    }

    /// Round the exact value to the nearest `f64` (faithful, ≤ 1 ulp;
    /// deterministic function of the accumulated multiset).
    pub fn round(&self) -> f64 {
        let probe;
        let acc = if self.pending == 0 {
            self
        } else {
            probe = {
                let mut p = self.clone();
                p.normalize();
                p
            };
            &probe
        };
        // A span reaching limb `UNSCALED_HI` converts at 2^-SCALE_BITS
        // and rescales once: that limb alone can convert to 2^1024
        // (inf) while the value is finite — `f64::MAX` is 2^18 in limb
        // 65 less 2^29 in limb 63 — and an inf term turns the
        // compensation into NaN. Scaling by a power of two is exact
        // for every term that can move the result; the terms it
        // flushes below 2^-1074 are over 2^2000 times smaller than the
        // value.
        let hi = acc.hi.max(acc.lo) as usize;
        if hi <= UNSCALED_HI {
            acc.convert::<0>(hi)
        } else {
            acc.convert::<SCALE_BITS>(hi) * pow2(SCALE_BITS)
        }
    }

    /// Compensated top-down conversion of limbs `lo..hi` to `f64`,
    /// each term scaled by `2^-SHIFT` (a constant, so the common
    /// unscaled loop compiles exactly as if the shift were absent).
    /// Limbs outside the span contribute nothing; terms decay by 2^-32
    /// per limb, so the first three nonzero limbs already determine the
    /// result, and Neumaier compensation absorbs the tail exactly.
    fn convert<const SHIFT: i32>(&self, hi: usize) -> f64 {
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        for i in (self.lo as usize..hi).rev() {
            let l = self.limbs[i];
            if l == 0 {
                continue;
            }
            let term = l as f64 * pow2(32 * i as i32 - 1074 - SHIFT);
            let t = sum + term;
            if sum.abs() >= term.abs() {
                comp += (sum - t) + term;
            } else {
                comp += (term - t) + sum;
            }
            sum = t;
        }
        sum + comp
    }

    /// Encoded size in bytes of the span-encoded wire format — a
    /// 2-byte `[lo, hi)` header followed by the occupied limbs as
    /// `i64`s — for the current span: `2 + 8·(hi − lo)`, and 2 for
    /// zero. Tight after a [`ExactAccumulator::normalize`]; a loose
    /// span only overestimates (never under), so cost models stay
    /// safe.
    pub fn wire_len(&self) -> usize {
        let span = self.hi.saturating_sub(self.lo) as usize;
        2 + std::mem::size_of::<i64>() * span
    }

    /// The occupied limb span `[lo, hi)`, or `None` for the empty
    /// span. Exposed for the span-invariant property tests.
    #[doc(hidden)]
    pub fn span(&self) -> Option<(usize, usize)> {
        (self.lo < self.hi).then_some((self.lo as usize, self.hi as usize))
    }

    /// `true` when the span invariant holds: every nonzero limb lies
    /// inside `[lo, hi)`. Exposed for the property tests.
    #[doc(hidden)]
    pub fn span_covers_nonzero(&self) -> bool {
        self.limbs
            .iter()
            .enumerate()
            .all(|(i, &l)| l == 0 || ((self.lo as usize) <= i && i < self.hi as usize))
    }

    /// Bitwise state equality (limbs, span, pending) — for the tests
    /// that diff two paths' canonical states.
    #[doc(hidden)]
    pub fn state_eq(&self, other: &ExactAccumulator) -> bool {
        self.limbs == other.limbs
            && self.pending == other.pending
            && self.lo == other.lo
            && self.hi == other.hi
    }
}

/// The exact split of a finite `f64` that [`ExactAccumulator::add`]
/// scatters and [`ExactVec`] folds: `(limb, chunk)` with
/// `x = chunk · 2^(32·limb − 1074)`, `|chunk| < 2⁸⁵` and `limb ≤ 63`.
///
/// The mantissa is placed as one 128-bit chunk, and the sign applied
/// as a branchless conditional negate of the whole chunk (`(c ^ m) −
/// m` with an all-ones/zero mask) instead of a sign multiply per
/// digit.
///
/// # Panics
///
/// Panics on NaN or infinite input.
#[inline]
fn split(x: f64) -> (usize, i128) {
    assert!(x.is_finite(), "ExactAccumulator::add requires finite input");
    let bits = x.to_bits();
    let biased_exp = (bits >> 52) & 0x7ff;
    let frac = bits & 0x000f_ffff_ffff_ffff;
    // value = mantissa * 2^(offset - 1074), offset = bit position of
    // the mantissa's LSB in the accumulator's fixed-point frame.
    // Normal numbers carry the implicit leading bit and offset
    // `biased_exp - 1`; subnormals have no leading bit and offset 0
    // — `saturating_sub` covers both without a branch.
    let mantissa = frac | ((u64::from(biased_exp != 0)) << 52);
    let offset = (biased_exp.saturating_sub(1)) as u32;
    let neg_mask = -((bits >> 63) as i128);
    let chunk = ((((mantissa as u128) << (offset % LIMB_BITS)) as i128) ^ neg_mask) - neg_mask; // <= 85 bits
    ((offset / LIMB_BITS) as usize, chunk)
}

/// 2^k as f64, valid for the accumulator's exponent range.
fn pow2(k: i32) -> f64 {
    // f64::powi(2.0, k) is exact for |k| <= 1023; below that we build
    // subnormals by halving, which is also exact.
    if k >= -1022 {
        2.0f64.powi(k)
    } else {
        2.0f64.powi(-1022) * 2.0f64.powi(k + 1022)
    }
}

impl FromIterator<f64> for ExactAccumulator {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = ExactAccumulator::new();
        for x in iter {
            acc.add(x);
        }
        acc
    }
}

/// A vector of canonical exact values, **span-packed**: per element a
/// header word `lo | len << 8` followed by that element's `len`
/// occupied limbs, all in one contiguous buffer.
///
/// This is the span-encoded wire format of [`ExactAccumulator::wire_len`]
/// laid out in memory — the same span header and occupied limbs, the limbs held as `i32`
/// because canonical limbs lie in `[−2³¹, 2³¹)` — so a vector of
/// small-dynamic-range values occupies about what it costs on a wire
/// (~16 B per element in memory, ~26 B priced) instead of a dense
/// accumulator's 576 B, and [`ExactVec::wire_len`] is O(1).
///
/// ## The window pass
///
/// `assign`, `add`, `merge` and `wire_len_of` fold each element in a
/// window of four 32-bit lanes held in one `u128`, instead of a 70-limb
/// accumulator. The window starts at the lowest limb either operand
/// occupies. It takes the element's limbs and the incoming value's
/// split, the signed chunk whose three digits `ExactAccumulator::add`
/// scatters (for `merge`, the other element's limbs). One 128-bit add
/// runs the balanced carry, the lanes then hold the canonical digits,
/// and `trailing_zeros`/`leading_zeros` of that bit pattern give the
/// nonzero hull. The header and the hull's limbs are appended to the
/// output; `wire_len_of` only reads the hull's length. Three lanes hold
/// the combined span and the fourth the carry out of the top, which is
/// all a sum of two canonical three-limb values can need. Every
/// element of the `fabric_exact` perfbench workload fits.
///
/// An element whose combined span is wider than three limbs, or whose
/// carry lane would be limb 70 (past the accumulator's last), falls
/// back to a stack [`ExactAccumulator`]: load the span, `add` or
/// `merge`, `normalize`, emit, zero it again. Canonical digits are
/// unique, so both paths store exactly the state the dense accumulator
/// reaches through the same `add`/`merge` calls followed by a
/// `normalize`. `tests/proptest_exact.rs` diffs every operation against
/// dense accumulators on adversarial streams, and a table test walks
/// every exponent through `assign`/`wire_len_of` and both sides of the
/// window's width, full cancellation and the top limbs through
/// `add`/`merge`.
///
/// ```
/// use fpna_summation::exact::ExactVec;
///
/// let mut v = ExactVec::from_slice(&[1e16, 0.5]);
/// v.add(&[1.0, 0.25]);
/// v.merge(&ExactVec::from_slice(&[-1e16, 0.25]));
/// assert_eq!(v.round(), vec![1.0, 1.0]);
/// ```
#[derive(Debug, Default)]
pub struct ExactVec {
    /// Element headers and limbs, back to back.
    words: Vec<i32>,
    /// Element count.
    len: usize,
    /// Output buffer of the element-wise updates, swapped with `words`
    /// after each pass so both capacities are reused.
    spare: Vec<i32>,
}

impl Clone for ExactVec {
    fn clone(&self) -> Self {
        ExactVec {
            words: self.words.clone(),
            len: self.len,
            spare: Vec::new(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.words.clone_from(&src.words);
        self.len = src.len;
    }
}

impl ExactVec {
    /// Widest combined span, in limbs, that `add` and `merge` fold in
    /// the window; one more lane takes the carry out of the top.
    #[doc(hidden)]
    pub const WINDOW: usize = 3;

    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact values of `xs`, one element each.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut v = Self::new();
        v.assign(xs);
        v
    }

    /// Replace the contents with the exact values of `xs`, reusing the
    /// buffer's capacity.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input.
    pub fn assign(&mut self, xs: &[f64]) {
        self.words.clear();
        self.len = xs.len();
        for &x in xs {
            let (limb, chunk) = split(x);
            emit_window(limb, chunk as u128, &mut self.words);
        }
    }

    /// Element-wise `self[i] += xs[i]`, exactly.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, or on NaN or infinite input.
    pub fn add(&mut self, xs: &[f64]) {
        assert_eq!(xs.len(), self.len, "ExactVec::add: length mismatch");
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        let mut acc = ExactAccumulator::new();
        for ((lo, limbs), &x) in self.spans().zip(xs) {
            let (limb, chunk) = split(x);
            let base = first_limb(lo, limbs).min(limb);
            if fits_window(base, (lo + limbs.len()).max(limb + 3)) {
                let v = lanes(lo, limbs, base).wrapping_add(chunk as u128);
                emit_window(base, v, &mut out);
            } else {
                acc.load_span(lo, limbs);
                acc.add_chunk(limb, chunk);
                acc.normalize();
                acc.emit_span(&mut out);
            }
        }
        self.spare = std::mem::replace(&mut self.words, out);
    }

    /// Element-wise `self[i] += other[i]`, exactly.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge(&mut self, other: &ExactVec) {
        assert_eq!(other.len, self.len, "ExactVec::merge: length mismatch");
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        let mut acc = ExactAccumulator::new();
        for ((lo, limbs), (olo, olimbs)) in self.spans().zip(other.spans()) {
            let base = first_limb(lo, limbs).min(first_limb(olo, olimbs));
            if fits_window(base, (lo + limbs.len()).max(olo + olimbs.len())) {
                let v = lanes(lo, limbs, base).wrapping_add(lanes(olo, olimbs, base));
                emit_window(base, v, &mut out);
            } else {
                acc.load_span(lo, limbs);
                acc.merge_limbs(olo, olimbs, 0);
                acc.normalize();
                acc.emit_span(&mut out);
            }
        }
        self.spare = std::mem::replace(&mut self.words, out);
    }

    /// Each element rounded to the nearest `f64`
    /// ([`ExactAccumulator::round`]).
    pub fn round(&self) -> Vec<f64> {
        let mut acc = ExactAccumulator::new();
        self.spans()
            .map(|(lo, limbs)| {
                acc.load_span(lo, limbs);
                let x = acc.round();
                acc.clear_span();
                x
            })
            .collect()
    }

    /// Each element unpacked into a dense (canonical) accumulator.
    /// Exposed for the property tests, which diff it against dense
    /// accumulators.
    #[doc(hidden)]
    pub fn iter(&self) -> impl Iterator<Item = ExactAccumulator> + '_ {
        self.spans().map(|(lo, limbs)| {
            let mut acc = ExactAccumulator::new();
            acc.load_span(lo, limbs);
            acc
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Span-encoded wire size of the whole vector: the sum of every
    /// element's [`ExactAccumulator::wire_len`] (a 2-byte header plus
    /// 8 bytes per occupied limb), read off the buffer length.
    pub fn wire_len(&self) -> usize {
        2 * self.len + std::mem::size_of::<i64>() * (self.words.len() - self.len)
    }

    /// [`ExactVec::wire_len`] of `ExactVec::from_slice(xs)`, without
    /// building it.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input.
    pub fn wire_len_of(xs: &[f64]) -> usize {
        xs.iter()
            .map(|&x| {
                let (lo, hi) = hull(carry(split(x).1 as u128));
                2 + std::mem::size_of::<i64>() * hi.saturating_sub(lo)
            })
            .sum()
    }

    /// Each element's `(lo, occupied limbs)`, in order.
    fn spans(&self) -> impl Iterator<Item = (usize, &[i32])> {
        let mut rest = self.words.as_slice();
        std::iter::from_fn(move || {
            let (&header, tail) = rest.split_first()?;
            let (limbs, tail) = tail.split_at((header >> 8) as usize);
            rest = tail;
            Some(((header & 0xff) as usize, limbs))
        })
    }
}

/// First limb of a packed span, `LIMBS` when it is empty, so the
/// lowest limb of two spans is a plain `min`.
fn first_limb(lo: usize, limbs: &[i32]) -> usize {
    if limbs.is_empty() {
        LIMBS
    } else {
        lo
    }
}

/// `true` when a combined span `[base, top)` takes the window pass: at
/// most [`ExactVec::WINDOW`] limbs wide, with the carry lane still
/// inside the accumulator.
fn fits_window(base: usize, top: usize) -> bool {
    top <= base + ExactVec::WINDOW && base + ExactVec::WINDOW < LIMBS
}

/// 2³¹ in each of a window's four 32-bit lanes.
const BIAS: u128 = 0x8000_0000_8000_0000_8000_0000_8000_0000;

/// The value of a packed span relative to limb `base`, as a wrapping
/// `u128`: limb `i` weighs `2^(32·(lo − base + i))`. The span must fit
/// in lanes `0..WINDOW`.
///
/// A canonical limb `d` read as a `u32` and XORed with 2³¹ is
/// `d + 2³¹`, and an empty lane is digit 0, so the limbs' bit
/// patterns laid out as lanes, XORed with [`BIAS`], are the value plus
/// `BIAS`.
#[inline]
fn lanes(lo: usize, limbs: &[i32], base: usize) -> u128 {
    let lane = |l: &i32| u128::from(*l as u32);
    let packed = match limbs {
        [] => return 0,
        [a] => lane(a),
        [a, b] => lane(a) | lane(b) << 32,
        [a, b, c] => lane(a) | lane(b) << 32 | lane(c) << 64,
        _ => unreachable!("a span wider than the window"),
    };
    ((packed << (LIMB_BITS as usize * (lo - base))) ^ BIAS).wrapping_sub(BIAS)
}

/// The canonical digits of a window value `v` (a wrapping `u128`, as
/// from [`lanes`] and [`split`]), one per 32-bit lane as an `i32` bit
/// pattern.
///
/// This is one 128-bit balanced carry. Balanced digits lie in
/// `[−2³¹, 2³¹)`, so a value whose digits fit in four lanes has
/// `v + BIAS` in `[0, 2¹²⁸)`, and the plain base-2³² digits of
/// `v + BIAS` are its balanced digits plus 2³¹ each: the adder runs
/// the carries. XOR with `BIAS` leaves each lane's digit. Two
/// canonical spans of at most three limbs sum to less than 2⁹⁶ in
/// magnitude, so their digits always fit, the fourth lane taking the
/// carry out of the top.
#[inline]
fn carry(v: u128) -> u128 {
    v.wrapping_add(BIAS) ^ BIAS
}

/// Lanes `[lo, hi)` of a window's nonzero hull, read off its digits'
/// bit pattern; `hi ≤ lo` when every digit is zero.
#[inline]
fn hull(digits: u128) -> (usize, usize) {
    let lanes = u128::BITS / LIMB_BITS;
    (
        (digits.trailing_zeros() / LIMB_BITS) as usize,
        (lanes - digits.leading_zeros() / LIMB_BITS) as usize,
    )
}

/// Carry a window value `v` (limb `base + i` in lane `i`) and append
/// it to `out` as one packed element: the header and the nonzero
/// hull's limbs, or a bare zero header.
#[inline]
fn emit_window(base: usize, v: u128, out: &mut Vec<i32>) {
    let digits = carry(v);
    if digits == 0 {
        out.push(0);
        return;
    }
    let (lo, hi) = hull(digits);
    out.push(((base + lo) | (hi - lo) << 8) as i32);
    // One push per limb: a variable-length `extend_from_slice` costs a
    // `memcpy` call per element.
    let mut rest = digits >> (LIMB_BITS as usize * lo);
    for _ in lo..hi {
        out.push(rest as u32 as i32);
        rest >>= LIMB_BITS;
    }
}

/// The span hand-off between a stack accumulator and [`ExactVec`].
/// Each cycle starts and ends on the zero state, so one accumulator
/// (zeroed once) serves a whole element-wise pass.
impl ExactAccumulator {
    /// Load a canonical packed span into a zero accumulator.
    fn load_span(&mut self, lo: usize, limbs: &[i32]) {
        debug_assert!(
            self.lo >= self.hi && self.pending == 0,
            "load needs a zero state"
        );
        if limbs.is_empty() {
            return;
        }
        for (a, &b) in self.limbs[lo..lo + limbs.len()].iter_mut().zip(limbs) {
            *a = b.into();
        }
        self.lo = lo as u32;
        self.hi = (lo + limbs.len()) as u32;
    }

    /// Append the canonical state as a packed `(lo, len)` header plus
    /// its occupied limbs, then zero the accumulator.
    fn emit_span(&mut self, out: &mut Vec<i32>) {
        debug_assert_eq!(self.pending, 0, "emit needs a normalized state");
        if self.lo >= self.hi {
            out.push(0);
            return;
        }
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        out.push((lo | (hi - lo) << 8) as i32);
        out.extend(self.limbs[lo..hi].iter().map(|&l| {
            debug_assert!(i32::try_from(l).is_ok(), "non-canonical limb {l}");
            l as i32
        }));
        self.clear_span();
    }

    /// Zero the occupied span and reset to the empty state.
    fn clear_span(&mut self) {
        if self.lo < self.hi {
            self.limbs[self.lo as usize..self.hi as usize].fill(0);
        }
        self.lo = LIMBS as u32;
        self.hi = 0;
        self.pending = 0;
    }
}

/// Accumulate a slice exactly into one accumulator via the bulk
/// [`ExactAccumulator::add_slice`] loop.
pub(crate) fn accumulate_exact(xs: &[f64]) -> ExactAccumulator {
    let mut acc = ExactAccumulator::new();
    acc.add_slice(xs);
    acc
}

/// Exact, reproducible sum of a slice: the one-shot API.
pub fn exact_sum(xs: &[f64]) -> f64 {
    accumulate_exact(xs).round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::{permutation, SplitMix64};

    #[test]
    fn exact_on_cancelling_data() {
        assert_eq!(exact_sum(&[1e16, 1.0, -1e16, 1.0]), 2.0);
        assert_eq!(exact_sum(&[1.0, 1e100, 1.0, -1e100]), 2.0);
        assert_eq!(exact_sum(&[]), 0.0);
        assert_eq!(exact_sum(&[-0.5]), -0.5);
    }

    #[test]
    fn exact_on_tiny_and_huge() {
        let tiny = f64::MIN_POSITIVE * 0.5; // subnormal
        assert_eq!(exact_sum(&[tiny, tiny]), tiny * 2.0);
        assert_eq!(exact_sum(&[f64::MAX * 0.5, f64::MAX * 0.25]), f64::MAX * 0.75);
        assert_eq!(exact_sum(&[tiny, -tiny]), 0.0);
    }

    #[test]
    fn permutation_invariance_bitwise() {
        let mut rng = SplitMix64::new(42);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| (rng.next_f64() - 0.5) * 10f64.powi((rng.next_below(40) as i32) - 20))
            .collect();
        let reference = exact_sum(&xs);
        for seed in 0..5 {
            let mut prng = SplitMix64::new(seed);
            let perm = permutation(xs.len(), &mut prng);
            let shuffled: Vec<f64> = perm.iter().map(|&i| xs[i as usize]).collect();
            assert_eq!(
                exact_sum(&shuffled).to_bits(),
                reference.to_bits(),
                "exact sum must be permutation invariant (seed {seed})"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut rng = SplitMix64::new(7);
        let a: Vec<f64> = (0..1000).map(|_| rng.next_f64() * 1e6 - 5e5).collect();
        let b: Vec<f64> = (0..1000).map(|_| rng.next_f64() * 1e-6).collect();
        let mut acc_a: ExactAccumulator = a.iter().copied().collect();
        let acc_b: ExactAccumulator = b.iter().copied().collect();
        acc_a.merge(&acc_b);
        let concat: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(acc_a.round().to_bits(), exact_sum(&concat).to_bits());
    }

    #[test]
    fn merge_fast_path_matches_slow_path() {
        let mut rng = SplitMix64::new(21);
        let a: Vec<f64> = (0..2000).map(|_| rng.next_f64() * 1e9 - 5e8).collect();
        let b: Vec<f64> = (0..2000).map(|_| rng.next_f64() * 1e-9).collect();
        let concat: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let expected = exact_sum(&concat);

        // Slow path: rhs has pending adds.
        let mut slow: ExactAccumulator = a.iter().copied().collect();
        let rhs_raw: ExactAccumulator = b.iter().copied().collect();
        slow.merge(&rhs_raw);
        assert_eq!(slow.round().to_bits(), expected.to_bits());

        // Fast path: rhs canonicalized first (pending == 0).
        let mut fast: ExactAccumulator = a.iter().copied().collect();
        let mut rhs_canonical: ExactAccumulator = b.iter().copied().collect();
        rhs_canonical.normalize();
        fast.merge(&rhs_canonical);
        assert_eq!(fast.round().to_bits(), expected.to_bits());

        // Chained fast-path merges (the collectives pattern: one merge
        // per received message) stay exact.
        let mut chain = ExactAccumulator::new();
        for piece in concat.chunks(173) {
            let mut acc: ExactAccumulator = piece.iter().copied().collect();
            acc.normalize();
            chain.merge(&acc);
        }
        assert_eq!(chain.round().to_bits(), expected.to_bits());
    }

    #[test]
    fn normalize_is_idempotent_and_preserves_value() {
        let mut rng = SplitMix64::new(22);
        let xs: Vec<f64> = (0..500)
            .map(|_| (rng.next_f64() - 0.5) * 10f64.powi((rng.next_below(60) as i32) - 30))
            .collect();
        let mut acc: ExactAccumulator = xs.iter().copied().collect();
        let before = acc.round();
        acc.normalize();
        assert_eq!(acc.round().to_bits(), before.to_bits());
        acc.normalize();
        assert_eq!(acc.round().to_bits(), before.to_bits());
    }

    #[test]
    fn negative_totals() {
        assert_eq!(exact_sum(&[1.0, -3.0]), -2.0);
        assert_eq!(exact_sum(&[-1e300, 1e299]), -9e299);
        let mut rng = SplitMix64::new(9);
        let xs: Vec<f64> = (0..1000).map(|_| -rng.next_f64()).collect();
        let e = exact_sum(&xs);
        assert!(e < 0.0);
        assert!((e - xs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn is_zero_detects_exact_cancellation() {
        let mut acc = ExactAccumulator::new();
        assert!(acc.is_zero());
        acc.add(3.5);
        assert!(!acc.is_zero());
        acc.add(-3.5);
        assert!(acc.is_zero());
    }

    #[test]
    fn agrees_with_serial_on_benign_data() {
        let mut rng = SplitMix64::new(11);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        let e = exact_sum(&xs);
        let s: f64 = xs.iter().sum();
        assert!((e - s).abs() / s < 1e-12);
    }

    #[test]
    fn round_is_faithful_on_known_values() {
        // exact value representable: sum of powers of two
        assert_eq!(exact_sum(&[0.5, 0.25, 0.125]), 0.875);
        // 0.1 alone must round-trip exactly
        assert_eq!(exact_sum(&[0.1]).to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn every_finite_value_round_trips() {
        // Nonzero values; the empty accumulator is the one zero (+0).
        let mut xs = vec![
            f64::MAX,
            1.5 * pow2(1023),
            pow2(1023),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::EPSILON,
            1.0,
            0.1,
        ];
        let mut rng = SplitMix64::new(17);
        xs.extend(
            std::iter::repeat_with(|| f64::from_bits(rng.next_u64()))
                .filter(|x| x.is_finite() && *x != 0.0)
                .take(4096),
        );
        for x in xs.iter().flat_map(|&x| [x, -x]) {
            let mut acc = ExactAccumulator::new();
            acc.add(x);
            assert_eq!(acc.round().to_bits(), x.to_bits(), "{x:e}");
            assert_eq!(exact_sum(&[x]).to_bits(), x.to_bits(), "{x:e}");
        }
        // Past the top of the range the sum overflows to a signed inf.
        assert_eq!(exact_sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact_sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        assert_eq!(exact_sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_panics() {
        ExactAccumulator::new().add(f64::NAN);
    }

    #[test]
    fn bulk_nan_panics_and_leaves_scratch_clean() {
        // A NaN deep inside a bulk batch must (a) panic with the same
        // message as the per-element path and (b) re-zero whatever the
        // batch had already scattered into the thread-local bin table —
        // a later add_slice on this thread must still be bitwise right.
        let mut poisoned: Vec<f64> = (0..3000).map(|i| i as f64).collect();
        poisoned[2500] = f64::NAN;
        let err = std::panic::catch_unwind(|| {
            ExactAccumulator::new().add_slice(&poisoned);
        })
        .unwrap_err();
        assert!(err.downcast_ref::<&str>().is_some_and(|m| m.contains("finite")));
        let xs: Vec<f64> = (0..3000).map(|i| (i as f64) * 0.1 - 7.0).collect();
        let mut bulk = ExactAccumulator::new();
        bulk.add_slice(&xs);
        let mut scalar = ExactAccumulator::new();
        scalar.add_slice_scalar(&xs);
        assert_eq!(bulk.round().to_bits(), scalar.round().to_bits());
        bulk.normalize();
        scalar.normalize();
        assert!(bulk.state_eq(&scalar));
    }

    #[test]
    fn striped_accumulation_matches_element_order() {
        let mut rng = SplitMix64::new(33);
        for n in [0usize, 1, 7, 31, 32, 33, 1000, 12_345] {
            let xs: Vec<f64> = (0..n)
                .map(|_| (rng.next_f64() - 0.5) * 10f64.powi((rng.next_below(40) as i32) - 20))
                .collect();
            let serial = xs.iter().copied().collect::<ExactAccumulator>().round();
            assert_eq!(exact_sum(&xs).to_bits(), serial.to_bits(), "n={n}");
        }
    }

    #[test]
    fn span_tracks_occupied_limbs() {
        let mut acc = ExactAccumulator::new();
        assert!(acc.span().is_none());
        assert!(acc.span_covers_nonzero());
        acc.add(1.0);
        assert!(acc.span_covers_nonzero());
        let (lo, hi) = acc.span().unwrap();
        assert!(hi - lo <= 3, "one add occupies at most three limbs");
        acc.normalize();
        // 1.0 sits at bit 1074 => limb 33; the tight hull is 1 limb.
        assert_eq!(acc.span(), Some((33, 34)));
        // Exact cancellation collapses the span back to empty.
        acc.add(-1.0);
        acc.normalize();
        assert!(acc.span().is_none());
        assert!(acc.is_zero());
    }

    #[test]
    fn span_survives_wide_dynamic_range_and_carries() {
        let mut acc = ExactAccumulator::new();
        acc.add(1e300);
        acc.add(1e-300);
        acc.add(f64::MAX);
        for _ in 0..100 {
            acc.add(f64::MAX * 0.5);
        }
        assert!(acc.span_covers_nonzero());
        acc.normalize();
        assert!(acc.span_covers_nonzero());
        let (lo, hi) = acc.span().unwrap();
        assert!(lo < hi && hi <= LIMBS);
    }

    #[test]
    fn wire_encoding_is_small_for_small_dynamic_range() {
        let mut rng = SplitMix64::new(45);
        let mut acc = ExactAccumulator::new();
        for _ in 0..1000 {
            acc.add(rng.next_f64() * 1e6 - 5e5);
        }
        acc.normalize();
        assert!(
            acc.wire_len() <= 2 + 8 * 8,
            "narrow-range data should occupy few limbs, got {}",
            acc.wire_len()
        );
    }

    #[test]
    fn packed_vec_edge_cases() {
        let empty = ExactVec::from_slice(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.wire_len(), 0);
        assert!(empty.round().is_empty());
        // zeros pack to a bare header, like the wire encoding
        let mut v = ExactVec::from_slice(&[0.0, -0.0, 1.0]);
        assert_eq!(v.wire_len(), 2 + 2 + 10);
        assert_eq!(ExactVec::wire_len_of(&[0.0, -0.0, 1.0]), v.wire_len());
        v.add(&[2.5, 0.0, -1.0]);
        assert_eq!(v.round(), vec![2.5, 0.0, 0.0]);
        v.merge(&ExactVec::from_slice(&[-2.5, 1e300, 1e-300]));
        assert_eq!(v.round(), vec![0.0, 1e300, 1e-300]);
        assert_eq!(v.wire_len(), v.iter().map(|a| a.wire_len()).sum::<usize>());
        // a pooled buffer reassigned to a shorter input
        v.assign(&[4.0]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.round(), vec![4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn packed_vec_rejects_mismatched_lengths() {
        ExactVec::from_slice(&[1.0, 2.0]).add(&[1.0]);
    }

    #[test]
    fn merge_without_normalizing_either_side_is_exact() {
        // Both sides raw (pending > 0): the no-clone fold must still be
        // exact and keep the span invariant.
        let mut rng = SplitMix64::new(46);
        let a: Vec<f64> = (0..500).map(|_| rng.next_f64() * 1e10 - 5e9).collect();
        let b: Vec<f64> = (0..500).map(|_| rng.next_f64() * 1e-10).collect();
        let mut acc_a: ExactAccumulator = a.iter().copied().collect();
        let acc_b: ExactAccumulator = b.iter().copied().collect();
        acc_a.merge(&acc_b);
        assert!(acc_a.span_covers_nonzero());
        let concat: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(acc_a.round().to_bits(), exact_sum(&concat).to_bits());
    }
}
