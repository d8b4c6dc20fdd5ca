//! The six parallel-sum implementations of §III-A (Table 2).
//!
//! | Method | deterministic | kernels | synchronisation |
//! |--------|---------------|---------|-----------------|
//! | CU     | yes           | —       | `__threadfence` (library) |
//! | SPTR   | yes           | 1       | `__threadfence` |
//! | SPRG   | yes           | 1       | `__threadfence` |
//! | TPRC   | yes           | 2       | stream synchronisation |
//! | SPA    | **no**        | 1       | `atomicAdd` |
//! | AO     | **no**        | 1       | `atomicAdd` |
//!
//! All kernels except AO share the same first stage: each thread block
//! owns a contiguous chunk of the input, each thread serially
//! accumulates a strided subset of the chunk, and the block combines
//! its `Nt` lane values with the `__syncthreads`-stepped pairwise tree
//! (shared memory in the CUDA original, [`block_partial`] here). That
//! stage is deterministic. The kernels differ in how block partials are
//! combined — and that is exactly where determinism is won or lost:
//!
//! * **SPA** commits each partial with `atomicAdd`: the combine order
//!   is the scheduler's block finish order ⇒ non-deterministic.
//! * **SPTR** stores partials to global memory; the last block (found
//!   via an atomic retirement counter + `__threadfence`) tree-reduces
//!   them *in index order* ⇒ deterministic.
//! * **SPRG** is SPTR with a serial (recursive) final loop
//!   (`res[0] += res[i]`) ⇒ deterministic, different bits than SPTR.
//! * **TPRC** copies partials to the host on the same stream and sums
//!   serially on the CPU ⇒ deterministic (bitwise equal to SPRG: same
//!   order, different processor).
//! * **CU** models the vendor library (CUB/hipCUB): its own tuned
//!   launch geometry, deterministic two-stage tree.
//! * **AO** has no first stage at all: every element is `atomicAdd`ed
//!   to one address; the value is the serial sum in *element commit
//!   order* — warp-synchronous lanes in order, warps interleaved by the
//!   scheduler ⇒ non-deterministic, and catastrophically slow.
//!
//! ## What a run replays
//!
//! Only the commit order depends on the schedule, so a launch is split
//! in two (`Stage`). The schedule-invariant stage is computed once per
//! `(kernel, data, params)`: the value itself for SPTR, SPRG, TPRC and
//! CU; the `Nb` block partials for SPA; each block's chunk bounds and
//! warp-event count for AO, which keeps a borrow of the data. A run
//! replays the rest under its schedule: SPA folds the partials in block
//! finish order, AO interleaves the warp events and adds each event's
//! lanes in that order, and the deterministic kernels return their
//! value. [`crate::GpuDevice::reduce_runs`] builds the stage once for a
//! whole sweep, so Fig 1's 10 000 runs per array compute its block
//! partials once.

use crate::schedule::{ScheduleKind, Scheduler};

/// Launch geometry: threads per block and blocks per grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// Threads per block (`Nt`). Must be a power of two for the
    /// pairwise tree; a launch with any other value is an error.
    pub threads_per_block: u32,
    /// Number of thread blocks (`Nb`), at least 1.
    pub num_blocks: u32,
}

impl KernelParams {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_block` is zero or not a power of two, or
    /// if `num_blocks` is zero.
    pub fn new(threads_per_block: u32, num_blocks: u32) -> Self {
        assert!(
            threads_per_block.is_power_of_two(),
            "Nt must be a power of two for the pairwise tree"
        );
        assert!(num_blocks > 0, "need at least one block");
        KernelParams {
            threads_per_block,
            num_blocks,
        }
    }

    /// The `Nt = 64, Nb = 7813` geometry of Fig 1 (1M elements).
    pub fn fig1() -> Self {
        KernelParams::new(64, 7813)
    }
}

/// The reduction kernel variants of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKernel {
    /// `atomicAdd`-only: one atomic per element.
    Ao,
    /// Simple-pass with `atomicAdd` for partials.
    Spa,
    /// Single-pass, tree reduction by the last block.
    Sptr,
    /// Single-pass, recursive (serial) final sum by the last block.
    Sprg,
    /// Two passes, final reduction on the CPU.
    Tprc,
    /// Vendor library (CUB / hipCUB) reduction.
    Cu,
}

impl ReduceKernel {
    /// All kernels in Table 2's order.
    pub fn all() -> [ReduceKernel; 6] {
        [
            ReduceKernel::Cu,
            ReduceKernel::Sptr,
            ReduceKernel::Sprg,
            ReduceKernel::Tprc,
            ReduceKernel::Spa,
            ReduceKernel::Ao,
        ]
    }

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceKernel::Ao => "AO",
            ReduceKernel::Spa => "SPA",
            ReduceKernel::Sptr => "SPTR",
            ReduceKernel::Sprg => "SPRG",
            ReduceKernel::Tprc => "TPRC",
            ReduceKernel::Cu => "CU",
        }
    }

    /// Whether the kernel is deterministic by construction (Table 2).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, ReduceKernel::Ao | ReduceKernel::Spa)
    }

    /// Number of kernel launches ("-" for the library call).
    pub fn kernel_count(&self) -> Option<u32> {
        match self {
            ReduceKernel::Cu => None,
            ReduceKernel::Tprc => Some(2),
            _ => Some(1),
        }
    }

    /// Synchronisation method column of Table 2.
    pub fn sync_method(&self) -> &'static str {
        match self {
            ReduceKernel::Cu | ReduceKernel::Sptr | ReduceKernel::Sprg => "__threadfence",
            ReduceKernel::Tprc => "stream synchronization",
            ReduceKernel::Spa | ReduceKernel::Ao => "atomicAdd",
        }
    }
}

/// The deterministic in-block stage: thread `t` serially accumulates
/// `chunk[t], chunk[t + Nt], …`, then the `Nt` lane sums are combined
/// with the power-of-two pairwise tree (`smem[i] += smem[i + offset]`
/// stepped by `__syncthreads` in the CUDA original).
pub fn block_partial(chunk: &[f64], threads_per_block: u32) -> f64 {
    block_partial_with(chunk, threads_per_block, &mut Vec::new())
}

/// [`block_partial`] with caller-provided lane scratch, so a loop over
/// blocks (7813 of them per Fig 1 launch) reuses one allocation
/// instead of paying one `vec![0.0; Nt]` per block.
///
/// The chunk is added one row of `Nt` elements at a time, lane `t`
/// taking the row's element `t`: each lane sees its elements in the
/// same order as the strided per-thread loop, so the bits are the
/// same, and the row loop has no division and vectorizes.
pub fn block_partial_with(chunk: &[f64], threads_per_block: u32, lanes: &mut Vec<f64>) -> f64 {
    let nt = threads_per_block as usize;
    lanes.clear();
    lanes.resize(nt, 0.0);
    let rows = chunk.chunks_exact(nt);
    let tail = rows.remainder();
    for row in rows.chain([tail]) {
        for (lane, &x) in lanes.iter_mut().zip(row) {
            *lane += x;
        }
    }
    // pairwise tree over the lane values
    let mut offset = nt / 2;
    while offset > 0 {
        for i in 0..offset {
            lanes[i] += lanes[i + offset];
        }
        offset /= 2;
    }
    lanes[0]
}

/// Contiguous chunk boundaries for `num_blocks` blocks over `n`
/// elements (last chunk may be short).
fn chunk_bounds(n: usize, num_blocks: u32) -> Vec<(usize, usize)> {
    let nb = num_blocks as usize;
    let chunk = n.div_ceil(nb);
    (0..nb)
        .map(|b| {
            let lo = (b * chunk).min(n);
            let hi = ((b + 1) * chunk).min(n);
            (lo, hi)
        })
        .collect()
}

/// All block partials for a launch — stage one of every kernel except
/// AO. Deterministic, and each block is independent, so the blocks are
/// fanned across the intra-run thread budget
/// ([`fpna_core::executor::par_fill`]); every worker reuses one lane
/// scratch across all its blocks. Bitwise identical to the serial loop
/// at any thread count — block partials only depend on their own
/// chunk.
pub fn block_partials(data: &[f64], params: KernelParams) -> Vec<f64> {
    let bounds = chunk_bounds(data.len(), params.num_blocks);
    let mut out = vec![0.0f64; bounds.len()];
    let run_blocks = |blocks: std::ops::Range<usize>, partials: &mut [f64]| {
        let mut lanes: Vec<f64> = Vec::new();
        for (slot, b) in partials.iter_mut().zip(blocks) {
            let (lo, hi) = bounds[b];
            *slot = block_partial_with(&data[lo..hi], params.threads_per_block, &mut lanes);
        }
    };
    if data.len() >= 1 << 14 {
        fpna_core::executor::par_fill(&mut out, 1, run_blocks);
    } else {
        let nb = out.len();
        run_blocks(0..nb, &mut out);
    }
    out
}

/// Power-of-two tree sum in index order — the last-block reduction of
/// SPTR and the final stage of CU.
fn tree_sum(xs: &[f64]) -> f64 {
    let m = xs.len().next_power_of_two();
    let mut buf = Vec::with_capacity(m);
    buf.extend_from_slice(xs);
    buf.resize(m, 0.0);
    let mut half = m / 2;
    while half > 0 {
        for i in 0..half {
            buf[i] += buf[i + half];
        }
        half /= 2;
    }
    buf[0]
}

/// Serial sum in index order — SPRG's `res[0] += res[i]` loop and
/// TPRC's host loop.
fn serial_sum(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    for &x in xs {
        s += x;
    }
    s
}

/// Geometry the modelled vendor library picks for itself (the paper
/// lists CU's parameters as "unknown"): 256 threads, 16 items per
/// thread.
pub fn cub_params(n: usize) -> KernelParams {
    let nt = 256u32;
    let items_per_thread = 16usize;
    let nb = n.div_ceil(nt as usize * items_per_thread).max(1) as u32;
    KernelParams::new(nt, nb)
}

/// The schedule-invariant stage of a launch: everything about its
/// value that no commit order can change, computed once per
/// `(kernel, data, params)`. [`Stage::replay`] adds the part that
/// depends on the schedule.
pub(crate) enum Stage<'a> {
    /// SPTR, SPRG, TPRC and CU: the value itself. These kernels
    /// ignore the schedule (that is their defining property, and the
    /// tests pin it down).
    Value(f64),
    /// SPA: the block partials, committed with `atomicAdd` in block
    /// finish order.
    Partials(Vec<f64>),
    /// AO: every element is `atomicAdd`ed to a single address, one
    /// warp event at a time. Block `b` owns `data[lo..hi]` with
    /// `(lo, hi) = bounds[b]` and issues `events[b]` warp events:
    /// `⌈(hi − lo) / Nt⌉` rounds of `Nt / ww` warps.
    Atomics {
        data: &'a [f64],
        bounds: Vec<(usize, usize)>,
        events: Vec<u32>,
        ww: usize,
    },
}

impl<'a> Stage<'a> {
    /// The stage of `kernel` over `data`. `params` must hold a
    /// power-of-two `Nt` and a nonzero `Nb`.
    pub(crate) fn new(
        kernel: ReduceKernel,
        data: &'a [f64],
        params: KernelParams,
        warp_width: u32,
    ) -> Self {
        match kernel {
            ReduceKernel::Ao => {
                let nt = params.threads_per_block as usize;
                let ww = (warp_width as usize).min(nt);
                let bounds = chunk_bounds(data.len(), params.num_blocks);
                let events = bounds
                    .iter()
                    .map(|&(lo, hi)| ((hi - lo).div_ceil(nt) * (nt / ww)) as u32)
                    .collect();
                Stage::Atomics {
                    data,
                    bounds,
                    events,
                    ww,
                }
            }
            ReduceKernel::Spa => Stage::Partials(block_partials(data, params)),
            ReduceKernel::Sptr => Stage::Value(tree_sum(&block_partials(data, params))),
            ReduceKernel::Sprg | ReduceKernel::Tprc => {
                Stage::Value(serial_sum(&block_partials(data, params)))
            }
            ReduceKernel::Cu => {
                Stage::Value(tree_sum(&block_partials(data, cub_params(data.len()))))
            }
        }
    }

    /// The launch's value under schedule `kind`: the stage's
    /// floating-point commits, in the scheduler's order.
    pub(crate) fn replay(&self, scheduler: &Scheduler, kind: &ScheduleKind) -> f64 {
        match self {
            Stage::Value(v) => *v,
            Stage::Partials(partials) => {
                let mut s = 0.0f64;
                for b in scheduler.block_finish_order(partials.len() as u32, kind) {
                    s += partials[b as usize];
                }
                s
            }
            // `Nt = warps · ww`, so event `e` of a block is lanes
            // `e · ww ..` of its chunk: the warp-synchronous lanes
            // commit in order, cut short at the chunk's end. The value
            // is the serial sum in global commit order, which can
            // never be parallelized.
            Stage::Atomics {
                data,
                bounds,
                events,
                ww,
            } => {
                let mut s = 0.0f64;
                for (block, e) in scheduler.interleave(events, kind) {
                    let (lo, hi) = bounds[block as usize];
                    let start = (lo + e as usize * ww).min(hi);
                    for &x in &data[start..(start + ww).min(hi)] {
                        s += x;
                    }
                }
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuDevice, GpuModel};
    use fpna_core::rng::SplitMix64;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 10.0).collect()
    }

    /// The value of one launch on the V100: a 320-block window and
    /// 32-lane warps.
    fn value(kernel: ReduceKernel, xs: &[f64], params: KernelParams, kind: &ScheduleKind) -> f64 {
        GpuDevice::new(GpuModel::V100)
            .reduce(kernel, xs, params, kind)
            .unwrap()
            .value
    }

    #[test]
    fn table2_metadata() {
        assert!(ReduceKernel::Cu.is_deterministic());
        assert!(ReduceKernel::Sptr.is_deterministic());
        assert!(ReduceKernel::Sprg.is_deterministic());
        assert!(ReduceKernel::Tprc.is_deterministic());
        assert!(!ReduceKernel::Spa.is_deterministic());
        assert!(!ReduceKernel::Ao.is_deterministic());
        assert_eq!(ReduceKernel::Tprc.kernel_count(), Some(2));
        assert_eq!(ReduceKernel::Cu.kernel_count(), None);
        assert_eq!(ReduceKernel::Spa.sync_method(), "atomicAdd");
        assert_eq!(ReduceKernel::Sptr.sync_method(), "__threadfence");
        assert_eq!(ReduceKernel::all().len(), 6);
    }

    #[test]
    fn block_partial_matches_serial() {
        for n in [1usize, 7, 64, 100, 257] {
            let xs = data(n, n as u64);
            let p = block_partial(&xs, 64);
            let s: f64 = xs.iter().sum();
            assert!((p - s).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn chunk_bounds_partition() {
        let b = chunk_bounds(1000, 7);
        assert_eq!(b.len(), 7);
        assert_eq!(b[0].0, 0);
        assert_eq!(b.last().unwrap().1, 1000);
        for w in b.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // more blocks than elements: trailing empty chunks
        let b = chunk_bounds(3, 8);
        assert!(b.iter().skip(3).all(|&(lo, hi)| lo == hi));
    }

    #[test]
    fn all_kernels_compute_the_sum() {
        let xs = data(100_000, 1);
        let expected: f64 = xs.iter().sum();
        let params = KernelParams::new(128, 64);
        for k in ReduceKernel::all() {
            let v = value(k, &xs, params, &ScheduleKind::Seeded(3));
            assert!(
                (v - expected).abs() < 1e-8,
                "{}: {v} vs {expected}",
                k.name()
            );
        }
    }

    #[test]
    fn deterministic_kernels_are_schedule_invariant() {
        let xs = data(50_000, 2);
        let params = KernelParams::new(64, 512);
        for k in ReduceKernel::all().into_iter().filter(|k| k.is_deterministic()) {
            let reference = value(k, &xs, params, &ScheduleKind::InOrder);
            for kind in [
                ScheduleKind::Seeded(1),
                ScheduleKind::Seeded(999),
                ScheduleKind::UniformRandom(5),
                ScheduleKind::Reverse,
            ] {
                let v = value(k, &xs, params, &kind);
                assert_eq!(
                    v.to_bits(),
                    reference.to_bits(),
                    "{} must ignore the schedule",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn nondeterministic_kernels_vary_with_schedule() {
        let xs = data(1_000_000, 3);
        let params = KernelParams::fig1();
        for k in [ReduceKernel::Spa, ReduceKernel::Ao] {
            let mut seen = std::collections::HashSet::new();
            for run in 0..20 {
                let v = value(k, &xs, params, &ScheduleKind::Seeded(42).for_run(run));
                seen.insert(v.to_bits());
            }
            assert!(
                seen.len() > 1,
                "{} should vary across schedules, saw {} distinct values",
                k.name(),
                seen.len()
            );
        }
    }

    #[test]
    fn nondeterministic_kernels_replay_bitwise_for_fixed_seed() {
        let xs = data(100_000, 4);
        let params = KernelParams::new(64, 782);
        for k in [ReduceKernel::Spa, ReduceKernel::Ao] {
            let kind = ScheduleKind::Seeded(7);
            let a = value(k, &xs, params, &kind);
            let b = value(k, &xs, params, &kind);
            assert_eq!(a.to_bits(), b.to_bits(), "{}", k.name());
        }
    }

    #[test]
    fn ao_in_order_matches_spa_in_order_value_family() {
        // With an in-order schedule AO is the plain serial sum.
        let xs = data(10_000, 5);
        let params = KernelParams::new(64, 16);
        let v = value(ReduceKernel::Ao, &xs, params, &ScheduleKind::InOrder);
        let serial: f64 = {
            let mut s = 0.0;
            for &x in &xs {
                s += x;
            }
            s
        };
        assert_eq!(v.to_bits(), serial.to_bits());
    }

    #[test]
    fn cub_params_cover_input() {
        for n in [1usize, 100, 4096, 4_194_304] {
            let p = cub_params(n);
            assert!(p.num_blocks as usize * 256 * 16 >= n);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_nt_panics() {
        KernelParams::new(96, 4);
    }
}
