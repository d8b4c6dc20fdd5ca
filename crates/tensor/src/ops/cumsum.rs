//! `cumsum` — prefix sum with a deterministic serial scan and a
//! non-deterministic two-level block scan.
//!
//! GPU prefix sums are computed per block, with block offsets combined
//! through a "decoupled look-back": each block sums the partials of its
//! predecessors *in whatever order they become visible*. The multiset
//! of partials is fixed — only the association order varies — so the
//! result differs from run to run at rounding level. That matches the
//! paper's Table 5, where `cumsum`'s variability ranges from exactly 0
//! (small inputs that fit one block) to ~5e-7.

use fpna_core::Result;

use crate::context::GpuContext;
use crate::tensor::Tensor;

/// Elements per scan block of the non-deterministic kernel.
const BLOCK: usize = 256;

/// Prefix sum over a 1-D tensor (PyTorch `torch.cumsum`, dim 0).
///
/// Deterministic kernel: plain serial scan. Non-deterministic kernel:
/// per-block serial scans plus look-back offsets whose partials combine
/// in the device's block finish order.
pub fn cumsum(ctx: &GpuContext, x: &Tensor) -> Result<Tensor> {
    let n = x.numel();
    let mut out = Tensor::zeros(vec![n]);
    if n == 0 {
        return Ok(out);
    }
    if ctx.deterministic_requested() || n <= BLOCK {
        let mut acc = 0.0f64;
        for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
            acc += v;
            *o = acc;
        }
        return Ok(out);
    }
    let nb = n.div_ceil(BLOCK);
    // Stage 1 (deterministic): per-block serial partial sums.
    let partials: Vec<f64> = (0..nb)
        .map(|b| x.data()[b * BLOCK..((b + 1) * BLOCK).min(n)].iter().sum())
        .collect();
    // Stage 2 (non-deterministic): each block's offset is the sum of
    // its predecessors' partials, accumulated in the order the blocks
    // finish this run (one-item queues): a finished block's partial
    // joins the offset of every later block.
    let mut offsets = vec![0.0f64; nb];
    ctx.device
        .scheduler()
        .interleave(&vec![1; nb], &ctx.schedule, |finished, _| {
            let p = partials[finished as usize];
            for offset in &mut offsets[finished as usize + 1..] {
                *offset += p;
            }
        });
    // Stage 3 (deterministic): intra-block scan on top of the offset.
    for (b, &offset) in offsets.iter().enumerate() {
        let lo = b * BLOCK;
        let hi = ((b + 1) * BLOCK).min(n);
        let mut acc = offset;
        for i in lo..hi {
            acc += x.data()[i];
            out.data_mut()[i] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use fpna_gpu_sim::GpuModel;

    fn ctx_det() -> GpuContext {
        GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true))
    }

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    fn random(n: usize, seed: u64) -> Tensor {
        let mut g = SplitMix64::new(seed);
        Tensor::from_vec(vec![n], (0..n).map(|_| g.next_f64() * 2e3 - 1e3).collect())
    }

    #[test]
    fn serial_scan_semantics() {
        let x = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let out = cumsum(&ctx_det(), &x).unwrap();
        assert_eq!(out.data(), &[1.0, 3.0, 6.0, 10.0]);
        assert_eq!(cumsum(&ctx_det(), &Tensor::zeros(vec![0])).unwrap().numel(), 0);
    }

    #[test]
    fn nd_matches_det_to_rounding() {
        let x = random(10_000, 2);
        let det = cumsum(&ctx_det(), &x).unwrap();
        let nd = cumsum(&ctx_nd(3), &x).unwrap();
        for (a, b) in det.data().iter().zip(nd.data()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        // last element is the full sum in both
        assert!((det.data()[9999] - nd.data()[9999]).abs() < 1e-8);
    }

    #[test]
    fn small_inputs_are_exactly_stable() {
        // fits one block -> no look-back -> bitwise equal to serial,
        // matching Table 5's min(Vermv) = 0 for cumsum.
        let x = random(200, 4);
        let det = cumsum(&ctx_det(), &x).unwrap();
        for run in 0..5 {
            let nd = cumsum(&ctx_nd(5).for_run(run), &x).unwrap();
            assert!(nd.bitwise_eq(&det));
        }
    }

    #[test]
    fn large_inputs_vary_across_runs() {
        let x = random(100_000, 6);
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let nd = cumsum(&ctx_nd(7).for_run(run), &x).unwrap();
            bits.insert(nd.data().last().copied().unwrap().to_bits());
        }
        assert!(bits.len() > 1, "look-back order should leak into bits");
    }

    #[test]
    fn nd_replays_bitwise_for_fixed_seed() {
        let x = random(50_000, 8);
        let a = cumsum(&ctx_nd(9), &x).unwrap();
        let b = cumsum(&ctx_nd(9), &x).unwrap();
        assert!(a.bitwise_eq(&b));
    }
}
