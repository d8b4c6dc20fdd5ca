//! `gpu_reduce`: the §III kernels behind Fig 1/2 on the simulated V100.
//!
//! Per op: one of eight pre-generated FP64 arrays (4 × N(0,1), then
//! 4 × U(0,10), visited round-robin) is summed by SPA, AO and SPTR at
//! Fig 1 geometry under a per-op seeded schedule, then by
//! `exact_sum`, the paper's reproducible fix. The op streams memory
//! through `gpu-sim` and `summation` and bypasses every other layer.

use fpna_core::rng::derive_seed;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::samplers::{Distribution, Sampler};
use fpna_summation::exact::exact_sum;

use super::Workload;
use crate::trace::Tracer;

const ARRAYS: usize = 8;

pub struct GpuReduce {
    device: GpuDevice,
    params: KernelParams,
    arrays: Vec<Vec<f64>>,
    /// SPTR sum per array: deterministic, so every op must match it.
    sptr_ref: Vec<f64>,
    /// Correctly rounded sum per array.
    exact_ref: Vec<f64>,
    /// `(n − 1)·u·Σ|x|` per array: the bound on any summation order's
    /// error, which SPA and AO must stay within.
    tol: Vec<f64>,
}

impl GpuReduce {
    pub fn new(seed: u64, tiny: bool, tr: &mut Tracer) -> Self {
        let n = if tiny { 10_000 } else { 1_000_000 };
        let device = GpuDevice::new(GpuModel::V100);
        let params = if tiny {
            KernelParams::new(64, 40)
        } else {
            KernelParams::fig1()
        };
        let arrays: Vec<Vec<f64>> = tr.span("input.generate", |_| {
            (0..ARRAYS)
                .map(|a| {
                    let dist = if a < ARRAYS / 2 {
                        Distribution::standard_normal()
                    } else {
                        Distribution::paper_uniform()
                    };
                    Sampler::new(dist, derive_seed(seed, a as u64)).sample_vec(n)
                })
                .collect()
        });
        let sptr_ref = tr.span("gpu-sim.reference", |_| {
            arrays
                .iter()
                .map(|xs| {
                    device
                        .reduce(ReduceKernel::Sptr, xs, params, &ScheduleKind::InOrder)
                        .expect("SPTR runs on every device")
                        .value
                })
                .collect()
        });
        let exact_ref: Vec<f64> = tr.span("summation.reference", |_| {
            arrays.iter().map(|xs| exact_sum(xs)).collect()
        });
        let u = f64::EPSILON / 2.0;
        let tol = arrays
            .iter()
            .map(|xs| (xs.len() - 1) as f64 * u * xs.iter().map(|x| x.abs()).sum::<f64>())
            .collect();
        GpuReduce {
            device,
            params,
            arrays,
            sptr_ref,
            exact_ref,
            tol,
        }
    }

    fn launch(
        &self,
        tr: &mut Tracer,
        name: &'static str,
        kernel: ReduceKernel,
        a: usize,
        kind: &ScheduleKind,
    ) -> f64 {
        let xs = &self.arrays[a];
        let out = tr.span(name, |_| self.device.reduce(kernel, xs, self.params, kind));
        tr.note("bytes", (xs.len() * std::mem::size_of::<f64>()) as u64);
        out.expect("SPA, AO and SPTR run on the V100").value
    }
}

impl Workload for GpuReduce {
    fn op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> bool {
        let a = (i % ARRAYS as u64) as usize;
        let kind = ScheduleKind::Seeded(seed);
        let spa = self.launch(tr, "gpu-sim.reduce.spa", ReduceKernel::Spa, a, &kind);
        let ao = self.launch(tr, "gpu-sim.reduce.ao", ReduceKernel::Ao, a, &kind);
        let sptr = self.launch(tr, "gpu-sim.reduce.sptr", ReduceKernel::Sptr, a, &kind);
        let exact = tr.span("summation.exact_sum", |_| exact_sum(&self.arrays[a]));
        tr.span("core.compare", |_| {
            sptr.to_bits() == self.sptr_ref[a].to_bits()
                && exact.to_bits() == self.exact_ref[a].to_bits()
                && (spa - exact).abs() <= self.tol[a]
                && (ao - exact).abs() <= self.tol[a]
        })
    }
}
