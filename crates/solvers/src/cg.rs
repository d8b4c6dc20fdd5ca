//! Conjugate gradient with pluggable reductions, and the §III
//! error-accumulation experiment.
//!
//! CG's short recurrences make it a rounding-error amplifier: the
//! search directions are computed from ratios of inner products, so a
//! one-ulp difference in a dot product in iteration *k* changes every
//! subsequent iterate. With a non-deterministic dot product, two runs
//! of the *same* solve walk different trajectories — they both converge
//! (CG is self-correcting in exact arithmetic terms), but the iterates
//! and the iteration count can differ, which is what breaks
//! tolerance-based correctness tests around iterative solvers.

use fpna_core::metrics::ArrayComparison;
use fpna_core::Result;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_summation::exact::exact_sum;
use fpna_summation::serial::serial_sum;

use crate::csr::Csr;

/// How CG computes its inner products (and, for the GPU mode, its
/// SpMV accumulations).
#[derive(Debug, Clone, Copy)]
pub enum ReductionMode {
    /// Serial left-to-right dot products (deterministic).
    Deterministic,
    /// Exact long-accumulator dot products — deterministic *and*
    /// independent of element order.
    Reproducible,
    /// Dot products through the simulated GPU's non-deterministic SPA
    /// kernel; the seed is re-keyed per (run, iteration, use).
    GpuNonDeterministic {
        /// Which device profile schedules the atomics.
        model: GpuModel,
        /// Base seed; callers vary it per run.
        seed: u64,
    },
}

/// Configuration of a CG solve.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative residual tolerance (‖r‖/‖b‖).
    pub tolerance: f64,
    /// Reduction used for dot products.
    pub reduction: ReductionMode,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iters: 500,
            tolerance: 1e-10,
            reduction: ReductionMode::Deterministic,
        }
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone)]
pub struct CgTrace {
    /// The final iterate.
    pub solution: Vec<f64>,
    /// ‖r‖₂/‖b‖₂ after each iteration.
    pub relative_residuals: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Every iterate (including the final one), for divergence
    /// analysis. Present only when requested via
    /// [`conjugate_gradient_traced`].
    pub iterates: Vec<Vec<f64>>,
}

struct DotEngine {
    mode: ReductionMode,
    device: Option<GpuDevice>,
    counter: u64,
}

impl DotEngine {
    fn new(mode: ReductionMode) -> Self {
        let device = match mode {
            ReductionMode::GpuNonDeterministic { model, .. } => Some(GpuDevice::new(model)),
            _ => None,
        };
        DotEngine {
            mode,
            device,
            counter: 0,
        }
    }

    fn dot(&mut self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let products: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| x * y).collect();
        match self.mode {
            ReductionMode::Deterministic => serial_sum(&products),
            ReductionMode::Reproducible => exact_sum(&products),
            ReductionMode::GpuNonDeterministic { seed, .. } => {
                self.counter += 1;
                let device = self.device.as_ref().expect("device built in new()");
                // At least 4 blocks: with 1 block the reduction is a
                // fixed in-block tree (no commit-order freedom), and 2
                // blocks only exercise commutativity, which is exact.
                // Trailing blocks past the data contribute exact zeros.
                let nb = (products.len() / 32).clamp(4, 4096) as u32;
                device
                    .reduce(
                        ReduceKernel::Spa,
                        &products,
                        KernelParams::new(64, nb),
                        &ScheduleKind::Seeded(seed).for_run(self.counter),
                    )
                    .expect("SPA supported on NVIDIA profiles")
                    .value
            }
        }
    }
}

/// Solve `A·x = b` from a zero initial guess. Returns the trace
/// without intermediate iterates (cheaper).
pub fn conjugate_gradient(a: &Csr, b: &[f64], cfg: &CgConfig) -> Result<CgTrace> {
    solve(a, b, cfg, false)
}

/// Solve `A·x = b`, storing every iterate for divergence analysis.
pub fn conjugate_gradient_traced(a: &Csr, b: &[f64], cfg: &CgConfig) -> Result<CgTrace> {
    solve(a, b, cfg, true)
}

fn solve(a: &Csr, b: &[f64], cfg: &CgConfig, keep_iterates: bool) -> Result<CgTrace> {
    let n = b.len();
    let mut engine = DotEngine::new(cfg.reduction);
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let b_norm = engine.dot(b, b).sqrt().max(f64::MIN_POSITIVE);
    let mut rs_old = engine.dot(&r, &r);
    let mut residuals = Vec::new();
    let mut iterates = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    for _ in 0..cfg.max_iters {
        let ap = a.spmv(&p)?;
        let p_ap = engine.dot(&p, &ap);
        if p_ap <= 0.0 {
            break; // matrix not SPD along p (or numerical breakdown)
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = engine.dot(&r, &r);
        iterations += 1;
        let rel = rs_new.sqrt() / b_norm;
        residuals.push(rel);
        if keep_iterates {
            iterates.push(x.clone());
        }
        if rel < cfg.tolerance {
            converged = true;
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    Ok(CgTrace {
        solution: x,
        relative_residuals: residuals,
        iterations,
        converged,
        iterates,
    })
}

/// Per-iteration divergence between two non-deterministic CG runs on
/// identical inputs.
#[derive(Debug, Clone)]
pub struct CgDivergence {
    /// `Vermv` between the two runs' iterates at each iteration.
    pub vermv_per_iteration: Vec<f64>,
    /// `Vc` (fraction of differing components) at each iteration.
    pub vc_per_iteration: Vec<f64>,
    /// Relative solution difference at the final common iteration.
    pub final_relative_diff: f64,
    /// Iteration counts of the two runs (they may differ!).
    pub iterations: (usize, usize),
}

/// Run CG twice with differently-seeded non-deterministic reductions
/// and measure how the trajectories separate — the §III CG
/// error-accumulation experiment.
pub fn divergence_experiment(
    a: &Csr,
    b: &[f64],
    cfg: &CgConfig,
    seeds: (u64, u64),
) -> Result<CgDivergence> {
    let mode_with = |s: u64| match cfg.reduction {
        ReductionMode::GpuNonDeterministic { model, .. } => {
            ReductionMode::GpuNonDeterministic { model, seed: s }
        }
        other => other,
    };
    let cfg_a = CgConfig {
        reduction: mode_with(seeds.0),
        ..*cfg
    };
    let cfg_b = CgConfig {
        reduction: mode_with(seeds.1),
        ..*cfg
    };
    let ta = conjugate_gradient_traced(a, b, &cfg_a)?;
    let tb = conjugate_gradient_traced(a, b, &cfg_b)?;
    let common = ta.iterates.len().min(tb.iterates.len());
    let mut vermv = Vec::with_capacity(common);
    let mut vc = Vec::with_capacity(common);
    for k in 0..common {
        let cmp = ArrayComparison::compare(&ta.iterates[k], &tb.iterates[k]);
        vermv.push(cmp.vermv);
        vc.push(cmp.vc);
    }
    let final_relative_diff = if common > 0 {
        let (xa, xb) = (&ta.iterates[common - 1], &tb.iterates[common - 1]);
        let num: f64 = xa
            .iter()
            .zip(xb)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let den: f64 = xa.iter().map(|p| p * p).sum::<f64>().sqrt().max(1e-300);
        num / den
    } else {
        0.0
    };
    Ok(CgDivergence {
        vermv_per_iteration: vermv,
        vc_per_iteration: vc,
        final_relative_diff,
        iterations: (ta.iterations, tb.iterations),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    #[test]
    fn cg_solves_poisson() {
        let a = Csr::poisson_2d(10);
        let b = rhs(100, 1);
        let trace = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        assert!(trace.converged, "residuals: {:?}", trace.relative_residuals.last());
        // verify the solve: ||Ax - b|| / ||b|| small
        let ax = a.spmv(&trace.solution).unwrap();
        let err: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-8, "rel err {}", err / bn);
    }

    #[test]
    fn residuals_decrease_overall() {
        let a = Csr::poisson_2d(8);
        let b = rhs(64, 2);
        let trace = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        let first = trace.relative_residuals[0];
        let last = *trace.relative_residuals.last().unwrap();
        assert!(last < first / 1e6);
    }

    #[test]
    fn deterministic_cg_is_bitwise_reproducible() {
        let a = Csr::random_spd(80, 5, 3);
        let b = rhs(80, 4);
        let t1 = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        let t2 = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        assert_eq!(
            t1.solution.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            t2.solution.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reproducible_mode_matches_itself_and_converges() {
        let a = Csr::poisson_2d(6);
        let b = rhs(36, 5);
        let cfg = CgConfig {
            reduction: ReductionMode::Reproducible,
            ..CgConfig::default()
        };
        let t1 = conjugate_gradient(&a, &b, &cfg).unwrap();
        let t2 = conjugate_gradient(&a, &b, &cfg).unwrap();
        assert!(t1.converged);
        assert_eq!(
            t1.solution.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            t2.solution.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nd_cg_diverges_across_runs_but_converges() {
        let a = Csr::poisson_2d(12);
        let b = rhs(144, 6);
        let cfg = CgConfig {
            max_iters: 200,
            tolerance: 1e-10,
            reduction: ReductionMode::GpuNonDeterministic {
                model: GpuModel::V100,
                seed: 0,
            },
        };
        let d = divergence_experiment(&a, &b, &cfg, (1, 2)).unwrap();
        // trajectories separate...
        assert!(
            d.vc_per_iteration.iter().any(|&vc| vc > 0.5),
            "iterates should diverge bitwise: {:?}",
            &d.vc_per_iteration[..d.vc_per_iteration.len().min(5)]
        );
        // ...the divergence grows from the first iterations...
        let early = d.vermv_per_iteration[1];
        let late = d.vermv_per_iteration[d.vermv_per_iteration.len() - 2];
        assert!(
            late > early,
            "divergence should accumulate: early {early}, late {late}"
        );
        // ...but both runs still converge to the same solution to
        // solver tolerance.
        assert!(d.final_relative_diff < 1e-6, "{}", d.final_relative_diff);
    }

    #[test]
    fn traced_and_untraced_agree() {
        let a = Csr::poisson_2d(5);
        let b = rhs(25, 7);
        let cfg = CgConfig::default();
        let t = conjugate_gradient(&a, &b, &cfg).unwrap();
        let tt = conjugate_gradient_traced(&a, &b, &cfg).unwrap();
        assert_eq!(t.solution, tt.solution);
        assert_eq!(tt.iterates.len(), tt.iterations);
        assert!(t.iterates.is_empty());
    }
}
