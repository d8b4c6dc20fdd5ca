//! Pins every observable bit of the conjugate-gradient solver behind
//! `fig_cg_divergence`.
//!
//! One FNV-1a hash per (matrix, reduction mode), for a 2-D Poisson
//! matrix and a random SPD matrix under the serial, exact and GPU
//! (SPA) dot products, the GPU mode on the V100 and the H100. Each hash
//! folds `conjugate_gradient`'s solution, relative residuals, iteration
//! count and convergence flag, then the same of
//! `conjugate_gradient_traced` with every iterate. One more hash pins a
//! `divergence_experiment` report. A change that moves one dot-product
//! bit (the SPA block partials, their in-block tree, the block finish
//! order, the exact accumulator) moves every later iterate, so it fails
//! here.
//!
//! Each hash was captured once, from the solver as it stood when this
//! test landed. A moved hash is a change in results, so a hash is never
//! re-captured to make a change pass.

use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::GpuModel;
use fpna_solvers::cg::{
    conjugate_gradient, conjugate_gradient_traced, divergence_experiment, CgConfig, CgDivergence,
    CgTrace, ReductionMode,
};
use fpna_solvers::csr::Csr;

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

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// Every field of a solve, the destructuring pattern listing them
    /// all, so a new field fails to compile here until it is hashed.
    fn trace(&mut self, t: &CgTrace) {
        let CgTrace {
            solution,
            relative_residuals,
            iterations,
            converged,
            iterates,
        } = t;
        self.floats(solution);
        self.floats(relative_residuals);
        self.word(*iterations as u64);
        self.word(u64::from(*converged));
        self.word(iterates.len() as u64);
        for x in iterates {
            self.floats(x);
        }
    }
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

fn config(reduction: ReductionMode) -> CgConfig {
    CgConfig {
        max_iters: 200,
        tolerance: 1e-10,
        reduction,
    }
}

fn modes() -> [(&'static str, ReductionMode); 4] {
    [
        ("serial", ReductionMode::Deterministic),
        ("exact", ReductionMode::Reproducible),
        (
            "spa-v100",
            ReductionMode::GpuNonDeterministic {
                model: GpuModel::V100,
                seed: 3,
            },
        ),
        (
            "spa-h100",
            ReductionMode::GpuNonDeterministic {
                model: GpuModel::H100,
                seed: 4,
            },
        ),
    ]
}

fn matrices() -> [(&'static str, Csr); 2] {
    [
        ("poisson-12", Csr::poisson_2d(12)),
        ("random-spd-400", Csr::random_spd(400, 5, 17)),
    ]
}

fn solve_hash(a: &Csr, b: &[f64], reduction: ReductionMode) -> u64 {
    let cfg = config(reduction);
    let mut h = Fnv::new();
    h.trace(&conjugate_gradient(a, b, &cfg).expect("square system"));
    h.trace(&conjugate_gradient_traced(a, b, &cfg).expect("square system"));
    h.0
}

#[test]
fn solver_bits_are_pinned() {
    let expected = [
        ("poisson-12", "serial", 0xf839_768c_a5ff_e91bu64),
        ("poisson-12", "exact", 0xb4b2_37ca_7614_4349),
        ("poisson-12", "spa-v100", 0xd0ba_c53e_de1b_c858),
        ("poisson-12", "spa-h100", 0x86d3_a20a_2506_1849),
        ("random-spd-400", "serial", 0x484d_2ffe_0196_4ce6),
        ("random-spd-400", "exact", 0xeff0_3ffa_16dd_3f54),
        ("random-spd-400", "spa-v100", 0x03f4_8b58_8c40_8696),
        ("random-spd-400", "spa-h100", 0x5717_3e13_d381_cc95),
    ];
    let mut got = Vec::new();
    for (matrix, a) in matrices() {
        let b = rhs(a.rows(), 5);
        for (mode, reduction) in modes() {
            got.push((matrix, mode, solve_hash(&a, &b, reduction)));
        }
    }
    let moved: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|((m, r, h), _)| format!("({m:?}, {r:?}, {h:#018x})"))
        .collect();
    assert!(moved.is_empty(), "fingerprints moved: {moved:#?}");
}

#[test]
fn divergence_report_bits_are_pinned() {
    let a = Csr::poisson_2d(12);
    let b = rhs(a.rows(), 6);
    let cfg = config(ReductionMode::GpuNonDeterministic {
        model: GpuModel::H100,
        seed: 0,
    });
    let CgDivergence {
        vermv_per_iteration,
        vc_per_iteration,
        final_relative_diff,
        iterations,
    } = divergence_experiment(&a, &b, &cfg, (21, 22)).expect("square system");
    let mut h = Fnv::new();
    h.floats(&vermv_per_iteration);
    h.floats(&vc_per_iteration);
    h.word(final_relative_diff.to_bits());
    h.word(iterations.0 as u64);
    h.word(iterations.1 as u64);
    assert_eq!(h.0, 0x7643_4427_16a5_7f23, "got {:#018x}", h.0);
}
