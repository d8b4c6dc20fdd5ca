//! Cross-crate integration: the simulated GPU's non-deterministic
//! kernels feeding the core variability reports and the statistics
//! substrate — the full §III experimental pipeline in one test file.

use fpna::core::harness::VariabilityReport;
use fpna::core::metrics::{scalar_variability, ArrayComparison};
use fpna::gpu::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna::stats::describe::Describe;
use fpna::stats::kl::kl_vs_fitted_normal;
use fpna::stats::samplers::{Distribution, Sampler};

fn array(n: usize, seed: u64) -> Vec<f64> {
    Sampler::new(Distribution::paper_uniform(), seed).sample_vec(n)
}

#[test]
fn spa_variability_distribution_end_to_end() {
    let xs = array(200_000, 1);
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::new(64, 1563);
    let det = device
        .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
        .unwrap()
        .value;
    let vs: Vec<f64> = (0..300)
        .map(|r| {
            let nd = device
                .reduce(ReduceKernel::Spa, &xs, params, &ScheduleKind::Seeded(2).for_run(r))
                .unwrap()
                .value;
            scalar_variability(nd, det) * 1e16
        })
        .collect();
    let d = Describe::of(&vs);
    // variability exists, is tiny in absolute terms, and is roughly
    // centred within a few sigma of zero
    assert!(d.std_dev > 0.0, "SPA must vary");
    assert!(d.mean.abs() < 20.0 * d.std_dev);
    // KL against a fitted normal is finite and small-ish for SPA
    let (kl, _, _) = kl_vs_fitted_normal(&vs, 24);
    assert!(kl.is_finite());
    assert!(kl < 1.0, "SPA KL should be modest, got {kl}");
}

/// The repeated-run template as `fig1` runs it: 25 seeded runs through
/// `reduce_runs`, each compared against the in-order reference and
/// folded into one report.
#[test]
fn harness_classifies_kernels_correctly() {
    let xs = array(50_000, 3);
    let device = GpuDevice::new(GpuModel::Gh200);
    let params = KernelParams::new(128, 256);
    for kernel in [
        ReduceKernel::Cu,
        ReduceKernel::Sptr,
        ReduceKernel::Sprg,
        ReduceKernel::Tprc,
        ReduceKernel::Spa,
    ] {
        let reference = device
            .reduce(kernel, &xs, params, &ScheduleKind::InOrder)
            .unwrap()
            .value;
        let runs = device
            .reduce_runs(kernel, &xs, params, &ScheduleKind::Seeded(9), 0..25)
            .unwrap();
        let comparisons: Vec<ArrayComparison> = runs
            .iter()
            .map(|run| ArrayComparison::compare(&[reference], &[run.value]))
            .collect();
        let report = VariabilityReport::from_comparisons(&comparisons);
        if kernel.is_deterministic() {
            assert!(
                report.fully_reproducible(),
                "{} should be schedule-invariant",
                kernel.name()
            );
        } else {
            assert!(
                !report.fully_reproducible(),
                "{} should vary across schedules",
                kernel.name()
            );
        }
    }
}

#[test]
fn adversarial_schedules_bound_the_variability() {
    // Failure injection: reverse and in-order schedules give the
    // extreme association orders; seeded schedules must fall between
    // reasonable bounds around the deterministic value.
    let xs = array(100_000, 4);
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::new(64, 782);
    let det = device
        .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
        .unwrap()
        .value;
    let mut worst = 0.0f64;
    for kind in [
        ScheduleKind::InOrder,
        ScheduleKind::Reverse,
        ScheduleKind::Seeded(5),
        ScheduleKind::UniformRandom(6),
    ] {
        let v = device
            .reduce(ReduceKernel::Spa, &xs, params, &kind)
            .unwrap()
            .value;
        worst = worst.max((v - det).abs() / det.abs());
    }
    assert!(worst > 0.0, "some schedule must perturb the sum");
    assert!(worst < 1e-10, "FPNA is a rounding-level effect, got {worst}");
}

#[test]
fn timing_model_is_consistent_with_outcome_flags() {
    let xs = array(4_096, 7);
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::new(64, 16);
    let spa = device
        .reduce(ReduceKernel::Spa, &xs, params, &ScheduleKind::Seeded(1))
        .unwrap();
    let ao = device
        .reduce(ReduceKernel::Ao, &xs, params, &ScheduleKind::Seeded(1))
        .unwrap();
    assert!(!spa.deterministic && !ao.deterministic);
    assert!(
        ao.time_ns > spa.time_ns,
        "AO must be slower even at small n"
    );
}
