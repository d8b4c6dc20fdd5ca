//! Integration of the process-global determinism switch (the
//! `torch.use_deterministic_algorithms` mirror) with the tensor ops —
//! including the documented-but-missing deterministic `scatter_reduce`
//! error the paper ran into.
//!
//! The switch is process-global, so these tests run in one file and
//! serialise on a mutex (separate integration-test binaries run in
//! separate processes, so they cannot interfere).

use std::sync::Mutex;

use fpna::core::determinism::{DeterminismGuard, DeterminismMode};
use fpna::core::error::FpnaError;
use fpna::gpu::GpuModel;
use fpna::tensor::context::GpuContext;
use fpna::tensor::ops::index::index_add;
use fpna::tensor::ops::lowp::scatter_reduce_f32;
use fpna::tensor::ops::scatter::{scatter_reduce, ReduceOp};
use fpna::tensor::Tensor;

/// A failing test poisons this lock; the others take it anyway, since
/// each test's `DeterminismGuard` restores the mode while unwinding.
static GLOBAL_SWITCH: Mutex<()> = Mutex::new(());

fn problem() -> (Tensor, Vec<u32>, Tensor) {
    let n = 4_096usize;
    let mut rng = fpna::core::rng::SplitMix64::new(1);
    let src = Tensor::from_vec(
        vec![n],
        (0..n).map(|_| rng.next_f64() * 1e8 - 5e7).collect(),
    );
    let index: Vec<u32> = (0..n).map(|_| rng.next_below(4) as u32).collect();
    (Tensor::zeros(vec![4]), index, src)
}

/// [`problem`] rounded to f32, for the single-precision variants.
fn problem_f32() -> (Vec<f32>, Vec<u32>, Vec<f32>) {
    let (_, index, src) = problem();
    (vec![0.0; 4], index, src.data().iter().map(|&x| x as f32).collect())
}

#[test]
fn global_deterministic_mode_makes_index_add_stable() {
    let _lock = GLOBAL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = DeterminismGuard::new(DeterminismMode::Deterministic);
    let (dst, index, src) = problem();
    // context defers to the global switch (determinism: None)
    let ctx = GpuContext::new(GpuModel::H100, 7);
    let a = index_add(&ctx.for_run(0), &dst, &index, &src).unwrap();
    let b = index_add(&ctx.for_run(1), &dst, &index, &src).unwrap();
    assert!(a.bitwise_eq(&b));
}

#[test]
fn global_deterministic_mode_errors_on_scatter_reduce() {
    let _lock = GLOBAL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = DeterminismGuard::new(DeterminismMode::Deterministic);
    let (dst, index, src) = problem();
    let ctx = GpuContext::new(GpuModel::H100, 7);
    let err = scatter_reduce(&ctx, &dst, &index, &src, ReduceOp::Sum).unwrap_err();
    assert!(matches!(
        err,
        FpnaError::NoDeterministicImplementation { op: "scatter_reduce" }
    ));
    let (dst32, index32, src32) = problem_f32();
    let err = scatter_reduce_f32(&ctx, &dst32, &index32, &src32, false).unwrap_err();
    assert!(matches!(
        err,
        FpnaError::NoDeterministicImplementation { op: "scatter_reduce" }
    ));
    // the same documented gap the paper hit: flipping the switch back
    // makes the op run (non-deterministically)
    drop(_guard);
    let _guard = DeterminismGuard::new(DeterminismMode::NonDeterministic);
    assert!(scatter_reduce(&ctx, &dst, &index, &src, ReduceOp::Sum).is_ok());
    assert!(scatter_reduce_f32(&ctx, &dst32, &index32, &src32, false).is_ok());
}

#[test]
fn warn_only_mode_runs_and_counts() {
    let _lock = GLOBAL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = DeterminismGuard::new(DeterminismMode::WarnOnly);
    let (dst, index, src) = problem();
    let ctx = GpuContext::new(GpuModel::H100, 7);
    let before = fpna::core::determinism::warning_count();
    assert!(scatter_reduce(&ctx, &dst, &index, &src, ReduceOp::Sum).is_ok());
    assert!(fpna::core::determinism::warning_count() > before);
    let (dst32, index32, src32) = problem_f32();
    let before = fpna::core::determinism::warning_count();
    assert!(scatter_reduce_f32(&ctx, &dst32, &index32, &src32, false).is_ok());
    assert!(fpna::core::determinism::warning_count() > before, "the f32 variant warns too");
}

#[test]
fn default_mode_is_nondeterministic_like_pytorch() {
    let _lock = GLOBAL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = DeterminismGuard::new(DeterminismMode::NonDeterministic);
    let (dst, index, src) = problem();
    let ctx = GpuContext::new(GpuModel::H100, 7);
    let mut bits = std::collections::HashSet::new();
    for run in 0..10 {
        let out = index_add(&ctx.for_run(run), &dst, &index, &src).unwrap();
        bits.insert(out.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    }
    assert!(bits.len() > 1, "default mode should expose FPNA");
}
