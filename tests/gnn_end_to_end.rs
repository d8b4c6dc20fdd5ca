//! End-to-end §V pipeline: synthetic Cora → GraphSAGE training →
//! inference on GPU-sim and LPU-sim, checking every reproducibility
//! claim across crate boundaries.

use fpna::core::harness::VariabilityReport;
use fpna::core::metrics::ArrayComparison;
use fpna::gpu::GpuModel;
use fpna::nn::cost::lpu_inference;
use fpna::nn::graph::{synthetic_cora, CoraParams};
use fpna::nn::model::{train_model, TrainConfig};
use fpna::nn::sage::Aggregation;
use fpna::tensor::context::GpuContext;

fn dataset() -> fpna::nn::graph::NodeClassification {
    let mut p = CoraParams::tiny();
    p.nodes = 200;
    p.links = 600;
    synthetic_cora(p, 21)
}

fn cfg() -> TrainConfig {
    TrainConfig {
        hidden: 8,
        lr: 0.5,
        epochs: 6,
        init_seed: 5,
        aggregation: Aggregation::Mean,
    }
}

#[test]
fn full_determinism_gives_bitwise_pipeline() {
    let ds = dataset();
    let det = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
    let (m1, l1) = train_model(&ds, &cfg(), &det).unwrap();
    let (m2, l2) = train_model(&ds, &cfg(), &det.for_run(99)).unwrap();
    assert_eq!(l1, l2, "loss trajectories must match exactly");
    let p1 = m1.predict(&det, &ds).unwrap();
    let p2 = m2.predict(&det, &ds).unwrap();
    assert!(p1.bitwise_eq(&p2));
}

#[test]
fn nd_training_diverges_but_learns_equally_well() {
    let ds = dataset();
    let nd_a = GpuContext::new(GpuModel::H100, 2).with_determinism(Some(false));
    let nd_b = GpuContext::new(GpuModel::H100, 3).with_determinism(Some(false));
    let (ma, la) = train_model(&ds, &cfg(), &nd_a).unwrap();
    let (mb, lb) = train_model(&ds, &cfg(), &nd_b).unwrap();
    let cmp = ArrayComparison::compare(&ma.flat_params(), &mb.flat_params());
    assert!(!cmp.bitwise_identical(), "ND training must diverge");
    // similar loss despite different weights
    let (fa, fb) = (la.last().unwrap(), lb.last().unwrap());
    assert!((fa - fb).abs() < 0.25 * fa.abs().max(0.1), "losses {fa} vs {fb}");
    // both models beat chance
    let det = GpuContext::new(GpuModel::H100, 4).with_determinism(Some(true));
    for m in [&ma, &mb] {
        let acc = m.accuracy(&det, &ds).unwrap();
        assert!(acc > 1.2 / 4.0, "accuracy {acc}");
    }
}

#[test]
fn lpu_matches_deterministic_gpu_bitwise_for_this_model() {
    // The LPU executor performs the same operations in the same fixed
    // orders as the deterministic GPU path, so the probabilities agree
    // to fp equality (and in practice bitwise — assert approx here and
    // bitwise stability separately).
    let ds = dataset();
    let det = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
    let (model, _) = train_model(&ds, &cfg(), &det).unwrap();
    let gpu = model.predict(&det, &ds).unwrap();
    let (lpu1, t1) = lpu_inference(&ds, &model).unwrap();
    let (lpu2, t2) = lpu_inference(&ds, &model).unwrap();
    assert_eq!(t1, t2);
    for (a, b) in lpu1.iter().zip(&lpu2) {
        assert_eq!(a.to_bits(), b.to_bits(), "LPU must be bitwise stable");
    }
    for (a, b) in gpu.data().iter().zip(&lpu1) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn inference_mode_matrix_ordering() {
    // The Table 7 ordering: DD = 0 <= DND <= NDND in Vc (statistical,
    // but with compounding training noise the ordering is robust even
    // at small scale for the D rows).
    let ds = dataset();
    let rows: Vec<VariabilityReport> =
        fpna::nn::train::train_inference_comparisons(&ds, &cfg(), GpuModel::H100, 2, 31, 0..2)
            .unwrap()
            .iter()
            .map(|comparisons| VariabilityReport::from_comparisons(comparisons))
            .collect();
    assert_eq!(rows[0].vc.mean, 0.0, "D/D must be exactly reproducible");
    assert!(rows[3].vc.mean > 0.0, "ND/ND must vary");
    assert!(rows[3].vc.mean >= rows[1].vc.mean * 0.5);
}
