//! Inference runtime models — the Table 8 comparison.
//!
//! * GPU path: framework overhead + the per-layer `index_add` kernel
//!   cost from `fpna-tensor`'s cost model. The deterministic kernel's
//!   sort-based aggregation makes deterministic inference slower
//!   (paper: 3.92 ms vs 2.17 ms on the H100).
//! * LPU path: an actual compiled `fpna-lpu-sim` program for the full
//!   two-layer GraphSAGE forward pass — the runtime is the compiled
//!   cycle count, a constant.

use fpna_core::Result;
use fpna_gpu_sim::profile::DeviceProfile;
use fpna_lpu_sim::program::{Program, TensorShape};
use fpna_lpu_sim::machine::{Lpu, Tensor2};
use fpna_lpu_sim::spec::LpuSpec;
use fpna_tensor::cost::{op_time_us, TimedOp};

use crate::graph::NodeClassification;
use crate::model::GraphSage;

/// Fixed framework overhead of a full GraphSAGE forward pass on the
/// GPU (dispatcher, Python glue, launch queue), in ms. Calibrated to
/// Table 8's H100 column.
const FRAMEWORK_OVERHEAD_MS: f64 = 2.0;

/// Estimated end-to-end GraphSAGE inference time on a GPU profile.
pub fn gpu_inference_time_ms(
    profile: &DeviceProfile,
    ds: &NodeClassification,
    hidden: usize,
    deterministic: bool,
) -> f64 {
    let edges = ds.graph().num_edges();
    let feat = ds.features().shape()[1];
    let l1 = op_time_us(profile, TimedOp::IndexAdd, edges * feat, deterministic)
        .expect("index_add has kernels in both modes");
    let l2 = op_time_us(profile, TimedOp::IndexAdd, edges * hidden, deterministic)
        .expect("index_add has kernels in both modes");
    // dense matmuls: bandwidth-dominated at these shapes
    let matmul_bytes =
        8.0 * (ds.graph().num_nodes * (feat + hidden)) as f64;
    let matmul_us = matmul_bytes / profile.effective_bandwidth_gbps / 1e3;
    FRAMEWORK_OVERHEAD_MS + (l1 + l2 + matmul_us) / 1e3
}

/// Compile the two-layer GraphSAGE forward pass as a static LPU
/// program, run it, and return `(probabilities, fixed time in µs)`.
///
/// The gather/scatter index sets are compile-time constants — exactly
/// how a statically scheduled accelerator ingests a fixed graph — so
/// the runtime is known before execution and carries no error bar.
pub fn lpu_inference(ds: &NodeClassification, model: &GraphSage) -> Result<(Vec<f64>, f64)> {
    let n = ds.graph().num_nodes;
    let feat = ds.features().shape()[1];
    let hidden = model.layer1.w_self.shape()[1];
    let classes = model.layer2.w_self.shape()[1];

    let mut p = Program::new();
    let x = p.input(TensorShape::new(n, feat));
    let w_self1 = p.input(TensorShape::new(feat, hidden));
    let w_neigh1 = p.input(TensorShape::new(feat, hidden));
    let b1 = p.input(TensorShape::new(1, hidden));
    let w_self2 = p.input(TensorShape::new(hidden, classes));
    let w_neigh2 = p.input(TensorShape::new(hidden, classes));
    let b2 = p.input(TensorShape::new(1, classes));

    let layer = |p: &mut Program, h, w_self, w_neigh, bias, relu: bool| {
        let gathered = p.gather_rows(h, ds.graph().edge_src.clone());
        let summed = p.scatter_add_rows(gathered, ds.graph().edge_dst.clone(), n);
        let agg = p.div_row_counts(summed, ds.graph().degree.clone());
        let own = p.matmul(h, w_self);
        let nb = p.matmul(agg, w_neigh);
        let sum = p.add(own, nb);
        let biased = p.add_row_broadcast(sum, bias);
        if relu {
            p.relu(biased)
        } else {
            biased
        }
    };
    let h1 = layer(&mut p, x, w_self1, w_neigh1, b1, true);
    let logits = layer(&mut p, h1, w_self2, w_neigh2, b2, false);
    let probs = p.softmax_rows(logits);
    p.output(probs);

    let lpu = Lpu::new(LpuSpec::groq_like());
    let compiled = lpu.compile(p)?;
    let time_us = compiled.time_us();

    let as_t2 = |t: &fpna_tensor::Tensor| {
        Tensor2::new(t.shape()[0], t.shape()[1], t.data().to_vec())
    };
    let bias_t2 = |b: &[f64]| Tensor2::new(1, b.len(), b.to_vec());
    let outputs = compiled.run(&[
        as_t2(ds.features()),
        as_t2(&model.layer1.w_self),
        as_t2(&model.layer1.w_neigh),
        bias_t2(&model.layer1.bias),
        as_t2(&model.layer2.w_self),
        as_t2(&model.layer2.w_neigh),
        bias_t2(&model.layer2.bias),
    ])?;
    Ok((outputs[0].data.clone(), time_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{synthetic_cora, CoraParams};
    use crate::model::{train_model, TrainConfig};
    use crate::sage::Aggregation;
    use fpna_gpu_sim::profile::GpuModel;
    use fpna_tensor::context::GpuContext;

    fn tiny() -> NodeClassification {
        synthetic_cora(CoraParams::tiny(), 5)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            hidden: 8,
            lr: 0.5,
            epochs: 3,
            init_seed: 1,
            aggregation: Aggregation::Mean,
        }
    }

    #[test]
    fn table8_shape_on_h100() {
        let ds = synthetic_cora(CoraParams::cora(), 2);
        let h100 = DeviceProfile::new(GpuModel::H100);
        let det = gpu_inference_time_ms(&h100, &ds, 16, true);
        let nd = gpu_inference_time_ms(&h100, &ds, 16, false);
        assert!(det > nd, "deterministic inference slower: {det} vs {nd}");
        // paper: 3.92 and 2.17 ms — we match the scale
        assert!((nd - 2.17).abs() < 0.6, "nd {nd}");
        assert!((det - 3.92).abs() < 1.2, "det {det}");
    }

    #[test]
    fn lpu_inference_matches_deterministic_gpu_inference() {
        let ds = tiny();
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        let (model, _) = train_model(&ds, &cfg(), &ctx).unwrap();
        let gpu_probs = model.predict(&ctx, &ds).unwrap();
        let (lpu_probs, time_us) = lpu_inference(&ds, &model).unwrap();
        assert!(time_us > 0.0);
        assert_eq!(lpu_probs.len(), gpu_probs.numel());
        for (a, b) in gpu_probs.data().iter().zip(&lpu_probs) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn lpu_inference_is_bitwise_deterministic_with_fixed_time() {
        let ds = tiny();
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        let (model, _) = train_model(&ds, &cfg(), &ctx).unwrap();
        let (a, t1) = lpu_inference(&ds, &model).unwrap();
        let (b, t2) = lpu_inference(&ds, &model).unwrap();
        assert_eq!(t1, t2, "LPU runtime is a constant");
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lpu_is_far_faster_than_gpu_framework_path() {
        // Mid-size graph: big enough for a meaningful cost comparison,
        // small enough for a debug-mode test. The full-Cora numbers are
        // produced by the `table8` bench binary in release mode.
        let mut p = CoraParams::tiny();
        p.nodes = 500;
        p.features = 128;
        p.links = 1_500;
        let ds = synthetic_cora(p, 3);
        let h100 = DeviceProfile::new(GpuModel::H100);
        let nd_ms = gpu_inference_time_ms(&h100, &ds, 8, false);
        let model =
            crate::model::GraphSage::new(ds.features().shape()[1], 8, ds.num_classes, &cfg());
        let (_, lpu_us) = lpu_inference(&ds, &model).unwrap();
        assert!(
            lpu_us / 1e3 < nd_ms / 2.0,
            "LPU ({lpu_us} us) should be several times faster than GPU ND ({nd_ms} ms)"
        );
    }
}
