//! Bit fingerprints of short GraphSAGE trainings on synthetic Cora.
//!
//! Each case trains a fresh model for a few epochs (D or ND) and
//! hashes every output bit of the §V pipeline: the per-epoch losses,
//! the final `flat_params`, and the predictions of D and ND inference.
//! The expected hashes are pinned constants, so a kernel change that
//! moves a single bit of training or inference — a different commit
//! order, a reordered sum, a dropped or added scatter that shifts a
//! later draw — fails here. Cases cover a warp-multiple feature width
//! (32, `CoraParams::tiny()`) and a ragged one (45), both
//! aggregations, and warp widths 32 (H100) and 64 (MI250X).

use fpna_gpu_sim::GpuModel;
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::{train_model, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;

/// FNV-1a over the little-endian bits of each value.
fn hash_into(hash: &mut u64, xs: &[f64]) {
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn fingerprint(
    model: GpuModel,
    features: usize,
    aggregation: Aggregation,
    deterministic_training: bool,
) -> u64 {
    let ds = synthetic_cora(
        CoraParams {
            features,
            ..CoraParams::tiny()
        },
        42,
    );
    let cfg = TrainConfig {
        hidden: 8,
        lr: 0.5,
        epochs: 4,
        init_seed: 7,
        aggregation,
    };
    let train = GpuContext::new(model, 11).with_determinism(Some(deterministic_training));
    let (net, losses) = train_model(&ds, &cfg, &train).expect("valid shapes");
    let d_infer = GpuContext::new(model, 12).with_determinism(Some(true));
    let nd_infer = GpuContext::new(model, 13).with_determinism(Some(false));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    hash_into(&mut hash, &losses);
    hash_into(&mut hash, &net.flat_params());
    hash_into(
        &mut hash,
        net.predict(&d_infer, &ds).expect("valid shapes").data(),
    );
    hash_into(
        &mut hash,
        net.predict(&nd_infer, &ds).expect("valid shapes").data(),
    );
    hash
}

#[test]
fn training_and_inference_bits_are_pinned() {
    use Aggregation::{Mean, Sum};
    use GpuModel::{Mi250x, H100};
    let cases = [
        (H100, 32, Mean, true, 0x8be7_c796_2d1e_6e9e),
        (H100, 32, Mean, false, 0x055a_883c_3d6c_4811),
        (H100, 45, Mean, true, 0x9da5_64a7_267c_57ee),
        (H100, 45, Mean, false, 0xecf7_beb3_4d4b_4a3b),
        (H100, 45, Sum, false, 0x714a_48cf_f163_75ff),
        (Mi250x, 45, Mean, false, 0xff47_4d31_746d_62d7),
    ];
    let mut mismatches = Vec::new();
    for (model, features, aggregation, det, expected) in cases {
        let got = fingerprint(model, features, aggregation, det);
        if got != expected {
            mismatches.push(format!(
                "({model:?}, {features}, {aggregation:?}, {det}, {got:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved: {mismatches:#?}");
}
