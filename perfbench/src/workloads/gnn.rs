//! `gnn_train`: the §V GraphSAGE pipeline of Table 7, the only path
//! through `tensor` (`gather_rows`, ND and D `index_add`) and `nn`
//! (matmuls, SGD).
//!
//! Per op: one ND training epoch, then one D inference, on synthetic
//! Cora (2708 nodes, 5429 links, 7 classes, hidden 16) at 128 features.
//! The model restarts from its initial weights every [`CYCLE`] epochs,
//! so the op stream repeats the paper's 10-epoch training run. 128
//! features keep Cora's graph and code path while cutting an epoch
//! ~13× against the full 1433, so a run holds enough ops for a p90.

use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::derive_seed;
use fpna_gpu_sim::GpuModel;
use fpna_nn::graph::{synthetic_cora, CoraParams, NodeClassification};
use fpna_nn::model::{train_model, GraphSage, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;

use super::Workload;
use crate::trace::Tracer;

/// Epochs per training run (the paper's 10).
pub const CYCLE: u64 = 10;

pub struct Gnn {
    ds: NodeClassification,
    lr: f64,
    init: GraphSage,
    model: GraphSage,
    /// D-inference predictions of the D-trained model after [`CYCLE`]
    /// epochs: the D/D reference of Table 7.
    reference: Vec<f64>,
}

impl Gnn {
    pub fn new(seed: u64, tiny: bool, tr: &mut Tracer) -> Self {
        let (params, hidden) = if tiny {
            (CoraParams::tiny(), 8)
        } else {
            (
                CoraParams {
                    features: 128,
                    ..CoraParams::cora()
                },
                16,
            )
        };
        let ds = tr.span("nn.dataset", |_| {
            synthetic_cora(params, derive_seed(seed, 0xC04A))
        });
        let cfg = TrainConfig {
            hidden,
            lr: 0.5,
            epochs: CYCLE as usize,
            init_seed: derive_seed(seed, 0x1717),
            aggregation: Aggregation::Mean,
        };
        let reference = tr.span("nn.reference_train", |_| {
            let det = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(true));
            let (model, _) = train_model(&ds, &cfg, &det).expect("Cora shapes are valid");
            model
                .predict(&det, &ds)
                .expect("Cora shapes are valid")
                .into_data()
        });
        let init = GraphSage::new(params.features, hidden, params.classes, &cfg);
        Gnn {
            ds,
            lr: cfg.lr,
            model: init.clone(),
            init,
            reference,
        }
    }
}

impl Workload for Gnn {
    fn op(&mut self, i: u64, s: u64, tr: &mut Tracer) -> bool {
        if i.is_multiple_of(CYCLE) {
            self.model = self.init.clone();
        }
        let nd = GpuContext::new(GpuModel::H100, s).with_determinism(Some(false));
        let loss = tr.span("nn.train_epoch", |_| {
            self.model.train_epoch(&nd, &self.ds, self.lr)
        });
        let d = GpuContext::new(GpuModel::H100, s ^ 0xF00D).with_determinism(Some(true));
        let pred = tr.span("nn.predict", |_| self.model.predict(&d, &self.ds));
        let (Ok(loss), Ok(pred)) = (loss, pred) else {
            return false;
        };
        tr.span("core.compare", |_| {
            loss.is_finite()
                && (i % CYCLE != CYCLE - 1
                    || ArrayComparison::compare(&self.reference, pred.data()).vermv < 1e-12)
        })
    }
}
