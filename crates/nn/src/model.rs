//! The two-layer GraphSAGE node classifier of §V, with cross-entropy
//! loss and SGD — the paper's experimental model (two `SAGEConv`
//! layers, trained 10 epochs on Cora).

use fpna_core::Result;
use fpna_tensor::context::GpuContext;
use fpna_tensor::Tensor;

use crate::graph::NodeClassification;
use crate::linalg::softmax_rows;
use crate::sage::{Aggregation, SageConv};

/// Hyperparameters of the training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Hidden width of the first SAGE layer.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Number of full-batch epochs (the paper uses 10).
    pub epochs: usize,
    /// Weight-initialisation seed — *identical across runs*, so the
    /// only run-to-run difference is the kernel commit order.
    pub init_seed: u64,
    /// Aggregation used by both layers.
    pub aggregation: Aggregation,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hidden: 16,
            lr: 0.5,
            epochs: 10,
            init_seed: 0xC0FFEE,
            aggregation: Aggregation::Mean,
        }
    }
}

/// The two-layer GraphSAGE model.
#[derive(Debug, Clone)]
pub struct GraphSage {
    /// First layer (ReLU).
    pub layer1: SageConv,
    /// Second layer (logits).
    pub layer2: SageConv,
}

impl GraphSage {
    /// Initialise for a dataset's dimensions.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, cfg: &TrainConfig) -> Self {
        GraphSage {
            layer1: SageConv::new(in_dim, hidden, cfg.aggregation, true, cfg.init_seed),
            layer2: SageConv::new(hidden, classes, cfg.aggregation, false, cfg.init_seed ^ 0xBEEF),
        }
    }

    /// Forward pass to logits. Layer 1 runs on the dataset's constant
    /// operands, so only layer 2 scatters.
    pub fn forward(&self, ctx: &GpuContext, ds: &NodeClassification) -> Result<Tensor> {
        let (x, agg) = ds.layer1_operands(self.layer1.aggregation);
        let (h1, _) = self.layer1.apply(x, agg);
        let (logits, _) = self.layer2.forward(ctx, ds.graph(), &h1)?;
        Ok(logits)
    }

    /// Class predictions (softmax probabilities) — the "inference
    /// output" compared in Table 7.
    pub fn predict(&self, ctx: &GpuContext, ds: &NodeClassification) -> Result<Tensor> {
        Ok(softmax_rows(&self.forward(ctx, ds)?))
    }

    /// One full-batch training epoch; returns the masked cross-entropy
    /// loss *before* the update.
    pub fn train_epoch(&mut self, ctx: &GpuContext, ds: &NodeClassification, lr: f64) -> Result<f64> {
        let (x, agg) = ds.layer1_operands(self.layer1.aggregation);
        let (h1, pre1) = self.layer1.apply(x, agg);
        let (logits, cache2) = self.layer2.forward(ctx, ds.graph(), &h1)?;
        let probs = softmax_rows(&logits);
        let n_train = ds.train_mask.iter().filter(|&&m| m).count().max(1);
        let classes = ds.num_classes;

        // Masked cross-entropy and its gradient wrt logits:
        // (softmax − one-hot) / n_train on masked rows, 0 elsewhere.
        let mut loss = 0.0f64;
        let mut dlogits = Tensor::zeros(vec![ds.graph().num_nodes, classes]);
        for v in 0..ds.graph().num_nodes {
            if !ds.train_mask[v] {
                continue;
            }
            let label = ds.labels[v] as usize;
            let p = probs.row(v);
            loss -= p[label].max(1e-300).ln();
            let drow = &mut dlogits.data_mut()[v * classes..(v + 1) * classes];
            for c in 0..classes {
                drow[c] = (p[c] - if c == label { 1.0 } else { 0.0 }) / n_train as f64;
            }
        }
        loss /= n_train as f64;

        let (grads2, dh1) = self.layer2.backward(ctx, ds.graph(), &cache2, &dlogits)?;
        // The features take no gradient (as in PyTorch), so layer 1
        // stops at its parameters: no input-gradient scatter.
        let grads1 = self.layer1.param_grads(x, agg, &pre1, &dh1);
        self.layer2.apply_grads(&grads2, lr);
        self.layer1.apply_grads(&grads1, lr);
        Ok(loss)
    }

    /// Fraction of correctly classified nodes (all nodes).
    pub fn accuracy(&self, ctx: &GpuContext, ds: &NodeClassification) -> Result<f64> {
        let logits = self.forward(ctx, ds)?;
        let classes = ds.num_classes;
        let mut correct = 0usize;
        for v in 0..ds.graph().num_nodes {
            let row = logits.row(v);
            let pred = (0..classes)
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .unwrap();
            if pred == ds.labels[v] as usize {
                correct += 1;
            }
        }
        Ok(correct as f64 / ds.graph().num_nodes as f64)
    }

    /// All parameters flattened — the weight vector whose run-to-run
    /// divergence §V-B tracks.
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = self.layer1.flat_params();
        out.extend(self.layer2.flat_params());
        out
    }
}

/// Train a fresh model for `cfg.epochs` epochs under the given context
/// (deterministic or not). Per-epoch losses are returned alongside.
pub fn train_model(
    ds: &NodeClassification,
    cfg: &TrainConfig,
    ctx: &GpuContext,
) -> Result<(GraphSage, Vec<f64>)> {
    let mut model = GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, cfg);
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        // each epoch is a fresh "launch": re-key the schedule
        let epoch_ctx = ctx.for_run(epoch as u64);
        losses.push(model.train_epoch(&epoch_ctx, ds, cfg.lr)?);
    }
    Ok((model, losses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{synthetic_cora, CoraParams};
    use fpna_gpu_sim::GpuModel;

    fn ctx_det() -> GpuContext {
        GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true))
    }

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    fn tiny() -> NodeClassification {
        synthetic_cora(CoraParams::tiny(), 42)
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            hidden: 8,
            lr: 0.5,
            epochs: 10,
            init_seed: 7,
            aggregation: Aggregation::Mean,
        }
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let ds = tiny();
        let (model, losses) = train_model(&ds, &tiny_cfg(), &ctx_det()).unwrap();
        assert_eq!(losses.len(), 10);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss {:?} should decrease",
            losses
        );
        let acc = model.accuracy(&ctx_det(), &ds).unwrap();
        assert!(acc > 1.5 / 4.0, "accuracy {acc} should beat chance");
    }

    #[test]
    fn deterministic_training_is_bitwise_reproducible() {
        let ds = tiny();
        let cfg = tiny_cfg();
        let (a, _) = train_model(&ds, &cfg, &ctx_det()).unwrap();
        let (b, _) = train_model(&ds, &cfg, &ctx_det()).unwrap();
        assert_eq!(
            a.flat_params()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            b.flat_params()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn nd_training_produces_unique_models() {
        // The §V-B headline: identical inputs, identical init, unique
        // weights per run.
        let ds = tiny();
        let cfg = tiny_cfg();
        let mut fingerprints = std::collections::HashSet::new();
        for run in 0..4 {
            let ctx = ctx_nd(100 + run);
            let (model, _) = train_model(&ds, &cfg, &ctx).unwrap();
            let fp: Vec<u64> = model.flat_params().iter().map(|x| x.to_bits()).collect();
            fingerprints.insert(fp);
        }
        assert!(
            fingerprints.len() >= 2,
            "ND training should diverge across runs (got {} unique)",
            fingerprints.len()
        );
    }

    #[test]
    fn predictions_are_probabilities() {
        let ds = tiny();
        let (model, _) = train_model(&ds, &tiny_cfg(), &ctx_det()).unwrap();
        let p = model.predict(&ctx_det(), &ds).unwrap();
        for v in 0..ds.graph().num_nodes {
            let row_sum: f64 = p.row(v).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn losses_converge_similarly_despite_nd() {
        // §V-B: "Despite this variability all models converge to
        // similar loss values."
        let ds = tiny();
        let cfg = tiny_cfg();
        let (_, det_losses) = train_model(&ds, &cfg, &ctx_det()).unwrap();
        let (_, nd_losses) = train_model(&ds, &cfg, &ctx_nd(5)).unwrap();
        let final_det = det_losses.last().unwrap();
        let final_nd = nd_losses.last().unwrap();
        assert!(
            (final_det - final_nd).abs() < 0.2 * final_det.abs().max(0.1),
            "det {final_det} vs nd {final_nd}"
        );
    }
}
