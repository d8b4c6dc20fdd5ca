//! The GraphSAGE convolution layer, with manual gradients.
//!
//! `h'_v = σ( W_self·h_v + W_neigh·AGG({h_u : u ∈ N(v)}) + b )`
//!
//! The aggregation `AGG` (mean, or sum for the ablation) is one fused
//! gather → `index_add` kernel on the simulated GPU
//! ([`gather_index_add`]): per edge, the source node's row is added
//! into the destination node's row — the same structure as PyTorch
//! Geometric's SAGEConv, and the paper's single source of
//! non-determinism. The scatter appears in **both** the forward
//! aggregation and the backward scatter of gradients to neighbours, so
//! non-deterministic training compounds the effect across epochs
//! (§V-B).
//!
//! [`SageConv::backward`] is the composition of a parameter-gradient
//! half and an input-gradient half. The model's first layer runs only
//! the parameter half, because its input (the node features) takes no
//! gradient. It also does not scatter: it runs on constant sparse
//! operands derived once from its dataset (see
//! [`NodeClassification`](crate::graph::NodeClassification)).

use fpna_core::Result;
use fpna_tensor::context::GpuContext;
use fpna_tensor::ops::index::gather_index_add;
use fpna_tensor::Tensor;

use crate::graph::Graph;
use crate::linalg::{add_bias_rows, matmul, matmul_nt, matmul_tn, Csr};

/// Scale each node's feature row by `1 / degree` (the mean-aggregation
/// divisor), skipping isolated nodes. Rows are independent, so the
/// loop is row-blocked across the intra-run thread budget with bits
/// identical to the serial pass.
fn scale_rows_by_inv_degree(t: &mut Tensor, degree: &[u32]) {
    let d = t.shape()[1];
    let scale = |nodes: std::ops::Range<usize>, region: &mut [f64]| {
        for (local, v) in nodes.enumerate() {
            let deg = degree[v];
            if deg > 0 {
                let inv = 1.0 / deg as f64;
                for val in &mut region[local * d..(local + 1) * d] {
                    *val *= inv;
                }
            }
        }
    };
    let n = t.numel();
    let rows = t.shape()[0];
    if n >= 1 << 16 {
        fpna_core::executor::par_fill(t.data_mut(), d, scale);
    } else {
        scale(0..rows, t.data_mut());
    }
}

/// Neighbour aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Mean over neighbours (GraphSAGE default, used in the paper).
    Mean,
    /// Sum over neighbours (ablation `ablation_sage_agg`).
    Sum,
}

impl Aggregation {
    /// Mean/sum-aggregate neighbour rows of `x`: a fused gather →
    /// `index_add` over the edge list — the non-deterministic heart of
    /// the layer.
    pub(crate) fn aggregate(self, ctx: &GpuContext, graph: &Graph, x: &Tensor) -> Result<Tensor> {
        let mut summed =
            gather_index_add(ctx, graph.num_nodes, &graph.edge_dst, x, &graph.edge_src)?;
        if self == Aggregation::Mean {
            scale_rows_by_inv_degree(&mut summed, &graph.degree);
        }
        Ok(summed)
    }
}

/// The left operand `A` of a layer's weight products: `A · W` in the
/// forward pass, `Aᵀ · D` for the weight gradient.
pub(crate) trait Operand {
    /// `self · w`.
    fn mul(&self, w: &Tensor) -> Tensor;
    /// `selfᵀ · d`.
    fn t_mul(&self, d: &Tensor) -> Tensor;
}

impl Operand for Tensor {
    fn mul(&self, w: &Tensor) -> Tensor {
        matmul(self, w)
    }

    fn t_mul(&self, d: &Tensor) -> Tensor {
        matmul_tn(self, d)
    }
}

/// A constant operand held by row, for `A · W`, and by column, for
/// `Aᵀ · D`. Both products are bitwise those of the dense tensor.
#[derive(Debug, Clone)]
pub(crate) struct SparseOperand {
    by_row: Csr,
    by_col: Csr,
}

impl SparseOperand {
    pub(crate) fn new(a: &Tensor) -> Self {
        let by_row = Csr::from_dense(a);
        SparseOperand {
            by_col: by_row.transpose(),
            by_row,
        }
    }

    /// The dense tensor, with `+0.0` for every zero.
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Tensor {
        self.by_row.to_dense()
    }
}

impl Operand for SparseOperand {
    fn mul(&self, w: &Tensor) -> Tensor {
        self.by_row.matmul(w)
    }

    fn t_mul(&self, d: &Tensor) -> Tensor {
        self.by_col.matmul(d)
    }
}

/// One SAGE convolution layer.
#[derive(Debug, Clone)]
pub struct SageConv {
    /// Self weight, `[in, out]`.
    pub w_self: Tensor,
    /// Neighbour weight, `[in, out]`.
    pub w_neigh: Tensor,
    /// Bias, `[out]`.
    pub bias: Vec<f64>,
    /// Aggregation mode.
    pub aggregation: Aggregation,
    /// Apply ReLU after the affine map.
    pub relu: bool,
}

/// Forward-pass intermediates needed by the backward pass.
#[derive(Debug, Clone)]
pub struct SageCache {
    x: Tensor,
    agg: Tensor,
    pre_activation: Tensor,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone)]
pub struct SageGrads {
    /// Gradient of `w_self`.
    pub dw_self: Tensor,
    /// Gradient of `w_neigh`.
    pub dw_neigh: Tensor,
    /// Gradient of `bias`.
    pub dbias: Vec<f64>,
}

impl SageConv {
    /// Glorot-uniform initialised layer, fully determined by the seed.
    pub fn new(in_dim: usize, out_dim: usize, aggregation: Aggregation, relu: bool, seed: u64) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let init = |s: u64| {
            Tensor::rand(vec![in_dim, out_dim], s).map(|u| (2.0 * u - 1.0) * limit)
        };
        SageConv {
            w_self: init(seed),
            w_neigh: init(seed ^ 0x5eed_cafe),
            bias: vec![0.0; out_dim],
            aggregation,
            relu,
        }
    }

    /// The affine map, bias and activation on the input `x` and its
    /// aggregation `agg`. Returns the output and the pre-activation.
    pub(crate) fn apply(&self, x: &impl Operand, agg: &impl Operand) -> (Tensor, Tensor) {
        let mut pre = x.mul(&self.w_self);
        let neigh = agg.mul(&self.w_neigh);
        for (p, &n) in pre.data_mut().iter_mut().zip(neigh.data()) {
            *p += n;
        }
        add_bias_rows(&mut pre, &self.bias);
        let out = if self.relu { pre.map(|v| v.max(0.0)) } else { pre.clone() };
        (out, pre)
    }

    /// Forward pass. Returns the output and the cache for backward.
    pub fn forward(&self, ctx: &GpuContext, graph: &Graph, x: &Tensor) -> Result<(Tensor, SageCache)> {
        let agg = self.aggregation.aggregate(ctx, graph, x)?;
        let (out, pre_activation) = self.apply(x, &agg);
        Ok((
            out,
            SageCache {
                x: x.clone(),
                agg,
                pre_activation,
            },
        ))
    }

    /// `∂L/∂pre-activation`: `dout` through the ReLU gate.
    fn gate(&self, pre_activation: &Tensor, dout: &Tensor) -> Tensor {
        if self.relu {
            dout.zip(pre_activation, |g, p| if p > 0.0 { g } else { 0.0 })
        } else {
            dout.clone()
        }
    }

    /// Parameter half of the backward pass: given the operands and
    /// pre-activation of [`SageConv::apply`] and `dout = ∂L/∂output`,
    /// the gradients of `w_self`, `w_neigh` and `bias`. Deterministic
    /// in both modes.
    pub(crate) fn param_grads(
        &self,
        x: &impl Operand,
        agg: &impl Operand,
        pre_activation: &Tensor,
        dout: &Tensor,
    ) -> SageGrads {
        let out_dim = self.w_self.shape()[1];
        let dpre = self.gate(pre_activation, dout);
        let mut dbias = vec![0.0f64; out_dim];
        for row in dpre.data().chunks(out_dim) {
            for (b, &g) in dbias.iter_mut().zip(row) {
                *b += g;
            }
        }
        SageGrads {
            dw_self: x.t_mul(&dpre),
            dw_neigh: agg.t_mul(&dpre),
            dbias,
        }
    }

    /// Input half of the backward pass: `∂L/∂x` given `dout`. The
    /// gradient through the aggregation scatters back to neighbours
    /// (`dx[src] += dagg[dst]` per edge) with the fused gather →
    /// `index_add`, and is therefore non-deterministic in ND mode.
    fn input_grad(
        &self,
        ctx: &GpuContext,
        graph: &Graph,
        cache: &SageCache,
        dout: &Tensor,
    ) -> Result<Tensor> {
        let dpre = self.gate(&cache.pre_activation, dout);
        let mut dagg = matmul_nt(&dpre, &self.w_neigh); // [n, in]
        if self.aggregation == Aggregation::Mean {
            scale_rows_by_inv_degree(&mut dagg, &graph.degree);
        }
        let dx_agg = gather_index_add(
            ctx,
            graph.num_nodes,
            &graph.edge_src,
            &dagg,
            &graph.edge_dst,
        )?;
        let mut dx = matmul_nt(&dpre, &self.w_self);
        for (a, &b) in dx.data_mut().iter_mut().zip(dx_agg.data()) {
            *a += b;
        }
        Ok(dx)
    }

    /// Full backward pass: the parameter gradients and `∂L/∂x`
    /// (`param_grads` then `input_grad`).
    pub fn backward(
        &self,
        ctx: &GpuContext,
        graph: &Graph,
        cache: &SageCache,
        dout: &Tensor,
    ) -> Result<(SageGrads, Tensor)> {
        Ok((
            self.param_grads(&cache.x, &cache.agg, &cache.pre_activation, dout),
            self.input_grad(ctx, graph, cache, dout)?,
        ))
    }

    /// SGD step.
    pub fn apply_grads(&mut self, grads: &SageGrads, lr: f64) {
        for (w, &g) in self.w_self.data_mut().iter_mut().zip(grads.dw_self.data()) {
            *w -= lr * g;
        }
        for (w, &g) in self
            .w_neigh
            .data_mut()
            .iter_mut()
            .zip(grads.dw_neigh.data())
        {
            *w -= lr * g;
        }
        for (b, &g) in self.bias.iter_mut().zip(&grads.dbias) {
            *b -= lr * g;
        }
    }

    /// Flatten all parameters (for weight-divergence metrics).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = self.w_self.data().to_vec();
        out.extend_from_slice(self.w_neigh.data());
        out.extend_from_slice(&self.bias);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use fpna_gpu_sim::GpuModel;

    fn ctx_det() -> GpuContext {
        GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true))
    }

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    fn line_graph() -> Graph {
        Graph::from_undirected(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn mean_aggregation_semantics() {
        let g = line_graph();
        let x = Tensor::from_vec(vec![3, 1], vec![1.0, 10.0, 100.0]);
        let layer = SageConv::new(1, 1, Aggregation::Mean, false, 1);
        let agg = layer.aggregation.aggregate(&ctx_det(), &g, &x).unwrap();
        // node0 neighbours {1} -> 10; node1 {0,2} -> 50.5; node2 {1} -> 10
        assert_eq!(agg.data(), &[10.0, 50.5, 10.0]);
    }

    #[test]
    fn sum_aggregation_semantics() {
        let g = line_graph();
        let x = Tensor::from_vec(vec![3, 1], vec![1.0, 10.0, 100.0]);
        let layer = SageConv::new(1, 1, Aggregation::Sum, false, 1);
        let agg = layer.aggregation.aggregate(&ctx_det(), &g, &x).unwrap();
        assert_eq!(agg.data(), &[10.0, 101.0, 10.0]);
    }

    #[test]
    fn forward_shapes() {
        let g = line_graph();
        let x = Tensor::randn(vec![3, 4], 2);
        let layer = SageConv::new(4, 2, Aggregation::Mean, true, 3);
        let (out, cache) = layer.forward(&ctx_det(), &g, &x).unwrap();
        assert_eq!(out.shape(), &[3, 2]);
        assert!(out.data().iter().all(|&v| v >= 0.0), "relu output");
        assert_eq!(cache.agg.shape(), &[3, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let g = line_graph();
        let x = Tensor::randn(vec![3, 3], 4).map(|v| v * 0.5);
        let mut layer = SageConv::new(3, 2, Aggregation::Mean, true, 5);
        let ctx = ctx_det();
        // Loss = sum(out^2)/2 so dout = out.
        let loss_of = |l: &SageConv, xt: &Tensor| -> f64 {
            let (out, _) = l.forward(&ctx, &g, xt).unwrap();
            0.5 * out.data().iter().map(|v| v * v).sum::<f64>()
        };
        let (out, cache) = layer.forward(&ctx, &g, &x).unwrap();
        let (grads, dx) = layer.backward(&ctx, &g, &cache, &out).unwrap();
        let eps = 1e-6;

        // check dW_self[0,0]
        let base = loss_of(&layer, &x);
        layer.w_self.data_mut()[0] += eps;
        let bumped = loss_of(&layer, &x);
        layer.w_self.data_mut()[0] -= eps;
        let fd = (bumped - base) / eps;
        assert!(
            (fd - grads.dw_self.data()[0]).abs() < 1e-4 * fd.abs().max(1.0),
            "dw_self fd {fd} vs {}",
            grads.dw_self.data()[0]
        );

        // check dW_neigh[1,1]
        layer.w_neigh.data_mut()[3] += eps;
        let bumped = loss_of(&layer, &x);
        layer.w_neigh.data_mut()[3] -= eps;
        let fd = (bumped - base) / eps;
        assert!(
            (fd - grads.dw_neigh.data()[3]).abs() < 1e-4 * fd.abs().max(1.0),
            "dw_neigh fd {fd} vs {}",
            grads.dw_neigh.data()[3]
        );

        // check dbias[0]
        layer.bias[0] += eps;
        let bumped = loss_of(&layer, &x);
        layer.bias[0] -= eps;
        let fd = (bumped - base) / eps;
        assert!((fd - grads.dbias[0]).abs() < 1e-4 * fd.abs().max(1.0));

        // check dx[2]
        let mut x2 = x.clone();
        x2.data_mut()[2] += eps;
        let bumped = loss_of(&layer, &x2);
        let fd = (bumped - base) / eps;
        assert!(
            (fd - dx.data()[2]).abs() < 1e-4 * fd.abs().max(1.0),
            "dx fd {fd} vs {}",
            dx.data()[2]
        );
    }

    #[test]
    fn deterministic_forward_is_bitwise_stable() {
        let g = line_graph();
        let x = Tensor::randn(vec![3, 8], 6).map(|v| v * 1e4);
        let layer = SageConv::new(8, 4, Aggregation::Mean, true, 7);
        let (a, _) = layer.forward(&ctx_det().for_run(0), &g, &x).unwrap();
        let (b, _) = layer.forward(&ctx_det().for_run(1), &g, &x).unwrap();
        assert!(a.bitwise_eq(&b));
    }

    #[test]
    fn nd_forward_varies_on_dense_graph() {
        // A hub node with many neighbours makes the index_add
        // accumulation long enough for order effects to show.
        let links: Vec<(u32, u32)> = (1..3000u32).map(|i| (0, i)).collect();
        let g = Graph::from_undirected(3000, &links);
        let x = Tensor::randn(vec![3000, 2], 8).map(|v| v * 1e6);
        let layer = SageConv::new(2, 2, Aggregation::Mean, false, 9);
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let (out, _) = layer.forward(&ctx_nd(10).for_run(run), &g, &x).unwrap();
            bits.insert(out.data()[0].to_bits());
        }
        assert!(bits.len() > 1, "hub aggregation should be order-sensitive");
    }

    #[test]
    fn sgd_reduces_loss() {
        let g = line_graph();
        let x = Tensor::randn(vec![3, 3], 11);
        let target = Tensor::randn(vec![3, 2], 12);
        let mut layer = SageConv::new(3, 2, Aggregation::Mean, false, 13);
        let ctx = ctx_det();
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            let (out, cache) = layer.forward(&ctx, &g, &x).unwrap();
            let dout = out.zip(&target, |o, t| o - t);
            let loss: f64 = dout.data().iter().map(|d| d * d).sum::<f64>() * 0.5;
            let (grads, _) = layer.backward(&ctx, &g, &cache, &dout).unwrap();
            layer.apply_grads(&grads, 0.05);
            assert!(loss <= last * 1.001, "loss should trend down");
            last = loss;
        }
        assert!(last < 0.5, "final loss {last}");
    }
}
