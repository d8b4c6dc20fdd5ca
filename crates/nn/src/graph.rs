//! Graph representation and the synthetic Cora generator.
//!
//! The paper trains on Cora: 2708 scientific publications in 7
//! classes, 5429 citation links, 1433-dimensional bag-of-words
//! features. The real dataset is a download; the experiment, however,
//! only needs *a fixed graph of the same shape* — it measures
//! divergence between repeated runs on identical inputs, so any seeded
//! graph exercising the same `index_add` code path preserves the
//! behaviour (substitution documented in DESIGN.md). The generator
//! produces a class-assortative stochastic-block-model-like citation
//! graph with sparse class-correlated features.

use std::sync::OnceLock;

use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::GpuModel;
use fpna_tensor::context::GpuContext;
use fpna_tensor::Tensor;

use crate::sage::{Aggregation, SparseOperand};

/// An undirected graph stored as a directed edge list (both
/// directions), plus per-node degrees.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Directed edges: `edge_src[e] → edge_dst[e]`. Each undirected
    /// link appears in both directions, matching PyG's representation.
    pub edge_src: Vec<u32>,
    /// Destination node of each directed edge.
    pub edge_dst: Vec<u32>,
    /// In-degree of every node (the mean-aggregation divisor).
    pub degree: Vec<u32>,
}

impl Graph {
    /// Build from undirected links, expanding both directions.
    ///
    /// # Panics
    ///
    /// Panics if a link references a node `>= num_nodes`.
    pub fn from_undirected(num_nodes: usize, links: &[(u32, u32)]) -> Self {
        let mut edge_src = Vec::with_capacity(links.len() * 2);
        let mut edge_dst = Vec::with_capacity(links.len() * 2);
        let mut degree = vec![0u32; num_nodes];
        for &(a, b) in links {
            assert!(
                (a as usize) < num_nodes && (b as usize) < num_nodes,
                "link ({a}, {b}) out of range"
            );
            edge_src.push(a);
            edge_dst.push(b);
            degree[b as usize] += 1;
            edge_src.push(b);
            edge_dst.push(a);
            degree[a as usize] += 1;
        }
        Graph {
            num_nodes,
            edge_src,
            edge_dst,
            degree,
        }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }
}

/// A node-classification dataset: graph, features, labels, train mask.
///
/// The graph and features are read-only, because GraphSAGE's first
/// layer runs on operands derived from them once: the features'
/// nonzeros, and per [`Aggregation`] mode their neighbour aggregation,
/// built on first use with the deterministic kernel.
///
/// The aggregation is the same in every commit order, and this is
/// checked, not assumed: every feature must be a finite integer with
/// `|x| · max in-degree ≤ 2^53`. Then each partial sum of a node's
/// aggregation, in any order, adds at most in-degree integers and stays
/// within ±2^53, so it is exact; and a zero sum is `+0.0` in every
/// order, because the sum starts from `+0.0`. The non-deterministic
/// scatter could only return the deterministic bits.
#[derive(Debug, Clone)]
pub struct NodeClassification {
    graph: Graph,
    features: Tensor,
    /// Class label per node.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Nodes that contribute to the training loss.
    pub train_mask: Vec<bool>,
    sparse_features: SparseOperand,
    mean_aggregation: OnceLock<SparseOperand>,
    sum_aggregation: OnceLock<SparseOperand>,
}

/// `Err` naming the first feature that is not a finite integer with
/// `|x| · max in-degree ≤ 2^53`: the condition under which the
/// neighbour aggregation is exact in every commit order (see
/// [`NodeClassification`]). The product is taken in integers, because
/// in `f64` it could round down onto the bound.
fn check_exact_aggregation(graph: &Graph, features: &Tensor) -> Result<(), String> {
    let max_in_degree = graph.degree.iter().copied().max().unwrap_or(0);
    let width = features.row_len();
    for (e, &x) in features.data().iter().enumerate() {
        let exact = x.is_finite()
            && x.fract() == 0.0
            && (x.abs() as u128).saturating_mul(u128::from(max_in_degree)) <= 1 << 53;
        if !exact {
            return Err(format!(
                "feature [{}, {}] = {x} is not an integer with |x| · max in-degree ({max_in_degree}) ≤ 2^53",
                e / width,
                e % width
            ));
        }
    }
    Ok(())
}

impl NodeClassification {
    /// A dataset over `graph` with `features: [graph.num_nodes, _]`.
    ///
    /// # Panics
    ///
    /// Panics if the features are not one row per node, or if one of
    /// them breaks the exactness condition; either is a generator bug.
    pub(crate) fn new(
        graph: Graph,
        features: Tensor,
        labels: Vec<u32>,
        num_classes: usize,
        train_mask: Vec<bool>,
    ) -> Self {
        assert_eq!(
            features.shape()[0],
            graph.num_nodes,
            "one feature row per node"
        );
        if let Err(e) = check_exact_aggregation(&graph, &features) {
            panic!("{e}");
        }
        NodeClassification {
            sparse_features: SparseOperand::new(&features),
            graph,
            features,
            labels,
            num_classes,
            train_mask,
            mean_aggregation: OnceLock::new(),
            sum_aggregation: OnceLock::new(),
        }
    }

    /// The graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node features, `[num_nodes, num_features]`.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// GraphSAGE's first-layer operands under `mode`: the features and
    /// their neighbour aggregation. The aggregation is built on first
    /// use with the deterministic `gather_index_add`, whose bits every
    /// commit order reproduces.
    pub(crate) fn layer1_operands(&self, mode: Aggregation) -> (&SparseOperand, &SparseOperand) {
        let slot = match mode {
            Aggregation::Mean => &self.mean_aggregation,
            Aggregation::Sum => &self.sum_aggregation,
        };
        let aggregation = slot.get_or_init(|| {
            let det = GpuContext::new(GpuModel::H100, 0).with_determinism(Some(true));
            let agg = mode
                .aggregate(&det, &self.graph, &self.features)
                .expect("the graph's indices and the feature rows were checked at construction");
            SparseOperand::new(&agg)
        });
        (&self.sparse_features, aggregation)
    }
}

/// Parameters of the synthetic citation-graph generator.
#[derive(Debug, Clone, Copy)]
pub struct CoraParams {
    /// Node count.
    pub nodes: usize,
    /// Feature dimension.
    pub features: usize,
    /// Class count.
    pub classes: usize,
    /// Undirected link count.
    pub links: usize,
    /// Probability that a link connects same-class nodes
    /// (assortativity).
    pub intra_class_prob: f64,
    /// Non-zero features per node (bag-of-words sparsity).
    pub active_features: usize,
    /// Fraction of nodes in the training mask.
    pub train_fraction: f64,
}

impl CoraParams {
    /// The real Cora's dimensions (2708 / 1433 / 7 / 5429).
    pub fn cora() -> Self {
        CoraParams {
            nodes: 2708,
            features: 1433,
            classes: 7,
            links: 5429,
            intra_class_prob: 0.8,
            active_features: 18,
            train_fraction: 0.05,
        }
    }

    /// A scaled-down variant for fast tests.
    pub fn tiny() -> Self {
        CoraParams {
            nodes: 120,
            features: 32,
            classes: 4,
            links: 240,
            intra_class_prob: 0.8,
            active_features: 6,
            train_fraction: 0.3,
        }
    }
}

/// Generate a synthetic citation dataset. Fully determined by the
/// seed: the same `(params, seed)` always yields the same bits, so the
/// *inputs* of every experiment are identical across runs — the
/// precondition for attributing divergence to FPNA.
///
/// # Panics
///
/// Panics unless there are at least two classes, at least as many
/// nodes as classes, at least one feature, and at most as many links
/// as the generator can draw distinct node pairs for.
pub fn synthetic_cora(params: CoraParams, seed: u64) -> NodeClassification {
    assert!(params.classes >= 2, "need at least two classes");
    assert!(params.nodes >= params.classes, "need nodes >= classes");
    assert!(params.features >= 1, "need at least one feature");
    let mut rng = SplitMix64::new(seed);

    // Class labels: round-robin then shuffled, so classes are balanced.
    let mut labels: Vec<u32> = (0..params.nodes)
        .map(|i| (i % params.classes) as u32)
        .collect();
    fpna_core::rng::shuffle(&mut labels, &mut rng);

    // Class-assortative links. Rejection-free: pick an endpoint, then
    // pick the partner from the same class w.p. intra_class_prob.
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); params.classes];
    for (i, &c) in labels.iter().enumerate() {
        by_class[c as usize].push(i as u32);
    }
    let pairs = |n: usize| n * n.saturating_sub(1) / 2;
    // At intra_class_prob 1 every link joins two nodes of one class.
    let drawable: usize = if params.intra_class_prob >= 1.0 {
        by_class.iter().map(|peers| pairs(peers.len())).sum()
    } else {
        pairs(params.nodes)
    };
    assert!(
        params.links <= drawable,
        "{} links asked for, but only {drawable} distinct node pairs can be drawn",
        params.links
    );
    let mut links = Vec::with_capacity(params.links);
    let mut seen = std::collections::HashSet::with_capacity(params.links * 2);
    while links.len() < params.links {
        let a = rng.next_below(params.nodes as u64) as u32;
        let b = if rng.next_f64() < params.intra_class_prob {
            let peers = &by_class[labels[a as usize] as usize];
            peers[rng.next_below(peers.len() as u64) as usize]
        } else {
            rng.next_below(params.nodes as u64) as u32
        };
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            links.push(key);
        }
    }
    let graph = Graph::from_undirected(params.nodes, &links);

    // Sparse class-correlated bag-of-words features: each class owns a
    // band of the vocabulary; a node activates mostly in its band.
    let mut data = vec![0.0f64; params.nodes * params.features];
    let band = (params.features / params.classes).max(1);
    for i in 0..params.nodes {
        let c = labels[i] as usize;
        for _ in 0..params.active_features {
            let in_band = rng.next_f64() < 0.7;
            let f = if in_band {
                c * band + rng.next_below(band as u64) as usize
            } else {
                rng.next_below(params.features as u64) as usize
            };
            data[i * params.features + f.min(params.features - 1)] = 1.0;
        }
    }
    let features = Tensor::from_vec(vec![params.nodes, params.features], data);

    // Training mask: first train_fraction of a shuffled node order.
    let mut order: Vec<u32> = (0..params.nodes as u32).collect();
    fpna_core::rng::shuffle(&mut order, &mut rng);
    let n_train = ((params.nodes as f64 * params.train_fraction) as usize).max(params.classes);
    let mut train_mask = vec![false; params.nodes];
    for &i in order.iter().take(n_train) {
        train_mask[i as usize] = true;
    }

    NodeClassification::new(graph, features, labels, params.classes, train_mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_gpu_sim::ScheduleKind;
    use proptest::prelude::*;

    #[test]
    fn from_undirected_expands_both_directions() {
        let g = Graph::from_undirected(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree, vec![1, 2, 1]);
    }

    #[test]
    fn cora_dimensions() {
        let ds = synthetic_cora(CoraParams::cora(), 1);
        assert_eq!(ds.graph().num_nodes, 2708);
        assert_eq!(ds.features().shape(), &[2708, 1433]);
        assert_eq!(ds.labels.len(), 2708);
        assert_eq!(ds.num_classes, 7);
        assert_eq!(ds.graph().num_edges(), 2 * 5429);
        assert!(ds.train_mask.iter().filter(|&&m| m).count() >= 7);
    }

    #[test]
    fn generation_is_seeded() {
        let a = synthetic_cora(CoraParams::tiny(), 7);
        let b = synthetic_cora(CoraParams::tiny(), 7);
        assert!(a.features().bitwise_eq(b.features()));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.graph().edge_src, b.graph().edge_src);
        let c = synthetic_cora(CoraParams::tiny(), 8);
        assert_ne!(a.graph().edge_src, c.graph().edge_src);
    }

    #[test]
    fn assortativity_holds() {
        let ds = synthetic_cora(CoraParams::cora(), 3);
        let mut intra = 0usize;
        let mut total = 0usize;
        for (&s, &d) in ds.graph().edge_src.iter().zip(&ds.graph().edge_dst) {
            total += 1;
            if ds.labels[s as usize] == ds.labels[d as usize] {
                intra += 1;
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.6, "intra-class fraction {frac}");
    }

    #[test]
    fn features_are_sparse_binary() {
        let ds = synthetic_cora(CoraParams::tiny(), 4);
        let nnz = ds.features().data().iter().filter(|&&x| x != 0.0).count();
        let density = nnz as f64 / ds.features().numel() as f64;
        assert!(density < 0.3, "density {density}");
        assert!(ds.features().data().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_panics() {
        Graph::from_undirected(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "7 links asked for, but only 6 distinct node pairs")]
    fn more_links_than_node_pairs_panics() {
        let params = CoraParams {
            nodes: 4,
            classes: 2,
            links: 7,
            ..CoraParams::tiny()
        };
        synthetic_cora(params, 1);
    }

    #[test]
    #[should_panic(expected = "3 links asked for, but only 2 distinct node pairs")]
    fn more_links_than_same_class_pairs_panics() {
        // Two classes of two nodes: two same-class pairs.
        let params = CoraParams {
            nodes: 4,
            classes: 2,
            links: 3,
            intra_class_prob: 1.0,
            ..CoraParams::tiny()
        };
        synthetic_cora(params, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one feature")]
    fn zero_features_panics() {
        let params = CoraParams {
            features: 0,
            ..CoraParams::tiny()
        };
        synthetic_cora(params, 1);
    }

    /// A star whose centre, node 0, has in-degree 3, with two features
    /// per node; entry `[2, 1]` is `v`.
    fn star_features(v: f64) -> (Graph, Tensor) {
        let graph = Graph::from_undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        let limit = ((1u64 << 53) / 3) as f64;
        let data = vec![1.0, -2.0, 0.0, -0.0, limit, v, 0.0, 1.0];
        (graph, Tensor::from_vec(vec![4, 2], data))
    }

    #[test]
    fn exactness_check_names_the_offending_entry() {
        let limit = ((1u64 << 53) / 3) as f64;
        let (graph, features) = star_features(-limit);
        assert_eq!(check_exact_aggregation(&graph, &features), Ok(()));
        // (limit + 1) · 3 = 2^53 + 1, which f64 arithmetic would round
        // down to 2^53 and let through.
        for v in [
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -(limit + 1.0),
        ] {
            let (graph, features) = star_features(v);
            assert_eq!(
                check_exact_aggregation(&graph, &features),
                Err(format!(
                    "feature [2, 1] = {v} is not an integer with |x| · max in-degree (3) ≤ 2^53"
                ))
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature [2, 1] = 0.5 is not an integer")]
    fn inexact_features_panic_at_construction() {
        let (graph, features) = star_features(0.5);
        NodeClassification::new(graph, features, vec![0; 4], 2, vec![true; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On integral features within the exactness bound (zeros of
        /// both signs, negatives, magnitudes at the bound), the
        /// aggregation built once per dataset is bitwise the scatter it
        /// replaces: `gather_index_add`, then `1/deg` for the mean,
        /// under D and under every schedule kind, at warp widths 32
        /// and 64.
        #[test]
        fn precomputed_aggregation_is_every_commit_order(
            seed in any::<u64>(),
            nodes in 2usize..48,
            width in 1usize..9,
        ) {
            let mut rng = SplitMix64::new(seed);
            // Every third link leaves node 0, so in-degrees vary widely.
            let links: Vec<(u32, u32)> = (0..nodes * 3)
                .map(|i| {
                    let a = if i % 3 == 0 { 0 } else { rng.next_below(nodes as u64) as u32 };
                    (a, rng.next_below(nodes as u64) as u32)
                })
                .filter(|&(a, b)| a != b)
                .collect();
            let graph = Graph::from_undirected(nodes, &links);
            let max_in_degree = graph.degree.iter().copied().max().unwrap_or(0).max(1);
            let limit = (1u64 << 53) / u64::from(max_in_degree);
            let data = (0..nodes * width)
                .map(|_| {
                    let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
                    sign * match rng.next_below(4) {
                        0 => 0.0,
                        1 => rng.next_below(4) as f64,
                        2 => (limit - rng.next_below(3).min(limit)) as f64,
                        _ => rng.next_below(limit + 1) as f64,
                    }
                })
                .collect();
            let features = Tensor::from_vec(vec![nodes, width], data);
            let ds = NodeClassification::new(graph, features, vec![0; nodes], 2, vec![true; nodes]);
            let kinds = [
                ScheduleKind::Seeded(seed),
                ScheduleKind::UniformRandom(seed),
                ScheduleKind::InOrder,
                ScheduleKind::Reverse,
            ];
            for mode in [Aggregation::Mean, Aggregation::Sum] {
                let cached = ds.layer1_operands(mode).1.to_dense();
                for model in [GpuModel::H100, GpuModel::Mi250x] {
                    let det = GpuContext::new(model, seed).with_determinism(Some(true));
                    let nd = kinds.iter().map(|&kind| {
                        GpuContext::new(model, seed).with_determinism(Some(false)).with_schedule(kind)
                    });
                    for ctx in std::iter::once(det).chain(nd) {
                        let scattered = mode.aggregate(&ctx, ds.graph(), ds.features()).unwrap();
                        prop_assert!(
                            scattered.bitwise_eq(&cached),
                            "{:?} on {:?}, schedule {:?}", mode, model, ctx.schedule
                        );
                    }
                }
            }
        }
    }
}
