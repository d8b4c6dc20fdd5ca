//! # fpna-nn
//!
//! The §V substrate of the paper: a GraphSAGE graph neural network
//! trained and evaluated on a synthetic Cora, with deterministic and
//! non-deterministic training/inference pipelines.
//!
//! The network is built directly on `fpna-tensor`'s kernels, and — as
//! in the paper's implementation — **the only non-deterministic
//! operation in the model is `index_add`**, the neighbour scatter of
//! each SAGE layer's aggregation, run as one fused gather →
//! `index_add` kernel. An ND epoch runs two scatters, both in layer 2:
//! its forward aggregation and its backward scatter to neighbours.
//! Layer 1's input, the node features, takes no gradient, as in
//! PyTorch. Its aggregation sums integral bag-of-words features, so
//! every commit order gives the same exact integers: it is computed
//! once per dataset with the deterministic kernel, behind a check that
//! the features make it exact (see [`graph::NodeClassification`]).
//! Flipping the kernel choice therefore isolates exactly the effect the
//! paper studies: identical inputs, identical initial weights,
//! identical hyperparameters, different atomic commit orders.
//!
//! * [`graph`] — graph representation + the synthetic Cora generator
//!   (2708 nodes, 1433 features, 7 classes, 5429 undirected edges);
//! * [`linalg`] — small deterministic kernels (matmul, softmax);
//! * [`sage`] — the SAGEConv layer with manual forward/backward;
//! * [`model`] — the two-layer GraphSAGE classifier, cross-entropy and
//!   SGD;
//! * [`train`] — the paper's experiment protocols: weight-divergence
//!   tracking (§V-B), the D/ND training × inference matrix (Table 7);
//! * [`cost`] — inference runtime models for the H100 and the LPU
//!   (Table 8), the latter via an actual compiled `fpna-lpu-sim`
//!   program.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod graph;
pub mod linalg;
pub mod model;
pub mod sage;
pub mod train;

pub use graph::{Graph, NodeClassification};
pub use model::{GraphSage, TrainConfig};
pub use sage::SageConv;
