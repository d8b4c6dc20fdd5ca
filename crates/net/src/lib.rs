//! # fpna-net
//!
//! A seeded discrete-event interconnect simulator. This crate gives
//! the suite a *network* in which message-arrival order — and hence
//! the floating-point combine order of a distributed reduction —
//! **emerges from timing** instead of being injected by a shuffle.
//!
//! The paper's conclusion names this exact frontier: *"inter-chip and
//! inter-node communication, such as with MPI, lead\[s\] to more runtime
//! variation"*, while a software-scheduled interconnect (the LPU
//! multiprocessor) removes it. The pieces:
//!
//! * [`topology`] — fabric descriptions: a flat crossbar
//!   ([`Topology::flat_switch`]), a two-level fat tree
//!   ([`Topology::fat_tree`]) and a node/NIC/switch hierarchy with
//!   distinct intra-node vs inter-node links
//!   ([`Topology::hierarchical`]), all parameterised by `α + β·bytes`
//!   [`LinkSpec`]s;
//! * [`engine`] — the event engine: store-and-forward hops, per-link
//!   serialization, and a seeded [`JitterModel`]. Zero jitter is the
//!   software-scheduled fabric (bit-for-bit replayable); nonzero
//!   jitter is MPI on a busy cluster. [`FabricConfig`] layers on
//!   multi-tenant *contention*: seeded [`Background`] tenant traffic
//!   that reorders foreground arrivals through link queueing, and
//!   seeded ECMP route choice ([`RouteSelect`]) over the equal-cost
//!   paths of a multi-spine fat tree
//!   ([`Topology::fat_tree_spines`]);
//! * [`cost`] — analytic α–β allreduce cost models, including the
//!   bandwidth-inflation price of shipping exact accumulators
//!   (the network half of the paper's "cost of reproducibility");
//! * [`report`] — seed-sweep summaries that feed
//!   `fpna_core::metrics` / `fpna_core::harness`, so network
//!   experiments report the same `Vermv`/`Vc` vocabulary as the rest
//!   of the suite.
//!
//! `fpna-collectives` builds its timing-driven allreduce on these
//! primitives; `fpna-bench`'s `table9` binary sweeps rank count ×
//! topology × jitter into the variability-vs-cost table.
//!
//! ```
//! use fpna_net::{JitterModel, LinkSpec, NetSim, Topology};
//!
//! // 8 ranks on one switch; rank 1..8 all message rank 0.
//! let topo = Topology::flat_switch(8, LinkSpec::new(500.0, 12.0));
//! let mut sim = NetSim::new(&topo, JitterModel::uniform(0.4, 7));
//! for r in 1..8 {
//!     sim.send_at(0.0, r, 0, 1024, r as u64);
//! }
//! let mut arrival_order = Vec::new();
//! let stats = sim.run(|_, d| arrival_order.push(d.from));
//! assert_eq!(arrival_order.len(), 7);
//! assert!(stats.makespan_ns > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod engine;
pub mod report;
pub mod topology;

pub use cost::CostModel;
pub use engine::{
    Background, Delivery, FabricConfig, JitterModel, LinkStats, NetSim, QueueImpl, RouteSelect,
    RunStats,
};
pub use report::SeedSweep;
pub use topology::{Hop, LinkSpec, NodeKind, Topology};
