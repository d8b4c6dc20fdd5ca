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
//!   ([`Topology::flat_switch`]), a two-level fat tree with one or
//!   more spines ([`Topology::fat_tree_spines`]) and a node/NIC/switch
//!   hierarchy with distinct intra-node vs inter-node links
//!   ([`Topology::hierarchical`]), all parameterised by `α + β·bytes`
//!   [`LinkSpec`]s. One route table holds every equal-cost shortest
//!   path of every rank pair, canonical first, each as a slice of
//!   directed link ids;
//! * [`engine`] — the event engine: store-and-forward hops and
//!   per-link serialization, with every seeded source of run-to-run
//!   variation in one [`NetConfig`]: per-hop jitter, background
//!   tenant traffic that reorders foreground arrivals through link
//!   queueing, and ECMP route choice ([`RouteSelect`]) over those
//!   equal-cost paths (several per cross-group pair on a multi-spine
//!   fat tree), all ordered by one radix-heap event queue. Zero
//!   jitter on a quiet, fixed-route fabric is the software-scheduled
//!   interconnect (bit-for-bit replayable); jitter and tenants are MPI
//!   on a busy cluster;
//! * [`cost`] — analytic α–β allreduce cost models, including the
//!   bandwidth-inflation price of shipping exact accumulators
//!   (the network half of the paper's "cost of reproducibility").
//!
//! `fpna-collectives` builds its timing-driven allreduce on these
//! primitives; `fpna-bench`'s `table9` binary sweeps rank count ×
//! topology × jitter into the variability-vs-cost table.
//!
//! ```
//! use fpna_net::{LinkSpec, NetConfig, NetSim, Topology};
//!
//! // 8 ranks on one switch; rank 1..8 all message rank 0.
//! let topo = Topology::flat_switch(8, LinkSpec::new(500.0, 12.0));
//! let config = NetConfig { jitter_frac: 0.4, jitter_seed: 7, ..NetConfig::default() };
//! let mut sim = NetSim::new(&topo, &config);
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
pub mod topology;

pub use cost::CostModel;
pub use engine::{Delivery, LinkStats, NetConfig, NetSim, RouteSelect, RunStats};
pub use topology::{LinkSpec, NodeKind, Topology};
