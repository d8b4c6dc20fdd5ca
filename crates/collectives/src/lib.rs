//! # fpna-collectives
//!
//! Simulated multi-node reduction collectives — the paper's concluding
//! future-work item: *"in HPC and distributed settings there will also
//! be inter-chip and inter-node communication, such as with MPI,
//! leading to more runtime variation. On the LPU architecture,
//! inter-chip communication can be software scheduled, removing such
//! communication variations."*
//!
//! An `MPI_Allreduce` combines per-rank vectors with floating-point
//! addition. Implementations differ in *where* and *in which order*
//! partial sums combine:
//!
//! * [`allreduce::Algorithm::Ring`], [`allreduce::Algorithm::KAryTree`]
//!   and [`allreduce::Algorithm::RecursiveDoubling`] — the classic
//!   topologies — plus the NCCL-style pipelined
//!   [`allreduce::Algorithm::SegmentedRing`] /
//!   [`allreduce::Algorithm::SegmentedTree`] variants, which cut the
//!   payload into chunks so serialization overlaps propagation on the
//!   simulated fabric without changing a single output bit relative to
//!   their unsegmented base. With
//!   [`allreduce::Ordering::ArrivalOrder`], each
//!   combine step folds incoming contributions in (simulated seeded)
//!   message-arrival order — the MPI reality on a busy fabric, and a
//!   source of run-to-run variability *on top of* the intra-node FPNA
//!   studied in the paper's main sections;
//! * [`allreduce::Ordering::RankOrder`] — arrivals are buffered and
//!   combined in rank order: deterministic for a fixed topology (the
//!   "software-scheduled interconnect" of the LPU multiprocessor);
//! * [`allreduce::Ordering::Reproducible`] — exact accumulators travel
//!   with the messages, so the result is bitwise identical across
//!   *every* algorithm, topology and schedule.
//!
//! Two execution paths provide those semantics:
//!
//! * [`allreduce()`](allreduce::allreduce) — the cheap in-memory fallback; `ArrivalOrder` is
//!   approximated by a per-node seeded shuffle (no network model);
//! * [`netsim::allreduce_on`] — the same algorithms run as
//!   event-driven protocols on an [`fpna_net`] fabric (flat switch,
//!   fat tree, or hierarchical node/NIC/switch), where arrival order
//!   *emerges from simulated message timing* and every run also
//!   reports its simulated cost. Zero jitter models the
//!   software-scheduled interconnect; the reproducible ordering ships
//!   exact accumulators and pays a modeled bandwidth overhead.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allreduce;
pub mod netsim;

pub use allreduce::{allreduce, Algorithm, Ordering};
pub use fpna_net::NetConfig;
pub use netsim::{allreduce_on, NetAllreduce, MAX_SEGMENTS};
