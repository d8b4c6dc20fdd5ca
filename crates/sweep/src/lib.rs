//! Fleet-scale sweep coordination for the fpna experiment suite.
//!
//! The suite's experiments are already bitwise deterministic at any
//! thread count because every run's seed is keyed by its **global run
//! index** (`derive_seed(base_seed, run)`), never by scheduling. This
//! crate lifts that property one level up, from threads to *processes
//! and machines*:
//!
//! * [`spec`] — a [`spec::SweepSpec`] captures a sweep's semantic
//!   identity (experiment, runs, result-affecting flags) and hashes it
//!   for content addressing; [`spec::shard_assignments`] partitions
//!   the runs as a pure function of `(runs, shards)`.
//! * [`rows`] — the shardable result model: per-(cell, global-run)
//!   metric rows whose merge in index order is bitwise the
//!   single-process row set.
//! * [`store`] — the resumable, content-addressed results store under
//!   `target/sweeps/<spec-hash>/`: self-describing shard files, each
//!   carrying one digest of its contents and checked by one decoder,
//!   atomic writes, stale-partition detection, and a cached merged
//!   report.
//! * [`mode`] — the four-mode protocol experiment binaries speak
//!   (`--emit-spec`, shard, merge, full), keeping each binary the
//!   single source of truth for its own spec, and the one driver that
//!   runs them.
//! * [`cli`] — the one command-line parser every experiment binary
//!   reads its flags through, the protocol flags included.
//! * [`coordinator`] — spawns shard processes (bounded, resumable),
//!   merges via the binary itself, and caches the report; the `sweep`
//!   binary is its CLI.
//!
//! Specs, shard files and manifests are JSON, read and written with
//! [`fpna_obs::json`].
//!
//! The end-to-end contract, enforced by tests at every layer: a
//! sharded-and-merged sweep prints **byte-identical** output to the
//! same experiment run in a single process.

#![warn(missing_docs)]

pub mod cli;
pub mod coordinator;
pub mod mode;
pub mod rows;
pub mod spec;
pub mod store;

pub use coordinator::{Coordinator, RunOutcome};
pub use mode::SweepMode;
pub use rows::SweepRows;
pub use spec::{shard_assignments, ShardAssignment, SweepSpec};
pub use store::{GcOutcome, StoreEntry, SweepStore};
