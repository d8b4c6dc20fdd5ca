//! The four closed-loop workloads. Inputs are a pure function of the
//! workload seed and each op's schedule seed of (workload seed, op
//! index), so every run of a workload does identical work and the
//! simulator's counts repeat.

mod fabric;
mod gnn;
mod gpu_reduce;

use fpna_core::rng::derive_seed;

use crate::trace::Tracer;

pub use fabric::CALLS as FABRIC_CALLS;

/// A workload after set-up: runs ops in index order, from 0.
pub trait Workload {
    /// Run op `i` under schedule seed `seed` and check its outputs;
    /// `false` when a check failed.
    fn op(&mut self, i: u64, seed: u64, tr: &mut Tracer) -> bool;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GpuReduce,
    FabricContended,
    FabricExact,
    GnnTrain,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::GpuReduce,
        Kind::FabricContended,
        Kind::FabricExact,
        Kind::GnnTrain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GpuReduce => "gpu_reduce",
            Kind::FabricContended => "fabric_contended",
            Kind::FabricExact => "fabric_exact",
            Kind::GnnTrain => "gnn_train",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Build inputs, topologies and references. `tiny` shrinks every
    /// dimension for the self-tests.
    pub fn build(self, seed: u64, tiny: bool, tr: &mut Tracer) -> Box<dyn Workload> {
        match self {
            Kind::GpuReduce => Box::new(gpu_reduce::GpuReduce::new(seed, tiny, tr)),
            Kind::FabricContended => Box::new(fabric::Fabric::new(seed, true, tiny, tr)),
            Kind::FabricExact => Box::new(fabric::Fabric::new(seed, false, tiny, tr)),
            Kind::GnnTrain => Box::new(gnn::Gnn::new(seed, tiny, tr)),
        }
    }
}

/// Schedule seed of op `op`: its own stream, apart from the set-up
/// streams derived from the same workload seed.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    derive_seed(derive_seed(seed, 0x0B5E), op)
}
