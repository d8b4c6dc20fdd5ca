//! Facade smoke test: exercise one public item from **each** of the
//! ten sub-crates through their `fpna::` re-export paths.
//!
//! This pins the workspace wiring — if a member crate is dropped from
//! the facade's dependencies, renamed, or its re-export alias changes,
//! this file stops compiling. It deliberately uses tiny inputs: it is
//! a build-graph test, not a numerics test.

use fpna::collectives::{allreduce, Algorithm, Ordering};
use fpna::core::metrics::scalar_variability;
use fpna::gpu::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna::lpu::{Lpu, LpuSpec, Program, Tensor2, TensorShape};
use fpna::net::{LinkSpec, NetConfig, NetSim, Topology};
use fpna::nn::Graph;
use fpna::solvers::{conjugate_gradient, CgConfig, Csr};
use fpna::stats::Describe;
use fpna::summation::{exact::exact_sum, serial_sum};
use fpna::tensor::Tensor;

#[test]
fn facade_reexports_core() {
    // Identical values have zero scalar variability by definition.
    assert_eq!(scalar_variability(1.5, 1.5), 0.0);
}

#[test]
fn facade_reexports_summation() {
    let xs = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(serial_sum(&xs), 10.0);
    assert_eq!(exact_sum(&xs), 10.0);
}

#[test]
fn facade_reexports_gpu_sim() {
    let device = GpuDevice::new(GpuModel::V100);
    let xs: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let out = device
        .reduce(
            ReduceKernel::Sptr,
            &xs,
            KernelParams::new(32, 8),
            &ScheduleKind::InOrder,
        )
        .expect("deterministic tree reduce on in-order schedule");
    let expected: f64 = xs.iter().sum();
    assert!((out.value - expected).abs() < 1e-6);
}

#[test]
fn facade_reexports_lpu_sim() {
    let mut p = Program::new();
    let a = p.input(TensorShape::new(2, 2));
    let s = p.scale(a, 2.0);
    p.output(s);
    let compiled = Lpu::new(LpuSpec::groq_like()).compile(p).expect("compile");
    let out = compiled
        .run(&[Tensor2::new(2, 2, vec![1.0, 2.0, 3.0, 4.0])])
        .expect("run");
    assert_eq!(out[0].data, vec![2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn facade_reexports_stats() {
    let d = Describe::of(&[1.0, 2.0, 3.0]);
    assert_eq!(d.mean, 2.0);
}

#[test]
fn facade_reexports_tensor() {
    let t = Tensor::full(vec![2, 3], 7.0);
    assert_eq!(t.shape(), &[2, 3]);
    assert_eq!(t.numel(), 6);
    assert!(t.data().iter().all(|&v| v == 7.0));
}

#[test]
fn facade_reexports_nn() {
    let g = Graph::from_undirected(3, &[(0, 1), (1, 2)]);
    assert!(g.num_edges() > 0);
}

#[test]
fn facade_reexports_solvers() {
    let a = Csr::poisson_2d(4);
    let b = vec![1.0; a.rows()];
    let trace = conjugate_gradient(&a, &b, &CgConfig::default()).expect("cg");
    assert!(trace.converged, "CG should converge on a tiny Poisson system");
}

#[test]
fn facade_reexports_collectives() {
    let ranks = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
    let out = allreduce(&ranks, Algorithm::Ring, Ordering::RankOrder);
    assert_eq!(out, vec![4.0, 6.0]);
}

#[test]
fn facade_reexports_net() {
    let topo = Topology::flat_switch(2, LinkSpec::new(100.0, 10.0));
    let mut sim = NetSim::new(&topo, &NetConfig { jitter_frac: 0.0, ..NetConfig::default() });
    sim.send_at(0.0, 0, 1, 8, 0);
    let stats = sim.run(|_, _| {});
    assert_eq!(stats.deliveries, 1);
}
