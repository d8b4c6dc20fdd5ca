//! Criterion benchmarks of the GraphSAGE pipeline: one training epoch
//! and one inference pass, deterministic vs non-deterministic, plus the
//! LPU inference execution, and the three dense products at the shapes
//! of layer 2 in perfbench's `gnn_train` (2708 nodes, hidden 16, 7
//! classes).

use criterion::{criterion_group, criterion_main, Criterion};
use fpna_gpu_sim::GpuModel;
use fpna_nn::cost::lpu_inference;
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::linalg::{matmul, matmul_nt, matmul_tn};
use fpna_nn::model::{GraphSage, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;
use fpna_tensor::Tensor;

fn bench_gnn(c: &mut Criterion) {
    let mut p = CoraParams::tiny();
    p.nodes = 400;
    p.features = 128;
    p.links = 1_200;
    let ds = synthetic_cora(p, 4);
    let cfg = TrainConfig {
        hidden: 16,
        lr: 0.5,
        epochs: 1,
        init_seed: 5,
        aggregation: Aggregation::Mean,
    };
    let det = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
    let nd = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(false));

    let mut group = c.benchmark_group("gnn");
    group.sample_size(10);
    group.bench_function("train_epoch/det", |b| {
        b.iter(|| {
            let mut model =
                GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, &cfg);
            model.train_epoch(&det, &ds, cfg.lr).unwrap()
        })
    });
    group.bench_function("train_epoch/nd", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            let mut model =
                GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, &cfg);
            model.train_epoch(&nd.for_run(run), &ds, cfg.lr).unwrap()
        })
    });
    let model = GraphSage::new(ds.features().shape()[1], cfg.hidden, ds.num_classes, &cfg);
    group.bench_function("inference/det", |b| {
        b.iter(|| model.predict(&det, &ds).unwrap())
    });
    group.bench_function("inference/nd", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            model.predict(&nd.for_run(run), &ds).unwrap()
        })
    });
    group.bench_function("inference/lpu", |b| {
        b.iter(|| lpu_inference(&ds, &model).unwrap())
    });

    // Layer 2's operands: the ReLU'd hidden activations (about half
    // zeros), the 16×7 weight and a 2708×7 gradient.
    let hidden = Tensor::randn(vec![2708, 16], 6).map(|v| v.max(0.0));
    let weight = Tensor::randn(vec![16, 7], 7);
    let grad = Tensor::randn(vec![2708, 7], 8);
    group.bench_function("layer2/matmul", |b| b.iter(|| matmul(&hidden, &weight)));
    group.bench_function("layer2/matmul_tn", |b| b.iter(|| matmul_tn(&hidden, &grad)));
    group.bench_function("layer2/matmul_nt", |b| b.iter(|| matmul_nt(&grad, &weight)));
    group.finish();
}

criterion_group!(benches, bench_gnn);
criterion_main!(benches);
