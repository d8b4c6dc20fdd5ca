//! Criterion benchmarks of the GraphSAGE pipeline: one training epoch
//! and one inference pass, deterministic vs non-deterministic, plus the
//! LPU inference execution.

use criterion::{criterion_group, criterion_main, Criterion};
use fpna_gpu_sim::GpuModel;
use fpna_nn::cost::lpu_inference;
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::{GraphSage, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;

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
    group.finish();
}

criterion_group!(benches, bench_gnn);
criterion_main!(benches);
