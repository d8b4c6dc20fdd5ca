//! Criterion rows for the fleet-scale sweep machinery: the shard
//! decode-and-merge path the coordinator pays per merge, and the
//! results store's cold vs warm report path. The workload is a
//! synthetic 7-shard sweep (6 cells × 420 runs × 5 metric columns) so
//! the rows price the *sweep plumbing* — hex-f64 JSON codec, the
//! per-file content digest and validation, row absorption, atomic file
//! writes — not any experiment's compute.
//!
//! The `store_warm` / `store_cold` pair documents the cache win the
//! coordinator's report cache buys: warm is one small file read, cold
//! is a full write-shards + validate + merge pass. The committed
//! baseline keeps that ratio (≥10×) on the record, and CI's
//! coordinator smoke asserts the behavioural side (a warm rerun never
//! recomputes).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpna_core::rng::SplitMix64;
use fpna_sweep::store::{decode_shard, encode_shard};
use fpna_sweep::{shard_assignments, SweepRows, SweepSpec, SweepStore};

const SHARDS: usize = 7;
const RUNS: usize = 420;
const CELLS: usize = 6;
const COLS: usize = 5;

fn spec() -> SweepSpec {
    SweepSpec::new("bench-sweep", RUNS).arg("seed", 42)
}

/// Deterministic rows for one shard's global run range: every value is
/// a pure function of `(cell, run, column)`, so shard contents never
/// depend on which benchmark built them first.
fn rows_for(range: std::ops::Range<usize>) -> SweepRows {
    let mut rows = SweepRows::new();
    for cell in 0..CELLS {
        let name = format!("op/c{cell}");
        for run in range.clone() {
            let mut rng = SplitMix64::new((cell as u64) << 32 | run as u64);
            let values = (0..COLS).map(|_| rng.next_f64() - 0.5).collect();
            rows.push(&name, run, values);
        }
    }
    rows
}

/// The 7 encoded shard documents, exactly as shard processes would
/// write them.
fn shard_texts() -> Vec<String> {
    let s = spec();
    shard_assignments(&s, SHARDS)
        .into_iter()
        .map(|a| encode_shard(&s, a.shard_id, a.run_range.clone(), &rows_for(a.run_range)))
        .collect()
}

/// Decode (with digest check) + absorb of a full 7-shard partition from
/// in-memory documents — `SweepStore::load_merged` minus the
/// filesystem, i.e. the pure merge cost per coordinator merge.
fn bench_merge(c: &mut Criterion) {
    let texts = shard_texts();
    let mut group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements((CELLS * RUNS) as u64));
    group.bench_function("merge_7shards", |b| {
        b.iter(|| {
            let mut rows = SweepRows::new();
            for text in &texts {
                let shard = decode_shard(text).expect("bench shards are well-formed");
                rows.absorb(shard.rows).expect("disjoint runs");
            }
            rows.row_count()
        })
    });
    group.finish();
}

/// The store's report path, cold vs warm. Cold is a first-ever merge:
/// write all 7 shard files, validate-and-merge them back, cache the
/// report. Warm is every later request for the same spec: one cached
/// report read. The gap between these two rows is what the
/// content-addressed cache saves on every repeated sweep query —
/// before counting the experiment compute a cold run would also redo.
fn bench_store(c: &mut Criterion) {
    let s = spec();
    let dir = std::env::temp_dir().join(format!("fpna-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SweepStore::new(&dir);
    let shards: Vec<_> = shard_assignments(&s, SHARDS)
        .into_iter()
        .map(|a| (a.shard_id, a.run_range.clone(), rows_for(a.run_range)))
        .collect();
    let report = b"merged report stand-in: real reports are a few KiB of tables\n";

    let mut group = c.benchmark_group("sweep");
    group.bench_function("store_cold", |b| {
        b.iter(|| {
            store.clear(&s).expect("clear sweep dir");
            for (id, range, rows) in &shards {
                store.write_shard(&s, *id, range.clone(), rows).expect("write shard");
            }
            let rows = store.load_merged(&s).expect("exact partition");
            store.write_report(&s, report).expect("cache report");
            rows.row_count()
        })
    });

    // Leave the store populated so the warm row measures a genuine
    // cache hit against the same directory.
    group.bench_function("store_warm", |b| {
        b.iter(|| store.read_report(&s).expect("report is cached").len())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_merge, bench_store);
criterion_main!(benches);
