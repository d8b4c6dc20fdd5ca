//! Observability integration tests: the hard guarantee that turning
//! the `fpna-obs` layer on changes **nothing** about the simulation —
//! collective outputs, simulated elapsed times, and engine stats stay
//! bitwise identical — plus trace-format tests (a golden snapshot and
//! a schema-shape check) and counter/profile sanity.
//!
//! Every test here toggles process-global observability state, so they
//! all serialize on one mutex and restore the disabled state before
//! returning.

use fpna_collectives::{allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_core::executor::{map_runs, set_threads};
use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_net::{LinkSpec, RouteSelect, Topology};
use fpna_obs::json::Value;
use fpna_obs::{counters, profile, trace};
use std::sync::Mutex;

/// Serializes the obs-toggling tests (the enable flags, trace buffers,
/// counters and phase map are process-global).
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Everything off, everything empty — called on entry and exit of each
/// test so a failure in one cannot poison the next.
fn reset_obs() {
    trace::stop();
    trace::clear();
    counters::set_enabled(false);
    counters::reset();
    profile::set_enabled(false);
    profile::reset();
}

fn topologies(p: usize) -> Vec<Topology> {
    vec![
        Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)),
        Topology::fat_tree_spines(p, 4, 2, LinkSpec::new(500.0, 25.0), LinkSpec::new(1_500.0, 50.0)),
        Topology::hierarchical(
            2,
            p / 2,
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        ),
    ]
}

fn inputs(p: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    (0..p)
        .map(|_| (0..len).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
        .collect()
}

/// A run's complete observable outcome, bit-exact: value bits,
/// simulated-elapsed bits, and the full engine stats (which include
/// delivery/byte/hop counts and contention tallies, i.e. a fingerprint
/// of the delivery schedule itself).
#[derive(PartialEq, Debug)]
struct Fingerprint {
    value_bits: Vec<u64>,
    elapsed_bits: u64,
    stats: fpna_net::RunStats,
}

fn run_grid(threads: usize) -> Vec<Fingerprint> {
    const P: usize = 8;
    const LEN: usize = 48;
    const RUNS: usize = 3;
    let ranks = inputs(P, LEN, 11);
    set_threads(threads);
    let mut out = Vec::new();
    for topo in topologies(P) {
        for load in [0.0, 0.5] {
            for route in [RouteSelect::Fixed, RouteSelect::SeededEcmp { seed: 0xEC }] {
                for alg in [Algorithm::KAryTree { fanout: 2 }, Algorithm::Ring] {
                    let fps = map_runs(0..RUNS, |i| {
                        let cfg = NetConfig::default()
                            .with_load(load, derive_seed(7, i as u64))
                            .with_route(route);
                        let r = allreduce_on(
                            &topo,
                            &ranks,
                            alg,
                            Ordering::ArrivalOrder { seed: derive_seed(3, i as u64) },
                            &cfg,
                        );
                        Fingerprint {
                            value_bits: r.values.iter().map(|v| v.to_bits()).collect(),
                            elapsed_bits: r.elapsed_ns.to_bits(),
                            stats: r.stats,
                        }
                    });
                    out.extend(fps);
                }
            }
        }
    }
    // One reproducible-ordering cell: exact accumulators must be just
    // as observability-blind as the timing-driven folds.
    let repro = allreduce_on(
        &topologies(P)[1],
        &ranks,
        Algorithm::KAryTree { fanout: 2 },
        Ordering::Reproducible,
        &NetConfig::default().with_load(0.5, 99),
    );
    out.push(Fingerprint {
        value_bits: repro.values.iter().map(|v| v.to_bits()).collect(),
        elapsed_bits: repro.elapsed_ns.to_bits(),
        stats: repro.stats,
    });
    out
}

/// The tentpole guarantee: the full grid of topologies × offered loads
/// {0, 0.5} × route modes × thread counts {1, 4} produces bitwise
/// identical collective outputs, elapsed times, and stats fingerprints
/// whether observability is off or fully on (trace + counters +
/// profile).
#[test]
fn observability_never_changes_results() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let baseline = run_grid(1);
    for threads in [1usize, 4] {
        // Off (the threads=1 pass re-checks pure determinism).
        assert_eq!(run_grid(threads), baseline, "obs off, threads={threads}");
        // Fully on.
        trace::start();
        counters::reset();
        counters::set_enabled(true);
        profile::reset();
        profile::set_enabled(true);
        let traced = run_grid(threads);
        assert!(trace::event_count() > 0, "the grid must actually emit events");
        reset_obs();
        assert_eq!(traced, baseline, "obs on, threads={threads}");
    }
    reset_obs();
}

/// A tiny fixed-seed contended allreduce whose exported trace is
/// byte-for-byte stable. Bless with
/// `FPNA_BLESS=1 cargo test -p fpna-collectives --test obs_trace`.
#[test]
fn golden_trace_snapshot() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let topo = Topology::flat_switch(4, LinkSpec::new(500.0, 25.0));
    let ranks = inputs(4, 6, 5);
    trace::start();
    let out = allreduce_on(
        &topo,
        &ranks,
        Algorithm::KAryTree { fanout: 2 },
        Ordering::ArrivalOrder { seed: 5 },
        &NetConfig::default().with_load(0.5, 21),
    );
    assert!(out.elapsed_ns > 0.0);
    let json = trace::export_json();
    reset_obs();

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_allreduce.json");
    if std::env::var_os("FPNA_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden).parent().unwrap()).unwrap();
        std::fs::write(golden, &json).unwrap();
        eprintln!("blessed {golden}");
        return;
    }
    let want = std::fs::read_to_string(golden)
        .expect("golden trace missing — bless it with FPNA_BLESS=1");
    assert!(
        json == want,
        "exported trace differs from the golden snapshot; if the event \
         schema changed intentionally, re-bless with FPNA_BLESS=1"
    );
}

/// Schema-shape test on a busier trace (fat tree, ECMP, contention,
/// ring + tree protocols): the export must parse as a single JSON
/// document, timestamps must be monotone within every `(pid, tid)`
/// track, and `B`/`E` events must pair up per track like a stack.
#[test]
fn trace_schema_is_well_formed() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let topo =
        Topology::fat_tree_spines(8, 4, 2, LinkSpec::new(500.0, 25.0), LinkSpec::new(1_500.0, 50.0));
    let ranks = inputs(8, 32, 17);
    trace::start();
    for alg in [Algorithm::Ring, Algorithm::SegmentedTree { fanout: 2, segments: 4 }] {
        let cfg = NetConfig::default()
            .with_load(0.5, 33)
            .with_route(RouteSelect::SeededEcmp { seed: 0xEC });
        allreduce_on(&topo, &ranks, alg, Ordering::ArrivalOrder { seed: 2 }, &cfg);
    }
    let json = trace::export_json();
    reset_obs();

    let doc = fpna_obs::json::parse(&json).expect("the trace must be one JSON document");
    assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents must be an array");
    assert!(events.len() > 100, "a contended 8-rank trace should be busy, got {}", events.len());

    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    let mut depth: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    let mut spans = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("every event has ph");
        let name = ev.get("name").and_then(Value::as_str).expect("every event has a name");
        if ph == "M" {
            assert!(
                matches!(name, "process_name" | "thread_name"),
                "unknown metadata record {name}"
            );
            continue;
        }
        let pid = ev.get("pid").and_then(Value::as_f64).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
        assert!(ts >= 0.0, "simulated timestamps are non-negative");
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            assert!(ts >= prev, "ts must be monotone on track {track:?}: {prev} then {ts}");
        }
        last_ts.insert(track, ts);
        match ph {
            "X" => {
                let dur = ev.get("dur").and_then(Value::as_f64).expect("X events carry dur");
                assert!(dur >= 0.0);
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
            }
            "B" => {
                depth.entry(track).or_default().push(name.to_string());
                spans += 1;
            }
            "E" => {
                let open = depth.get_mut(&track).and_then(Vec::pop);
                assert_eq!(open.as_deref(), Some(name), "E must close the innermost B on {track:?}");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(spans > 0, "the segmented protocols must open chunk spans");
    for (track, open) in depth {
        assert!(open.is_empty(), "unclosed spans {open:?} on track {track:?}");
    }
}

/// Counter bookkeeping must balance: every heap push is popped by the
/// time a collective returns, the pool sees misses (cold) and then
/// hits (recycled), and byte/lookup tallies are live.
#[test]
fn counters_balance_over_a_collective() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let topo = Topology::flat_switch(8, LinkSpec::new(500.0, 25.0));
    let ranks = inputs(8, 64, 23);
    counters::reset();
    counters::set_enabled(true);
    for run in 0..2u64 {
        // Exact recursive doubling clones a send buffer every round
        // and recycles folded partner payloads, so its later rounds
        // pop recycled buffers — both pool counters go live. (The
        // plain-f64 legs simulate timing payload-free and never touch
        // the pool.)
        allreduce_on(
            &topo,
            &ranks,
            Algorithm::RecursiveDoubling,
            Ordering::Reproducible,
            &NetConfig::default().with_load(0.5, run).with_jitter_seed(run),
        );
    }
    let snap = counters::snapshot();
    reset_obs();

    assert!(snap.heap_push > 0);
    assert_eq!(snap.heap_push, snap.heap_pop, "a finished run drains its event heap");
    assert!(snap.heap_peak > 0 && snap.heap_peak <= snap.heap_push);
    assert!(snap.wire_bytes > 0);
    assert!(snap.route_lookups > 0);
    assert!(snap.pool_miss > 0, "first-touch buffers are pool misses");
    assert!(snap.pool_hit > 0, "later rounds must recycle pooled buffers");
}

/// The NIC-crossing counter mirrors the per-run `RunStats::nic_bytes`
/// tally (foreground payload over cross-group links): zero on a flat
/// switch (one fabric group), live and aggregated across runs on a
/// hierarchical fabric, and smaller for a topology-aware placement
/// than for the oblivious tree it replaces.
#[test]
fn nic_cross_counter_mirrors_run_stats() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let ranks = inputs(8, 64, 31);
    let flat = Topology::flat_switch(8, LinkSpec::new(500.0, 25.0));
    let hier = Topology::hierarchical(
        2,
        4,
        LinkSpec::new(200.0, 100.0),
        LinkSpec::new(500.0, 50.0),
        LinkSpec::new(5_000.0, 25.0),
    );
    let run = |topo: &Topology, alg: Algorithm| {
        allreduce_on(topo, &ranks, alg, Ordering::RankOrder, &NetConfig::default())
    };

    counters::reset();
    counters::set_enabled(true);
    run(&flat, Algorithm::KAryTree { fanout: 2 });
    assert_eq!(counters::snapshot().nic_cross_bytes, 0, "flat switch has no crossings");

    counters::reset();
    let obl = run(&hier, Algorithm::KAryTree { fanout: 2 });
    assert_eq!(counters::snapshot().nic_cross_bytes, obl.stats.nic_bytes);
    let again = run(&hier, Algorithm::KAryTree { fanout: 2 });
    assert_eq!(
        counters::snapshot().nic_cross_bytes,
        obl.stats.nic_bytes + again.stats.nic_bytes,
        "the global counter aggregates across runs"
    );

    counters::reset();
    let aware = run(&hier, Algorithm::Hierarchical { intra: 2, inter: 2 });
    let snap = counters::snapshot();
    reset_obs();
    assert_eq!(snap.nic_cross_bytes, aware.stats.nic_bytes);
    assert!(
        aware.stats.nic_bytes < obl.stats.nic_bytes,
        "aware placement must cross the fabric seam with fewer bytes"
    );
}

/// The profile report says where the engine's time goes: one
/// `net.heap_pop@load=…,queue=radix` histogram per offered-load level,
/// plus the executor phase and the counter snapshot with the pop-time
/// share.
#[test]
fn profile_report_keys_pop_histograms_by_load() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_obs();

    let topo = Topology::flat_switch(8, LinkSpec::new(500.0, 25.0));
    let ranks = inputs(8, 64, 29);
    counters::reset();
    counters::set_enabled(true);
    profile::reset();
    profile::set_enabled(true);
    set_threads(2);
    map_runs(0..2, |i| {
        for load in [0.0, 0.5] {
            allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout: 2 },
                Ordering::ArrivalOrder { seed: i as u64 },
                &NetConfig::default().with_load(load, 1),
            );
        }
    });
    let report = profile::report_json();
    reset_obs();

    let doc = fpna_obs::json::parse(&report).expect("the profile report must be one JSON document");
    let phases = doc.get("phases").expect("report has phases");
    for key in [
        "net.heap_pop@load=0.00,queue=radix",
        "net.heap_pop@load=0.50,queue=radix",
        "net.run",
        "executor.run",
    ] {
        let phase = phases
            .get(key)
            .unwrap_or_else(|| panic!("report must contain phase {key:?}:\n{report}"));
        assert!(phase.get("count").and_then(Value::as_f64).unwrap() > 0.0);
        let hist = phase
            .get("hist")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("phase {key:?} must carry a histogram"));
        assert!(!hist.is_empty(), "phase {key:?} histogram must have occupied buckets");
    }
    let c = doc.get("counters").expect("report has counters");
    assert!(c.get("heap_pop").and_then(Value::as_f64).unwrap() > 0.0);
    let share = c
        .get("heap_pop_wall_share")
        .and_then(Value::as_f64)
        .expect("pop share available when both wall totals were measured");
    assert!((0.0..=1.0).contains(&share), "share {share} must be a fraction");
}
