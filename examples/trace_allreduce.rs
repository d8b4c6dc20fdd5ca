//! Produce a ready-to-open Perfetto trace of one contended allreduce.
//!
//! Runs a ring allreduce over 8 ranks on a 2-spine fat tree with
//! seeded background tenants at 0.7 offered load and seeded ECMP
//! routing, recording every simulated-clock event — message hops per
//! link, background bursts, admission drops, per-hop combines —
//! through `fpna::obs::trace`, then writes Chrome trace-event JSON.
//!
//! ```text
//! cargo run --release --example trace_allreduce
//! ```
//!
//! Open the result at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): drag `target/obs/trace_allreduce.json` into
//! the window. Lanes `L* a→b` are directed links (spans are wire
//! occupancy, `cat` distinguishes foreground `net` from background
//! `bg`); `rank N` lanes carry inject/deliver/combine instants; the
//! `chunk f` lanes span each ring segment (one tree of the schedule)
//! from t = 0 to the end of its allgather. The trace clock is *simulated* time,
//! so the file is a deterministic function of the seeds below.

use fpna::collectives::{allreduce_on, Algorithm, NetConfig, Ordering};
use fpna::net::{LinkSpec, RouteSelect, Topology};
use fpna::obs::trace;

fn main() {
    let ranks = 8usize;
    let len = 1_024usize;
    let seed = 42u64;

    let mut rng = fpna::core::rng::SplitMix64::new(seed);
    let grads: Vec<Vec<f64>> = (0..ranks)
        .map(|_| (0..len).map(|_| rng.next_f64() * 2e4 - 1e4).collect())
        .collect();

    // 2 groups of 4 ranks under 2 spines: cross-group traffic has two
    // equal-cost paths, so seeded ECMP makes a visible difference.
    let topo = Topology::fat_tree_spines(
        ranks,
        4,
        2,
        LinkSpec::new(500.0, 25.0),
        LinkSpec::new(1_500.0, 50.0),
    );
    let cfg = NetConfig::default()
        .with_load(0.7, fpna::core::rng::derive_seed(seed, 0xB6))
        .with_route(RouteSelect::SeededEcmp { seed: fpna::core::rng::derive_seed(seed, 0xEC) });

    trace::start();
    let out = allreduce_on(
        &topo,
        &grads,
        Algorithm::Ring,
        Ordering::ArrivalOrder { seed },
        &cfg,
    );
    let path = std::path::Path::new("target/obs/trace_allreduce.json");
    let events = trace::write_json(path).expect("write trace");
    trace::stop();

    println!(
        "ring allreduce on {}: {} ranks x {} elements, offered load 0.7, seeded ECMP",
        topo.name(),
        ranks,
        len
    );
    println!(
        "simulated elapsed = {:.1} µs; fg deliveries = {}, bg deliveries = {}, bg drops = {}",
        out.elapsed_ns / 1e3,
        out.stats.deliveries,
        out.stats.bg_deliveries,
        out.stats.bg_dropped
    );
    println!("wrote {events} trace events to {}", path.display());
    println!();
    println!("to view: open https://ui.perfetto.dev and drag the file in,");
    println!("or load it in chrome://tracing. All timestamps are simulated");
    println!("nanoseconds — rerunning this example reproduces the file byte");
    println!("for byte.");
}
