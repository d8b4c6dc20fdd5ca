//! Table 9 (beyond the paper): interconnect-induced variability vs
//! cost — the concluding future-work item, measured.
//!
//! Sweeps rank count × topology × jitter for a fanout-4 reduction
//! tree executed as an event-driven protocol on the `fpna-net`
//! fabric. Three regimes per topology:
//!
//! * **arrival order, jittered** — combine order emerges from message
//!   timing; variability appears and *grows with fabric depth*
//!   (flat switch → fat tree → node/NIC/switch hierarchy), because
//!   per-hop jitter accumulates over longer, slower paths;
//! * **software-scheduled** (rank order, zero jitter) — the LPU-style
//!   interconnect: bitwise identical results *and* timestamps;
//! * **reproducible** (exact accumulators in the messages) — bitwise
//!   identical across every topology and jitter seed, at a modeled
//!   bandwidth overhead (70× payload for fp64) that the simulated
//!   elapsed time and the analytic α–β model both price.
//!
//! `--segments a,b,…` (default `1`) additionally sweeps NCCL-style
//! payload pipelining: the tree runs as `SegmentedTree` with each
//! listed chunk count. Chunking never changes the bits of any regime
//! (per element the fold order is that of the unsegmented tree, and
//! reproducible mode is content-addressed anyway) — it only moves the
//! clock, which the elapsed/overhead columns and the segmented α–β
//! model price.
//!
//! `--load a,b,…` (default `0`) sweeps multi-tenant contention: seeded
//! background senders share the fabric at each offered-load factor,
//! reordering foreground arrivals through link queueing (the fabric's
//! *other* nondeterminism source — no extra jitter involved). Arrival-
//! order variability grows with offered load on the fat tree (self-
//! checked when more than one load is listed), the software-scheduled
//! rows stay bit-identical with zero timing spread (the tenants are
//! seeded too), and reproducible mode stays bitwise at any load.
//! `--route ecmp` additionally routes every message over a seeded
//! equal-cost path choice (the fat tree here has 4 spines).
//!
//! `--place aware` appends, per topology × load, a placement A/B: the
//! oblivious fanout-k tree vs the topology-aware hierarchical reduce
//! (`Algorithm::Hierarchical`, reduce within each fabric group before
//! crossing the NIC/spine). Reports modeled cost from the per-leg α–β
//! extractors, measured elapsed medians, NIC-crossing byte counts
//! (the engine's cross-group counters), and the arrival-order
//! variability delta; self-checks that aware placement beats the
//! oblivious tree on both modeled cost and NIC bytes wherever the
//! fabric has more than one group.
//!
//! `--link-stats` appends, per topology, a table of the busiest links
//! of one representative contended run (highest offered load, jitter
//! 0.1): messages carried, total queue wait, and peak queue depth —
//! the [`fpna_net::NetSim::link_stats`] view, labelled by endpoint.
//!
//! Speaks the sweep protocol (`--emit-spec` / `--shard-id …` /
//! `--from-shards …`, see `fpna-sweep`): every (rank count, topology,
//! segment count, load, schedule) cell is seeded by global run index,
//! so any process sharding of `0..runs` merges to byte-identical
//! output — including the acceptance checks and the exit code, which
//! are pure functions of the merged rows.
//!
//! `cargo run --release -p fpna-bench --bin table9 [--len 4096] [--runs 25] [--fanout 4] [--seed 9]
//!  [--segments 1,8,32] [--load 0,0.3,0.8] [--route fixed|ecmp] [--place oblivious|aware] [--link-stats]
//!  [--threads N] [--paper-scale] [--trace out.json] [--profile]`

use std::process::ExitCode;

use fpna_bench::usage_error;
use fpna_collectives::{allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_core::executor::map_runs;
use fpna_core::metrics::{scalar_variability, ArrayComparison};
use fpna_core::report::{mean_std, Table};
use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_net::{CostModel, LinkSpec, RouteSelect, Topology};
use fpna_summation::exact::ExactAccumulator;
use fpna_sweep::{SweepRows, SweepSpec};

/// Index of the fat tree in [`topologies`] — the fabric the
/// variability-vs-offered-load check reads.
const FAT_TREE_IDX: usize = 1;

const JITTER_LEVELS: [f64; 2] = [0.1, 0.3];

fn topologies(p: usize) -> Vec<Topology> {
    assert!(p.is_multiple_of(8), "the sweep assumes rank counts divisible by 8");
    vec![
        Topology::flat_switch(p, LinkSpec::new(500.0, 25.0)),
        // 4 spines: cross-group pairs expose 4 equal-cost paths, so
        // `--route ecmp` has genuine choice (Fixed sticks to spine 0).
        Topology::fat_tree_spines(p, 8, 4, LinkSpec::new(500.0, 25.0), LinkSpec::new(1_500.0, 50.0)),
        Topology::hierarchical(
            p / 8,
            8,
            LinkSpec::new(200.0, 100.0), // intra-node (NVLink-ish)
            LinkSpec::new(500.0, 50.0),  // node switch → NIC
            LinkSpec::new(5_000.0, 25.0), // inter-node (IB-ish)
        ),
    ]
}

/// Everything that parameterises the sweep — one value per spec arg.
struct Cfg {
    len: usize,
    runs: usize,
    fanout: usize,
    seed: u64,
    segments: Vec<usize>,
    loads: Vec<f64>,
    link_stats: bool,
    ecmp: bool,
    /// `--place aware`: additionally A/B the topology-aware placement
    /// (hierarchical reduce) against the oblivious tree per topology —
    /// measured + modeled cost, NIC-crossing bytes, variability delta.
    aware: bool,
}

impl Cfg {
    fn alg(&self) -> Algorithm {
        Algorithm::KAryTree { fanout: self.fanout }
    }

    /// Seeded route choice per message stream: a pure function of the
    /// sweep seed, so every run replays.
    fn route_for(&self, s: u64) -> RouteSelect {
        if self.ecmp {
            RouteSelect::SeededEcmp { seed: derive_seed(s, 0xEC) }
        } else {
            RouteSelect::Fixed
        }
    }

    /// The per-rank input vectors for rank count `p` — a pure function
    /// of `(seed, p, len)`, recomputed identically by every process.
    fn ranks(&self, p: usize) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(derive_seed(self.seed, p as u64));
        (0..p)
            .map(|_| (0..self.len).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
            .collect()
    }
}

fn cell_sched(p: usize, ti: usize, segs: usize, li: usize) -> String {
    format!("p{p}/t{ti}/k{segs}/l{li}/sched")
}

fn cell_arrival(p: usize, ti: usize, segs: usize, li: usize, j: usize) -> String {
    format!("p{p}/t{ti}/k{segs}/l{li}/ao{j}")
}

fn cell_repro(p: usize, ti: usize, segs: usize, li: usize) -> String {
    format!("p{p}/t{ti}/k{segs}/l{li}/repro")
}

/// Placement A/B cells (`--place aware` only): `pl` is `"obl"` for the
/// oblivious tree or `"awr"` for the topology-aware hierarchical run.
fn cell_place(p: usize, ti: usize, li: usize, pl: &str) -> String {
    format!("p{p}/t{ti}/l{li}/{pl}")
}

/// Per-run comparison metrics for every sweep cell, global runs in
/// `range` only. Each cell's reference (the rank-order run, the seed-0
/// arrival-order run, or the network-free exact allreduce) is a pure
/// function of the spec, recomputed per process — one extra run per
/// cell, cheap next to the run sweep it anchors.
///
/// Row columns: `[vermv, vc, max_abs_diff, len, elapsed_ns]`, plus
/// `|Vs[0]|` as a sixth column on arrival-order cells.
fn compute(cfg: &Cfg, range: std::ops::Range<usize>) -> SweepRows {
    let alg = cfg.alg();
    let seed = cfg.seed;
    let mut rows = SweepRows::new();
    for p in [32usize, 64] {
        let ranks = cfg.ranks(p);
        let exact_reference = fpna_collectives::allreduce(&ranks, alg, Ordering::Reproducible);
        for (ti, topo) in topologies(p).into_iter().enumerate() {
            for &segs in &cfg.segments {
                // `SegmentedTree` at one chunk is the plain tree; values
                // are bitwise those of the unsegmented algorithm at every
                // chunk count — segmentation only pipelines the clock.
                let alg = if segs == 1 {
                    alg
                } else {
                    Algorithm::SegmentedTree { fanout: cfg.fanout, segments: segs }
                };
                for (li, &load) in cfg.loads.iter().enumerate() {
                    // -- software-scheduled: zero jitter, rank-ordered folds --
                    // One bg/route seed for the whole row: the tenants replay
                    // identically every run, so the bitwise + zero-timing-
                    // spread guarantee must survive any offered load.
                    let base_cfg = NetConfig::default()
                        .with_load(load, derive_seed(seed, 0xB6))
                        .with_route(cfg.route_for(derive_seed(seed, 0xB6)));
                    let reference =
                        allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &base_cfg).values;
                    let outputs = map_runs(range.clone(), |_| {
                        let out = allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &base_cfg);
                        (out.values, out.elapsed_ns)
                    });
                    for (i, (v, dt)) in outputs.iter().enumerate() {
                        let c = ArrayComparison::compare(&reference, v);
                        rows.push(
                            &cell_sched(p, ti, segs, li),
                            range.start + i,
                            vec![c.vermv, c.vc, c.max_abs_diff, c.len as f64, *dt],
                        );
                    }

                    // -- arrival order at each jitter level --
                    for (j, &frac) in JITTER_LEVELS.iter().enumerate() {
                        let run = |s: u64| {
                            // The tenants (and, under ECMP, the route draws)
                            // differ per run, exactly like the jitter seed:
                            // each run is a different day on a shared fabric.
                            let net_cfg = NetConfig {
                                jitter_frac: frac,
                                ..NetConfig::default()
                            }
                            .with_load(load, derive_seed(s, 0x10AD))
                            .with_route(cfg.route_for(s));
                            let out = allreduce_on(
                                &topo,
                                &ranks,
                                alg,
                                Ordering::ArrivalOrder { seed: derive_seed(seed, s) },
                                &net_cfg,
                            );
                            (out.values, out.elapsed_ns)
                        };
                        // Seed 0 is the reference; global run r uses seed
                        // r + 1, matching the unsharded seed list 1..=runs.
                        let (reference, _) = run(0);
                        let outputs = map_runs(range.clone(), |r| run(r as u64 + 1));
                        for (i, (v, dt)) in outputs.iter().enumerate() {
                            let c = ArrayComparison::compare(&reference, v);
                            let vs0 = scalar_variability(v[0], reference[0]).abs();
                            rows.push(
                                &cell_arrival(p, ti, segs, li, j),
                                range.start + i,
                                vec![c.vermv, c.vc, c.max_abs_diff, c.len as f64, *dt, vs0],
                            );
                        }
                    }

                    // -- reproducible: exact accumulators on a jittered fabric --
                    let outputs = map_runs(range.clone(), |r| {
                        let s = derive_seed(seed ^ 0xE4A7, r as u64);
                        let net_cfg = NetConfig::default()
                            .with_jitter_seed(s)
                            .with_load(load, derive_seed(s, 0x10AD))
                            .with_route(cfg.route_for(s));
                        let out = allreduce_on(&topo, &ranks, alg, Ordering::Reproducible, &net_cfg);
                        (out.values, out.elapsed_ns)
                    });
                    for (i, (v, dt)) in outputs.iter().enumerate() {
                        let c = ArrayComparison::compare(&exact_reference, v);
                        rows.push(
                            &cell_repro(p, ti, segs, li),
                            range.start + i,
                            vec![c.vermv, c.vc, c.max_abs_diff, c.len as f64, *dt],
                        );
                    }
                }
            }
        }
        // -- placement A/B (aware mode only): per topology × load, the
        // oblivious fanout-k tree vs the topology-aware hierarchical
        // reduce on a jittered fabric. Row: [Vc vs the placement's
        // seed-0 run, elapsed_ns, NIC-crossing bytes].
        if cfg.aware {
            for (ti, topo) in topologies(p).into_iter().enumerate() {
                for (li, &load) in cfg.loads.iter().enumerate() {
                    for (pl, alg) in [
                        ("obl", alg),
                        ("awr", Algorithm::Hierarchical { intra: cfg.fanout, inter: cfg.fanout }),
                    ] {
                        let run = |s: u64| {
                            let net_cfg = NetConfig {
                                jitter_frac: JITTER_LEVELS[0],
                                ..NetConfig::default()
                            }
                            .with_load(load, derive_seed(s, 0x10AD))
                            .with_route(cfg.route_for(s));
                            allreduce_on(
                                &topo,
                                &ranks,
                                alg,
                                Ordering::ArrivalOrder { seed: derive_seed(seed ^ 0x9ACE, s) },
                                &net_cfg,
                            )
                        };
                        let reference = run(0).values;
                        let outputs = map_runs(range.clone(), |r| {
                            let out = run(r as u64 + 1);
                            (out.values, out.elapsed_ns, out.stats.nic_bytes)
                        });
                        for (i, (v, dt, nic)) in outputs.iter().enumerate() {
                            let c = ArrayComparison::compare(&reference, v);
                            rows.push(
                                &cell_place(p, ti, li, pl),
                                range.start + i,
                                vec![c.vc, *dt, *nic as f64],
                            );
                        }
                    }
                }
            }
        }
    }
    rows
}

/// Median of a per-run column (rows arrive ordered by run index).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 }
}

/// Print the tables and acceptance checks from rows alone (plus the
/// seeded representative runs behind `--link-stats`), returning
/// whether every check passed. A pure function of the row set, so
/// merged shards render byte-identically to a single process.
///
/// Each cell's variability comes from its comparison columns and its
/// simulated elapsed time from column 4.
fn report(cfg: &Cfg, rows: &SweepRows) -> bool {
    let alg = cfg.alg();
    let seed = cfg.seed;
    let runs = cfg.runs;
    // Keep the default (unsegmented) banner text byte-stable.
    let seg_note = if cfg.segments == [1] {
        String::new()
    } else {
        format!(
            ", segment sweep {{{}}}",
            cfg.segments.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(",")
        )
    };
    let load_note = if cfg.loads == [0.0] {
        String::new()
    } else {
        format!(
            ", offered-load sweep {{{}}}",
            cfg.loads.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(",")
        )
    };
    let route_note = if cfg.ecmp { ", seeded ECMP routing" } else { "" };
    fpna_bench::banner(
        "Table 9 (interconnect)",
        "timing-driven allreduce variability vs cost, by topology depth",
        &format!(
            "{}-element vectors, {runs} runs/config, fanout-{} tree{seg_note}{load_note}{route_note}",
            cfg.len, cfg.fanout,
        ),
    );

    let mut all_checks_pass = true;
    for p in [32usize, 64] {
        let ranks = cfg.ranks(p);

        // Measured span-encoded payload sizes per element: what the
        // reduce (up) phase actually ships. A leaf message carries one
        // value's accumulator; the payload grows toward the root as
        // contributions widen the occupied limb span, so the converged
        // (all-ranks) accumulator is the widest payload any hop sees.
        // Both sit far below the dense WIRE_BYTES upper bound for
        // narrow-dynamic-range data.
        let mean_wire = |per_elem: &dyn Fn(usize) -> ExactAccumulator| -> f64 {
            let total: usize = (0..cfg.len)
                .map(|i| {
                    let mut acc = per_elem(i);
                    acc.normalize();
                    acc.wire_len()
                })
                .sum();
            total as f64 / cfg.len as f64
        };
        let leaf_payload = mean_wire(&|i| {
            let mut a = ExactAccumulator::new();
            a.add(ranks[0][i]);
            a
        });
        let converged_payload = mean_wire(&|i| {
            let mut a = ExactAccumulator::new();
            for r in &ranks {
                a.add(r[i]);
            }
            a
        });
        println!(
            "measured wire payload (span-encoded): leaf {leaf_payload:.1} B/elem, \
             converged {converged_payload:.1} B/elem; dense upper bound {} B/elem",
            ExactAccumulator::WIRE_BYTES
        );
        println!();

        let mut table = Table::new([
            "topology",
            "hops",
            "schedule",
            "seg",
            "jitter",
            "load",
            "differing",
            "mean Vc",
            "mean Vermv",
            "max |Vs[0]|",
            "elapsed µs",
            "overhead",
        ])
        .with_title(format!("p = {p} ranks"));

        // mean Vc per (jitter level, segment count, topology) for the
        // depth-growth check — quiet-fabric rows only, since contention
        // reshapes the depth profile.
        let mut growth: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::new(); cfg.segments.len()]; JITTER_LEVELS.len()];
        // mean Vc per (jitter level, segment count, load) on the fat
        // tree, in `loads` order, for the variability-vs-offered-load
        // check.
        let mut load_vc: Vec<Vec<Vec<f64>>> =
            vec![vec![Vec::new(); cfg.segments.len()]; JITTER_LEVELS.len()];

        for (ti, topo) in topologies(p).into_iter().enumerate() {
            let hops = topo.diameter_hops();
            for (ki, &segs) in cfg.segments.iter().enumerate() {
                for (li, &load) in cfg.loads.iter().enumerate() {
                    let cell = cell_sched(p, ti, segs, li);
                    let sched = rows.variability_report(&cell);
                    let sched_elapsed = rows.run_summary(&cell, 4);
                    let plain_elapsed = sched_elapsed.mean;
                    // "zero timing spread" = every run took the identical
                    // simulated time (min == max exactly; the std estimate
                    // itself carries rounding noise).
                    let zero_spread = sched_elapsed.min.to_bits() == sched_elapsed.max.to_bits();
                    if !sched.fully_reproducible() || !zero_spread {
                        all_checks_pass = false;
                    }
                    table.push_row([
                        topo.name().to_string(),
                        hops.to_string(),
                        "sw-scheduled".into(),
                        segs.to_string(),
                        "0".into(),
                        format!("{load}"),
                        format!("0/{runs}"),
                        format!("{:.4}", sched.vc.mean),
                        format!("{:.3e}", sched.vermv.mean),
                        "0".into(),
                        mean_std(sched_elapsed.mean / 1e3, sched_elapsed.std_dev / 1e3, 1),
                        "1.00x".into(),
                    ]);

                    for (j, &frac) in JITTER_LEVELS.iter().enumerate() {
                        let cell = cell_arrival(p, ti, segs, li, j);
                        let arrival = rows.variability_report(&cell);
                        let elapsed = rows.run_summary(&cell, 4);
                        let vs_max = rows.column(&cell, 5).into_iter().fold(0.0f64, f64::max);
                        if load == 0.0 {
                            growth[j][ki].push(arrival.vc.mean);
                        }
                        if ti == FAT_TREE_IDX {
                            load_vc[j][ki].push(arrival.vc.mean);
                        }
                        table.push_row([
                            topo.name().to_string(),
                            hops.to_string(),
                            "arrival order".into(),
                            segs.to_string(),
                            format!("{frac}"),
                            format!("{load}"),
                            format!("{}/{runs}", runs - arrival.bitwise_identical_runs),
                            format!("{:.4}", arrival.vc.mean),
                            format!("{:.3e}", arrival.vermv.mean),
                            format!("{vs_max:.3e}"),
                            mean_std(elapsed.mean / 1e3, elapsed.std_dev / 1e3, 1),
                            format!("{:.2}x", elapsed.mean / plain_elapsed),
                        ]);
                    }

                    let cell = cell_repro(p, ti, segs, li);
                    let repro = rows.variability_report(&cell);
                    let repro_elapsed = rows.run_summary(&cell, 4);
                    if !repro.fully_reproducible() {
                        all_checks_pass = false;
                    }
                    // Only the reduce (up) phase ships accumulators; the
                    // broadcast carries rounded f64s. So the inflating part is
                    // the up-phase bandwidth term (half the model's symmetric
                    // bandwidth), and everything else (latencies both ways +
                    // down-phase bandwidth) is charged at plain size.
                    let cost = CostModel::from_topology(&topo);
                    let depth = CostModel::tree_depth(p, cfg.fanout) as f64;
                    let (plain_total_ns, up_bandwidth_ns) = if segs == 1 {
                        (
                            cost.tree_allreduce_ns(p, cfg.fanout, (cfg.len * 8) as u64),
                            depth
                                * cfg.fanout as f64
                                * (cfg.len * 8) as f64
                                * cost.beta_ns_per_byte,
                        )
                    } else {
                        let stages = 2.0 * depth + (segs as f64 - 1.0);
                        let total_bw = stages
                            * cfg.fanout as f64
                            * (cfg.len * 8) as f64
                            * cost.beta_ns_per_byte
                            / segs as f64;
                        (
                            cost.segmented_tree_allreduce_ns(
                                p,
                                cfg.fanout,
                                (cfg.len * 8) as u64,
                                segs,
                            ),
                            total_bw / 2.0,
                        )
                    };
                    // Payload-accurate model: price the up phase at the
                    // measured converged span-encoded size (the widest payload
                    // any hop carries) instead of the dense worst case.
                    let modeled = CostModel::reproducible_overhead(
                        plain_total_ns - up_bandwidth_ns,
                        up_bandwidth_ns,
                        converged_payload.ceil() as usize,
                    );
                    table.push_row([
                        topo.name().to_string(),
                        hops.to_string(),
                        "reproducible".into(),
                        segs.to_string(),
                        format!("{}", NetConfig::default().jitter_frac),
                        format!("{load}"),
                        format!("0/{runs}"),
                        format!("{:.4}", repro.vc.mean),
                        format!("{:.3e}", repro.vermv.mean),
                        "0".into(),
                        mean_std(repro_elapsed.mean / 1e3, repro_elapsed.std_dev / 1e3, 1),
                        format!("{:.2}x (model {modeled:.2}x)", repro_elapsed.mean / plain_elapsed),
                    ]);
                }
            }
        }

        println!("{}", table.render());

        // --link-stats: per-link queueing view of one representative
        // contended run per topology (highest offered load, jitter
        // 0.1, arrival order) — which links actually back up.
        if cfg.link_stats {
            let load = *cfg.loads.last().unwrap();
            for topo in topologies(p) {
                let net_cfg = NetConfig {
                    jitter_frac: 0.1,
                    ..NetConfig::default()
                }
                .with_load(load, derive_seed(seed, 0x10AD))
                .with_route(cfg.route_for(seed));
                let out = allreduce_on(
                    &topo,
                    &ranks,
                    alg,
                    Ordering::ArrivalOrder { seed: derive_seed(seed, 1) },
                    &net_cfg,
                );
                let mut busiest: Vec<(usize, &fpna_net::LinkStats)> =
                    out.link_stats.iter().enumerate().filter(|(_, s)| s.messages > 0).collect();
                busiest.sort_by(|(la, a), (lb, b)| {
                    b.wait_ns
                        .partial_cmp(&a.wait_ns)
                        .unwrap()
                        .then_with(|| b.messages.cmp(&a.messages))
                        .then_with(|| la.cmp(lb))
                });
                let active = busiest.len();
                busiest.truncate(10);
                let mut lt = Table::new(["link", "messages", "wait µs", "max depth"]).with_title(
                    format!(
                        "{} — busiest links (load {load}, jitter 0.1, {active}/{} links active)",
                        topo.name(),
                        topo.num_links(),
                    ),
                );
                for (l, s) in busiest {
                    lt.push_row([
                        format!("L{l} {}", topo.link_label(l)),
                        s.messages.to_string(),
                        format!("{:.1}", s.wait_ns / 1e3),
                        s.max_depth.to_string(),
                    ]);
                }
                println!("{}", lt.render());
            }
        }

        // --place aware: A/B the oblivious tree against hierarchical
        // placement per topology × load — modeled cost from the
        // per-leg α–β extractors, measured medians and NIC-crossing
        // bytes from the sweep rows. On fabrics with real group
        // structure (fat tree, hierarchy) aware placement must beat
        // the oblivious tree on both the model and the NIC bytes.
        if cfg.aware {
            let bytes = (cfg.len * 8) as u64;
            let mut pt = Table::new([
                "topology",
                "load",
                "placement",
                "modeled µs",
                "median µs",
                "NIC KB",
                "mean Vc",
            ])
            .with_title(format!("p = {p} ranks — placement A/B (jitter {})", JITTER_LEVELS[0]));
            let mut check_lines: Vec<String> = Vec::new();
            for (ti, topo) in topologies(p).into_iter().enumerate() {
                let cost = CostModel::from_topology(&topo);
                let intra = CostModel::intra_group(&topo);
                let inter = CostModel::inter_group(&topo);
                let groups = topo.num_groups();
                let group_size =
                    (0..groups).map(|g| topo.group_ranks(g).len()).max().unwrap_or(1);
                let modeled = [
                    cost.tree_allreduce_ns(p, cfg.fanout, bytes),
                    CostModel::hierarchical_allreduce_ns(
                        intra, inter, groups, group_size, cfg.fanout, cfg.fanout, bytes,
                    ),
                ];
                for (li, &load) in cfg.loads.iter().enumerate() {
                    let mut measured = [(0.0f64, 0.0f64, 0.0f64); 2];
                    for (pi, pl) in ["obl", "awr"].iter().enumerate() {
                        let cell = cell_place(p, ti, li, pl);
                        let med = median(rows.column(&cell, 1));
                        let nic = rows.run_summary(&cell, 2).mean;
                        let vc = rows.run_summary(&cell, 0).mean;
                        measured[pi] = (med, nic, vc);
                        pt.push_row([
                            topo.name().to_string(),
                            format!("{load}"),
                            if pi == 0 { "oblivious tree" } else { "aware hier" }.into(),
                            format!("{:.1}", modeled[pi] / 1e3),
                            format!("{:.1}", med / 1e3),
                            format!("{:.1}", nic / 1e3),
                            format!("{:.4}", vc),
                        ]);
                    }
                    let grouped = groups > 1;
                    let model_ok = !grouped || modeled[1] < modeled[0];
                    let nic_ok = !grouped || measured[1].1 < measured[0].1;
                    if !model_ok || !nic_ok {
                        all_checks_pass = false;
                    }
                    check_lines.push(format!(
                        "placement check ({}, load {load}): model {:.1} -> {:.1} µs, \
                         NIC {:.1} -> {:.1} KB, dVc {:+.4} -> {}",
                        topo.name(),
                        modeled[0] / 1e3,
                        modeled[1] / 1e3,
                        measured[0].1 / 1e3,
                        measured[1].1 / 1e3,
                        measured[1].2 - measured[0].2,
                        if !grouped {
                            "SKIP (single fabric group)"
                        } else if model_ok && nic_ok {
                            "PASS"
                        } else {
                            "FAIL"
                        }
                    ));
                }
                check_lines.push(format!(
                    "aware extras ({}, modeled): double binary tree {:.1} µs, fabric ring {:.1} µs",
                    topo.name(),
                    cost.double_binary_tree_allreduce_ns(p, bytes) / 1e3,
                    CostModel::fabric_ring_allreduce_ns(intra, inter, p, groups, bytes) / 1e3,
                ));
            }
            println!("{}", pt.render());
            for line in check_lines {
                println!("{line}");
            }
            println!();
        }

        // Accumulated path jitter grows strictly with fabric depth, so
        // at every jitter level mean Vc must be monotone in hop count
        // and nonzero on the deepest fabric (shallow fabrics may stay
        // at exactly zero below their reorder threshold — that *is*
        // the depth transition).
        for (j, &frac) in JITTER_LEVELS.iter().enumerate() {
            for (ki, &segs) in cfg.segments.iter().enumerate() {
                let seg_note = if cfg.segments == [1] {
                    String::new()
                } else {
                    format!(", segments {segs}")
                };
                // Depth growth is a quiet-fabric property; it is only
                // collected (and checked) when 0 is among the loads.
                let vcs = &growth[j][ki];
                if !vcs.is_empty() {
                    let monotone = vcs.windows(2).all(|w| w[0] <= w[1] + 1e-12);
                    let nonzero_deep = *vcs.last().unwrap() > 0.0;
                    if !monotone || !nonzero_deep {
                        all_checks_pass = false;
                    }
                    println!(
                        "growth check (jitter {frac}{seg_note}): mean Vc by depth = {} -> {}",
                        vcs.iter()
                            .map(|v| format!("{v:.4}"))
                            .collect::<Vec<_>>()
                            .join(" <= "),
                        if monotone && nonzero_deep { "PASS" } else { "FAIL" }
                    );
                }
                // Contention is a *second* nondeterminism source: on the
                // fat tree, arrival-order variability must strictly grow
                // with offered load.
                if cfg.loads.len() > 1 {
                    let vcs = &load_vc[j][ki];
                    let strictly_growing = vcs.windows(2).all(|w| w[1] > w[0]);
                    if !strictly_growing {
                        all_checks_pass = false;
                    }
                    println!(
                        "load check (jitter {frac}{seg_note}): fat-tree mean Vc by offered load = {} -> {}",
                        vcs.iter()
                            .map(|v| format!("{v:.4}"))
                            .collect::<Vec<_>>()
                            .join(" < "),
                        if strictly_growing { "PASS" } else { "FAIL" }
                    );
                }
            }
        }
        println!();
    }

    println!(
        "summary: software-scheduled runs bit-identical with zero timing spread; \
         arrival-order variability grows with fabric depth; reproducible mode \
         bit-identical across every topology and jitter seed at a bandwidth-\n\
         dominated overhead (span-encoded accumulators on the wire vs 8B plain; \
         dense upper bound {}B/element).",
        ExactAccumulator::WIRE_BYTES
    );
    if all_checks_pass {
        println!("all acceptance checks PASS");
    } else {
        println!("SOME ACCEPTANCE CHECKS FAILED");
    }
    all_checks_pass
}

fn main() -> ExitCode {
    let mut cli = fpna_bench::Cli::parse();
    let len = cli.int("len", 4_096);
    if len == 0 {
        usage_error("--len must be at least 1, got 0");
    }
    let runs = cli.size("runs", 25, 500);
    let fanout = cli.int("fanout", 4);
    if fanout < 2 {
        usage_error(format!("--fanout must be at least 2, got {fanout}"));
    }
    let seed = cli.int("seed", 9);
    let segments: Vec<usize> = cli.list("segments", "integers", vec![1]);
    if segments.contains(&0) {
        usage_error("--segments expects a comma-separated list of positive chunk counts");
    }
    // Adding 0.0 turns `-0` into 0, so the report and the spec (whose
    // hash keys the sweep store) read one zero load.
    let loads: Vec<f64> = cli.list("load", "offered-load factors", vec![0.0]);
    let loads: Vec<f64> = loads.into_iter().map(|l| l + 0.0).collect();
    if !loads.iter().all(|&l| l.is_finite() && l >= 0.0) {
        usage_error("--load expects a comma-separated list of non-negative offered-load factors");
    }
    if !loads.windows(2).all(|w| w[0] < w[1]) {
        usage_error("--load expects strictly increasing offered-load factors");
    }
    let link_stats = cli.flag("link-stats");
    let ecmp = match cli.value::<String>("route", "fixed|ecmp").as_deref() {
        None | Some("fixed") => false,
        Some("ecmp") => true,
        Some(other) => usage_error(format!("--route expects fixed|ecmp, got {other:?}")),
    };
    let aware = match cli.value::<String>("place", "oblivious|aware").as_deref() {
        None | Some("oblivious") => false,
        Some("aware") => true,
        Some(other) => usage_error(format!("--place expects oblivious|aware, got {other:?}")),
    };
    if aware && segments != [1] {
        usage_error(
            "--place aware does not combine with --segments (placement A/B runs unsegmented)",
        );
    }
    let cfg = Cfg { len, runs, fanout, seed, segments, loads, link_stats, ecmp, aware };

    let mut spec = SweepSpec::new("table9", runs)
        .arg("len", cfg.len)
        .arg("fanout", cfg.fanout)
        .arg("seed", cfg.seed)
        .arg(
            "segments",
            cfg.segments.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(","),
        )
        .arg(
            "load",
            cfg.loads.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(","),
        )
        .arg("route", if cfg.ecmp { "ecmp" } else { "fixed" })
        .arg("place", if cfg.aware { "aware" } else { "oblivious" });
    if cfg.link_stats {
        spec = spec.flag("link-stats");
    }
    cli.sweep(&spec, |range| compute(&cfg, range), |rows| report(&cfg, rows))
}
