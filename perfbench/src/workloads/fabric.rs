//! `fabric_contended` and `fabric_exact`: the multi-node future-work
//! paragraph, as `table9` runs it.
//!
//! Per op: 64 ranks × 4096 f64 are allreduced by a fanout-4 tree, a ring
//! and a 4×4 hierarchical reduce, each on `table9`'s 4-spine fat tree
//! and on its node/NIC/switch hierarchy: six `allreduce_on` calls.
//!
//! * contended — `ArrivalOrder` folds with tenants at offered load 0.5,
//!   seeded ECMP and jitter 0.1. Most of the time is the `net` engine
//!   carrying tenant traffic; `collectives` only folds plain f64.
//! * exact — `Reproducible` folds on a quiet fabric (default jitter).
//!   The engine sees ~13× fewer events and most of the time is exact
//!   accumulator work inside the delivery callbacks.
//!
//! So an engine gain shows on the first and not the second, and an
//! accumulator gain the other way round.

use fpna_collectives::{allreduce, allreduce_on, Algorithm, NetConfig, Ordering};
use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_net::{LinkSpec, RouteSelect, Topology};

use super::Workload;
use crate::trace::Tracer;

const ALGORITHMS: [(&str, Algorithm); 3] = [
    ("tree4", Algorithm::KAryTree { fanout: 4 }),
    ("ring", Algorithm::Ring),
    ("hier", Algorithm::Hierarchical { intra: 4, inter: 4 }),
];

/// Span name per (algorithm, fabric), algorithm-major, matching the
/// call order of an op.
pub const CALLS: [&str; 6] = [
    "collectives.allreduce_on.tree4.fat_tree",
    "collectives.allreduce_on.tree4.hierarchy",
    "collectives.allreduce_on.ring.fat_tree",
    "collectives.allreduce_on.ring.hierarchy",
    "collectives.allreduce_on.hier.fat_tree",
    "collectives.allreduce_on.hier.hierarchy",
];

/// `table9`'s fat tree (4 spines, so ECMP has a real choice) and its
/// node/NIC/switch hierarchy, for `p` ranks.
fn fabrics(p: usize) -> [Topology; 2] {
    [
        Topology::fat_tree_spines(
            p,
            8,
            4,
            LinkSpec::new(500.0, 25.0),
            LinkSpec::new(1_500.0, 50.0),
        ),
        Topology::hierarchical(
            p / 8,
            8,
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        ),
    ]
}

pub struct Fabric {
    contended: bool,
    topologies: [Topology; 2],
    ranks: Vec<Vec<f64>>,
    /// The in-memory `Reproducible` allreduce: the correctly rounded
    /// sum per element.
    reference: Vec<f64>,
    /// `(p − 1)·u·Σ_r|x_r|` per element: the bound on any fold order's
    /// error, which contended results must stay within.
    tol: Vec<f64>,
    /// Foreground messages per call, fixed by the first op: they depend
    /// on the algorithm and fabric, never on timing.
    fg_msgs: Option<[u64; 6]>,
}

impl Fabric {
    pub fn new(seed: u64, contended: bool, tiny: bool, tr: &mut Tracer) -> Self {
        let (p, len) = if tiny { (16, 64) } else { (64, 4096) };
        let ranks: Vec<Vec<f64>> = tr.span("input.generate", |_| {
            let mut rng = SplitMix64::new(derive_seed(seed, p as u64));
            (0..p)
                .map(|_| (0..len).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
                .collect()
        });
        let topologies = tr.span("net.topology_build", |_| fabrics(p));
        let reference = tr.span("collectives.reference", |_| {
            allreduce(&ranks, ALGORITHMS[0].1, Ordering::Reproducible)
        });
        let u = f64::EPSILON / 2.0;
        let tol = (0..len)
            .map(|i| (p - 1) as f64 * u * ranks.iter().map(|r| r[i].abs()).sum::<f64>())
            .collect();
        Fabric {
            contended,
            topologies,
            ranks,
            reference,
            tol,
            fg_msgs: None,
        }
    }

    fn config(&self, call_seed: u64) -> (Ordering, NetConfig) {
        if self.contended {
            let cfg = NetConfig {
                jitter_frac: 0.1,
                ..NetConfig::default()
            }
            .with_load(0.5, derive_seed(call_seed, 0x10AD))
            .with_route(RouteSelect::SeededEcmp {
                seed: derive_seed(call_seed, 0xEC),
            });
            (Ordering::ArrivalOrder { seed: call_seed }, cfg)
        } else {
            (
                Ordering::Reproducible,
                NetConfig::default().with_jitter_seed(call_seed),
            )
        }
    }

    fn correct(&self, values: &[f64]) -> bool {
        if self.contended {
            values
                .iter()
                .zip(&self.reference)
                .zip(&self.tol)
                .all(|((v, r), t)| (v - r).abs() <= *t)
        } else {
            ArrayComparison::compare(&self.reference, values).vc == 0.0
        }
    }
}

impl Workload for Fabric {
    fn op(&mut self, _: u64, s: u64, tr: &mut Tracer) -> bool {
        let mut ok = true;
        let mut fg_msgs = [0u64; 6];
        for (ai, &(_, alg)) in ALGORITHMS.iter().enumerate() {
            for (ti, topo) in self.topologies.iter().enumerate() {
                let k = ai * 2 + ti;
                let (ordering, cfg) = self.config(derive_seed(s, k as u64));
                let out = tr.span(CALLS[k], |_| {
                    allreduce_on(topo, &self.ranks, alg, ordering, &cfg)
                });
                let st = &out.stats;
                fg_msgs[k] = st.deliveries;
                tr.note("fg_msgs", st.deliveries);
                tr.note("fg_bytes", st.bytes_delivered);
                tr.note("bg_msgs", st.bg_deliveries);
                tr.note("bg_dropped", st.bg_dropped);
                ok &= tr.span("core.compare", |_| self.correct(&out.values));
            }
        }
        ok && *self.fg_msgs.get_or_insert(fg_msgs) == fg_msgs
    }
}
