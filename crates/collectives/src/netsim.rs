//! Timing-driven allreduce over a simulated interconnect.
//!
//! [`allreduce_on`] executes the same algorithms as
//! [`crate::allreduce()`](crate::allreduce::allreduce) — ring, k-ary tree, recursive doubling,
//! plus the segmented (pipelined) ring/tree variants — but as
//! *event-driven protocols* on an [`fpna_net`] fabric. Combine
//! order is no longer injected by a seeded shuffle; it **emerges from
//! message timing**:
//!
//! * [`Ordering::ArrivalOrder`] — links carry seeded jitter (the seed
//!   drives the [`fpna_net::JitterModel`]); each tree node folds child
//!   contributions in the order their messages actually land. This is
//!   MPI on a busy fabric. Ring and recursive doubling have a fixed
//!   combine order by construction, so only their *timing* varies —
//!   exactly the real-world split the paper describes.
//! * [`Ordering::RankOrder`] — the software-scheduled interconnect:
//!   zero jitter and rank-ordered folds. Bit-for-bit replayable,
//!   including every timestamp.
//! * [`Ordering::Reproducible`] — exact accumulators travel **in the
//!   messages** (span-encoded: [`ExactAccumulator::wire_len`] per
//!   element, bounded above by [`ExactAccumulator::WIRE_BYTES`] + 2,
//!   instead of 8), the fabric stays jittered, and one final rounding
//!   happens at the reduction root (tree/recursive doubling) or
//!   segment owner (ring). Bits are identical across every topology,
//!   algorithm, jitter seed **and segment count**; the bandwidth
//!   inflation is the network's "cost of reproducibility" — priced at
//!   the actual encoded payload.
//!
//! ## Segmentation (NCCL-style pipelining)
//!
//! [`Algorithm::SegmentedRing`] and [`Algorithm::SegmentedTree`] cut
//! the payload into `k` chunks that travel as independent messages, so
//! serialization of chunk `i+1` overlaps propagation of chunk `i` and
//! the bandwidth term pipelines across hops. Chunking never changes
//! *which* values combine in *which* order per element — each element
//! lives in exactly one chunk and follows the same ring rotation /
//! tree fold as the unsegmented protocol — so segmentation is a pure
//! timing knob: values are bitwise identical to the unsegmented
//! algorithm at every chunk count (the property tests pin this).
//!
//! ## Allocation discipline
//!
//! The hot path allocates only at protocol start-up: in-flight payload
//! buffers are *moved* into a dense message-id slab (never cloned —
//! the one genuine copy, recursive doubling's keep-and-send, goes
//! through a recycling buffer pool), a rank's own contribution is
//! folded straight from its input slice instead of materialising a
//! temporary buffer, and delivered buffers return to the pool.
//!
//! Exact payloads are held **span-packed** ([`ExactVec`]): per
//! element a `(lo, len)` span header and the occupied limbs, back to
//! back — the wire encoding laid out in memory. Their in-memory size
//! therefore follows the priced wire bytes (~16 B per element for
//! benchmark-range data, against ~26 B on the wire) rather than a
//! dense 576-byte accumulator per element, and a fold streams both
//! operands once through a single stack accumulator.
//!
//! The cheap shuffle-based path in [`crate::allreduce()`](crate::allreduce::allreduce) remains as a
//! fallback for experiments that don't need a network model.
//!
//! [`ExactAccumulator::wire_len`]: fpna_summation::exact::ExactAccumulator::wire_len
//! [`ExactAccumulator::WIRE_BYTES`]: fpna_summation::exact::ExactAccumulator::WIRE_BYTES

use crate::allreduce::{Algorithm, Ordering};
use fpna_net::{
    Background, Delivery, FabricConfig, JitterModel, LinkStats, NetSim, RouteSelect, RunStats,
    Topology,
};
use fpna_obs::counters::{self, Counter};
use fpna_obs::trace;
use fpna_summation::exact::ExactVec;

/// Fabric-behaviour knobs shared by every ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Per-hop jitter amplitude as a fraction of the hop's
    /// deterministic service time — serialization plus latency
    /// (applies to `ArrivalOrder` and `Reproducible`; `RankOrder`
    /// always runs jitter-free).
    pub jitter_frac: f64,
    /// Jitter seed used when the ordering does not carry one
    /// (`Reproducible`): "what the fabric did this run".
    pub jitter_seed: u64,
    /// Deterministic injection skew: rank `r` enters the collective at
    /// `r · stagger_ns` — ranks never hit a collective simultaneously
    /// in practice (kernel-completion skew is typically sub-µs to µs
    /// scale). Arrival order flips only where accumulated path jitter
    /// beats this spacing, which is how variability comes to grow with
    /// fabric depth.
    pub stagger_ns: f64,
    /// Offered load of the seeded background tenants sharing the
    /// fabric ([`fpna_net::Background`]): `0.0` (the default) is a
    /// quiet fabric, bit-identical to the pre-contention engine.
    pub load: f64,
    /// Seed of the background tenants' schedule: "what the other jobs
    /// did this run". Applies to every ordering — contention reorders
    /// arrivals through link queueing, not through jitter.
    pub bg_seed: u64,
    /// Route selection among equal-cost paths
    /// ([`fpna_net::RouteSelect`]): `Fixed` (the default) or seeded
    /// ECMP on a multi-spine fabric.
    pub route: RouteSelect,
    /// Copy the engine's per-link contention counters into
    /// [`NetAllreduce::link_stats`] when the protocol finishes (one
    /// `LinkStats` per directed link id). Off by default: the copy is
    /// one allocation per collective, which the allocation-free
    /// discipline only pays when asked (`table9 --link-stats`).
    pub collect_link_stats: bool,
    /// NIC small-message coalescing threshold in bytes; `0` (the
    /// default) disables it. When set, logical sends at the same
    /// simulated instant from the same rank to the same destination
    /// whose payload is at or below the threshold share one wire
    /// message: one per-message latency α, summed serialization β.
    /// This is what real NICs/NCCL do to amortize per-message cost
    /// over heavily-segmented small chunks. Deterministic by
    /// construction — batching keys on exact `(time, from, to)` and
    /// sub-messages expand at delivery in injection order — and
    /// value-invisible wherever the combine order is: the ring and
    /// recursive doubling (order fixed by construction, every
    /// ordering), and the tree under `RankOrder`/`Reproducible`.
    /// The tree under `ArrivalOrder` folds in physical arrival order,
    /// which coalescing would perturb, so it ignores the threshold.
    pub coalesce_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            jitter_frac: 0.3,
            jitter_seed: 0,
            stagger_ns: 500.0,
            load: 0.0,
            bg_seed: 0,
            route: RouteSelect::Fixed,
            collect_link_stats: false,
            coalesce_bytes: 0,
        }
    }
}

impl NetConfig {
    /// This configuration with a different jitter seed — the per-run
    /// rekeying used by seed sweeps over `Reproducible`.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// This configuration with background tenants at offered load
    /// `load`, scheduled by `bg_seed`.
    pub fn with_load(mut self, load: f64, bg_seed: u64) -> Self {
        self.load = load;
        self.bg_seed = bg_seed;
        self
    }

    /// This configuration with a different route-selection policy.
    pub fn with_route(mut self, route: RouteSelect) -> Self {
        self.route = route;
        self
    }

    /// This configuration with per-link contention counters copied
    /// into [`NetAllreduce::link_stats`].
    pub fn with_link_stats(mut self, on: bool) -> Self {
        self.collect_link_stats = on;
        self
    }

    /// This configuration with NIC small-message coalescing at the
    /// given byte threshold (`0` disables).
    pub fn with_coalesce(mut self, threshold_bytes: u64) -> Self {
        self.coalesce_bytes = threshold_bytes;
        self
    }

    /// The [`FabricConfig`] this configuration induces.
    fn fabric(&self) -> FabricConfig {
        FabricConfig {
            route_select: self.route,
            background: if self.load > 0.0 {
                Background::with_load(self.load, self.bg_seed)
            } else {
                Background::off()
            },
        }
    }
}

/// Engine construction shared by every protocol leg: jitter from the
/// ordering, contention/routing from the config.
fn build_sim<'t>(topo: &'t Topology, jitter: JitterModel, config: &NetConfig) -> NetSim<'t> {
    NetSim::with_fabric(topo, jitter, config.fabric())
}

/// Result of one simulated allreduce.
#[derive(Debug, Clone)]
pub struct NetAllreduce {
    /// The reduced vector (identical on every rank).
    pub values: Vec<f64>,
    /// Simulated time until the last rank held the result, in ns.
    pub elapsed_ns: f64,
    /// Engine statistics (messages, bytes, hops, makespan).
    pub stats: RunStats,
    /// Per-directed-link contention counters, indexed by link id —
    /// populated only under [`NetConfig::collect_link_stats`]
    /// (`None` otherwise, including the trivial single-rank path).
    pub link_stats: Option<Vec<LinkStats>>,
}

/// Per-link counter copy for [`NetAllreduce::link_stats`]; `None`
/// unless the config asked for it.
fn collect_link_stats(sim: &NetSim<'_>, config: &NetConfig) -> Option<Vec<LinkStats>> {
    config
        .collect_link_stats
        .then(|| (0..sim.topology().num_links()).map(|l| sim.link_stats(l)).collect())
}

/// Reduction state: plain floats, or span-packed exact values for the
/// reproducible ordering.
#[derive(Debug, Clone)]
enum Values {
    Plain(Vec<f64>),
    Exact(ExactVec),
}

impl Values {
    /// A placeholder carrying no buffer — what `take` leaves behind.
    fn empty() -> Self {
        Values::Plain(Vec::new())
    }

    /// Fold `rhs` into `self` as `self[i] = self[i] + rhs[i]` — the
    /// left operand is the accumulator that has been travelling.
    fn fold_in(&mut self, rhs: &Values) {
        match (self, rhs) {
            (Values::Plain(a), Values::Plain(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (Values::Exact(a), Values::Exact(b)) => a.merge(b),
            _ => unreachable!("mixed plain/exact fold"),
        }
    }

    /// Fold a rank's resident contribution straight from its input
    /// slice: `self[i] = self[i] + xs[i]`, with no temporary buffer.
    /// Bitwise identical to folding a freshly built `Values` over
    /// `xs`: an exact element's canonical form is a pure function of
    /// its accumulated value.
    fn fold_in_slice(&mut self, xs: &[f64]) {
        match self {
            Values::Plain(a) => {
                for (x, y) in a.iter_mut().zip(xs) {
                    *x += y;
                }
            }
            Values::Exact(a) => a.add(xs),
        }
    }

    fn round(&self) -> Vec<f64> {
        match self {
            Values::Plain(v) => v.clone(),
            Values::Exact(a) => a.round(),
        }
    }

    /// On-wire size of a message carrying this state. Exact values
    /// are span-encoded (a 2-byte `[lo, hi)` header plus the occupied
    /// limbs, per element), so narrow-dynamic-range payloads cost what
    /// they actually occupy instead of the dense
    /// [`WIRE_BYTES`](fpna_summation::exact::ExactAccumulator::WIRE_BYTES)
    /// upper bound. [`ExactVec`] holds every element canonical and in
    /// that very layout, so the priced bytes are read off its length.
    fn wire_bytes(&self) -> u64 {
        match self {
            Values::Plain(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
            Values::Exact(a) => a.wire_len() as u64,
        }
    }
}

/// Recycles the backing buffers of retired [`Values`] so steady-state
/// protocol rounds stop hitting the allocator: a freed buffer keeps
/// its capacity and the next `values_of`/`clone_values` reuses it.
#[derive(Debug, Default)]
struct BufferPool {
    plain: Vec<Vec<f64>>,
    exact: Vec<ExactVec>,
}

/// Pop a pooled buffer, tallying the recycle hit/miss counters (a
/// relaxed-load no-op when counters are disabled).
fn pooled<B: Default>(stack: &mut Vec<B>) -> B {
    match stack.pop() {
        Some(b) => {
            counters::add(Counter::PoolHit, 1);
            b
        }
        None => {
            counters::add(Counter::PoolMiss, 1);
            B::default()
        }
    }
}

impl BufferPool {
    /// Build a `Values` over `xs` (exact values canonical from birth),
    /// reusing a pooled buffer when one is free.
    fn values_of(&mut self, xs: &[f64], exact: bool) -> Values {
        if exact {
            let mut a = pooled(&mut self.exact);
            a.assign(xs);
            Values::Exact(a)
        } else {
            let mut v = pooled(&mut self.plain);
            v.clear();
            v.extend_from_slice(xs);
            Values::Plain(v)
        }
    }

    /// A copy of `src` in a pooled buffer — the keep-and-send case
    /// (recursive doubling), where both the resident state and the
    /// wire message need the bytes.
    fn clone_values(&mut self, src: &Values) -> Values {
        match src {
            Values::Plain(v) => {
                let mut out = pooled(&mut self.plain);
                out.clone_from(v);
                Values::Plain(out)
            }
            Values::Exact(a) => {
                let mut out = pooled(&mut self.exact);
                out.clone_from(a);
                Values::Exact(out)
            }
        }
    }

    /// Return a retired buffer to the pool.
    fn recycle(&mut self, v: Values) {
        match v {
            Values::Plain(p) => self.plain.push(p),
            Values::Exact(e) => self.exact.push(e),
        }
    }
}

/// In-flight payloads keyed by engine message id. Ids are dense and
/// injection-ordered, so an indexed slot per message replaces the old
/// per-message `HashMap` insert/remove (the hashing half of the
/// engine's former per-event overhead). The slots live in a sliding
/// window: taking a payload retires the dead prefix, so memory tracks
/// the in-flight span rather than every message the run ever injected
/// (which segmentation multiplies 8–32×).
#[derive(Debug, Default)]
struct Payloads {
    /// Id of the first slot in `slots`; every id below it has already
    /// been taken (or never carried a payload).
    base: u64,
    slots: std::collections::VecDeque<Option<Values>>,
}

impl Payloads {
    fn insert(&mut self, msg: u64, v: Values) {
        // Ids are injection-ordered, so a fresh insert is always at or
        // past `base`.
        let i = (msg - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v);
    }

    fn take(&mut self, msg: u64) -> Option<Values> {
        let i = msg.checked_sub(self.base)? as usize;
        let v = self.slots.get_mut(i).and_then(Option::take);
        // Retire the drained prefix (each slot is popped exactly once,
        // so this is amortized O(1) per message).
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        v
    }
}

/// Wire-message tag marking a coalesced batch. Real protocol tags
/// never reach this value (tree tags are small, ring tags stay below
/// `TAG_AG_BASE + 2^32`), and [`Nic::send_at`] asserts it.
const COALESCE_TAG: u64 = u64::MAX;

/// One logical send riding inside a coalesced wire message.
#[derive(Debug, Clone, Copy)]
struct SubMsg {
    /// Virtual (logical) message id — what the payload slab is keyed
    /// by and what the protocol sees at delivery.
    virt: u64,
    bytes: u64,
    tag: u64,
}

/// What a wire message id expands to at delivery.
#[derive(Debug)]
enum WireKind {
    /// An uncoalesced send: just remap the engine id to its virtual id.
    Direct(u64),
    /// A coalesced batch: expand into sub-deliveries in injection order.
    Batch(Vec<SubMsg>),
}

/// The simulated NIC's small-message coalescing stage.
///
/// Protocols route every send through [`Nic::send_at`] and expand
/// every delivery through [`Nic::expand`]. Logical sends at the same
/// simulated instant, from the same rank, to the same destination,
/// at or below the threshold, are merged into one wire message whose
/// payload is the byte sum — one per-message α, summed β — and whose
/// deliveries are replayed to the protocol in injection order at the
/// wire message's arrival time. Batches are flushed deterministically:
/// a send at a different instant, any send above the threshold, and
/// the end of every injection burst ([`Nic::flush`]) all drain the
/// open batches in first-send order, so the wire schedule is a pure
/// function of the logical send sequence.
///
/// Every send — coalesced or not — gets a dense injection-ordered
/// *virtual* id, so [`Payloads`]' sliding-window slab keeps working
/// unchanged on top. With a threshold of 0 the NIC is a strict
/// pass-through: virtual ids equal engine ids and no bookkeeping runs.
#[derive(Debug, Default)]
struct Nic {
    /// Coalescing threshold in bytes; 0 = pass-through.
    threshold: u64,
    /// Next virtual message id (dense, injection-ordered).
    next_virt: u64,
    /// Instant the open batches belong to (NaN when none are open, so
    /// the first send always misses the equality check and re-anchors).
    pend_time: f64,
    /// Open batches in first-send order: `(from, to, sub-messages)`.
    pend: Vec<(usize, usize, Vec<SubMsg>)>,
    /// Engine wire-message id → delivery expansion.
    wire: std::collections::HashMap<u64, WireKind>,
}

impl Nic {
    fn new(threshold: u64) -> Self {
        Nic {
            threshold,
            pend_time: f64::NAN,
            ..Nic::default()
        }
    }

    /// Send (or batch) one logical message; returns its virtual id.
    fn send_at(
        &mut self,
        sim: &mut NetSim<'_>,
        at: f64,
        from: usize,
        to: usize,
        bytes: u64,
        tag: u64,
    ) -> u64 {
        if self.threshold == 0 {
            return sim.send_at(at, from, to, bytes, tag);
        }
        assert!(tag != COALESCE_TAG, "protocol tag collides with the coalesce sentinel");
        if at != self.pend_time {
            self.flush(sim);
            self.pend_time = at;
        }
        let virt = self.next_virt;
        self.next_virt += 1;
        if bytes > self.threshold {
            // Large message: drain the open batches first so the wire
            // injection order tracks the logical send order, then send
            // it as its own wire message.
            self.flush(sim);
            self.pend_time = at;
            let w = sim.send_at(at, from, to, bytes, tag);
            self.wire.insert(w, WireKind::Direct(virt));
            return virt;
        }
        let sub = SubMsg { virt, bytes, tag };
        match self.pend.iter_mut().find(|(f, t, _)| *f == from && *t == to) {
            Some((_, _, subs)) => subs.push(sub),
            None => self.pend.push((from, to, vec![sub])),
        }
        virt
    }

    /// Drain every open batch onto the wire, in first-send order.
    /// Called at the end of each injection burst (and implicitly when
    /// a send can't join the open batches); must run before the engine
    /// advances past the batch instant.
    fn flush(&mut self, sim: &mut NetSim<'_>) {
        for (from, to, subs) in self.pend.drain(..) {
            if let [s] = subs[..] {
                let w = sim.send_at(self.pend_time, from, to, s.bytes, s.tag);
                self.wire.insert(w, WireKind::Direct(s.virt));
            } else {
                let bytes: u64 = subs.iter().map(|s| s.bytes).sum();
                counters::add(Counter::CoalescedMsgs, subs.len() as u64 - 1);
                counters::add(Counter::CoalescedBytesSaved, bytes - subs[0].bytes);
                let w = sim.send_at(self.pend_time, from, to, bytes, COALESCE_TAG);
                self.wire.insert(w, WireKind::Batch(subs));
            }
        }
    }

    /// Expand a wire delivery into its logical sub-deliveries, in
    /// injection order, all at the wire message's arrival time.
    fn expand(&mut self, d: &Delivery) -> SubDeliveries {
        if self.threshold == 0 {
            return SubDeliveries { base: *d, subs: None, i: 0 };
        }
        match self.wire.remove(&d.msg).expect("wire message with no NIC record") {
            WireKind::Direct(virt) => SubDeliveries {
                base: Delivery { msg: virt, ..*d },
                subs: None,
                i: 0,
            },
            WireKind::Batch(subs) => {
                debug_assert_eq!(d.tag, COALESCE_TAG);
                SubDeliveries { base: *d, subs: Some(subs), i: 0 }
            }
        }
    }
}

/// Owning iterator over the logical deliveries of one wire message —
/// owns its sub-message list so the [`Nic`] stays free for the sends
/// the protocol makes while handling each sub-delivery.
struct SubDeliveries {
    base: Delivery,
    subs: Option<Vec<SubMsg>>,
    i: usize,
}

impl Iterator for SubDeliveries {
    type Item = Delivery;

    fn next(&mut self) -> Option<Delivery> {
        match &self.subs {
            None => (self.i == 0).then(|| {
                self.i = 1;
                self.base
            }),
            Some(subs) => {
                let s = subs.get(self.i)?;
                self.i += 1;
                Some(Delivery {
                    msg: s.virt,
                    bytes: s.bytes,
                    tag: s.tag,
                    ..self.base
                })
            }
        }
    }
}

fn jitter_for(ordering: Ordering, config: &NetConfig) -> JitterModel {
    match ordering {
        Ordering::ArrivalOrder { seed } => JitterModel::uniform(config.jitter_frac, seed),
        Ordering::RankOrder => JitterModel::none(),
        Ordering::Reproducible => JitterModel::uniform(config.jitter_frac, config.jitter_seed),
    }
}

/// Largest supported segment (chunk) count — bounded by the ring's
/// tag packing (chunk id and step share the 32-bit tag space below
/// the allgather tag base).
pub const MAX_SEGMENTS: usize = 1 << 12;

/// Allreduce (sum) executed as an event-driven protocol on `topo`.
/// Returns the reduced vector plus simulated cost. The value
/// semantics match [`crate::allreduce()`](crate::allreduce::allreduce): with zero jitter and
/// rank-ordered folds the bits are identical to the in-memory path,
/// and the segmented variants are bitwise identical to their
/// unsegmented bases at every segment count.
///
/// # Panics
///
/// Panics on empty input, mismatched vector lengths, a rank count
/// different from `topo.ranks()`, fanout < 2, a segment count of 0 or
/// above [`MAX_SEGMENTS`], or a non-power-of-two rank count for
/// recursive doubling.
pub fn allreduce_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    algorithm: Algorithm,
    ordering: Ordering,
    config: &NetConfig,
) -> NetAllreduce {
    assert!(!ranks.is_empty(), "allreduce needs at least one rank");
    assert_eq!(
        topo.ranks(),
        ranks.len(),
        "topology has {} ranks but {} vectors were supplied",
        topo.ranks(),
        ranks.len()
    );
    let m = ranks[0].len();
    assert!(
        ranks.iter().all(|v| v.len() == m),
        "all ranks must contribute equally-shaped vectors"
    );
    let check_segments = |segments: usize| {
        assert!(
            (1..=MAX_SEGMENTS).contains(&segments),
            "segment count must be in 1..={MAX_SEGMENTS}, got {segments}"
        );
    };
    let jitter = jitter_for(ordering, config);
    let identity: Vec<usize> = (0..ranks.len()).collect();
    match algorithm {
        Algorithm::Ring => ring_on(topo, ranks, 1, ordering, config, jitter, &identity),
        Algorithm::SegmentedRing { segments } => {
            check_segments(segments);
            ring_on(topo, ranks, segments, ordering, config, jitter, &identity)
        }
        Algorithm::KAryTree { fanout } => {
            assert!(fanout >= 2, "tree fanout must be at least 2");
            tree_on(topo, ranks, fanout, 1, ordering, config, jitter)
        }
        Algorithm::SegmentedTree { fanout, segments } => {
            assert!(fanout >= 2, "tree fanout must be at least 2");
            check_segments(segments);
            tree_on(topo, ranks, fanout, segments, ordering, config, jitter)
        }
        Algorithm::RecursiveDoubling => {
            assert!(
                ranks.len().is_power_of_two(),
                "recursive doubling needs a power-of-two rank count"
            );
            recursive_doubling_on(topo, ranks, ordering, config, jitter)
        }
        Algorithm::Hierarchical { intra, inter } => {
            assert!(intra >= 2 && inter >= 2, "tree fanout must be at least 2");
            hierarchical_on(topo, ranks, intra, inter, ordering, config, jitter)
        }
        Algorithm::FabricRing => {
            let order = topo.fabric_ring_order();
            ring_on(topo, ranks, 1, ordering, config, jitter, &order)
        }
        Algorithm::DoubleBinaryTree => {
            double_binary_tree_on(topo, ranks, ordering, config, jitter)
        }
    }
}

/// Tree tags: `(chunk << 1) | direction`.
const TAG_UP: u64 = 0;
const TAG_DOWN: u64 = 1;
/// Ring reduce-scatter tags are `(chunk << RING_CHUNK_SHIFT) | step`;
/// allgather tags add [`TAG_AG_BASE`] and carry the segment owner in
/// the step bits.
const RING_CHUNK_SHIFT: u64 = 20;
const TAG_AG_BASE: u64 = 1 << 32;

/// Boundaries of chunk `c` (of `k`) inside the index range `lo..hi`.
fn chunk_bounds(lo: usize, hi: usize, k: usize, c: usize) -> (usize, usize) {
    let n = hi - lo;
    let per = n.div_ceil(k);
    (lo + (c * per).min(n), lo + ((c + 1) * per).min(n))
}

/// Wire size of a raw input slice without building a buffer — the
/// exact path prices the same canonical one-value elements the
/// receiver will fold.
fn raw_wire_bytes(xs: &[f64], exact: bool) -> u64 {
    if exact {
        ExactVec::wire_len_of(xs) as u64
    } else {
        std::mem::size_of_val(xs) as u64
    }
}

/// K-ary reduction tree rooted at rank 0 (children of `v` are
/// `f·v + 1 ..= f·v + f`), then a broadcast of the rounded result down
/// the same tree. Fold order at each node: own buffer first, then
/// children — in simulated-arrival order, or buffered into rank order.
///
/// With `segments > 1` the payload is cut into that many chunks, each
/// reduced and broadcast through the same tree as an independent
/// message stream; per element the fold order is unchanged, so values
/// are bitwise those of the unsegmented tree (per ordering), while
/// chunk `i+1` serializes behind chunk `i` and the levels pipeline.
fn tree_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    fanout: usize,
    segments: usize,
    ordering: Ordering,
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    let p = ranks.len();
    let m = ranks[0].len();
    let k = segments;
    let exact = matches!(ordering, Ordering::Reproducible);
    let rank_order = matches!(ordering, Ordering::RankOrder);
    let parent = |v: usize| (v - 1) / fanout;
    let children = |v: usize| (1..=fanout).map(move |c| fanout * v + c).filter(move |&c| c < p);

    let mut pool = BufferPool::default();
    let is_leaf = |v: usize| fanout * v + 1 >= p;
    // A leaf's up-message is exactly its input slice: the parent folds
    // straight from `ranks[leaf]`, so leaves never materialise a
    // buffer — only internal nodes (which accumulate) do.
    struct Node {
        /// Per-chunk accumulator state (internal nodes only).
        accs: Vec<Values>,
        /// Per-chunk count of children still owing a contribution.
        pending: Vec<usize>,
        /// Per-chunk buffered child contributions (rank-order mode):
        /// the child rank, plus its payload for internal children
        /// (`None` marks a leaf child, folded from its input slice).
        buffered: Vec<Vec<(usize, Option<Values>)>>,
    }
    let mut nodes: Vec<Node> = (0..p)
        .map(|v| Node {
            accs: if is_leaf(v) && v != 0 {
                Vec::new()
            } else {
                (0..k)
                    .map(|c| {
                        let (lo, hi) = chunk_bounds(0, m, k, c);
                        pool.values_of(&ranks[v][lo..hi], exact)
                    })
                    .collect()
            },
            pending: vec![children(v).count(); k],
            buffered: (0..k).map(|_| Vec::new()).collect(),
        })
        .collect();

    if p == 1 {
        let values = nodes[0]
            .accs
            .iter()
            .flat_map(|acc| acc.round())
            .collect();
        return NetAllreduce {
            values,
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    let mut sim = build_sim(topo, jitter, config);
    let mut payloads = Payloads::default();
    // The tree under `ArrivalOrder` folds children in physical arrival
    // order, which coalescing would perturb — it ignores the threshold
    // (see [`NetConfig::coalesce_bytes`]). `RankOrder` buffers into a
    // deterministic order and `Reproducible` is order-blind, so both
    // coalesce freely.
    let mut nic = Nic::new(if matches!(ordering, Ordering::ArrivalOrder { .. }) {
        0
    } else {
        config.coalesce_bytes
    });
    let tracing = trace::enabled();
    let pid = trace::current_pid();
    // Per-chunk protocol spans: B when the protocol opens the chunk
    // (t = 0), E once its broadcast has reached every non-root rank —
    // so pipelining across chunks is visible as overlapping spans.
    let mut chunk_down_pending: Vec<usize> = Vec::new();
    if tracing {
        chunk_down_pending = vec![p - 1; k];
        for c in 0..k {
            let lane = trace::CHUNK_TID_BASE + c as u64;
            trace::name_thread(pid, lane, format!("chunk {c}"));
            trace::begin(pid, lane, 0.0, format!("chunk{c}"), "coll");
        }
    }
    // Leaves inject their contribution at their staggered start time,
    // chunks back to back (equal timestamps resolve by injection
    // order, so chunk 0 hits the first link first and the rest
    // pipeline behind it — or, under coalescing, share one wire
    // message per leaf).
    for (v, own) in ranks.iter().enumerate().skip(1) {
        if is_leaf(v) {
            for c in 0..k {
                let (lo, hi) = chunk_bounds(0, m, k, c);
                let bytes = raw_wire_bytes(&own[lo..hi], exact);
                let tag = ((c as u64) << 1) | TAG_UP;
                nic.send_at(&mut sim, config.stagger_ns * v as f64, v, parent(v), bytes, tag);
            }
        }
    }
    nic.flush(&mut sim);

    let mut result = vec![0.0f64; m];
    let mut root_chunks_done = 0usize;
    let mut elapsed = 0.0f64;
    let stats = sim.run(|sim, wire| {
        for d in nic.expand(&wire) {
        let c = (d.tag >> 1) as usize;
        match d.tag & 1 {
            TAG_UP => {
                let v = d.to;
                let (lo, hi) = chunk_bounds(0, m, k, c);
                let payload = if is_leaf(d.from) {
                    None
                } else {
                    Some(payloads.take(d.msg).expect("up message lost its payload"))
                };
                if rank_order {
                    nodes[v].buffered[c].push((d.from, payload));
                } else {
                    if tracing {
                        trace::instant(
                            pid,
                            trace::RANK_TID_BASE + v as u64,
                            d.time,
                            "combine",
                            "coll",
                            vec![("chunk", c.into()), ("child", d.from.into())],
                        );
                    }
                    match payload {
                        Some(b) => {
                            nodes[v].accs[c].fold_in(&b);
                            pool.recycle(b);
                        }
                        None => nodes[v].accs[c].fold_in_slice(&ranks[d.from][lo..hi]),
                    }
                }
                nodes[v].pending[c] -= 1;
                if nodes[v].pending[c] == 0 {
                    if rank_order {
                        let mut buffered = std::mem::take(&mut nodes[v].buffered[c]);
                        buffered.sort_by_key(|&(child, _)| child);
                        for (child, b) in buffered {
                            if tracing {
                                trace::instant(
                                    pid,
                                    trace::RANK_TID_BASE + v as u64,
                                    d.time,
                                    "combine",
                                    "coll",
                                    vec![("chunk", c.into()), ("child", child.into())],
                                );
                            }
                            match b {
                                Some(b) => {
                                    nodes[v].accs[c].fold_in(&b);
                                    pool.recycle(b);
                                }
                                None => nodes[v].accs[c].fold_in_slice(&ranks[child][lo..hi]),
                            }
                        }
                    }
                    if v == 0 {
                        // Root: one final rounding of this chunk, then
                        // broadcast its f64s.
                        result[lo..hi].copy_from_slice(&nodes[0].accs[c].round());
                        root_chunks_done += 1;
                        elapsed = elapsed.max(d.time);
                        for child in children(0) {
                            let tag = ((c as u64) << 1) | TAG_DOWN;
                            nic.send_at(sim, d.time, 0, child, ((hi - lo) * 8) as u64, tag);
                        }
                    } else {
                        let acc = std::mem::replace(&mut nodes[v].accs[c], Values::empty());
                        let bytes = acc.wire_bytes();
                        let tag = ((c as u64) << 1) | TAG_UP;
                        let msg = nic.send_at(sim, d.time, v, parent(v), bytes, tag);
                        payloads.insert(msg, acc);
                    }
                }
            }
            _ => {
                let v = d.to;
                elapsed = elapsed.max(d.time);
                if tracing {
                    chunk_down_pending[c] -= 1;
                    if chunk_down_pending[c] == 0 {
                        let lane = trace::CHUNK_TID_BASE + c as u64;
                        trace::end(pid, lane, d.time, format!("chunk{c}"), "coll");
                    }
                }
                for child in children(v) {
                    nic.send_at(sim, d.time, v, child, d.bytes, d.tag);
                }
            }
        }
        }
        nic.flush(sim);
    });

    assert_eq!(root_chunks_done, k, "tree reduction never completed");
    NetAllreduce {
        values: result,
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

/// Ring reduce-scatter + allgather. Segment `s` starts at its owner
/// rank `s` and walks the ring; each hop computes
/// `incoming + own_contribution`, so the combine order is fixed by the
/// rotation and timing only moves the clock, never the bits. The
/// fully-reduced segment is rounded once (at rank `s − 1 mod p`) and
/// allgathered as plain `f64`s.
///
/// With `segments > 1` each rank-segment is further cut into that many
/// chunks walking the ring as independent messages — same rotation,
/// same per-element combine order, so values are bitwise identical to
/// the unsegmented ring while serialization pipelines across hops.
///
/// `order` permutes the ring onto the ranks: ring position `s` is rank
/// `order[s]`, segment `s` starts at its owner `order[s]` and hops to
/// `order[(s + 1) % p]`. The identity order is the classic
/// rank-numbered ring; [`Topology::fabric_ring_order`] keeps
/// consecutive positions inside the same fabric group so the rotation
/// crosses the NIC/spine only once per group.
fn ring_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    segments: usize,
    ordering: Ordering,
    config: &NetConfig,
    jitter: JitterModel,
    order: &[usize],
) -> NetAllreduce {
    let p = ranks.len();
    let m = ranks[0].len();
    let k = segments;
    let exact = matches!(ordering, Ordering::Reproducible);
    assert!(p < (1 << RING_CHUNK_SHIFT), "ring tag packing supports < 2^20 ranks");
    assert_eq!(order.len(), p, "ring order must cover every rank");
    let pos_of = {
        let mut pos = vec![0usize; p];
        for (s, &r) in order.iter().enumerate() {
            pos[r] = s;
        }
        pos
    };
    let seg_len = m.div_ceil(p);
    let bounds = |s: usize| ((s * seg_len).min(m), ((s + 1) * seg_len).min(m));
    let chunk_of = |s: usize, c: usize| {
        let (lo, hi) = bounds(s);
        chunk_bounds(lo, hi, k, c)
    };

    let mut pool = BufferPool::default();
    let mut out = vec![0.0f64; m];
    if p == 1 {
        return NetAllreduce {
            values: pool.values_of(&ranks[0], exact).round(),
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    let mut sim = build_sim(topo, jitter, config);
    let mut payloads = Payloads::default();
    // The ring's combine order is fixed by the rotation, so coalescing
    // is value-invisible under every ordering.
    let mut nic = Nic::new(config.coalesce_bytes);
    let tracing = trace::enabled();
    let pid = trace::current_pid();
    // Step 0: every rank sends its own copy of its own segment, chunk
    // by chunk (empty chunks still circulate as 0-byte messages so the
    // protocol shape is uniform at every segment count).
    for (s, &r) in order.iter().enumerate() {
        for c in 0..k {
            let (lo, hi) = chunk_of(s, c);
            let seg = pool.values_of(&ranks[r][lo..hi], exact);
            let bytes = seg.wire_bytes();
            let tag = (c as u64) << RING_CHUNK_SHIFT;
            let msg =
                nic.send_at(&mut sim, config.stagger_ns * r as f64, r, order[(s + 1) % p], bytes, tag);
            payloads.insert(msg, seg);
            if tracing {
                // Span per travelling chunk: B at injection, E at its
                // single rounding (reduce-scatter complete).
                let lane = trace::CHUNK_TID_BASE + (s * k + c) as u64;
                trace::name_thread(pid, lane, format!("seg {s} chunk {c}"));
                trace::begin(pid, lane, config.stagger_ns * r as f64, format!("seg{s}.chunk{c}"), "coll");
            }
        }
    }

    nic.flush(&mut sim);

    let step_mask = (1u64 << RING_CHUNK_SHIFT) - 1;
    let mut elapsed = 0.0f64;
    let stats = sim.run(|sim, wire| {
        for d in nic.expand(&wire) {
        elapsed = elapsed.max(d.time);
        if d.tag < TAG_AG_BASE {
            // Reduce-scatter step `s`: fold our contribution under the
            // travelling partial for chunk c of segment
            // (pos(from) − s) mod p.
            let s = (d.tag & step_mask) as usize;
            let c = (d.tag >> RING_CHUNK_SHIFT) as usize;
            let r = d.to;
            let z = (pos_of[d.from] + p - s) % p;
            let (lo, hi) = chunk_of(z, c);
            let mut acc = payloads.take(d.msg).expect("ring partial lost");
            acc.fold_in_slice(&ranks[r][lo..hi]);
            if tracing {
                trace::instant(
                    pid,
                    trace::RANK_TID_BASE + r as u64,
                    d.time,
                    "combine",
                    "coll",
                    vec![("seg", z.into()), ("chunk", c.into()), ("step", s.into())],
                );
            }
            if s + 1 < p - 1 {
                let bytes = acc.wire_bytes();
                let tag = ((c as u64) << RING_CHUNK_SHIFT) | (s as u64 + 1);
                let msg = nic.send_at(sim, d.time, r, order[(pos_of[r] + 1) % p], bytes, tag);
                payloads.insert(msg, acc);
            } else {
                // Chunk complete: single rounding, then allgather.
                if tracing {
                    let lane = trace::CHUNK_TID_BASE + (z * k + c) as u64;
                    trace::end(pid, lane, d.time, format!("seg{z}.chunk{c}"), "coll");
                }
                let rounded = acc.round();
                pool.recycle(acc);
                out[lo..hi].copy_from_slice(&rounded);
                let bytes = (rounded.len() * 8) as u64;
                let tag = TAG_AG_BASE + (((c as u64) << RING_CHUNK_SHIFT) | z as u64);
                let msg = nic.send_at(sim, d.time, r, order[(pos_of[r] + 1) % p], bytes, tag);
                payloads.insert(msg, Values::Plain(rounded));
            }
        } else {
            // Allgather: forward the finished chunk around the ring
            // until it is one position short of its finisher.
            let z = ((d.tag - TAG_AG_BASE) & step_mask) as usize;
            let finisher = (z + p - 1) % p;
            let t = d.to;
            let acc = payloads.take(d.msg).expect("allgather segment lost");
            if (pos_of[t] + 1) % p != finisher {
                let bytes = acc.wire_bytes();
                let msg = nic.send_at(sim, d.time, t, order[(pos_of[t] + 1) % p], bytes, d.tag);
                payloads.insert(msg, acc);
            } else {
                pool.recycle(acc);
            }
        }
        }
        nic.flush(sim);
    });

    NetAllreduce {
        values: out,
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

/// Hierarchical phase tags (single chunk, so the whole tag is the
/// phase id).
const H_INTRA_UP: u64 = 0;
const H_INTER_UP: u64 = 1;
const H_INTER_DOWN: u64 = 2;
const H_INTRA_DOWN: u64 = 3;

/// Topology-aware hierarchical allreduce: an `intra`-ary reduction
/// tree inside every fabric group (rooted at the group leader, the
/// group's smallest rank), an `inter`-ary tree over the leaders in
/// group order, then the rounded result broadcast back down both
/// levels. Only the inter phase crosses fabric groups, so the
/// NIC/spine links carry one payload per group instead of one per
/// rank. Value semantics match
/// [`hierarchical_in_memory`](crate::allreduce::hierarchical_in_memory)
/// over the fabric groups (per ordering); under `Reproducible` the
/// travelling exact accumulators make the bits identical to every
/// oblivious baseline.
fn hierarchical_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    intra: usize,
    inter: usize,
    ordering: Ordering,
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    let p = ranks.len();
    let m = ranks[0].len();
    let exact = matches!(ordering, Ordering::Reproducible);
    let rank_order = matches!(ordering, Ordering::RankOrder);
    let num_groups = topo.num_groups();

    let mut pool = BufferPool::default();
    if p == 1 {
        return NetAllreduce {
            values: pool.values_of(&ranks[0], exact).round(),
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    // Virtual coordinates: the member index inside the group (leader =
    // member 0) for the intra trees, the group id for the inter tree.
    // Members and group leaders are both rank-ascending, so sorting
    // buffered children by physical rank is sorting by virtual index.
    let group_of: Vec<usize> = (0..p).map(|r| topo.group_of(r)).collect();
    let member_idx: Vec<usize> = (0..p)
        .map(|r| {
            topo.group_ranks(group_of[r])
                .iter()
                .position(|&x| x == r)
                .expect("rank missing from its own fabric group")
        })
        .collect();
    let leader = |g: usize| topo.group_ranks(g)[0];
    let is_leader = |r: usize| member_idx[r] == 0;
    let intra_children = |r: usize| {
        let members = topo.group_ranks(group_of[r]);
        let i = member_idx[r];
        (1..=intra)
            .map(move |c| intra * i + c)
            .filter(move |&c| c < members.len())
            .map(move |c| members[c])
    };
    let inter_children = |g: usize| {
        (1..=inter)
            .map(move |c| inter * g + c)
            .filter(move |&c| c < num_groups)
            .map(leader)
    };
    // Where a finished accumulator goes: leaders climb the inter tree
    // (the root, leader of group 0 = rank 0, keeps it), everyone else
    // climbs their group's intra tree.
    let up_target = |r: usize| -> Option<(usize, u64)> {
        if is_leader(r) {
            let g = group_of[r];
            (g != 0).then(|| (leader((g - 1) / inter), H_INTER_UP))
        } else {
            let members = topo.group_ranks(group_of[r]);
            Some((members[(member_idx[r] - 1) / intra], H_INTRA_UP))
        }
    };

    // A rank with nothing to wait for ships its input slice directly
    // (never materialising an accumulator): intra leaves, and
    // singleton-group leaders that are also inter leaves.
    let mut pending: Vec<usize> = (0..p)
        .map(|r| {
            intra_children(r).count()
                + if is_leader(r) { inter_children(group_of[r]).count() } else { 0 }
        })
        .collect();
    let sends_raw: Vec<bool> = (0..p).map(|r| pending[r] == 0).collect();
    let mut accs: Vec<Values> = (0..p)
        .map(|r| {
            if sends_raw[r] {
                Values::empty()
            } else {
                pool.values_of(&ranks[r], exact)
            }
        })
        .collect();
    // Rank-order mode buffers every contribution and folds once all
    // are in, keyed `(phase, child rank)` — intra children ascending,
    // then inter children ascending, matching the in-memory fold.
    let mut buffered: Vec<Vec<(u64, usize, Option<Values>)>> =
        (0..p).map(|_| Vec::new()).collect();

    let mut sim = build_sim(topo, jitter, config);
    let mut payloads = Payloads::default();
    // Same coalescing rule as the k-ary tree: arrival order folds in
    // physical arrival order, which coalescing would perturb.
    let mut nic = Nic::new(if matches!(ordering, Ordering::ArrivalOrder { .. }) {
        0
    } else {
        config.coalesce_bytes
    });
    for r in 1..p {
        if sends_raw[r] {
            let (to, tag) = up_target(r).expect("non-root raw sender has an up target");
            let bytes = raw_wire_bytes(&ranks[r], exact);
            nic.send_at(&mut sim, config.stagger_ns * r as f64, r, to, bytes, tag);
        }
    }
    nic.flush(&mut sim);

    let mut result = vec![0.0f64; m];
    let mut root_done = false;
    let mut down_seen = 0usize;
    let mut elapsed = 0.0f64;
    let stats = sim.run(|sim, wire| {
        for d in nic.expand(&wire) {
            match d.tag {
                H_INTRA_UP | H_INTER_UP => {
                    let v = d.to;
                    let payload = if sends_raw[d.from] {
                        None
                    } else {
                        Some(payloads.take(d.msg).expect("up message lost its payload"))
                    };
                    if rank_order {
                        buffered[v].push((d.tag, d.from, payload));
                    } else {
                        match payload {
                            Some(b) => {
                                accs[v].fold_in(&b);
                                pool.recycle(b);
                            }
                            None => accs[v].fold_in_slice(&ranks[d.from]),
                        }
                    }
                    pending[v] -= 1;
                    if pending[v] == 0 {
                        if rank_order {
                            let mut b = std::mem::take(&mut buffered[v]);
                            b.sort_by_key(|&(tag, from, _)| (tag, from));
                            for (_, from, payload) in b {
                                match payload {
                                    Some(x) => {
                                        accs[v].fold_in(&x);
                                        pool.recycle(x);
                                    }
                                    None => accs[v].fold_in_slice(&ranks[from]),
                                }
                            }
                        }
                        match up_target(v) {
                            Some((to, tag)) => {
                                let acc = std::mem::replace(&mut accs[v], Values::empty());
                                let bytes = acc.wire_bytes();
                                let msg = nic.send_at(sim, d.time, v, to, bytes, tag);
                                payloads.insert(msg, acc);
                            }
                            None => {
                                // Root: the single rounding, then the
                                // two-level broadcast.
                                result.copy_from_slice(&accs[0].round());
                                root_done = true;
                                elapsed = elapsed.max(d.time);
                                let bytes = (m * 8) as u64;
                                for child in inter_children(0) {
                                    nic.send_at(sim, d.time, 0, child, bytes, H_INTER_DOWN);
                                }
                                for child in intra_children(0) {
                                    nic.send_at(sim, d.time, 0, child, bytes, H_INTRA_DOWN);
                                }
                            }
                        }
                    }
                }
                _ => {
                    let v = d.to;
                    elapsed = elapsed.max(d.time);
                    down_seen += 1;
                    if d.tag == H_INTER_DOWN {
                        for child in inter_children(group_of[v]) {
                            nic.send_at(sim, d.time, v, child, d.bytes, H_INTER_DOWN);
                        }
                    }
                    for child in intra_children(v) {
                        nic.send_at(sim, d.time, v, child, d.bytes, H_INTRA_DOWN);
                    }
                }
            }
        }
        nic.flush(sim);
    });

    assert!(root_done, "hierarchical reduction never completed");
    assert_eq!(down_seen, p - 1, "hierarchical broadcast never completed");
    NetAllreduce {
        values: result,
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

/// Double binary tree, NCCL-style: two complementary binary trees run
/// in the same simulation, tree 0 over virtual ids `v = rank` reducing
/// the lower half of the payload, tree 1 over the mirrored ids
/// `v = p − 1 − rank` reducing the upper half — interior ranks of one
/// tree are leaves of the other, so each link carries roughly half the
/// bytes of a single tree. Tags are `(tree << 1) | direction`. Value
/// semantics match
/// [`double_binary_tree_in_memory`](crate::allreduce::double_binary_tree_in_memory)
/// (per ordering); under `Reproducible` each half folds exactly and
/// rounds once, bitwise those of every oblivious baseline.
fn double_binary_tree_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    ordering: Ordering,
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    let p = ranks.len();
    let m = ranks[0].len();
    let exact = matches!(ordering, Ordering::Reproducible);
    let rank_order = matches!(ordering, Ordering::RankOrder);
    let h = m.div_ceil(2);
    let range = |t: usize| if t == 0 { (0, h) } else { (h, m) };
    // An involution: virtual id of a rank in tree `t`, and equally the
    // physical rank of a virtual id.
    let virt = |t: usize, r: usize| if t == 0 { r } else { p - 1 - r };
    let vchildren = |v: usize| (1..=2).map(move |c| 2 * v + c).filter(move |&c| c < p);
    let is_vleaf = |v: usize| 2 * v + 1 >= p;

    let mut pool = BufferPool::default();
    if p == 1 {
        return NetAllreduce {
            values: pool.values_of(&ranks[0], exact).round(),
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    // State for rank `r` in tree `t` lives at index `t·p + r`. Leaves
    // ship their input slice directly and never materialise a buffer.
    let mut accs: Vec<Values> = Vec::with_capacity(2 * p);
    let mut pending = vec![0usize; 2 * p];
    for t in 0..2 {
        let (lo, hi) = range(t);
        for r in 0..p {
            let v = virt(t, r);
            accs.push(if is_vleaf(v) && v != 0 {
                Values::empty()
            } else {
                pool.values_of(&ranks[r][lo..hi], exact)
            });
            pending[t * p + r] = vchildren(v).count();
        }
    }
    // Rank-order buffers sort by *virtual* child id — in tree 1 that
    // is descending physical rank, matching the in-memory fold.
    let mut buffered: Vec<Vec<(usize, Option<Values>)>> =
        (0..2 * p).map(|_| Vec::new()).collect();

    let mut sim = build_sim(topo, jitter, config);
    let mut payloads = Payloads::default();
    let mut nic = Nic::new(if matches!(ordering, Ordering::ArrivalOrder { .. }) {
        0
    } else {
        config.coalesce_bytes
    });
    for t in 0..2 {
        let (lo, hi) = range(t);
        for (r, own) in ranks.iter().enumerate() {
            let v = virt(t, r);
            if is_vleaf(v) && v != 0 {
                let bytes = raw_wire_bytes(&own[lo..hi], exact);
                let tag = ((t as u64) << 1) | TAG_UP;
                nic.send_at(&mut sim, config.stagger_ns * r as f64, r, virt(t, (v - 1) / 2), bytes, tag);
            }
        }
    }
    nic.flush(&mut sim);

    let mut result = vec![0.0f64; m];
    let mut roots_done = 0usize;
    let mut elapsed = 0.0f64;
    let stats = sim.run(|sim, wire| {
        for d in nic.expand(&wire) {
            let t = (d.tag >> 1) as usize;
            let (lo, hi) = range(t);
            match d.tag & 1 {
                TAG_UP => {
                    let r = d.to;
                    let i = t * p + r;
                    let payload = if is_vleaf(virt(t, d.from)) {
                        None
                    } else {
                        Some(payloads.take(d.msg).expect("up message lost its payload"))
                    };
                    if rank_order {
                        buffered[i].push((virt(t, d.from), payload));
                    } else {
                        match payload {
                            Some(b) => {
                                accs[i].fold_in(&b);
                                pool.recycle(b);
                            }
                            None => accs[i].fold_in_slice(&ranks[d.from][lo..hi]),
                        }
                    }
                    pending[i] -= 1;
                    if pending[i] == 0 {
                        let v = virt(t, r);
                        if rank_order {
                            let mut b = std::mem::take(&mut buffered[i]);
                            b.sort_by_key(|&(vc, _)| vc);
                            for (vc, payload) in b {
                                match payload {
                                    Some(x) => {
                                        accs[i].fold_in(&x);
                                        pool.recycle(x);
                                    }
                                    None => {
                                        accs[i].fold_in_slice(&ranks[virt(t, vc)][lo..hi])
                                    }
                                }
                            }
                        }
                        if v == 0 {
                            // This tree's root: round its half, then
                            // broadcast it down the same tree.
                            result[lo..hi].copy_from_slice(&accs[i].round());
                            roots_done += 1;
                            elapsed = elapsed.max(d.time);
                            for vc in vchildren(0) {
                                let tag = ((t as u64) << 1) | TAG_DOWN;
                                nic.send_at(sim, d.time, r, virt(t, vc), ((hi - lo) * 8) as u64, tag);
                            }
                        } else {
                            let acc = std::mem::replace(&mut accs[i], Values::empty());
                            let bytes = acc.wire_bytes();
                            let tag = ((t as u64) << 1) | TAG_UP;
                            let msg = nic.send_at(sim, d.time, r, virt(t, (v - 1) / 2), bytes, tag);
                            payloads.insert(msg, acc);
                        }
                    }
                }
                _ => {
                    let r = d.to;
                    elapsed = elapsed.max(d.time);
                    for vc in vchildren(virt(t, r)) {
                        nic.send_at(sim, d.time, r, virt(t, vc), d.bytes, d.tag);
                    }
                }
            }
        }
        nic.flush(sim);
    });

    assert_eq!(roots_done, 2, "double binary tree never completed");
    NetAllreduce {
        values: result,
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

/// Recursive doubling: `log₂ p` rounds of symmetric pairwise
/// exchanges; both partners compute `lower + upper`, so every rank
/// holds identical bits after every round and timing never leaks into
/// the values. Messages from a future round are buffered until the
/// receiving rank finishes the rounds before it.
///
/// Because the combine order is fixed by construction, the plain-f64
/// orderings split the work: the values are computed once as the
/// balanced `(lower, upper)` block fold (bitwise identical to what
/// every rank's in-protocol folding would produce), and the message
/// exchange is simulated payload-free — every plain message is `m·8`
/// bytes regardless of content, so timing needs no value state at
/// all. `Reproducible` keeps values in the protocol: its wire sizes
/// depend on the travelling accumulators.
fn recursive_doubling_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    ordering: Ordering,
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    if matches!(ordering, Ordering::Reproducible) {
        recursive_doubling_exact_on(topo, ranks, config, jitter)
    } else {
        recursive_doubling_plain_on(topo, ranks, config, jitter)
    }
}

/// Balanced block fold `sum(block) = sum(lower half) + sum(upper
/// half)` — the exact value (and bits) rank 0 ends the plain
/// recursive-doubling protocol with.
fn block_fold(ranks: &[Vec<f64>], lo: usize, len: usize) -> Vec<f64> {
    if len == 1 {
        return ranks[lo].clone();
    }
    let half = len / 2;
    let mut lower = block_fold(ranks, lo, half);
    if half == 1 {
        for (a, b) in lower.iter_mut().zip(&ranks[lo + 1]) {
            *a += b;
        }
    } else {
        let upper = block_fold(ranks, lo + half, half);
        for (a, b) in lower.iter_mut().zip(&upper) {
            *a += b;
        }
    }
    lower
}

/// The plain-f64 leg: values from [`block_fold`], timing from a
/// payload-free replay of the exchange schedule (constant `m·8`-byte
/// messages).
fn recursive_doubling_plain_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    let p = ranks.len();
    let m = ranks[0].len();
    let rounds = p.trailing_zeros() as usize;
    let values = block_fold(ranks, 0, p);
    if p == 1 {
        return NetAllreduce {
            values,
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    struct RankState {
        round: usize,
        ready: f64,
        /// Arrival time of the partner message for each round.
        pending: Vec<Option<f64>>,
    }
    let mut states: Vec<RankState> = (0..p)
        .map(|r| RankState {
            round: 0,
            ready: config.stagger_ns * r as f64,
            pending: vec![None; rounds],
        })
        .collect();

    let bytes = (m * std::mem::size_of::<f64>()) as u64;
    let mut sim = build_sim(topo, jitter, config);
    for (r, state) in states.iter().enumerate() {
        sim.send_at(state.ready, r, r ^ 1, bytes, 0);
    }

    let mut final_time = vec![0.0f64; p];
    let stats = sim.run(|sim, d| {
        let r = d.to;
        states[r].pending[d.tag as usize] = Some(d.time);
        loop {
            let current = states[r].round;
            let Some(arrived) = states[r].pending.get_mut(current).and_then(Option::take)
            else {
                break;
            };
            let now = states[r].ready.max(arrived);
            states[r].round = current + 1;
            states[r].ready = now;
            if current + 1 < rounds {
                sim.send_at(now, r, r ^ (1 << (current + 1)), bytes, (current + 1) as u64);
            } else {
                final_time[r] = now;
            }
        }
    });

    let elapsed = final_time.iter().copied().fold(0.0f64, f64::max);
    NetAllreduce {
        values,
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

/// The reproducible leg: exact accumulators travel in the messages,
/// so wire sizes (and therefore timing) depend on the values and the
/// protocol carries them.
fn recursive_doubling_exact_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    config: &NetConfig,
    jitter: JitterModel,
) -> NetAllreduce {
    let p = ranks.len();
    let exact = true;
    let rounds = p.trailing_zeros() as usize;

    let mut pool = BufferPool::default();
    struct RankState {
        buf: Values,
        round: usize,
        ready: f64,
        /// Buffered partner payloads indexed by round: `(arrival, payload)`.
        pending: Vec<Option<(f64, Values)>>,
    }
    let mut states: Vec<RankState> = (0..p)
        .map(|r| RankState {
            buf: pool.values_of(&ranks[r], exact),
            round: 0,
            ready: config.stagger_ns * r as f64,
            pending: (0..rounds.max(1)).map(|_| None).collect(),
        })
        .collect();

    if p == 1 {
        return NetAllreduce {
            values: states[0].buf.round(),
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: None,
        };
    }

    let mut sim = build_sim(topo, jitter, config);
    let mut payloads = Payloads::default();
    let tracing = trace::enabled();
    let pid = trace::current_pid();
    for (r, state) in states.iter().enumerate() {
        let bytes = state.buf.wire_bytes();
        let msg = sim.send_at(state.ready, r, r ^ 1, bytes, 0);
        payloads.insert(msg, pool.clone_values(&state.buf));
    }

    let mut final_time = vec![0.0f64; p];
    let stats = sim.run(|sim, d| {
        let r = d.to;
        let payload = payloads.take(d.msg).expect("doubling payload lost");
        states[r].pending[d.tag as usize] = Some((d.time, payload));
        // Drain every round that is now unblocked, in round order.
        loop {
            let current = states[r].round;
            let Some((arrived, payload)) = states[r]
                .pending
                .get_mut(current)
                .and_then(Option::take)
            else {
                break;
            };
            let round = states[r].round;
            let now = states[r].ready.max(arrived);
            let partner = r ^ (1 << round);
            if tracing {
                trace::instant(
                    pid,
                    trace::RANK_TID_BASE + r as u64,
                    now,
                    "combine",
                    "coll",
                    vec![("round", round.into()), ("partner", partner.into())],
                );
            }
            // `lower + upper` without cloning either side: fold the
            // payload into the resident buffer (or the buffer into the
            // payload) depending on which operand is "lower".
            if r < partner {
                states[r].buf.fold_in(&payload);
                pool.recycle(payload);
            } else {
                let mut merged = payload;
                merged.fold_in(&states[r].buf);
                let retired = std::mem::replace(&mut states[r].buf, merged);
                pool.recycle(retired);
            }
            states[r].round = round + 1;
            states[r].ready = now;
            if round + 1 < rounds {
                let bytes = states[r].buf.wire_bytes();
                let msg = sim.send_at(now, r, r ^ (1 << (round + 1)), bytes, (round + 1) as u64);
                payloads.insert(msg, pool.clone_values(&states[r].buf));
            } else {
                final_time[r] = now;
            }
        }
    });

    let elapsed = final_time.iter().copied().fold(0.0f64, f64::max);
    NetAllreduce {
        values: states.swap_remove(0).buf.round(),
        elapsed_ns: elapsed,
        stats,
        link_stats: collect_link_stats(&sim, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::allreduce;
    use fpna_core::rng::SplitMix64;
    use fpna_net::LinkSpec;

    fn make_ranks(p: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        (0..p)
            .map(|_| (0..m).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn flat(p: usize) -> Topology {
        Topology::flat_switch(p, LinkSpec::new(500.0, 25.0))
    }

    fn hier(nodes: usize, rpn: usize) -> Topology {
        Topology::hierarchical(
            nodes,
            rpn,
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        )
    }

    #[test]
    fn zero_jitter_rank_order_matches_in_memory_bits() {
        let ranks = make_ranks(16, 64, 1);
        let topo = flat(16);
        let cfg = NetConfig::default();
        for alg in [
            Algorithm::Ring,
            Algorithm::KAryTree { fanout: 3 },
            Algorithm::RecursiveDoubling,
            Algorithm::SegmentedRing { segments: 4 },
            Algorithm::SegmentedTree { fanout: 3, segments: 4 },
            // The flat switch is one fabric group, so the aware
            // variants degenerate to their in-memory references.
            Algorithm::Hierarchical { intra: 2, inter: 2 },
            Algorithm::FabricRing,
            Algorithm::DoubleBinaryTree,
        ] {
            let sim = allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &cfg);
            let mem = allreduce(&ranks, alg, Ordering::RankOrder);
            assert_eq!(bits(&sim.values), bits(&mem), "{alg:?}");
            assert!(sim.elapsed_ns > 0.0);
        }
    }

    #[test]
    fn rank_order_is_replayable_to_the_timestamp() {
        let ranks = make_ranks(8, 32, 2);
        let topo = hier(2, 4);
        let cfg = NetConfig::default();
        let a = allreduce_on(&topo, &ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder, &cfg);
        let b = allreduce_on(&topo, &ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder, &cfg);
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits());
    }

    #[test]
    fn jittered_tree_varies_across_seeds() {
        let ranks = make_ranks(16, 64, 3);
        let topo = hier(4, 4);
        let cfg = NetConfig::default();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            let out = allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout: 8 },
                Ordering::ArrivalOrder { seed },
                &cfg,
            );
            distinct.insert(bits(&out.values));
        }
        assert!(distinct.len() > 1, "timing jitter should leak into the bits");
    }

    #[test]
    fn ring_and_doubling_bits_are_timing_invariant() {
        // Fixed combine order: jitter moves the clock, not the bits.
        let ranks = make_ranks(8, 48, 4);
        let topo = hier(2, 4);
        let cfg = NetConfig::default();
        for alg in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::SegmentedRing { segments: 3 },
        ] {
            let a = allreduce_on(&topo, &ranks, alg, Ordering::ArrivalOrder { seed: 1 }, &cfg);
            let b = allreduce_on(&topo, &ranks, alg, Ordering::ArrivalOrder { seed: 99 }, &cfg);
            assert_eq!(bits(&a.values), bits(&b.values), "{alg:?}");
            assert_ne!(
                a.elapsed_ns.to_bits(),
                b.elapsed_ns.to_bits(),
                "{alg:?}: jitter should still move the clock"
            );
        }
    }

    #[test]
    fn segmented_values_match_unsegmented_for_every_ordering() {
        // Chunking is a pure timing knob: per-element combine order is
        // unchanged, so the *values* (not the clock) are bitwise those
        // of the unsegmented algorithm — for the order-fixed ring under
        // every ordering, and for the tree wherever the fold order is
        // deterministic.
        let ranks = make_ranks(8, 52, 11);
        let topo = hier(2, 4);
        let cfg = NetConfig::default();
        for k in [2usize, 7, 16] {
            for ord in [
                Ordering::RankOrder,
                Ordering::ArrivalOrder { seed: 5 },
                Ordering::Reproducible,
            ] {
                let seg = allreduce_on(
                    &topo,
                    &ranks,
                    Algorithm::SegmentedRing { segments: k },
                    ord,
                    &cfg,
                );
                let base = allreduce_on(&topo, &ranks, Algorithm::Ring, ord, &cfg);
                assert_eq!(bits(&seg.values), bits(&base.values), "ring k={k} {ord:?}");
            }
            let seg = allreduce_on(
                &topo,
                &ranks,
                Algorithm::SegmentedTree { fanout: 3, segments: k },
                Ordering::RankOrder,
                &cfg,
            );
            let base = allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout: 3 },
                Ordering::RankOrder,
                &cfg,
            );
            assert_eq!(bits(&seg.values), bits(&base.values), "tree k={k}");
        }
    }

    #[test]
    fn segmentation_pipelines_the_clock() {
        // A bandwidth-heavy payload on a deep fabric: cutting it into
        // chunks must strictly reduce the simulated completion time
        // (that is the whole point of overlap).
        let ranks = make_ranks(8, 4096, 12);
        let topo = hier(2, 4);
        let cfg = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let base = allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::RankOrder, &cfg);
        let seg = allreduce_on(
            &topo,
            &ranks,
            Algorithm::SegmentedRing { segments: 8 },
            Ordering::RankOrder,
            &cfg,
        );
        assert!(
            seg.elapsed_ns < base.elapsed_ns,
            "segmented {} vs unsegmented {}",
            seg.elapsed_ns,
            base.elapsed_ns
        );
        let tbase = allreduce_on(
            &topo,
            &ranks,
            Algorithm::KAryTree { fanout: 4 },
            Ordering::RankOrder,
            &cfg,
        );
        let tseg = allreduce_on(
            &topo,
            &ranks,
            Algorithm::SegmentedTree { fanout: 4, segments: 8 },
            Ordering::RankOrder,
            &cfg,
        );
        assert!(
            tseg.elapsed_ns < tbase.elapsed_ns,
            "segmented tree {} vs unsegmented {}",
            tseg.elapsed_ns,
            tbase.elapsed_ns
        );
    }

    #[test]
    fn reproducible_is_bitwise_stable_across_everything() {
        let ranks = make_ranks(16, 32, 5);
        let reference = allreduce(&ranks, Algorithm::Ring, Ordering::Reproducible);
        let cfg = NetConfig::default();
        for topo in [flat(16), hier(4, 4)] {
            for alg in [
                Algorithm::Ring,
                Algorithm::KAryTree { fanout: 4 },
                Algorithm::RecursiveDoubling,
                Algorithm::SegmentedRing { segments: 7 },
                Algorithm::SegmentedTree { fanout: 4, segments: 16 },
                Algorithm::Hierarchical { intra: 2, inter: 2 },
                Algorithm::FabricRing,
                Algorithm::DoubleBinaryTree,
            ] {
                for seed in [0u64, 7, 1234] {
                    let out = allreduce_on(
                        &topo,
                        &ranks,
                        alg,
                        Ordering::Reproducible,
                        &cfg.with_jitter_seed(seed),
                    );
                    assert_eq!(
                        bits(&out.values),
                        bits(&reference),
                        "{alg:?} on {} seed {seed}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reproducible_pays_a_bandwidth_overhead() {
        let ranks = make_ranks(8, 256, 6);
        let topo = flat(8);
        let cfg = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let plain = allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::RankOrder, &cfg);
        let exact = allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::Reproducible, &cfg);
        assert!(
            exact.elapsed_ns > plain.elapsed_ns,
            "exact payloads must cost wall-clock: {} vs {}",
            exact.elapsed_ns,
            plain.elapsed_ns
        );
        assert!(exact.stats.bytes_delivered > plain.stats.bytes_delivered);
    }

    #[test]
    fn all_net_variants_compute_the_sum() {
        use fpna_summation::exact::exact_sum;
        let ranks = make_ranks(8, 40, 7);
        let topo = hier(2, 4);
        let cfg = NetConfig::default();
        for (alg, ord) in [
            (Algorithm::Ring, Ordering::RankOrder),
            (Algorithm::KAryTree { fanout: 2 }, Ordering::ArrivalOrder { seed: 3 }),
            (Algorithm::RecursiveDoubling, Ordering::ArrivalOrder { seed: 9 }),
            (Algorithm::KAryTree { fanout: 5 }, Ordering::Reproducible),
            (Algorithm::SegmentedRing { segments: 16 }, Ordering::ArrivalOrder { seed: 4 }),
            (Algorithm::SegmentedTree { fanout: 2, segments: 5 }, Ordering::RankOrder),
            (Algorithm::Hierarchical { intra: 2, inter: 2 }, Ordering::ArrivalOrder { seed: 6 }),
            (Algorithm::FabricRing, Ordering::ArrivalOrder { seed: 8 }),
            (Algorithm::DoubleBinaryTree, Ordering::Reproducible),
        ] {
            let out = allreduce_on(&topo, &ranks, alg, ord, &cfg);
            for i in [0usize, 17, 39] {
                let want = exact_sum(&ranks.iter().map(|r| r[i]).collect::<Vec<_>>());
                assert!(
                    (out.values[i] - want).abs() <= 1e-6,
                    "{alg:?}/{ord:?} at {i}: {} vs {want}",
                    out.values[i]
                );
            }
        }
    }

    #[test]
    fn single_rank_is_identity_on_net() {
        let ranks = make_ranks(1, 8, 8);
        let topo = flat(1);
        let cfg = NetConfig::default();
        for alg in [
            Algorithm::Ring,
            Algorithm::KAryTree { fanout: 2 },
            Algorithm::RecursiveDoubling,
            Algorithm::SegmentedRing { segments: 3 },
            Algorithm::SegmentedTree { fanout: 2, segments: 3 },
            Algorithm::Hierarchical { intra: 2, inter: 2 },
            Algorithm::FabricRing,
            Algorithm::DoubleBinaryTree,
        ] {
            let out = allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &cfg);
            assert_eq!(bits(&out.values), bits(&ranks[0]), "{alg:?}");
            assert_eq!(out.elapsed_ns, 0.0);
        }
    }

    #[test]
    fn more_segments_than_elements_still_works() {
        // Chunks beyond the element count are empty but still
        // circulate; values must stay exact.
        let ranks = make_ranks(4, 6, 13);
        let topo = flat(4);
        let cfg = NetConfig::default();
        let seg = allreduce_on(
            &topo,
            &ranks,
            Algorithm::SegmentedRing { segments: 16 },
            Ordering::RankOrder,
            &cfg,
        );
        let base = allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::RankOrder, &cfg);
        assert_eq!(bits(&seg.values), bits(&base.values));
    }

    fn spined(p: usize, radix: usize, spines: usize) -> Topology {
        Topology::fat_tree_spines(
            p,
            radix,
            spines,
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(1_000.0, 25.0),
        )
    }

    #[test]
    fn reproducible_is_bitwise_stable_under_any_load_route_and_topology() {
        // The acceptance contract: exact accumulators on the wire are
        // immune to *everything* the fabric does — jitter, background
        // tenants at any offered load, and adaptive route choice.
        let ranks = make_ranks(16, 24, 21);
        let reference = allreduce(&ranks, Algorithm::Ring, Ordering::Reproducible);
        for topo in [flat(16), spined(16, 4, 4), hier(4, 4)] {
            for load in [0.0, 0.5, 0.8] {
                for route in [RouteSelect::Fixed, RouteSelect::SeededEcmp { seed: 5 }] {
                    for alg in [
                        Algorithm::Ring,
                        Algorithm::KAryTree { fanout: 4 },
                        Algorithm::Hierarchical { intra: 2, inter: 2 },
                        Algorithm::FabricRing,
                        Algorithm::DoubleBinaryTree,
                    ] {
                        let cfg = NetConfig::default()
                            .with_load(load, 0xB0B)
                            .with_route(route)
                            .with_jitter_seed(load.to_bits());
                        let out = allreduce_on(&topo, &ranks, alg, Ordering::Reproducible, &cfg);
                        assert_eq!(
                            bits(&out.values),
                            bits(&reference),
                            "{alg:?} on {} load {load} route {route:?}",
                            topo.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_order_values_are_load_and_route_invariant() {
        // RankOrder buffers into a deterministic fold order, so
        // contention moves the clock but never the bits.
        let ranks = make_ranks(16, 32, 22);
        let topo = spined(16, 4, 4);
        let quiet = allreduce_on(
            &topo,
            &ranks,
            Algorithm::KAryTree { fanout: 3 },
            Ordering::RankOrder,
            &NetConfig::default(),
        );
        for load in [0.3, 0.8] {
            for route in [RouteSelect::Fixed, RouteSelect::SeededEcmp { seed: 2 }] {
                let cfg = NetConfig::default().with_load(load, 77).with_route(route);
                let out = allreduce_on(
                    &topo,
                    &ranks,
                    Algorithm::KAryTree { fanout: 3 },
                    Ordering::RankOrder,
                    &cfg,
                );
                assert_eq!(bits(&out.values), bits(&quiet.values), "load {load} {route:?}");
            }
        }
    }

    #[test]
    fn contention_alone_reorders_arrival_order_folds() {
        // Zero jitter: the *only* nondeterminism source left is the
        // background tenants' link queueing. Different tenant schedules
        // must flip some fold order — contention, not jitter, is doing
        // the reordering (and each schedule must replay bitwise).
        let ranks = make_ranks(16, 48, 23);
        let topo = spined(16, 4, 4);
        let run = |bg_seed: u64| {
            let cfg = NetConfig {
                jitter_frac: 0.0,
                ..NetConfig::default()
            }
            .with_load(0.7, bg_seed);
            allreduce_on(
                &topo,
                &ranks,
                Algorithm::KAryTree { fanout: 8 },
                Ordering::ArrivalOrder { seed: 0 },
                &cfg,
            )
        };
        let mut distinct = std::collections::HashSet::new();
        for bg_seed in 0..8 {
            let a = run(bg_seed);
            let b = run(bg_seed);
            assert_eq!(bits(&a.values), bits(&b.values), "bg_seed {bg_seed} must replay");
            assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits());
            distinct.insert(bits(&a.values));
        }
        assert!(
            distinct.len() > 1,
            "contention should leak into arrival-order bits"
        );
    }

    #[test]
    fn fixed_order_algorithms_are_bit_stable_under_contention_and_ecmp() {
        // Ring and recursive doubling have a construction-fixed combine
        // order: tenants and route choice may move the clock only.
        let ranks = make_ranks(16, 40, 24);
        let topo = spined(16, 4, 2);
        let quiet = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let busy = quiet
            .with_load(0.8, 99)
            .with_route(RouteSelect::SeededEcmp { seed: 4 });
        for alg in [Algorithm::Ring, Algorithm::RecursiveDoubling] {
            let a = allreduce_on(&topo, &ranks, alg, Ordering::ArrivalOrder { seed: 1 }, &quiet);
            let b = allreduce_on(&topo, &ranks, alg, Ordering::ArrivalOrder { seed: 1 }, &busy);
            assert_eq!(bits(&a.values), bits(&b.values), "{alg:?}");
            assert!(
                b.stats.bg_deliveries > 0,
                "{alg:?}: tenants should actually run"
            );
        }
    }

    #[test]
    fn coalescing_never_changes_values() {
        // Coalescing is a wire-schedule transform: wherever it is
        // allowed to act, the reduced bits must match the uncoalesced
        // run exactly — for the order-fixed ring under every ordering,
        // and for the tree under its deterministic fold orders
        // (`ArrivalOrder` is gated off internally, so it trivially
        // matches too — with identical timing).
        let ranks = make_ranks(8, 64, 31);
        let topo = hier(2, 4);
        let base_cfg = NetConfig::default();
        let coal_cfg = base_cfg.with_coalesce(256);
        for k in [1usize, 4, 16] {
            for ord in [
                Ordering::RankOrder,
                Ordering::ArrivalOrder { seed: 3 },
                Ordering::Reproducible,
            ] {
                for alg in [
                    Algorithm::SegmentedRing { segments: k },
                    Algorithm::SegmentedTree { fanout: 3, segments: k },
                ] {
                    let base = allreduce_on(&topo, &ranks, alg, ord, &base_cfg);
                    let coal = allreduce_on(&topo, &ranks, alg, ord, &coal_cfg);
                    assert_eq!(bits(&coal.values), bits(&base.values), "{alg:?} {ord:?} k={k}");
                }
            }
        }
        // The gate: a coalesce-configured arrival-order tree must be
        // byte-for-byte the uncoalesced run, timing included.
        let ord = Ordering::ArrivalOrder { seed: 9 };
        let alg = Algorithm::SegmentedTree { fanout: 2, segments: 8 };
        let a = allreduce_on(&topo, &ranks, alg, ord, &base_cfg);
        let b = allreduce_on(&topo, &ranks, alg, ord, &coal_cfg);
        assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn coalescing_collapses_wire_messages() {
        // Many tiny chunks to the same next hop: coalescing merges
        // them into a handful of wire messages, collapsing the
        // engine's event count (the host-time win) while leaving the
        // simulated clock essentially untouched — link occupancy is
        // serialization, which sums to the same bytes either way, so
        // the batch arrives when its last chunk would have.
        let ranks = make_ranks(8, 64, 32);
        let topo = flat(8);
        let cfg = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let alg = Algorithm::SegmentedRing { segments: 64 };
        let base = allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &cfg);
        let coal = allreduce_on(&topo, &ranks, alg, Ordering::RankOrder, &cfg.with_coalesce(4096));
        assert!(
            coal.stats.deliveries * 4 <= base.stats.deliveries,
            "coalescing should collapse wire messages: {} vs {}",
            coal.stats.deliveries,
            base.stats.deliveries
        );
        assert!(coal.stats.hops_traversed < base.stats.hops_traversed);
        // Same payload bytes moved end to end, whatever the envelope.
        assert_eq!(coal.stats.bytes_delivered, base.stats.bytes_delivered);
        assert!(
            (coal.elapsed_ns - base.elapsed_ns).abs() <= 0.02 * base.elapsed_ns,
            "coalescing is a near-noop on the simulated clock: {} vs {}",
            coal.elapsed_ns,
            base.elapsed_ns
        );
        assert_eq!(bits(&coal.values), bits(&base.values));
    }

    #[test]
    fn coalescing_replays_bitwise() {
        // The batching rule is a pure function of the logical send
        // sequence: same run twice → same bits, same clock, same stats.
        let ranks = make_ranks(8, 48, 33);
        let topo = hier(2, 4);
        let cfg = NetConfig::default().with_coalesce(512);
        for (alg, ord) in [
            (Algorithm::SegmentedRing { segments: 16 }, Ordering::ArrivalOrder { seed: 5 }),
            (Algorithm::SegmentedTree { fanout: 3, segments: 8 }, Ordering::Reproducible),
        ] {
            let a = allreduce_on(&topo, &ranks, alg, ord, &cfg);
            let b = allreduce_on(&topo, &ranks, alg, ord, &cfg);
            assert_eq!(bits(&a.values), bits(&b.values), "{alg:?}");
            assert_eq!(a.elapsed_ns.to_bits(), b.elapsed_ns.to_bits(), "{alg:?}");
            assert_eq!(a.stats, b.stats, "{alg:?}");
        }
    }

    fn cyclic(nodes: usize, rpn: usize) -> Topology {
        Topology::hierarchical_cyclic(
            nodes,
            rpn,
            LinkSpec::new(200.0, 100.0),
            LinkSpec::new(500.0, 50.0),
            LinkSpec::new(5_000.0, 25.0),
        )
    }

    fn fabric_groups(topo: &Topology) -> Vec<Vec<usize>> {
        (0..topo.num_groups()).map(|g| topo.group_ranks(g).to_vec()).collect()
    }

    #[test]
    fn aware_variants_match_their_group_parameterized_references() {
        // Zero-jitter rank order on fabrics with real group structure:
        // the protocols must reproduce the in-memory folds
        // parameterized by the topology's own groups / fabric order.
        use crate::allreduce::{
            double_binary_tree_in_memory, hierarchical_in_memory, ring_in_order,
        };
        let ranks = make_ranks(16, 40, 41);
        let cfg = NetConfig::default();
        for topo in [hier(4, 4), cyclic(4, 4), spined(16, 4, 2)] {
            let h = allreduce_on(
                &topo,
                &ranks,
                Algorithm::Hierarchical { intra: 2, inter: 2 },
                Ordering::RankOrder,
                &cfg,
            );
            let h_ref = hierarchical_in_memory(&ranks, &fabric_groups(&topo), 2, 2, None);
            assert_eq!(bits(&h.values), bits(&h_ref), "hierarchical on {}", topo.name());

            let fr = allreduce_on(&topo, &ranks, Algorithm::FabricRing, Ordering::RankOrder, &cfg);
            let fr_ref = ring_in_order(&ranks, 40, &topo.fabric_ring_order());
            assert_eq!(bits(&fr.values), bits(&fr_ref), "fabric ring on {}", topo.name());

            let dbt = allreduce_on(
                &topo,
                &ranks,
                Algorithm::DoubleBinaryTree,
                Ordering::RankOrder,
                &cfg,
            );
            let dbt_ref = double_binary_tree_in_memory(&ranks, None);
            assert_eq!(bits(&dbt.values), bits(&dbt_ref), "dbt on {}", topo.name());
        }
    }

    #[test]
    fn aware_placement_cuts_nic_crossing_bytes() {
        // The point of the exercise: hierarchical placement sends one
        // payload per node across the NIC instead of one per rank, and
        // the fabric ring (on a scrambled placement) crosses groups
        // once per group instead of nearly every hop.
        let ranks = make_ranks(16, 64, 42);
        let cfg = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let topo = hier(4, 4);
        let oblivious = allreduce_on(
            &topo,
            &ranks,
            Algorithm::KAryTree { fanout: 2 },
            Ordering::RankOrder,
            &cfg,
        );
        let aware = allreduce_on(
            &topo,
            &ranks,
            Algorithm::Hierarchical { intra: 2, inter: 2 },
            Ordering::RankOrder,
            &cfg,
        );
        assert!(
            aware.stats.nic_bytes < oblivious.stats.nic_bytes,
            "hierarchical should cross the NIC less: {} vs {}",
            aware.stats.nic_bytes,
            oblivious.stats.nic_bytes
        );
        assert!(aware.stats.nic_hops < oblivious.stats.nic_hops);

        let scrambled = cyclic(4, 4);
        let ring = allreduce_on(&scrambled, &ranks, Algorithm::Ring, Ordering::RankOrder, &cfg);
        let fabric =
            allreduce_on(&scrambled, &ranks, Algorithm::FabricRing, Ordering::RankOrder, &cfg);
        assert!(
            fabric.stats.nic_bytes < ring.stats.nic_bytes,
            "fabric ring should cross the NIC less: {} vs {}",
            fabric.stats.nic_bytes,
            ring.stats.nic_bytes
        );
        // On a node-major layout the fabric order *is* the identity:
        // the fabric ring must be the plain ring, crossings included.
        let node_major_ring =
            allreduce_on(&topo, &ranks, Algorithm::Ring, Ordering::RankOrder, &cfg);
        let node_major_fabric =
            allreduce_on(&topo, &ranks, Algorithm::FabricRing, Ordering::RankOrder, &cfg);
        assert_eq!(node_major_fabric.stats, node_major_ring.stats);
        assert_eq!(bits(&node_major_fabric.values), bits(&node_major_ring.values));
    }

    #[test]
    fn double_binary_tree_balances_bytes_across_trees() {
        // Each half-payload tree should carry roughly half the bytes a
        // single full-payload binary tree moves on the same fabric.
        let ranks = make_ranks(16, 256, 43);
        let cfg = NetConfig {
            jitter_frac: 0.0,
            ..NetConfig::default()
        };
        let topo = flat(16);
        let single = allreduce_on(
            &topo,
            &ranks,
            Algorithm::KAryTree { fanout: 2 },
            Ordering::RankOrder,
            &cfg,
        );
        let dbt = allreduce_on(&topo, &ranks, Algorithm::DoubleBinaryTree, Ordering::RankOrder, &cfg);
        // Two trees × half payload ≈ the same total bytes...
        let lo = single.stats.bytes_delivered * 9 / 10;
        let hi = single.stats.bytes_delivered * 11 / 10;
        assert!(
            (lo..=hi).contains(&dbt.stats.bytes_delivered),
            "dbt bytes {} vs single-tree {}",
            dbt.stats.bytes_delivered,
            single.stats.bytes_delivered
        );
        // ...but the serialized chain at any one link is halved, so the
        // clock should come in under the single tree.
        assert!(
            dbt.elapsed_ns < single.elapsed_ns,
            "dbt {} vs single tree {}",
            dbt.elapsed_ns,
            single.elapsed_ns
        );
    }

    #[test]
    #[should_panic(expected = "segment count")]
    fn zero_segments_panics() {
        let ranks = make_ranks(4, 8, 14);
        allreduce_on(
            &flat(4),
            &ranks,
            Algorithm::SegmentedRing { segments: 0 },
            Ordering::RankOrder,
            &NetConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "topology has")]
    fn rank_count_mismatch_panics() {
        let ranks = make_ranks(4, 8, 9);
        allreduce_on(
            &flat(8),
            &ranks,
            Algorithm::Ring,
            Ordering::RankOrder,
            &NetConfig::default(),
        );
    }
}
