//! Timing-driven allreduce over a simulated interconnect.
//!
//! [`allreduce_on`] executes the same algorithms as
//! [`crate::allreduce()`](crate::allreduce::allreduce) — ring, k-ary tree, recursive doubling,
//! the segmented (pipelined) ring/tree variants and the topology-aware
//! ones — but as *event-driven protocols* on an [`fpna_net`] fabric.
//! Combine order is no longer injected by a seeded shuffle; it
//! **emerges from message timing**:
//!
//! * [`Ordering::ArrivalOrder`] — links carry seeded jitter (the
//!   ordering's seed keys every jitter draw); each tree node folds child
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
//!   happens at each tree's root (for a ring segment, its finisher) or,
//!   in recursive doubling, at the end. Bits are identical across every topology,
//!   algorithm, jitter seed **and segment count**; the bandwidth
//!   inflation is the network's "cost of reproducibility" — priced at
//!   the actual encoded payload.
//!
//! ## Tree schedules
//!
//! Every algorithm but recursive doubling is data: a list of
//! reduce→broadcast trees (`Tree`), each owning a column range. Ranks
//! reduce up parent links to the root, which rounds once and
//! broadcasts down per-rank child lists. `kary_tree` builds the k-ary
//! trees and both double-binary-tree halves (through a mirrored rank
//! map), `ring_trees` one chain per ring segment, `hierarchical_tree`
//! the two-level tree. One function, `run_trees`, executes any list;
//! recursive doubling, a butterfly, keeps its own.
//!
//! A node folds its own slice first, then its children: in arrival
//! order, or by ascending fold key under `RankOrder`. The first
//! contribution creates the accumulator, so a single-child node (every
//! ring hop) keeps no state: it adopts the arriving buffer and folds
//! its own slice into it. IEEE addition commutes, so that is the same
//! bits as own-first. The one exception is a column holding two NaNs
//! with different payloads, where the surviving payload follows operand
//! order. No algorithm here pins NaN payloads: a ring hop and a tree
//! node have never agreed on operand order.
//!
//! **Injection order is part of the result:** the engine keys each
//! message's jitter draw and ECMP choice by its id, and ids count
//! injections. So start-up sends go out tree by tree, leaf ranks
//! ascending, chunks innermost, and in-run sends follow each tree's
//! broadcast-child order.
//!
//! ## Segmentation (NCCL-style pipelining)
//!
//! [`Algorithm::SegmentedRing`] and [`Algorithm::SegmentedTree`] cut
//! every tree's columns into `k` chunks. Chunk `c` of tree `t` is flow
//! `t·k + c`, its own message stream (tags `(flow << 1) | direction`),
//! so chunk `i+1` serializes while chunk `i` propagates. Each element
//! lives in one chunk and follows its tree's fold, so values are
//! bitwise those of the unsegmented algorithm at every chunk count
//! (the property tests pin this): segmentation is a pure timing knob.
//!
//! ## Allocation discipline
//!
//! In-flight payload buffers are *moved* into a dense message-id slab
//! (never cloned — the one genuine copy, recursive doubling's
//! keep-and-send, goes through a recycling buffer pool). Leaves and a
//! node's own contribution fold straight from the input slices,
//! broadcasts carry no buffer, and delivered buffers return to the
//! pool.
//!
//! Exact payloads are held **span-packed** ([`ExactVec`]): per
//! element a `(lo, len)` span header and the occupied limbs, back to
//! back — the wire encoding laid out in memory. Their in-memory size
//! therefore follows the priced wire bytes (~16 B per element for
//! benchmark-range data, against ~26 B on the wire) rather than a
//! dense 576-byte accumulator per element. A fold streams both
//! operands once and carries each element in a four-lane `u128`
//! window: one 128-bit add leaves the canonical digits, and only an
//! element whose combined span is wider than three limbs (or whose
//! carry lane would be limb 70) goes through a stack accumulator.
//! `fpna-summation`'s `proptest_exact` tests diff both paths against
//! dense accumulators.
//!
//! The cheap shuffle-based path in [`crate::allreduce()`](crate::allreduce::allreduce) remains as a
//! fallback for experiments that don't need a network model.
//!
//! [`ExactAccumulator::wire_len`]: fpna_summation::exact::ExactAccumulator::wire_len
//! [`ExactAccumulator::WIRE_BYTES`]: fpna_summation::exact::ExactAccumulator::WIRE_BYTES

use crate::allreduce::{validate, Algorithm, Ordering};
use fpna_net::{LinkStats, NetConfig, NetSim, RunStats, Topology};
use fpna_obs::counters::{self, Counter};
use fpna_obs::trace;
use fpna_summation::exact::ExactVec;

/// Deterministic injection skew: rank `r` enters the collective at
/// `r · STAGGER_NS` — ranks never hit a collective simultaneously in
/// practice (kernel-completion skew is typically sub-µs to µs scale).
/// Arrival order flips only where accumulated path jitter beats this
/// spacing, which is how variability comes to grow with fabric depth.
const STAGGER_NS: f64 = 500.0;

/// Result of one simulated allreduce.
#[derive(Debug, Clone)]
pub struct NetAllreduce {
    /// The reduced vector (identical on every rank).
    pub values: Vec<f64>,
    /// Simulated time until the last rank held the result, in ns.
    pub elapsed_ns: f64,
    /// Engine statistics (messages, bytes, hops, makespan).
    pub stats: RunStats,
    /// Per-directed-link contention counters, indexed by link id
    /// ([`NetSim::link_stats`] for every link of the topology, foreground
    /// and background traffic alike). Empty on the single-rank path,
    /// which sends nothing.
    pub link_stats: Vec<LinkStats>,
}

/// Reduction state: plain floats, or span-packed exact values for the
/// reproducible ordering.
#[derive(Debug, Clone)]
enum Values {
    Plain(Vec<f64>),
    Exact(ExactVec),
}

impl Values {
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

    /// Fold one child's contribution into a node's partial sum `acc`:
    /// the child's partial sum `payload`, or for a leaf its input slice
    /// `raw`. The first contribution creates `acc` from the node's own
    /// slice `own`, then the child. An arriving buffer is adopted with
    /// `own` folded into it instead: the same bits, because IEEE
    /// addition commutes.
    fn combine(
        &mut self,
        acc: &mut Option<Values>,
        own: &[f64],
        payload: Option<Values>,
        raw: &[f64],
        exact: bool,
    ) {
        match acc {
            Some(a) => match payload {
                Some(b) => {
                    a.fold_in(&b);
                    self.recycle(b);
                }
                None => a.fold_in_slice(raw),
            },
            None => {
                *acc = Some(match payload {
                    Some(mut b) => {
                        b.fold_in_slice(own);
                        b
                    }
                    None => {
                        let mut a = self.values_of(own, exact);
                        a.fold_in_slice(raw);
                        a
                    }
                })
            }
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

/// Largest supported segment (chunk) count. It bounds per-chunk
/// protocol state: every chunk of every tree is its own message
/// stream, with its own fold state at each node that has two or more
/// children.
pub const MAX_SEGMENTS: usize = 1 << 12;

/// Allreduce (sum) executed as an event-driven protocol on `topo`.
/// Returns the reduced vector plus simulated cost. The value
/// semantics match [`crate::allreduce()`](crate::allreduce::allreduce): with zero jitter and
/// rank-ordered folds the bits are identical to the in-memory path,
/// and the segmented variants are bitwise identical to their
/// unsegmented bases at every segment count.
///
/// `config` describes the fabric; the ordering sets its jitter:
/// [`Ordering::ArrivalOrder`] keys the jitter draws by its own seed in
/// place of `config.jitter_seed`, [`Ordering::RankOrder`] runs with no
/// jitter at all, and [`Ordering::Reproducible`] takes `config` as it
/// is. Tenant load, tenant seed and route choice apply under every
/// ordering.
///
/// # Panics
///
/// Panics on empty input, mismatched vector lengths, a rank count
/// different from `topo.ranks()`, fanout < 2, a segment count of 0 or
/// above [`MAX_SEGMENTS`], a non-power-of-two rank count for recursive
/// doubling, or a config [`NetSim::new`] rejects.
pub fn allreduce_on(
    topo: &Topology,
    ranks: &[Vec<f64>],
    algorithm: Algorithm,
    ordering: Ordering,
    config: &NetConfig,
) -> NetAllreduce {
    validate(ranks, algorithm);
    assert_eq!(
        topo.ranks(),
        ranks.len(),
        "topology has {} ranks but {} vectors were supplied",
        topo.ranks(),
        ranks.len()
    );
    let exact = matches!(ordering, Ordering::Reproducible);
    let config = match ordering {
        Ordering::ArrivalOrder { seed } => NetConfig { jitter_seed: seed, ..*config },
        Ordering::RankOrder => NetConfig { jitter_frac: 0.0, ..*config },
        Ordering::Reproducible => *config,
    };
    let mut sim = NetSim::new(topo, &config);
    if ranks.len() == 1 {
        return NetAllreduce {
            values: BufferPool::default().values_of(&ranks[0], exact).round(),
            elapsed_ns: 0.0,
            stats: RunStats::default(),
            link_stats: Vec::new(),
        };
    }
    let (values, elapsed_ns, stats) = match schedule(topo, algorithm, ranks[0].len()) {
        Some((trees, k)) => run_trees(&mut sim, ranks, &trees, k, ordering),
        None => recursive_doubling_on(&mut sim, ranks, exact),
    };
    let link_stats = (0..topo.num_links()).map(|l| sim.link_stats(l)).collect();
    NetAllreduce { values, elapsed_ns, stats, link_stats }
}

/// The trees `algorithm` runs on `topo` over `m` columns, and the
/// chunk count each tree's columns split into. `None` for recursive
/// doubling, which is not a tree schedule.
fn schedule(topo: &Topology, algorithm: Algorithm, m: usize) -> Option<(Vec<Tree>, usize)> {
    let p = topo.ranks();
    let identity: Vec<usize> = (0..p).collect();
    let tree = |fanout| vec![kary_tree(p, fanout, (0, m), |v| v)];
    Some(match algorithm {
        Algorithm::Ring => (ring_trees(&identity, m), 1),
        Algorithm::SegmentedRing { segments } => (ring_trees(&identity, m), segments),
        Algorithm::FabricRing => (ring_trees(&topo.fabric_ring_order(), m), 1),
        Algorithm::KAryTree { fanout } => (tree(fanout), 1),
        Algorithm::SegmentedTree { fanout, segments } => (tree(fanout), segments),
        Algorithm::Hierarchical { intra, inter } => {
            (vec![hierarchical_tree(topo, intra, inter, m)], 1)
        }
        Algorithm::DoubleBinaryTree => {
            let h = m.div_ceil(2);
            let mirror = move |v: usize| p - 1 - v;
            (vec![kary_tree(p, 2, (0, h), |v| v), kary_tree(p, 2, (h, m), mirror)], 1)
        }
        Algorithm::RecursiveDoubling => return None,
    })
}

/// Message tags are `(flow << 1) | direction`.
const UP: u64 = 0;
const DOWN: u64 = 1;
/// The root's [`Tree::parent`] entry.
const NONE: u32 = u32::MAX;

/// One reduce→broadcast tree: columns `lo..hi` reduce up the `parent`
/// links to `root`, which rounds once and broadcasts down each rank's
/// child list. The two directions are stored apart because they need
/// not mirror: a ring segment reduces along the chain that ends at its
/// root and is broadcast along the chain that starts there.
struct Tree {
    lo: usize,
    hi: usize,
    root: usize,
    /// Reduce parent per rank ([`NONE`] at the root).
    parent: Vec<u32>,
    /// Fold key per rank: under `RankOrder` a parent folds its
    /// children by ascending key, distinct among siblings.
    key: Vec<u32>,
    /// Rank `r`'s broadcast children in send order are
    /// `down[down_at[r]..down_at[r + 1]]`.
    down_at: Vec<u32>,
    down: Vec<u32>,
}

impl Tree {
    /// A tree over `p` ranks from `up(r)`, the `(parent, fold key)` of
    /// rank `r` (`None` at the root), and `down(r)`, its broadcast
    /// children in send order.
    fn new<I: IntoIterator<Item = usize>>(
        (lo, hi): (usize, usize),
        p: usize,
        up: impl Fn(usize) -> Option<(usize, usize)>,
        down: impl Fn(usize) -> I,
    ) -> Tree {
        let mut t = Tree {
            lo,
            hi,
            root: 0,
            parent: Vec::with_capacity(p),
            key: Vec::with_capacity(p),
            down_at: vec![0],
            down: Vec::with_capacity(p),
        };
        for r in 0..p {
            let (parent, key) = up(r).map_or((NONE, 0), |(q, key)| (q as u32, key as u32));
            if parent == NONE {
                t.root = r;
            }
            t.parent.push(parent);
            t.key.push(key);
            t.down.extend(down(r).into_iter().map(|c| c as u32));
            t.down_at.push(t.down.len() as u32);
        }
        t
    }

    fn children(&self, r: usize) -> &[u32] {
        &self.down[self.down_at[r] as usize..self.down_at[r + 1] as usize]
    }
}

/// A `fanout`-ary tree rooted at virtual id 0: virtual `v`'s children
/// are `f·v + 1 ..= f·v + f`, folded (by virtual id) and broadcast in
/// ascending order. `virt` maps a rank to its virtual id and back (an
/// involution): the identity, or `v ↦ p − 1 − v` for the mirrored
/// upper half of the double binary tree, whose interior ranks are the
/// lower half's leaves.
fn kary_tree(
    p: usize,
    fanout: usize,
    cols: (usize, usize),
    virt: impl Fn(usize) -> usize + Copy,
) -> Tree {
    Tree::new(
        cols,
        p,
        |r| {
            let v = virt(r);
            (v > 0).then(|| (virt((v - 1) / fanout), v))
        },
        |r| {
            let v = virt(r);
            (fanout * v + 1..=fanout * v + fanout).filter(move |&c| c < p).map(virt)
        },
    )
}

/// One chain per segment of the ring laid over `order` (position `s`
/// is rank `order[s]`). Segment `s`, the `s`-th block of ⌈m/p⌉
/// columns, reduces from its owner at position `s` around the ring to
/// its finisher at position `s − 1`: every hop adds its own slice to
/// the incoming partial, so the rotation fixes the combine order. The
/// finisher rounds and sends the segment on around the ring as far as
/// position `s − 2` (the allgather).
fn ring_trees(order: &[usize], m: usize) -> Vec<Tree> {
    let p = order.len();
    let mut pos = vec![0; p];
    for (s, &r) in order.iter().enumerate() {
        pos[r] = s;
    }
    let next = |r: usize| order[(pos[r] + 1) % p];
    let seg = m.div_ceil(p);
    (0..p)
        .map(|s| {
            let root = order[(s + p - 1) % p];
            let last = order[(s + 2 * p - 2) % p];
            let cols = ((s * seg).min(m), ((s + 1) * seg).min(m));
            let up = |r: usize| (r != root).then(|| (next(r), 0));
            Tree::new(cols, p, up, |r| (r != last).then(|| next(r)))
        })
        .collect()
}

/// Topology-aware hierarchical tree: an `intra`-ary tree inside every
/// fabric group, rooted at the group leader (its smallest rank), under
/// an `inter`-ary tree over the leaders in group order. Only the inter
/// level crosses groups, so the NIC/spine links carry one payload per
/// group instead of one per rank. A leader folds its intra children
/// before its inter children but broadcasts to its inter children
/// first, which is why fold keys and child order are kept apart. Values
/// match [`hierarchical_in_memory`](crate::allreduce::hierarchical_in_memory)
/// over the fabric groups.
fn hierarchical_tree(topo: &Topology, intra: usize, inter: usize, m: usize) -> Tree {
    let p = topo.ranks();
    let place = |r: usize| {
        let g = topo.group_of(r);
        let members = topo.group_ranks(g);
        let i = members.iter().position(|&x| x == r).expect("rank missing from its own group");
        (g, members, i)
    };
    let leader = |g: usize| topo.group_ranks(g)[0];
    let kids = |f: usize, i: usize, n: usize| (f * i + 1..=f * i + f).filter(move |&c| c < n);
    Tree::new(
        (0, m),
        p,
        |r| match place(r) {
            (_, members, i @ 1..) => Some((members[(i - 1) / intra], r)),
            (g, ..) => (g > 0).then(|| (leader((g - 1) / inter), p + r)),
        },
        |r| {
            let (g, members, i) = place(r);
            let groups = if i == 0 { topo.num_groups() } else { 0 };
            let inter_kids = kids(inter, g, groups).map(leader);
            inter_kids.chain(kids(intra, i, members.len()).map(move |c| members[c]))
        },
    )
}

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

/// Fold state of one node with two or more children, for one flow.
/// A node with a single child keeps none: its one arrival completes it.
struct Fold {
    /// The partial sum, created by the first contribution.
    acc: Option<Values>,
    /// Contributions still owed.
    owed: u32,
    /// `RankOrder` only: arrived contributions `(key, child, payload)`,
    /// folded by ascending key once the last one lands.
    held: Vec<(u32, usize, Option<Values>)>,
}

/// Runs any tree schedule on the engine, each tree's columns cut into
/// `k` chunks (chunk `c` of tree `t` is flow `t·k + c`). Each flow's
/// root rounds once and broadcasts `(hi − lo)·8` payload-free bytes.
/// Returns the reduced values, the last delivery's time and the run
/// statistics.
fn run_trees(
    sim: &mut NetSim<'_>,
    ranks: &[Vec<f64>],
    trees: &[Tree],
    k: usize,
    ordering: Ordering,
) -> (Vec<f64>, f64, RunStats) {
    let p = ranks.len();
    let exact = matches!(ordering, Ordering::Reproducible);
    let rank_order = matches!(ordering, Ordering::RankOrder);
    let flows = trees.len() * k;
    // Children per (tree, rank). Nodes with two or more get one fold
    // slot per chunk, at `c · multi.len() + slot`.
    let mut kids = vec![0u32; trees.len() * p];
    for (t, tree) in trees.iter().enumerate() {
        for &q in tree.parent.iter().filter(|&&q| q != NONE) {
            kids[t * p + q as usize] += 1;
        }
    }
    let mut slot = vec![NONE; kids.len()];
    let mut multi = Vec::new();
    for (i, &n) in kids.iter().enumerate().filter(|&(_, &n)| n > 1) {
        slot[i] = multi.len() as u32;
        multi.push(n);
    }
    let mut folds: Vec<Fold> = (0..k)
        .flat_map(|_| multi.iter().map(|&owed| Fold { acc: None, owed, held: Vec::new() }))
        .collect();
    let is_leaf = |t: usize, r: usize| kids[t * p + r] == 0 && r != trees[t].root;

    let mut pool = BufferPool::default();
    let mut payloads = Payloads::default();
    let tracing = trace::enabled();
    let pid = trace::current_pid();
    let trace_combine = |v: usize, at: f64, f: usize, child: usize| {
        if tracing {
            let args = vec![("chunk", f.into()), ("child", child.into())];
            trace::instant(pid, trace::RANK_TID_BASE + v as u64, at, "combine", "coll", args);
        }
    };
    // Per-flow spans: B at t = 0, E once the broadcast has reached
    // every non-root rank, so pipelining shows as overlapping spans.
    let mut bcast_owed = Vec::new();
    if tracing {
        bcast_owed = vec![p - 1; flows];
        for f in 0..flows {
            let lane = trace::CHUNK_TID_BASE + f as u64;
            trace::name_thread(pid, lane, format!("chunk {f}"));
            trace::begin(pid, lane, 0.0, format!("chunk{f}"), "coll");
        }
    }
    // Leaves inject at their staggered start times. Equal timestamps
    // resolve by injection order, so chunk 0 hits the first link first
    // and the rest pipeline behind it.
    for (t, tree) in trees.iter().enumerate() {
        for (r, own) in ranks.iter().enumerate().filter(|&(r, _)| is_leaf(t, r)) {
            for c in 0..k {
                let (lo, hi) = chunk_bounds(tree.lo, tree.hi, k, c);
                let bytes = raw_wire_bytes(&own[lo..hi], exact);
                let (at, to) = (STAGGER_NS * r as f64, tree.parent[r] as usize);
                sim.send_at(at, r, to, bytes, (((t * k + c) as u64) << 1) | UP);
            }
        }
    }

    let mut result = vec![0.0f64; ranks[0].len()];
    let mut roots_done = 0usize;
    let mut elapsed = 0.0f64;
    let stats = sim.run(|sim, d| {
        elapsed = elapsed.max(d.time);
        let f = (d.tag >> 1) as usize;
        let (t, v) = (f / k, d.to);
        let tree = &trees[t];
        if d.tag & 1 == DOWN {
            if tracing {
                bcast_owed[f] -= 1;
                if bcast_owed[f] == 0 {
                    let lane = trace::CHUNK_TID_BASE + f as u64;
                    trace::end(pid, lane, d.time, format!("chunk{f}"), "coll");
                }
            }
            for &c in tree.children(v) {
                sim.send_at(d.time, v, c as usize, d.bytes, d.tag);
            }
            return;
        }
        let (lo, hi) = chunk_bounds(tree.lo, tree.hi, k, f % k);
        let (own, child) = (&ranks[v][lo..hi], d.from);
        let payload = (!is_leaf(t, child)).then(|| payloads.take(d.msg).expect("partial sum lost"));
        let done = if kids[t * p + v] == 1 {
            trace_combine(v, d.time, f, child);
            let mut acc = None;
            pool.combine(&mut acc, own, payload, &ranks[child][lo..hi], exact);
            acc
        } else {
            let Fold { acc, owed, held } =
                &mut folds[(f % k) * multi.len() + slot[t * p + v] as usize];
            *owed -= 1;
            if rank_order {
                held.push((tree.key[child], child, payload));
                if *owed == 0 {
                    held.sort_unstable_by_key(|h| h.0);
                    for (_, c, b) in held.drain(..) {
                        trace_combine(v, d.time, f, c);
                        pool.combine(acc, own, b, &ranks[c][lo..hi], exact);
                    }
                }
            } else {
                trace_combine(v, d.time, f, child);
                pool.combine(acc, own, payload, &ranks[child][lo..hi], exact);
            }
            if *owed == 0 { acc.take() } else { None }
        };
        let Some(acc) = done else { return };
        if v == tree.root {
            result[lo..hi].copy_from_slice(&acc.round());
            pool.recycle(acc);
            roots_done += 1;
            let bytes = std::mem::size_of_val(own) as u64;
            for &c in tree.children(v) {
                sim.send_at(d.time, v, c as usize, bytes, d.tag | DOWN);
            }
        } else {
            let to = tree.parent[v] as usize;
            let msg = sim.send_at(d.time, v, to, acc.wire_bytes(), d.tag);
            payloads.insert(msg, acc);
        }
    });

    assert_eq!(roots_done, flows, "allreduce never completed");
    (result, elapsed, stats)
}

/// Recursive doubling: `log₂ p` rounds of symmetric pairwise
/// exchanges, a butterfly rather than a tree. Both partners compute
/// `lower + upper`, so every rank holds identical bits after every
/// round and timing never leaks into the values. Messages from a
/// future round wait until the receiver finishes the rounds before it.
///
/// Under `Reproducible` the exact partial sums travel in the messages,
/// and their sizes set the timing. The plain orderings carry no
/// payload: every message is `m·8` bytes whatever it holds, and the
/// values are the balanced block fold that every rank's in-protocol
/// folding would produce, computed once by [`block_fold`]. Returns
/// what [`run_trees`] does.
fn recursive_doubling_on(
    sim: &mut NetSim<'_>,
    ranks: &[Vec<f64>],
    exact: bool,
) -> (Vec<f64>, f64, RunStats) {
    let p = ranks.len();
    let rounds = p.trailing_zeros() as usize;
    let plain_bytes = std::mem::size_of_val(ranks[0].as_slice()) as u64;
    let mut pool = BufferPool::default();
    let mut payloads = Payloads::default();
    struct Rank {
        /// The exact partial sum (`None` under the plain orderings).
        buf: Option<Values>,
        round: usize,
        ready: f64,
        /// Partner messages by round: `(arrival, payload)`.
        pending: Vec<Option<(f64, Option<Values>)>>,
    }
    let mut states: Vec<Rank> = (0..p)
        .map(|r| Rank {
            buf: exact.then(|| pool.values_of(&ranks[r], true)),
            round: 0,
            ready: STAGGER_NS * r as f64,
            pending: (0..rounds).map(|_| None).collect(),
        })
        .collect();
    // A round's message: the partial sum's size and a pooled copy of it
    // (it also stays resident), or just the plain size.
    let message = |pool: &mut BufferPool, buf: &Option<Values>| match buf {
        Some(b) => (b.wire_bytes(), Some(pool.clone_values(b))),
        None => (plain_bytes, None),
    };
    for (r, state) in states.iter().enumerate() {
        let (bytes, payload) = message(&mut pool, &state.buf);
        let msg = sim.send_at(state.ready, r, r ^ 1, bytes, 0);
        if let Some(b) = payload {
            payloads.insert(msg, b);
        }
    }

    let tracing = trace::enabled();
    let pid = trace::current_pid();
    let mut final_time = vec![0.0f64; p];
    let stats = sim.run(|sim, d| {
        let r = d.to;
        let st = &mut states[r];
        let payload = if exact { payloads.take(d.msg) } else { None };
        st.pending[d.tag as usize] = Some((d.time, payload));
        // Drain every round that is now unblocked, in round order.
        while let Some((arrived, payload)) = st.pending.get_mut(st.round).and_then(Option::take) {
            let round = st.round;
            let now = st.ready.max(arrived);
            let partner = r ^ (1 << round);
            if tracing {
                let args = vec![("round", round.into()), ("partner", partner.into())];
                trace::instant(pid, trace::RANK_TID_BASE + r as u64, now, "combine", "coll", args);
            }
            // `lower + upper` without cloning either side: fold the
            // payload into the resident buffer (or the buffer into the
            // payload) depending on which operand is "lower".
            if let (Some(buf), Some(mut payload)) = (&mut st.buf, payload) {
                if r < partner {
                    buf.fold_in(&payload);
                    pool.recycle(payload);
                } else {
                    payload.fold_in(buf);
                    pool.recycle(std::mem::replace(buf, payload));
                }
            }
            st.round = round + 1;
            st.ready = now;
            if round + 1 < rounds {
                let (bytes, payload) = message(&mut pool, &st.buf);
                let msg = sim.send_at(now, r, r ^ (1 << (round + 1)), bytes, (round + 1) as u64);
                if let Some(b) = payload {
                    payloads.insert(msg, b);
                }
            } else {
                final_time[r] = now;
            }
        }
    });

    let values = match &states[0].buf {
        Some(b) => b.round(),
        None => block_fold(ranks, 0, p),
    };
    (values, final_time.iter().copied().fold(0.0f64, f64::max), stats)
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
    // A one-rank upper half is read in place rather than cloned.
    let upper = match half {
        1 => std::borrow::Cow::Borrowed(&ranks[lo + 1]),
        _ => std::borrow::Cow::Owned(block_fold(ranks, lo + half, half)),
    };
    for (a, b) in lower.iter_mut().zip(upper.iter()) {
        *a += b;
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::allreduce;
    use fpna_core::rng::SplitMix64;
    use fpna_net::{LinkSpec, RouteSelect};

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

    #[test]
    #[should_panic(expected = "offered load must be finite")]
    fn one_rank_rejects_a_bad_config_too() {
        let ranks = make_ranks(1, 8, 8);
        let config = NetConfig { load: f64::NAN, ..NetConfig::default() };
        allreduce_on(&flat(1), &ranks, Algorithm::Ring, Ordering::RankOrder, &config);
    }

    #[test]
    fn both_paths_reject_too_many_segments_alike() {
        let ranks = make_ranks(4, 8, 15);
        let panic_text = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("an oversized segment count must panic");
            err.downcast_ref::<String>().cloned().expect("a formatted panic message")
        };
        for alg in [
            Algorithm::SegmentedRing { segments: MAX_SEGMENTS + 1 },
            Algorithm::SegmentedTree { fanout: 2, segments: MAX_SEGMENTS + 1 },
        ] {
            let mem = panic_text(&|| {
                allreduce(&ranks, alg, Ordering::RankOrder);
            });
            let net = panic_text(&|| {
                allreduce_on(&flat(4), &ranks, alg, Ordering::RankOrder, &NetConfig::default());
            });
            assert_eq!(mem, net, "{alg:?}");
            assert!(mem.contains("segment count"), "{mem}");
        }
    }

    /// The schedule checker: for every generator on every fabric kind,
    /// each tree's parent links reach its root from every rank without
    /// a cycle, its broadcast reaches every non-root rank exactly once,
    /// fold keys are distinct among siblings, and the trees' column
    /// ranges (and their chunks) tile `0..m` exactly once.
    #[test]
    fn every_schedule_is_well_formed() {
        let tiles = |mut ranges: Vec<(usize, usize)>, m: usize| {
            ranges.sort_unstable();
            let end = ranges.iter().try_fold(0, |at, &(lo, hi)| (lo == at && hi >= lo).then_some(hi));
            end == Some(m)
        };
        let spec = LinkSpec::new(500.0, 25.0);
        for p in 1..=24usize {
            let mut topos = vec![flat(p), spined(p, 4, 2)];
            for nodes in (1..=p).filter(|n| p % n == 0) {
                topos.push(Topology::hierarchical(nodes, p / nodes, spec, spec, spec));
                topos.push(Topology::hierarchical_cyclic(nodes, p / nodes, spec, spec, spec));
            }
            let mut algs = vec![
                Algorithm::Ring,
                Algorithm::SegmentedRing { segments: 3 },
                Algorithm::FabricRing,
                Algorithm::DoubleBinaryTree,
            ];
            algs.extend((2..=5).map(|fanout| Algorithm::SegmentedTree { fanout, segments: 2 }));
            for intra in 2..=4 {
                algs.extend((2..=4).map(|inter| Algorithm::Hierarchical { intra, inter }));
            }
            for topo in &topos {
                for &alg in &algs {
                    for m in [1, 2 * p + 3] {
                        let (trees, k) = schedule(topo, alg, m).expect("a tree schedule");
                        let ctx = format!("{alg:?} on {} with m = {m}", topo.name());
                        assert!(tiles(trees.iter().map(|t| (t.lo, t.hi)).collect(), m), "{ctx}");
                        let chunks = trees
                            .iter()
                            .flat_map(|t| (0..k).map(move |c| chunk_bounds(t.lo, t.hi, k, c)));
                        assert!(tiles(chunks.collect(), m), "{ctx}: chunks");
                        for tree in &trees {
                            assert_eq!(tree.parent[tree.root], NONE, "{ctx}");
                            for r in 0..p {
                                let (mut v, mut hops) = (r, 0);
                                while v != tree.root {
                                    v = tree.parent[v] as usize;
                                    hops += 1;
                                    assert!(hops < p, "{ctx}: no root above rank {r}");
                                }
                            }
                            let mut seen = vec![0; p];
                            for r in 0..p {
                                for &c in tree.children(r) {
                                    seen[c as usize] += 1;
                                }
                            }
                            for (r, &n) in seen.iter().enumerate() {
                                assert_eq!(n, usize::from(r != tree.root), "{ctx}: rank {r}");
                            }
                            let (mut stack, mut reached) = (vec![tree.root], 0);
                            while let Some(r) = stack.pop() {
                                reached += 1;
                                stack.extend(tree.children(r).iter().map(|&c| c as usize));
                            }
                            assert_eq!(reached, p, "{ctx}: broadcast misses a rank");
                            let mut keys: Vec<(u32, u32)> = (0..p)
                                .filter(|&r| r != tree.root)
                                .map(|r| (tree.parent[r], tree.key[r]))
                                .collect();
                            keys.sort_unstable();
                            let n = keys.len();
                            keys.dedup();
                            assert_eq!(keys.len(), n, "{ctx}: siblings share a fold key");
                        }
                    }
                }
            }
        }
    }
}
