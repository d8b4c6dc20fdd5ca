//! Seeded discrete-event message engine.
//!
//! [`NetSim`] moves messages over a [`Topology`] hop by hop. Each hop
//! of a `b`-byte message over a link with spec `(α, β)` costs
//!
//! ```text
//! wait (link busy)  +  β·b (serialization)  +  α (propagation)  +  jitter
//! ```
//!
//! Links are store-and-forward and serialize: a directed link carries
//! one message at a time, so fan-in through a shared switch port
//! spaces arrivals out even without jitter. Every run-to-run
//! difference comes from one [`NetConfig`] — per-hop jitter,
//! background tenants and equal-cost route choice, each driven by its
//! own seed. With `jitter_frac: 0.0` on a quiet, fixed-route fabric the
//! engine is bit-for-bit deterministic — that zero-jitter mode is the
//! suite's model of a software-scheduled interconnect (the LPU
//! multiprocessor of the paper's conclusion), and the jittered mode is
//! "MPI on a busy fabric".
//!
//! Events with equal timestamps resolve by push sequence number, so a
//! given seed always replays the identical schedule.
//!
//! The hot path is allocation-free and index-based: routes are
//! borrowed `&[u32]` slices of directed link ids from the topology's
//! precomputed arena ([`Topology::route_hops`]), each hop reads its
//! link's spec by id ([`Topology::link_spec`]), per-link busy state
//! lives in a dense `Vec<f64>` indexed by the same id, and message
//! slots are recycled once a message delivers (external message ids
//! stay injection-ordered, so jitter streams and tie-breaking are
//! unaffected by recycling). After warm-up, injecting and delivering a
//! message touches no allocator at all.
//!
//! The event queue is a radix heap keyed by each event's time bits: it
//! pops a monotone event stream without sorting, in *exactly* the
//! `(time, sequence)` order of a `BinaryHeap<Reverse<Event>>`; a unit
//! test diffs the two on random push/pop/peek sequences with ties,
//! ±0.0, power-of-two neighbours, pushes into the past and restarts.
//! A background tenant's arrival reaches no callback, so it takes no
//! event: the message is counted delivered as it enters its last hop.
//! Link-drain (queue-depth) accounting needs no priority queue at all:
//! each link's serialization-finish times are already monotone, so
//! they live in per-link FIFOs expired on entry to that link.
//!
//! ## Multi-tenant contention
//!
//! Beyond jitter, [`NetConfig`] sets the *other* sources of arrival
//! reordering real fabrics have — contention and routing:
//!
//! * Background tenants ([`NetConfig::load`]): seeded on/off senders
//!   (one per rank) inject bursts of bystander messages through the
//!   **same event queue**, so foreground messages are reordered by
//!   link `busy_until` queueing, not by an injected timestamp fudge.
//!   The whole schedule is a pure function of the config.
//! * [`RouteSelect::SeededEcmp`]: per-message seeded route choice
//!   among the equal-cost paths a multi-spine fabric exposes
//!   ([`Topology::route_hops_nth`]) — adaptive/ECMP routing as
//!   another seeded, replayable nondeterminism source.
//!
//! With `load = 0` and [`RouteSelect::Fixed`] the engine is
//! bit-for-bit the pre-contention engine, whatever the tenant seed:
//! same events, same timestamps, same stats (`proptest_net` diffs it
//! against a reference engine). Per-link wait/queue-depth counters
//! ([`LinkStats`], [`RunStats::wait_ns`] and friends) observe
//! contention without perturbing it.

use fpna_core::rng::{derive_seed, SplitMix64};
use crate::topology::Topology;
use fpna_obs::counters::{self, Counter};
use fpna_obs::profile::{self, PhaseStat};
use fpna_obs::trace;
use std::collections::VecDeque;

/// How a sender picks among equal-cost shortest paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteSelect {
    /// Always the canonical (slot-0) route — deterministic routing,
    /// bit-identical to the pre-ECMP engine.
    #[default]
    Fixed,
    /// Seeded per-message choice among all equal-cost paths
    /// ([`Topology::route_count`]): the model of adaptive/ECMP
    /// routing. The pick is a pure function of `(seed, message id)`,
    /// so a run replays exactly from its seed.
    SeededEcmp {
        /// Seed standing in for the fabric's hash/placement state.
        seed: u64,
    },
}

/// Bytes per background tenant message.
const BG_BYTES: u64 = 16 * 1024;

/// Messages per background tenant ON burst.
const BG_BURST: u32 = 4;

/// The fabric's seeded sources of run-to-run variation: per-hop
/// jitter, background tenants and equal-cost route choice. Each has
/// its own seed, so a run replays exactly from its config. The default
/// is jitter of 0.3 of each hop's service time on a quiet fabric with
/// fixed routing; with `jitter_frac: 0.0` as well, the engine is the
/// software-scheduled fabric, bit-for-bit deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Per-hop jitter amplitude as a fraction of the hop's whole
    /// deterministic service time, serialization plus latency: each
    /// hop of a `b`-byte message adds a draw uniform in
    /// `[0, jitter_frac · (α + β·b))`, because real fabric noise
    /// (congestion, retransmits, adaptive detours) scales with how
    /// long the message occupies the path, not just with propagation
    /// delay. `0.0` is no jitter at all.
    pub jitter_frac: f64,
    /// Seed standing in for "what the fabric did this run". Each
    /// jitter draw comes from a stream keyed by `(seed, message, hop)`.
    pub jitter_seed: u64,
    /// Offered load of the seeded background ("bystander tenant")
    /// traffic: the target utilization of each rank's uplink. Every
    /// rank hosts a sender that alternates ON bursts of 4 messages of
    /// 16 KiB with OFF pauses. The tenants ride the same event queue
    /// and the same `busy_until` link state as foreground traffic —
    /// they reorder foreground arrivals through *queueing*, not
    /// through timestamp noise — but never reach the delivery
    /// callback. `0.0` is a quiet fabric, bit-identical to the
    /// pre-contention engine.
    pub load: f64,
    /// Seed standing in for "what the other tenants did this run".
    /// Sender `r` draws its gaps from `derive_seed(bg_seed, r)`.
    pub bg_seed: u64,
    /// Route selection among equal-cost paths.
    pub route: RouteSelect,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            jitter_frac: 0.3,
            jitter_seed: 0,
            load: 0.0,
            bg_seed: 0,
            route: RouteSelect::Fixed,
        }
    }
}

impl NetConfig {
    /// This configuration with a different jitter seed — the per-run
    /// rekeying used by seed sweeps.
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

    /// Jitter of one hop of message `msg` whose deterministic service
    /// time is `hop_cost_ns`.
    fn jitter_ns(&self, msg: u64, hop: u64, hop_cost_ns: f64) -> f64 {
        if self.jitter_frac == 0.0 {
            return 0.0;
        }
        let mut g = SplitMix64::new(
            self.jitter_seed
                ^ msg.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ hop.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        g.next_u64(); // decorrelate nearby keys
        self.jitter_frac * hop_cost_ns * g.next_f64()
    }
}

/// Per-directed-link contention counters, cumulative over every
/// [`NetSim::run`] like [`RunStats`].
/// Covers **all** traffic over the link, foreground and background.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Total time messages spent waiting for this link (ns).
    pub wait_ns: f64,
    /// Messages that crossed this link.
    pub messages: u64,
    /// Peak queue depth: most messages simultaneously queued on or
    /// serializing through the link.
    pub max_depth: u32,
}

/// A message handed to the delivery callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Engine-assigned message id (injection order).
    pub msg: u64,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Caller-defined tag (round number, segment id, …).
    pub tag: u64,
    /// Simulated arrival time in nanoseconds.
    pub time: f64,
}

/// Aggregate statistics of [`NetSim::run`].
///
/// Stats are **cumulative across every `run` call on the same
/// engine**: a protocol that alternates injection and `run` phases
/// keeps adding to the same counters, and the peaks (`makespan_ns`,
/// `max_wait_ns`, `max_queue_depth`) cover every phase.
/// The original four counters (`makespan_ns`, `deliveries`,
/// `bytes_delivered`, `hops_traversed`) cover **foreground** traffic
/// only, so they are bit-identical to the pre-contention engine at
/// `load = 0`; background traffic is tallied separately in the `bg_*`
/// fields, and the wait/queue-depth fields observe contention.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Time the last foreground message arrived (ns); 0 for an empty
    /// run.
    pub makespan_ns: f64,
    /// Foreground messages delivered.
    pub deliveries: u64,
    /// Foreground payload bytes delivered (sum over messages, not
    /// hops).
    pub bytes_delivered: u64,
    /// Foreground link traversals.
    pub hops_traversed: u64,
    /// Total time foreground messages spent waiting for busy links
    /// (ns) — the direct measure of contention experienced.
    pub wait_ns: f64,
    /// Longest single foreground link wait (ns).
    pub max_wait_ns: f64,
    /// Foreground hops that found their link busy.
    pub contended_hops: u64,
    /// Foreground traversals of cross-group links (switch↔switch /
    /// switch↔NIC hops, [`Topology::is_cross_group_link`]) — the
    /// NIC/spine crossings topology-aware placement minimises.
    ///
    /// [`Topology::is_cross_group_link`]: crate::Topology::is_cross_group_link
    pub nic_hops: u64,
    /// Foreground payload bytes carried over cross-group links (sum
    /// over such hops).
    pub nic_bytes: u64,
    /// Peak queue depth over every link (any traffic): most messages
    /// simultaneously queued on or serializing through one link.
    pub max_queue_depth: u32,
    /// Background messages delivered. Each is counted as it enters
    /// its last hop, and arrives before `run` returns.
    pub bg_deliveries: u64,
    /// Background payload bytes delivered.
    pub bg_bytes_delivered: u64,
    /// Background link traversals.
    pub bg_hops_traversed: u64,
    /// Background messages dropped at admission because their route's
    /// backlog exceeded the horizon (finite ingress buffers — keeps an
    /// over-offered fabric stable instead of queueing unboundedly).
    pub bg_dropped: u64,
}

/// In-flight message state. Lives in a recycled slot (the slot index
/// is engine-internal); `id` is the externally visible injection-order
/// id that outlives the slot.
#[derive(Debug, Clone, Copy)]
struct Message {
    id: u64,
    from: usize,
    to: usize,
    bytes: u64,
    tag: u64,
    /// Arena offset of the chosen route `from → to`
    /// ([`Topology::route_handle`], resolved once at injection).
    route_off: u32,
    /// Number of hops on the chosen route (the hops themselves are read
    /// from the topology's arena per event).
    route_len: u32,
    /// Which equal-cost route this message rides
    /// ([`Topology::route_hops_nth`] slot; 0 = canonical).
    route_k: u32,
    /// Background (bystander-tenant) message: contends for links but
    /// is never handed to the delivery callback, and is counted
    /// delivered as it enters its last hop.
    background: bool,
}

/// Sentinel `Event::slot` marking a background-sender tick; the
/// event's `hop` field carries the sender index instead.
const BG_TICK: u32 = u32::MAX;

/// Background admission horizon, in units of a sender's OFF pause: a
/// tick whose chosen route already has more than this much queued work
/// on some link drops its message instead of injecting (finite ingress
/// buffers). Without the drop, a route-funneling config — many senders
/// × Fixed routing through one spine — can be offered more than link
/// capacity and its backlog (and the simulation) would grow without
/// bound. Tick times and route choices are drawn before the admission
/// check, so the *schedule* stays a pure function of `(seed, config)`.
const BG_DROP_HORIZON_PAUSES: f64 = 8.0;

/// One scheduled step: the message in `slot` is ready to enter hop
/// `hop` (or, when `hop == route_len`, to be delivered) at
/// [`Event::time`]. `slot == BG_TICK` is a background-sender tick
/// instead.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// [`time_key`] of the event's time.
    key: u64,
    /// Push order, stamped by the queue: the tie-break between equal
    /// times.
    seq: u64,
    slot: u32,
    hop: u32,
}

impl Event {
    #[inline]
    fn time(&self) -> f64 {
        key_time(self.key)
    }
}

/// Order key of a time: its bits with the sign bit set for a positive
/// sign and every bit flipped for a negative one, so keys compare as
/// unsigned integers exactly as times compare under `f64::total_cmp`
/// (−0.0 before +0.0).
#[inline]
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The time whose [`time_key`] is `key`.
#[inline]
fn key_time(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// Radix heap over [`Event`]s (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM
/// 1990): a monotone priority queue that pops without sorting.
/// `floor` is the key of the last pop. An event whose key equals it
/// waits in `fifo`; any other waits in `buckets[i]`, where `i` is the
/// highest bit at which its key differs from `floor`, so every key in
/// bucket `i` lies below every key in a higher bucket. A pop takes the
/// front of `fifo`; when `fifo` is empty, the lowest non-empty bucket
/// (one `trailing_zeros` on `occupied`) raises `floor` to its minimum
/// key and is redistributed, in order, into `fifo` and the buckets
/// below it.
///
/// Pop order is `(time.total_cmp, seq)`, bit for bit that of a
/// `BinaryHeap<Reverse<Event>>`. The queue stamps each push with the
/// next `seq`, and every container holds its events in `seq` order: a
/// push appends the largest `seq` so far, and a bucket is redistributed
/// only when `fifo` and every lower bucket are empty, so its events
/// land, in order, in empty containers. Equal keys always share a
/// container, so they pop in `seq` order.
///
/// A push below `floor` (a callback sending into the past) re-anchors
/// the queue: `floor` drops to the new key and every waiting event is
/// filed again in `seq` order. An empty queue moves `floor` to its next
/// push.
#[derive(Debug)]
struct RadixQueue {
    floor: u64,
    fifo: VecDeque<Event>,
    buckets: [Vec<Event>; 64],
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupied: u64,
    len: usize,
    next_seq: u64,
    /// Buckets redistributed (obs tally).
    refills: u64,
    /// Events those redistributions moved (obs tally).
    moved: u64,
}

impl RadixQueue {
    fn new() -> Self {
        RadixQueue {
            floor: 0,
            fifo: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            len: 0,
            next_seq: 0,
            refills: 0,
            moved: 0,
        }
    }

    /// Queue step `hop` of `slot` at `time`, stamped with the next
    /// `seq`.
    #[inline]
    fn push(&mut self, time: f64, slot: u32, hop: u32) {
        let ev = Event {
            key: time_key(time),
            seq: self.next_seq,
            slot,
            hop,
        };
        self.next_seq += 1;
        if self.len == 0 {
            self.floor = ev.key;
        } else if ev.key < self.floor {
            self.reanchor(ev.key);
        }
        self.len += 1;
        self.place(ev);
    }

    /// File `ev`, whose key is at or above `floor`.
    #[inline]
    fn place(&mut self, ev: Event) {
        let diff = ev.key ^ self.floor;
        if diff == 0 {
            self.fifo.push_back(ev);
        } else {
            let i = 63 - diff.leading_zeros() as usize;
            self.buckets[i].push(ev);
            self.occupied |= 1 << i;
        }
    }

    /// Lower `floor` to `key`, below every waiting event, and file them
    /// all again in `seq` order.
    #[cold]
    fn reanchor(&mut self, key: u64) {
        let mut waiting: Vec<Event> = self.fifo.drain(..).collect();
        for bucket in &mut self.buckets {
            waiting.append(bucket);
        }
        waiting.sort_unstable_by_key(|ev| ev.seq);
        self.occupied = 0;
        self.floor = key;
        for ev in waiting {
            self.place(ev);
        }
    }

    /// Make `fifo` non-empty unless the whole queue is empty, by
    /// redistributing the lowest non-empty bucket under its minimum
    /// key. Returns whether an event waits.
    #[inline]
    fn refill(&mut self) -> bool {
        if !self.fifo.is_empty() {
            return true;
        }
        if self.occupied == 0 {
            return false;
        }
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        self.floor = bucket
            .iter()
            .map(|ev| ev.key)
            .min()
            .expect("occupied bucket");
        self.refills += 1;
        self.moved += bucket.len() as u64;
        for ev in bucket.drain(..) {
            self.place(ev);
        }
        // Hand the emptied bucket back so it keeps its capacity.
        self.buckets[i] = bucket;
        true
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if !self.refill() {
            return None;
        }
        self.len -= 1;
        self.fifo.pop_front()
    }

    fn peek_time(&mut self) -> Option<f64> {
        self.refill().then(|| self.fifo[0].time())
    }
}

/// Per-engine observability capture. The three global switches
/// (tracing / counters / profiling) are sampled **once at engine
/// construction** into plain `bool` fields, so the event loop's
/// disabled path costs a predictable non-atomic branch — and a sim is
/// either fully observed or fully unobserved, never half. Counter
/// tallies accumulate locally and flush into the global sink once per
/// [`NetSim::run`], not per event.
///
/// Nothing in here feeds back into the simulation: timestamps, seeds,
/// route picks and stats are computed identically whether or not any
/// flag is set (the collectives determinism battery pins this).
#[derive(Debug)]
struct ObsState {
    /// Simulated-clock trace events wanted ([`trace::enabled`] at
    /// construction time).
    tracing: bool,
    /// Counter tallies wanted ([`counters::enabled`]).
    counting: bool,
    /// Wall-clock pop timing wanted ([`profile::enabled`]).
    profiling: bool,
    /// Trace process group: `run_index + 1` inside a run
    /// fan-out, 0 elsewhere (see [`trace::current_pid`]).
    pid: u64,
    /// Which link/rank lanes already carry a `thread_name` record
    /// (lazy so only used lanes clutter the viewer). Empty unless
    /// tracing.
    link_named: Vec<bool>,
    rank_named: Vec<bool>,
    // Local counter tallies, flushed once per `run`.
    pushes: u64,
    pops: u64,
    peak: u64,
    route_lookups: u64,
    wire_bytes: u64,
    nic_cross_bytes: u64,
    /// Wall-clock heap-pop latency histogram for this engine, merged
    /// into the global `net.heap_pop@load=…` phase per `run`.
    pop_stat: PhaseStat,
}

impl ObsState {
    fn capture(topo: &Topology) -> Self {
        let tracing = trace::enabled();
        ObsState {
            tracing,
            counting: counters::enabled(),
            profiling: profile::enabled(),
            pid: trace::current_pid(),
            link_named: if tracing { vec![false; topo.num_links()] } else { Vec::new() },
            rank_named: if tracing { vec![false; topo.ranks()] } else { Vec::new() },
            pushes: 0,
            pops: 0,
            peak: 0,
            route_lookups: 0,
            wire_bytes: 0,
            nic_cross_bytes: 0,
            pop_stat: PhaseStat::default(),
        }
    }

    /// `true` when any per-event work is wanted at all.
    fn any(&self) -> bool {
        self.tracing || self.counting || self.profiling
    }
}

/// One background sender: its own gap RNG stream plus the on/off
/// cadence derived from the configured offered load.
#[derive(Debug)]
struct BgSender {
    rank: usize,
    rng: SplitMix64,
    /// Mean in-burst inter-send gap: uplink serialization time of one
    /// background message divided by `2·load`, so the ~50% ON duty
    /// cycle lands utilization ≈ `load`.
    gap_ns: f64,
    /// Mean OFF pause after a burst: `burst · gap_ns`.
    pause_ns: f64,
    burst_left: u32,
}

/// The discrete-event engine. Drive it by injecting sends (possibly
/// from inside the delivery callback) and calling [`NetSim::run`].
#[derive(Debug)]
pub struct NetSim<'t> {
    topo: &'t Topology,
    config: NetConfig,
    /// Pending events, popped in `(time, seq)` order.
    queue: RadixQueue,
    /// Slot-addressed in-flight messages; delivered slots are pushed
    /// onto `free` and reused by later sends, so the live set — not
    /// the whole run history — bounds memory.
    messages: Vec<Message>,
    free: Vec<u32>,
    /// Next external message id (injection order; never recycled).
    next_id: u64,
    /// `link_busy_until[link_id]`: time the directed link becomes free.
    link_busy_until: Vec<f64>,
    stats: RunStats,
    /// Foreground messages in flight; background ticks stop
    /// rescheduling once this hits zero, so `run` always terminates.
    fg_live: u64,
    /// Background senders (empty at zero load).
    bg: Vec<BgSender>,
    /// Background tick events currently in the queue.
    live_ticks: u32,
    /// Per-link contention counters, all traffic, indexed by link id.
    link_stats: Vec<LinkStats>,
    /// Per-link serialization-finish times, oldest first; a link's
    /// current queue depth (messages queued on or serializing through
    /// it) is its entry's length once expired ones are popped. Because a
    /// link's `busy_until` only ever grows, each link's finish times
    /// are pushed in non-decreasing order — so expiring them is a
    /// front-pop walk on entry to that link, no priority queue needed.
    /// Depth decrements commute, so expiring a link's drains only when
    /// *that* link is entered yields the same depth at every increment
    /// (and the same peaks) as the old global drain heap.
    link_drains: Vec<VecDeque<f64>>,
    /// Observability capture (off by default; flags sampled once at
    /// construction — see [`ObsState`]).
    obs: ObsState,
}

impl<'t> NetSim<'t> {
    /// A fresh engine over `topo` whose jitter, background tenants and
    /// route choice follow `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.load` is negative or not finite, or when
    /// `config.jitter_frac` is negative or NaN.
    pub fn new(topo: &'t Topology, config: &NetConfig) -> Self {
        assert!(
            config.load.is_finite() && config.load >= 0.0,
            "offered load must be finite and non-negative, got {}",
            config.load
        );
        assert!(
            config.jitter_frac >= 0.0,
            "jitter fraction must be non-negative, got {}",
            config.jitter_frac
        );
        let p = topo.ranks();
        let bg: Vec<BgSender> = if config.load > 0.0 && p > 1 {
            (0..p)
                .map(|r| {
                    // Calibrate off the sender's uplink (first hop of
                    // any route out of rank r).
                    let uplink =
                        topo.link_spec(topo.route_hops(r, usize::from(r == 0))[0] as usize);
                    let serialize = (uplink.ns_per_byte * BG_BYTES as f64).max(1.0);
                    let gap_ns = serialize / (2.0 * config.load);
                    BgSender {
                        rank: r,
                        rng: SplitMix64::new(derive_seed(config.bg_seed, r as u64)),
                        gap_ns,
                        pause_ns: BG_BURST as f64 * gap_ns,
                        burst_left: BG_BURST,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let obs = ObsState::capture(topo);
        if obs.tracing {
            let label = if obs.pid == 0 {
                topo.name().to_string()
            } else {
                format!("run {} · {}", obs.pid - 1, topo.name())
            };
            trace::name_process(obs.pid, label);
        }
        NetSim {
            topo,
            config: *config,
            obs,
            queue: RadixQueue::new(),
            messages: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            link_busy_until: vec![0.0; topo.num_links()],
            stats: RunStats::default(),
            fg_live: 0,
            bg,
            live_ticks: 0,
            link_stats: vec![LinkStats::default(); topo.num_links()],
            link_drains: vec![VecDeque::new(); topo.num_links()],
        }
    }

    /// Contention counters for one directed link (cumulative over
    /// every [`NetSim::run`]).
    ///
    /// # Panics
    ///
    /// Panics when `link_id` is not below the topology's
    /// [`Topology::num_links`].
    pub fn link_stats(&self, link_id: usize) -> LinkStats {
        self.link_stats[link_id]
    }

    /// Inject a `bytes`-byte message from rank `from` to rank `to` at
    /// simulated time `at_ns`. Returns the message id (injection
    /// order — ids are never reused even though the internal slot is
    /// recycled after delivery). A self-send (`from == to`) delivers
    /// at `at_ns` with no link traffic.
    pub fn send_at(&mut self, at_ns: f64, from: usize, to: usize, bytes: u64, tag: u64) -> u64 {
        assert!(at_ns.is_finite() && at_ns >= 0.0, "send time must be finite and non-negative");
        self.fg_live += 1;
        let m = Message {
            bytes,
            tag,
            ..self.new_message(from, to)
        };
        self.inject(at_ns, m)
    }

    /// Message `next_id` from rank `from` to rank `to` on its seeded
    /// equal-cost route, as a foreground message with no payload yet.
    /// The route slot is a pure function of `(route seed, id)`,
    /// independent of event interleaving.
    fn new_message(&self, from: usize, to: usize) -> Message {
        let id = self.next_id;
        let route_k = match self.config.route {
            RouteSelect::Fixed => 0,
            RouteSelect::SeededEcmp { seed } => {
                let n = self.topo.route_count(from, to);
                if n <= 1 {
                    0
                } else {
                    let mut g = SplitMix64::new(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407));
                    g.next_u64(); // decorrelate nearby keys
                    g.next_below(n as u64) as u32
                }
            }
        };
        let (route_off, route_len) = self.topo.route_handle(from, to, route_k as usize);
        Message {
            id,
            from,
            to,
            bytes: 0,
            tag: 0,
            route_off,
            route_len,
            route_k,
            background: false,
        }
    }

    /// Tally one event-heap push (and the resulting heap length) into
    /// the engine-local counters.
    #[inline]
    fn note_push(&mut self) {
        if self.obs.counting {
            self.obs.pushes += 1;
            let len = self.queue.len as u64;
            if len > self.obs.peak {
                self.obs.peak = len;
            }
        }
    }

    /// Trace lane for rank `r`, naming it on first use.
    fn rank_lane(&mut self, r: usize) -> u64 {
        if !self.obs.rank_named[r] {
            self.obs.rank_named[r] = true;
            trace::name_thread(self.obs.pid, trace::RANK_TID_BASE + r as u64, format!("rank {r}"));
        }
        trace::RANK_TID_BASE + r as u64
    }

    /// Trace lane for directed link `l`, naming it on first use.
    fn link_lane(&mut self, l: usize) -> u64 {
        if !self.obs.link_named[l] {
            self.obs.link_named[l] = true;
            let label = format!("L{l} {}", self.topo.link_label(l));
            trace::name_thread(self.obs.pid, l as u64, label);
        }
        l as u64
    }

    /// Queue message `m`, whose id is `next_id`, to enter its first hop
    /// at `at_ns`, and return its id.
    fn inject(&mut self, at_ns: f64, m: Message) -> u64 {
        self.next_id += 1;
        if self.obs.counting {
            self.obs.route_lookups += 1;
        }
        if self.obs.tracing {
            let lane = self.rank_lane(m.from);
            let (name, cat) = if m.background { ("bg_inject", "bg") } else { ("inject", "net") };
            trace::instant(
                self.obs.pid,
                lane,
                at_ns,
                name,
                cat,
                vec![
                    ("msg", m.id.into()),
                    ("to", m.to.into()),
                    ("bytes", m.bytes.into()),
                    ("tag", m.tag.into()),
                    ("route", m.route_k.into()),
                ],
            );
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.messages[s as usize] = m;
                s
            }
            None => {
                self.messages.push(m);
                (self.messages.len() - 1) as u32
            }
        };
        self.queue.push(at_ns, slot, 0);
        self.note_push();
        m.id
    }

    /// Put one tick per background sender into the queue, anchored to
    /// the earliest pending event. No-op unless background traffic is
    /// configured, foreground work is pending, and no ticks are live
    /// (so multi-phase protocols re-arm cleanly between `run`s).
    fn seed_bg_ticks(&mut self) {
        if self.bg.is_empty() || self.live_ticks > 0 || self.fg_live == 0 {
            return;
        }
        let Some(t0) = self.queue.peek_time() else {
            return;
        };
        for s in 0..self.bg.len() {
            let delay = self.bg[s].rng.next_f64() * self.bg[s].pause_ns;
            self.queue.push(t0 + delay, BG_TICK, s as u32);
            self.note_push();
            self.live_ticks += 1;
        }
    }

    /// Fire one background tick: inject a message to a seeded
    /// destination and schedule the next tick (gap within a burst,
    /// pause after one) — unless foreground traffic has drained, in
    /// which case the tick retires so the queue can empty. A message
    /// whose route is backlogged beyond the admission horizon is
    /// dropped (after its RNG draws, so the schedule stays pure).
    fn bg_tick(&mut self, at_ns: f64, sender: usize) {
        if self.fg_live == 0 {
            self.live_ticks -= 1;
            return;
        }
        let p = self.topo.ranks();
        let from = self.bg[sender].rank;
        let mut to = self.bg[sender].rng.next_below(p as u64 - 1) as usize;
        if to >= from {
            to += 1;
        }
        let m = Message {
            bytes: BG_BYTES,
            background: true,
            ..self.new_message(from, to)
        };
        let horizon = BG_DROP_HORIZON_PAUSES * self.bg[sender].pause_ns;
        let admitted = self
            .topo
            .route_slice((m.route_off, m.route_len))
            .iter()
            .all(|&l| self.link_busy_until[l as usize] - at_ns <= horizon);
        if self.obs.counting {
            self.obs.route_lookups += 1;
        }
        if admitted {
            self.inject(at_ns, m);
        } else {
            self.stats.bg_dropped += 1;
            if self.obs.tracing {
                let lane = self.rank_lane(from);
                trace::instant(
                    self.obs.pid,
                    lane,
                    at_ns,
                    "bg_drop",
                    "bg",
                    vec![("to", to.into()), ("route", m.route_k.into())],
                );
            }
        }
        let s = &mut self.bg[sender];
        s.burst_left -= 1;
        let base = if s.burst_left == 0 {
            s.burst_left = BG_BURST;
            s.pause_ns
        } else {
            s.gap_ns
        };
        let next = at_ns + base * (0.5 + s.rng.next_f64());
        self.queue.push(next, BG_TICK, sender as u32);
        self.note_push();
    }

    /// Process every pending event in time order, invoking
    /// `on_deliver` for each message that reaches its destination. The
    /// callback may inject further sends. Returns the run statistics
    /// — **cumulative** across multiple `run` calls on the same engine
    /// (see [`RunStats`]).
    pub fn run<F>(&mut self, mut on_deliver: F) -> RunStats
    where
        F: FnMut(&mut NetSim<'t>, Delivery),
    {
        self.seed_bg_ticks();
        let run_t0 = if self.obs.profiling { Some(std::time::Instant::now()) } else { None };
        loop {
            // Pop timing is the one place observability reads a wall
            // clock inside the event loop; it is measured *around* the
            // pop and never feeds back into simulated time.
            let popped = if self.obs.profiling {
                let t0 = std::time::Instant::now();
                let p = self.queue.pop();
                if p.is_some() {
                    self.obs.pop_stat.record(t0.elapsed().as_nanos() as u64);
                }
                p
            } else {
                self.queue.pop()
            };
            let Some(ev) = popped else { break };
            if self.obs.counting {
                self.obs.pops += 1;
            }
            let time = ev.time();
            if ev.slot == BG_TICK {
                self.bg_tick(time, ev.hop as usize);
                continue;
            }
            let m = self.messages[ev.slot as usize];
            if ev.hop == m.route_len {
                // Only foreground messages get here (tenants are counted
                // at their last hop). Retire the slot before the
                // callback runs so chained sends can reuse it
                // immediately.
                self.free.push(ev.slot);
                self.fg_live -= 1;
                let delivery = Delivery {
                    msg: m.id,
                    from: m.from,
                    to: m.to,
                    bytes: m.bytes,
                    tag: m.tag,
                    time,
                };
                self.stats.deliveries += 1;
                self.stats.bytes_delivered += m.bytes;
                self.stats.makespan_ns = self.stats.makespan_ns.max(time);
                if self.obs.tracing {
                    let lane = self.rank_lane(m.to);
                    trace::instant(
                        self.obs.pid,
                        lane,
                        time,
                        "deliver",
                        "net",
                        vec![
                            ("msg", m.id.into()),
                            ("from", m.from.into()),
                            ("bytes", m.bytes.into()),
                            ("tag", m.tag.into()),
                        ],
                    );
                }
                on_deliver(self, delivery);
                continue;
            }
            // Enter the next link: wait for it to free, hold it for the
            // serialization time, then propagate (+ jitter).
            let l = self.topo.route_slice((m.route_off, m.route_len))[ev.hop as usize] as usize;
            let link = self.topo.link_spec(l);
            // Queue-depth accounting: retire every serialization on
            // *this* link that finished by now, then count this
            // message as queued.
            let dq = &mut self.link_drains[l];
            while dq.front().is_some_and(|&t| t <= time) {
                dq.pop_front();
            }
            let busy = &mut self.link_busy_until[l];
            let start = time.max(*busy);
            let wait = start - time;
            let serialize = link.ns_per_byte * m.bytes as f64;
            *busy = start + serialize;
            let jitter =
                self.config
                    .jitter_ns(m.id, u64::from(ev.hop), serialize + link.latency_ns);
            let arrive = start + serialize + link.latency_ns + jitter;
            self.link_drains[l].push_back(start + serialize);
            let depth = self.link_drains[l].len() as u32;
            let ls = &mut self.link_stats[l];
            ls.max_depth = ls.max_depth.max(depth);
            ls.wait_ns += wait;
            ls.messages += 1;
            if depth > self.stats.max_queue_depth {
                self.stats.max_queue_depth = depth;
            }
            if m.background {
                self.stats.bg_hops_traversed += 1;
            } else {
                self.stats.hops_traversed += 1;
                self.stats.wait_ns += wait;
                if self.topo.is_cross_group_link(l) {
                    self.stats.nic_hops += 1;
                    self.stats.nic_bytes += m.bytes;
                    if self.obs.counting {
                        self.obs.nic_cross_bytes += m.bytes;
                    }
                }
                if wait > 0.0 {
                    self.stats.contended_hops += 1;
                    if wait > self.stats.max_wait_ns {
                        self.stats.max_wait_ns = wait;
                    }
                }
            }
            if self.obs.any() {
                self.note_hop(&m, ev.hop, l, start, wait, serialize);
            }
            let next = ev.hop + 1;
            if m.background && next == m.route_len {
                // A tenant's arrival reaches no callback and no stat
                // is read before `run` returns, so count it now and
                // free its slot instead of queueing the arrival.
                self.stats.bg_deliveries += 1;
                self.stats.bg_bytes_delivered += m.bytes;
                self.free.push(ev.slot);
            } else {
                self.queue.push(arrive, ev.slot, next);
                self.note_push();
            }
        }
        self.flush_obs(run_t0);
        self.stats
    }

    /// Per-hop observability: wire/route tallies plus the link-lane
    /// trace span (`ts` = serialization start, `dur` = serialization
    /// time — link spans never overlap because links serialize, so
    /// every lane renders as a clean occupancy timeline and queueing
    /// shows up as the gap between a message's hops).
    fn note_hop(&mut self, m: &Message, hop_idx: u32, l: usize, start: f64, wait: f64, serialize: f64) {
        if self.obs.counting {
            self.obs.route_lookups += 1;
            self.obs.wire_bytes += m.bytes;
        }
        if self.obs.tracing {
            let lane = self.link_lane(l);
            let cat = if m.background { "bg" } else { "net" };
            trace::complete(
                self.obs.pid,
                lane,
                start,
                serialize,
                format!("m{}", m.id),
                cat,
                vec![
                    ("msg", m.id.into()),
                    ("hop", hop_idx.into()),
                    ("from", m.from.into()),
                    ("to", m.to.into()),
                    ("bytes", m.bytes.into()),
                    ("wait_ns", wait.into()),
                    ("route", m.route_k.into()),
                    ("depth", (self.link_drains[l].len() as u32).into()),
                ],
            );
        }
    }

    /// Flush engine-local observability tallies into the global sinks;
    /// called once at the end of every [`NetSim::run`].
    fn flush_obs(&mut self, run_t0: Option<std::time::Instant>) {
        if let Some(t0) = run_t0 {
            let dt = t0.elapsed().as_nanos() as u64;
            counters::add(Counter::NetRunWallNs, dt);
            profile::record("net.run", dt);
            if self.obs.pop_stat.count > 0 {
                // Key the pop histogram by offered load, so one report
                // answers "does pop dominate at high load?" directly.
                // Profile readers match the whole key, `queue=radix`
                // suffix included. Adding 0.0 turns a load of -0.0
                // into 0.0, so the key never reads "-0.00".
                let key = format!(
                    "net.heap_pop@load={:.2},queue=radix",
                    self.config.load + 0.0
                );
                profile::merge(&key, &self.obs.pop_stat);
                counters::add(Counter::HeapPopWallNs, self.obs.pop_stat.total_ns);
                self.obs.pop_stat = PhaseStat::default();
            }
        }
        if self.obs.counting {
            counters::add(Counter::HeapPush, std::mem::take(&mut self.obs.pushes));
            counters::add(Counter::HeapPop, std::mem::take(&mut self.obs.pops));
            counters::record_heap_peak(std::mem::take(&mut self.obs.peak));
            counters::add(Counter::RouteLookup, std::mem::take(&mut self.obs.route_lookups));
            counters::add(Counter::WireBytes, std::mem::take(&mut self.obs.wire_bytes));
            counters::add(Counter::NicCrossBytes, std::mem::take(&mut self.obs.nic_cross_bytes));
            counters::add(Counter::BucketRotation, std::mem::take(&mut self.queue.refills));
            counters::add(Counter::OverflowPromotion, std::mem::take(&mut self.queue.moved));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn topo() -> Topology {
        Topology::flat_switch(4, LinkSpec::new(100.0, 1.0))
    }

    /// The software-scheduled fabric: no jitter, no tenants, fixed
    /// routes.
    fn quiet() -> NetConfig {
        NetConfig { jitter_frac: 0.0, ..NetConfig::default() }
    }

    #[test]
    fn single_message_cost_matches_path_cost() {
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        sim.send_at(0.0, 0, 1, 8, 0);
        let mut seen = Vec::new();
        let stats = sim.run(|_, d| seen.push(d));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].from, 0);
        assert_eq!(seen[0].to, 1);
        // 2 hops × (100 + 8) ns, no contention
        assert!((seen[0].time - 216.0).abs() < 1e-9);
        assert_eq!(stats.hops_traversed, 2);
        assert_eq!(stats.bytes_delivered, 8);
    }

    #[test]
    fn nic_counters_tally_only_cross_group_foreground_hops() {
        // Flat switch: no cross-group links at all.
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        sim.send_at(0.0, 0, 1, 64, 0);
        let stats = sim.run(|_, _| {});
        assert_eq!(stats.nic_hops, 0);
        assert_eq!(stats.nic_bytes, 0);
        // Hierarchical: a same-node message never crosses; a cross-node
        // message crosses on its 4 middle (sw→nic→top→nic→sw) hops.
        let h = Topology::hierarchical(2, 2, LinkSpec::new(100.0, 1.0), LinkSpec::new(100.0, 1.0), LinkSpec::new(100.0, 1.0));
        let mut sim = NetSim::new(&h, &quiet());
        sim.send_at(0.0, 0, 1, 64, 0);
        let intra = sim.run(|_, _| {});
        assert_eq!(intra.nic_hops, 0);
        // Stats are cumulative, and the first message crossed no NIC.
        sim.send_at(0.0, 0, 2, 64, 0);
        let inter = sim.run(|_, _| {});
        assert_eq!(inter.nic_hops, 4);
        assert_eq!(inter.nic_bytes, 4 * 64);
    }

    #[test]
    fn shared_link_serializes_fan_in() {
        // Ranks 1, 2, 3 all send to 0 at t=0: the switch→rank-0 link is
        // shared, so arrivals are spaced by the serialization time.
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        for r in 1..4 {
            sim.send_at(0.0, r, 0, 1000, 0);
        }
        let mut times = Vec::new();
        sim.run(|_, d| times.push(d.time));
        assert_eq!(times.len(), 3);
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        // Gaps of exactly β·bytes = 1000 ns between consecutive arrivals.
        assert!((sorted[1] - sorted[0] - 1000.0).abs() < 1e-9, "{sorted:?}");
        assert!((sorted[2] - sorted[1] - 1000.0).abs() < 1e-9, "{sorted:?}");
    }

    #[test]
    fn zero_jitter_replays_identically() {
        let t = topo();
        let run = || {
            let mut sim = NetSim::new(&t, &quiet());
            for r in 1..4 {
                sim.send_at(r as f64, r, 0, 64, r as u64);
            }
            let mut log = Vec::new();
            sim.run(|_, d| log.push((d.msg, d.tag, d.time.to_bits())));
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jitter_seeds_change_timing_but_not_payloads() {
        let t = topo();
        let run = |seed| {
            let mut sim = NetSim::new(&t, &NetConfig { jitter_frac: 0.5, jitter_seed: seed, ..quiet() });
            for r in 1..4 {
                sim.send_at(0.0, r, 0, 64, r as u64);
            }
            let mut log = Vec::new();
            sim.run(|_, d| log.push((d.tag, d.time)));
            log
        };
        let a = run(1);
        let b = run(2);
        let tags = |log: &[(u64, f64)]| {
            let mut t: Vec<u64> = log.iter().map(|&(tag, _)| tag).collect();
            t.sort_unstable();
            t
        };
        assert_eq!(tags(&a), tags(&b), "same messages must arrive");
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.1 != y.1),
            "different seeds should perturb some timestamp"
        );
        // and the same seed replays exactly
        let a2 = run(1);
        assert_eq!(
            a.iter().map(|&(_, t)| t.to_bits()).collect::<Vec<_>>(),
            a2.iter().map(|&(_, t)| t.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn callback_can_chain_sends() {
        // 1 → 0, then on delivery 0 → 2: a two-leg relay.
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        sim.send_at(0.0, 1, 0, 8, 7);
        let mut legs = Vec::new();
        sim.run(|sim, d| {
            legs.push((d.from, d.to, d.time));
            if d.tag == 7 && d.to == 0 {
                sim.send_at(d.time, 0, 2, 8, 8);
            }
        });
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[1].0, 0);
        assert_eq!(legs[1].1, 2);
        assert!(legs[1].2 > legs[0].2);
    }

    #[test]
    fn message_ids_stay_injection_ordered_across_slot_recycling() {
        // A long relay: each delivery triggers the next send, so every
        // message after the first reuses the same recycled slot. Ids
        // must still count up in injection order.
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        let first = sim.send_at(0.0, 0, 1, 8, 0);
        assert_eq!(first, 0);
        let mut ids = Vec::new();
        sim.run(|sim, d| {
            ids.push(d.msg);
            if d.tag < 20 {
                let id = sim.send_at(d.time, d.to, (d.to + 1) % 4, 8, d.tag + 1);
                assert_eq!(id, d.tag + 1, "ids are injection-ordered");
            }
        });
        assert_eq!(ids, (0..=20).collect::<Vec<_>>());
    }

    #[test]
    fn run_stats_stay_cumulative_and_ids_keep_counting() {
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        sim.send_at(0.0, 0, 1, 100, 0);
        let phase1 = sim.run(|_, _| {});
        assert_eq!(phase1.deliveries, 1);
        // Message ids keep counting up across runs.
        let id = sim.send_at(0.0, 1, 2, 50, 0);
        assert_eq!(id, 1);
        let phase2 = sim.run(|_, _| {});
        assert_eq!(phase2.deliveries, 2);
        assert_eq!(phase2.bytes_delivered, 150);
        sim.send_at(0.0, 2, 3, 25, 0);
        let cumulative = sim.run(|_, _| {});
        assert_eq!(cumulative.deliveries, 3);
        assert_eq!(cumulative.bytes_delivered, 175);
    }

    #[test]
    fn fan_in_queue_depth_and_wait_are_counted() {
        let t = topo();
        let mut sim = NetSim::new(&t, &quiet());
        for r in 1..4 {
            sim.send_at(0.0, r, 0, 1000, 0);
        }
        let stats = sim.run(|_, _| {});
        // All three hit the shared sw→0 link at the same instant: one
        // serializes, two queue behind it → depth 3, waits of exactly
        // 1·serialize and 2·serialize.
        assert_eq!(stats.max_queue_depth, 3);
        assert_eq!(stats.contended_hops, 2);
        assert!((stats.wait_ns - 3000.0).abs() < 1e-9, "{}", stats.wait_ns);
        assert!((stats.max_wait_ns - 2000.0).abs() < 1e-9);
        // Per-link: the contended link saw all 3 messages and all the
        // wait; each rank→sw uplink saw exactly its own message.
        let contended = t.route_hops(1, 0)[1] as usize;
        let ls = sim.link_stats(contended);
        assert_eq!(ls.messages, 3);
        assert_eq!(ls.max_depth, 3);
        assert!((ls.wait_ns - 3000.0).abs() < 1e-9);
        let uplink = t.route_hops(1, 0)[0] as usize;
        assert_eq!(sim.link_stats(uplink).messages, 1);
        assert_eq!(sim.link_stats(uplink).max_depth, 1);
    }

    #[test]
    fn background_traffic_contends_but_never_reaches_the_callback() {
        let t = topo();
        let tenants = NetConfig { load: 0.6, bg_seed: 42, ..quiet() };
        // Modest staggered sends: in a quiet fabric they never touch,
        // so every bit of foreground wait is inflicted by the tenants.
        let workload = |sim: &mut NetSim<'_>| {
            for i in 0..30u64 {
                sim.send_at(i as f64 * 30_000.0, 1 + (i as usize % 3), 0, 20_000, i);
            }
        };
        let mut sim = NetSim::new(&t, &tenants);
        workload(&mut sim);
        let mut log = Vec::new();
        let stats = sim.run(|_, d| log.push(d.tag));
        // Exactly the 30 foreground messages reach the callback; the
        // background tenants only show in bg_* stats.
        log.sort_unstable();
        assert_eq!(log, (0..30).collect::<Vec<u64>>());
        assert_eq!(stats.deliveries, 30);
        assert_eq!(stats.bytes_delivered, 30 * 20_000);
        assert!(stats.bg_deliveries > 0, "{stats:?}");
        assert_eq!(stats.bg_bytes_delivered, stats.bg_deliveries * 16 * 1024);
        assert!(stats.bg_hops_traversed >= 2 * stats.bg_deliveries);
        // Contention from the bystanders delays the foreground run.
        let mut quiet = NetSim::new(&t, &quiet());
        workload(&mut quiet);
        let quiet_stats = quiet.run(|_, _| {});
        assert_eq!(quiet_stats.wait_ns, 0.0, "workload must be self-contention-free");
        assert!(stats.wait_ns > 0.0);
        assert!(stats.contended_hops > 0);
        assert!(stats.makespan_ns >= quiet_stats.makespan_ns);
    }

    #[test]
    fn multi_phase_stats_stay_cumulative_with_tenants_live() {
        let t = topo();
        let tenants = NetConfig { load: 0.6, bg_seed: 42, ..quiet() };
        let phase = |sim: &mut NetSim<'_>, base: f64| {
            for i in 0..10u64 {
                sim.send_at(base + i as f64 * 30_000.0, 1 + (i as usize % 3), 0, 20_000, i);
            }
            sim.run(|_, _| {})
        };
        // Two phases back to back: the tenants re-arm at each run()
        // entry, and every counter — foreground, background, and the
        // queue/wait family — keeps accumulating.
        let mut sim = NetSim::new(&t, &tenants);
        let first = phase(&mut sim, 0.0);
        let both = phase(&mut sim, 1e9);
        assert_eq!(first.deliveries, 10);
        assert_eq!(both.deliveries, 20);
        assert!(first.bg_deliveries > 0);
        assert!(both.bg_deliveries > first.bg_deliveries);
        assert!(both.bg_hops_traversed > first.bg_hops_traversed);
        assert!(both.wait_ns >= first.wait_ns);
        assert!(both.max_queue_depth >= first.max_queue_depth);
        // The same two phases replay bitwise on a fresh engine.
        let mut replay = NetSim::new(&t, &tenants);
        phase(&mut replay, 0.0);
        assert_eq!(phase(&mut replay, 1e9), both);
    }

    #[test]
    fn background_schedule_replays_from_its_seed() {
        let t = topo();
        let run = |bg_seed: u64| {
            let mut sim = NetSim::new(&t, &NetConfig { load: 0.5, bg_seed, ..quiet() });
            for i in 0..30u64 {
                sim.send_at(i as f64 * 30_000.0, 1 + (i as usize % 3), 0, 20_000, i);
            }
            let mut log = Vec::new();
            sim.run(|_, d| log.push((d.tag, d.time.to_bits())));
            log
        };
        assert_eq!(run(9), run(9), "same bg seed must replay bitwise");
        assert_ne!(run(9), run(10), "bg seed must steer the contention");
    }

    #[test]
    fn ecmp_choice_is_seeded_and_spreads_over_spines() {
        let spec = LinkSpec::new(100.0, 1.0);
        let t = crate::topology::Topology::fat_tree_spines(8, 4, 4, spec, spec);
        let run = |route: RouteSelect| {
            let mut sim = NetSim::new(&t, &NetConfig { route, ..quiet() });
            // Cross-group shuffle to *distinct* destinations: the only
            // shared resource is the sending group's spine uplink, so
            // Fixed routing piles all four onto the canonical spine
            // while ECMP spreads them out.
            for r in 4..8 {
                sim.send_at(0.0, r, r - 4, 1000, r as u64);
            }
            let mut log = Vec::new();
            let stats = sim.run(|_, d| log.push((d.tag, d.time.to_bits())));
            (log, stats)
        };
        let (fixed_log, fixed_stats) = run(RouteSelect::Fixed);
        let (ecmp_log, ecmp_stats) = run(RouteSelect::SeededEcmp { seed: 3 });
        let (ecmp_log2, _) = run(RouteSelect::SeededEcmp { seed: 3 });
        assert_eq!(ecmp_log, ecmp_log2, "same route seed must replay bitwise");
        // Same messages arrive either way…
        let tags = |log: &[(u64, u64)]| {
            let mut v: Vec<u64> = log.iter().map(|&(tag, _)| tag).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(tags(&fixed_log), tags(&ecmp_log));
        // …but spreading over spines relieves the shared uplink.
        assert!(
            ecmp_stats.wait_ns < fixed_stats.wait_ns,
            "ecmp {} vs fixed {}",
            ecmp_stats.wait_ns,
            fixed_stats.wait_ns
        );
    }

    /// The oracle's order: `time.total_cmp`, then `seq`.
    impl PartialEq for Event {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for Event {}
    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Event {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.time()
                .total_cmp(&other.time())
                .then_with(|| self.seq.cmp(&other.seq))
        }
    }

    /// The radix queue against the order it must reproduce bit for bit,
    /// `BinaryHeap<Reverse<Event>>`, on random push/pop/peek sequences
    /// in the engine's pattern: pushes at or after the last pop (hop
    /// arrivals), ties on time, near- and far-future pushes, ±0.0 (which
    /// differ in key and tie with themselves), times at and one ulp
    /// either side of a power of two (keys that differ in their high
    /// bits), pushes before the last pop (a callback sending into the
    /// past) and restarts once the queue has drained, at four time
    /// scales. Every pop must agree on `(time bits, seq)` and return the
    /// time it was pushed with, every peek on the time bits, and the
    /// lengths after every step.
    #[test]
    fn radix_queue_pops_in_binary_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let key = |ev: Option<Event>| ev.map(|ev| (ev.time().to_bits(), ev.seq));
        for scale in [0.25f64, 1.0, 100.0, 1234.5] {
            let span = 256.0 * scale;
            for case in 0..100u64 {
                let mut rng = SplitMix64::new(case ^ scale.to_bits());
                let mut queue = RadixQueue::new();
                let mut heap = BinaryHeap::new();
                let mut now = 0.0f64;
                let mut times: Vec<f64> = Vec::new();
                let pop = |queue: &mut RadixQueue,
                           heap: &mut BinaryHeap<Reverse<Event>>,
                           times: &[f64]| {
                    let ev = queue.pop();
                    let want = heap.pop().map(|Reverse(ev)| ev);
                    assert_eq!(key(ev), key(want), "scale {scale}, case {case}");
                    if let Some(ev) = ev {
                        assert_eq!(ev.time().to_bits(), times[ev.seq as usize].to_bits());
                    }
                    ev
                };
                for _ in 0..300 {
                    match rng.next_below(10) {
                        0..=4 => {
                            let time = match rng.next_below(8) {
                                0 => times
                                    .get(rng.next_below(times.len() as u64 + 1) as usize)
                                    .copied()
                                    .unwrap_or(now),
                                1 => ((now / scale).floor() + rng.next_f64()) * scale,
                                2 => now + rng.next_f64() * span,
                                3 => now + (1.0 + 3.0 * rng.next_f64()) * span,
                                4 => now * rng.next_f64(),
                                5 => [0.0, -0.0][rng.next_below(2) as usize],
                                6 => {
                                    let below = (now + scale).to_bits() & !((1 << 52) - 1);
                                    let pow2 =
                                        f64::from_bits(below) * (1 << rng.next_below(3)) as f64;
                                    f64::from_bits(pow2.to_bits() + rng.next_below(3) - 1)
                                }
                                _ => now,
                            };
                            let seq = times.len() as u64;
                            times.push(time);
                            queue.push(time, 0, 0);
                            heap.push(Reverse(Event {
                                key: time_key(time),
                                seq,
                                slot: 0,
                                hop: 0,
                            }));
                        }
                        5..=7 => {
                            if let Some(ev) = pop(&mut queue, &mut heap, &times) {
                                now = ev.time();
                            }
                        }
                        8 => {
                            let want = heap.peek().map(|Reverse(ev)| ev.time().to_bits());
                            let got = queue.peek_time().map(f64::to_bits);
                            assert_eq!(got, want, "scale {scale}, case {case}");
                        }
                        _ => {
                            while pop(&mut queue, &mut heap, &times).is_some() {}
                            now = rng.next_f64() * 1e3 * span;
                        }
                    }
                    assert_eq!(queue.len, heap.len());
                }
                while pop(&mut queue, &mut heap, &times).is_some() {}
            }
        }
    }

    #[test]
    fn self_send_delivers_immediately() {
        let t = topo();
        let mut sim = NetSim::new(&t, &NetConfig { jitter_frac: 1.0, jitter_seed: 3, ..quiet() });
        sim.send_at(42.0, 2, 2, 8, 0);
        let mut seen = Vec::new();
        let stats = sim.run(|_, d| seen.push(d));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].time, 42.0);
        assert_eq!(stats.hops_traversed, 0);
    }

    #[test]
    #[should_panic(expected = "offered load must be finite and non-negative")]
    fn negative_load_is_rejected() {
        NetSim::new(&topo(), &NetConfig { load: -0.5, ..quiet() });
    }

    #[test]
    #[should_panic(expected = "offered load must be finite and non-negative")]
    fn nan_load_is_rejected() {
        NetSim::new(&topo(), &NetConfig { load: f64::NAN, ..quiet() });
    }

    #[test]
    #[should_panic(expected = "offered load must be finite and non-negative")]
    fn infinite_load_is_rejected() {
        NetSim::new(&topo(), &NetConfig { load: f64::INFINITY, ..quiet() });
    }

    #[test]
    #[should_panic(expected = "jitter fraction must be non-negative")]
    fn negative_jitter_is_rejected() {
        NetSim::new(&topo(), &NetConfig { jitter_frac: -0.1, ..quiet() });
    }
}
