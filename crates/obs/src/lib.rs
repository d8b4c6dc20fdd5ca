//! `fpna-obs` — observability for the FPNA simulator stack.
//!
//! Three pillars, all always-compiled and **off by default**:
//!
//! * [`counters`] — global event counters (heap push/pop, pool
//!   recycling, route lookups, wire bytes) behind a single
//!   `AtomicBool`. The disabled path is one predictable-branch load;
//!   callers on hot loops cache the flag once per run and flush local
//!   tallies at the end.
//! * [`trace`] — span/instant records on the **simulated** timeline,
//!   exported as Chrome trace-event JSON that Perfetto opens directly.
//!   Events buffer per thread and export in a canonical order, so the
//!   rendered trace is a pure function of `(seed, config)` regardless
//!   of worker-thread scheduling.
//! * [`profile`] — wall-clock phase statistics (scoped spans plus
//!   log2-bucketed histograms such as heap-pop time per offered-load
//!   level), aggregated into a JSON report under `target/obs/`.
//!
//! [`json`] is the suite's one JSON reader and writer. The trace and
//! profile reports escape through it, and the sweep store and the
//! bench gate read and write their files with it.
//!
//! The cardinal rule: enabling any pillar must not perturb simulation
//! results. Nothing here feeds back into seeds, orderings, or event
//! timestamps; a property test in `fpna-collectives` holds the stack
//! to bitwise identity with observability on vs off.

pub mod counters;
pub mod json;
pub mod profile;
pub mod trace;
