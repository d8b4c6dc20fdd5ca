//! `sweep` — the fleet-scale experiment coordinator.
//!
//! ```text
//! sweep --bin <experiment> [--shards N] [--jobs J] [--store DIR]
//!       [--bin-dir DIR] [--refresh] [--no-cache] [--manifest PATH]
//!       -- <experiment args...>
//! ```
//!
//! Shards the experiment's runs across OS processes, resumes from any
//! shard files already in the store, merges in shard-index order, and
//! prints a report **byte-identical** to running the experiment binary
//! directly with the same arguments. Progress goes to stderr; stdout
//! carries only the merged report.
//!
//! `--manifest PATH` writes the `(shard_id, base_seed, run_range)`
//! manifest JSON (or prints it for `-`) instead of running — the
//! hand-off format for splitting one sweep across machines.
//!
//! Store hygiene (no `--bin` needed):
//!
//! ```text
//! sweep --list [--store DIR]
//! sweep --gc [--max-age AGE] [--max-bytes SIZE] [--store DIR]
//! ```
//!
//! `--list` prints one line per stored sweep (spec hash, experiment,
//! runs, shard files, completeness, cached report, size, age).
//! `--gc` removes entries older than `--max-age` (suffixes `s`/`m`/
//! `h`/`d`, default seconds), then — if the store still exceeds
//! `--max-bytes` (suffixes `k`/`m`/`g`) — evicts incomplete entries
//! oldest-first, then complete ones. A spec-complete shard set newer
//! than the age cutoff is only ever removed by the byte budget.

use std::process::exit;
use std::time::{Duration, SystemTime};

use fpna_sweep::cli::{usage_error, Args};
use fpna_sweep::coordinator::Coordinator;
use fpna_sweep::store::SweepStore;

fn usage() -> ! {
    eprintln!(
        "usage: sweep --bin <experiment> [--shards N] [--jobs J] [--store DIR] \
         [--bin-dir DIR] [--refresh] [--no-cache] [--manifest PATH] -- <experiment args...>\n\
         \x20      sweep --list [--store DIR]\n\
         \x20      sweep --gc [--max-age AGE] [--max-bytes SIZE] [--store DIR]"
    );
    exit(2)
}

/// Parse a duration: plain seconds, or a number with an `s`/`m`/`h`/`d`
/// suffix.
fn parse_age(s: &str) -> Result<Duration, String> {
    let (num, scale) = match s.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let scale = match c.to_ascii_lowercase() {
                's' => 1u64,
                'm' => 60,
                'h' => 3600,
                'd' => 86_400,
                other => return Err(format!("unknown age suffix {other:?}")),
            };
            (&s[..i], scale)
        }
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| Duration::from_secs(n * scale))
        .map_err(|e| format!("bad age {s:?}: {e}"))
}

/// Parse a size: plain bytes, or a number with a `k`/`m`/`g` suffix.
fn parse_size(s: &str) -> Result<u64, String> {
    let (num, scale) = match s.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let scale = match c.to_ascii_lowercase() {
                'k' => 1u64 << 10,
                'm' => 1 << 20,
                'g' => 1 << 30,
                other => return Err(format!("unknown size suffix {other:?}")),
            };
            (&s[..i], scale)
        }
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| n * scale)
        .map_err(|e| format!("bad size {s:?}: {e}"))
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn human_age(newest: SystemTime, now: SystemTime) -> String {
    let secs = now.duration_since(newest).map(|d| d.as_secs()).unwrap_or(0);
    if secs >= 86_400 {
        format!("{}d", secs / 86_400)
    } else if secs >= 3600 {
        format!("{}h", secs / 3600)
    } else if secs >= 60 {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

fn list_store(store: &SweepStore) -> i32 {
    let entries = match store.list_entries() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", store.root().display());
            return 1;
        }
    };
    if entries.is_empty() {
        println!("store {} is empty", store.root().display());
        return 0;
    }
    let now = SystemTime::now();
    println!(
        "{:<16}  {:<12} {:>6} {:>6}  {:<10} {:>9} {:>5}  report",
        "spec", "experiment", "runs", "shards", "state", "size", "age"
    );
    for e in &entries {
        let (exp, runs) = match &e.spec {
            Some(s) => (s.experiment.clone(), s.runs.to_string()),
            None => ("?".into(), "?".into()),
        };
        println!(
            "{:<16}  {:<12} {:>6} {:>6}  {:<10} {:>9} {:>5}  {}",
            e.hash,
            exp,
            runs,
            e.shard_count,
            if e.complete { "complete" } else { "incomplete" },
            human_bytes(e.total_bytes),
            human_age(e.newest_mtime, now),
            if e.has_report { "yes" } else { "no" }
        );
    }
    let total: u64 = entries.iter().map(|e| e.total_bytes).sum();
    println!("{} entries, {}", entries.len(), human_bytes(total));
    0
}

fn gc_store(store: &SweepStore, max_age: Option<Duration>, max_bytes: Option<u64>) -> i32 {
    if max_age.is_none() && max_bytes.is_none() {
        eprintln!("error: --gc needs --max-age and/or --max-bytes");
        return 2;
    }
    match store.gc(max_age, max_bytes, SystemTime::now()) {
        Ok(out) => {
            for hash in &out.removed {
                eprintln!("removed {hash}");
            }
            println!(
                "gc: removed {} entries ({}), kept {} ({})",
                out.removed.len(),
                human_bytes(out.freed_bytes),
                out.kept,
                human_bytes(out.kept_bytes)
            );
            0
        }
        Err(e) => {
            eprintln!("error: gc failed: {e}");
            1
        }
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().collect();
    let user_args = match argv.iter().position(|a| a == "--") {
        Some(i) => argv.split_off(i).split_off(1),
        None => Vec::new(),
    };
    let mut args: Args = argv.into_iter().collect();
    if args.flag("help") {
        usage()
    }
    let bin: Option<String> = args.value("bin", "an experiment binary");
    let shards = args.value("shards", "an integer").unwrap_or(2usize);
    let jobs: Option<usize> = args.value("jobs", "an integer");
    let store: Option<String> = args.value("store", "a directory");
    let bin_dir: Option<String> = args.value("bin-dir", "a directory");
    let refresh = args.flag("refresh");
    let no_cache = args.flag("no-cache");
    let manifest: Option<String> = args.value("manifest", "a path or -");
    let list = args.flag("list");
    let gc = args.flag("gc");
    let max_age = args.value::<String>("max-age", "an age").map(|v| {
        parse_age(&v).unwrap_or_else(|e| usage_error(format!("--max-age: {e}")))
    });
    let max_bytes = args.value::<String>("max-bytes", "a size").map(|v| {
        parse_size(&v).unwrap_or_else(|e| usage_error(format!("--max-bytes: {e}")))
    });
    args.finish();
    if list || gc {
        if bin.is_some() {
            eprintln!("error: --list/--gc do not take --bin");
            usage()
        }
        let store = store.map(SweepStore::new).unwrap_or_else(SweepStore::default_root);
        let code = if list {
            list_store(&store)
        } else {
            gc_store(&store, max_age, max_bytes)
        };
        exit(code)
    }
    if max_age.is_some() || max_bytes.is_some() {
        eprintln!("error: --max-age/--max-bytes only apply to --gc");
        usage()
    }
    let Some(bin) = bin else {
        eprintln!("error: --bin is required");
        usage()
    };
    if shards == 0 {
        eprintln!("error: --shards must be at least 1");
        usage()
    }

    let mut coordinator = Coordinator::new(bin, user_args, shards);
    if let Some(j) = jobs {
        coordinator.jobs = j.max(1);
    }
    if let Some(dir) = store {
        coordinator.store = SweepStore::new(dir);
    }
    coordinator.bin_dir = bin_dir.map(Into::into);
    coordinator.refresh = refresh;
    coordinator.no_cache = no_cache;

    if let Some(path) = manifest {
        let text = coordinator.manifest().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1)
        });
        if path == "-" {
            println!("{text}");
        } else if let Err(e) =
            fpna_sweep::store::write_atomic(std::path::Path::new(&path), text.as_bytes())
        {
            eprintln!("error: cannot write manifest: {e}");
            exit(1)
        }
        return;
    }

    match coordinator.run() {
        Ok(outcome) => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&outcome.report)
                .expect("writing report to stdout");
            exit(outcome.merge_status);
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}
