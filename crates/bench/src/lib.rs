//! # fpna-bench
//!
//! Regenerators for every table and figure in the paper, plus shared
//! experiment plumbing. Each `table*`/`fig*` binary prints the same
//! rows/series the paper reports; `EXPERIMENTS.md` records
//! paper-vs-measured for each.
//!
//! All binaries accept `--runs`, `--arrays`, `--models`, … style
//! overrides; defaults are scaled down from the paper's (e.g. 10 000
//! runs → hundreds) so a full regeneration finishes in minutes on a
//! laptop. Scaling factors are documented per experiment in
//! `EXPERIMENTS.md`.
//!
//! Two flags are shared by every binary (see [`ExperimentArgs`]):
//!
//! * `--threads N` — one shared worker budget: repeated runs fan out
//!   across `N` OS threads through
//!   [`fpna_core::executor::RunExecutor`], and a *single* large run
//!   (one reduction replay, one epoch, one event-driven allreduce)
//!   fans its hot kernels across the same `N` via the intra-run
//!   primitives ([`fpna_core::executor::par_chunk_map`] /
//!   [`fpna_core::executor::par_fill`]); inside a run-fan-out worker
//!   the intra-run layer collapses to serial, so the two never
//!   oversubscribe. Defaults to the `FPNA_THREADS` environment
//!   variable, then 1. Any value produces **bitwise-identical
//!   output**: run seeding, chunk boundaries and result collection are
//!   order-invariant by construction, so `--threads` only changes
//!   wall-clock time.
//! * `--paper-scale` — switch run counts / array counts to the paper's
//!   full experiment sizes (e.g. Table 5's 10 000 runs per
//!   configuration) instead of the seconds-scale defaults. Explicit
//!   size flags (`--runs`, `--arrays`, …) still win.
//!
//! Two more are observability switches (off by default, see
//! [`fpna_obs`]):
//!
//! * `--trace out.json` — record every simulated-clock event (message
//!   hops, background bursts, admission drops, per-rank combines) as a
//!   Chrome trace-event / Perfetto JSON file. Purely simulated time:
//!   the trace bytes are a deterministic function of the experiment
//!   seed, not of the machine or thread count.
//! * `--profile` — enable the event counters and wall-clock phase
//!   profiler; the report lands in `target/obs/<bin>.profile.json`.
//!
//! Both report to **stderr** only, so stdout stays byte-identical with
//! and without them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::PathBuf;

use fpna_core::executor::RunExecutor;
use fpna_sweep::SweepMode;

/// Shared per-binary experiment arguments: worker threads, the
/// paper-scale preset switch, and the observability switches.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Worker thread count for repeated-run loops (`--threads`,
    /// default `FPNA_THREADS`, default 1).
    pub threads: usize,
    /// `--paper-scale`: use the paper's full experiment sizes.
    pub paper_scale: bool,
    /// `--trace out.json`: record a simulated-clock Chrome/Perfetto
    /// trace and write it here on [`ExperimentArgs::finish`].
    pub trace: Option<PathBuf>,
    /// `--profile`: enable counters + wall-clock phase profiling; the
    /// JSON report lands in `target/obs/<bin>.profile.json`.
    pub profile: bool,
    /// Which [`SweepMode`] the process runs in (`--emit-spec`,
    /// `--shard-id …`, `--from-shards …`, or plain Full mode). Drives
    /// the `sweep` coordinator's process sharding; in shard mode the
    /// observability outputs are namespaced per shard (see
    /// [`ExperimentArgs::finish`]) so concurrent shard processes of
    /// the same binary never clobber each other under `target/obs/`.
    pub sweep: SweepMode,
}

impl ExperimentArgs {
    /// Parse `--threads` / `--paper-scale` from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--threads` is given a non-positive or unparsable
    /// value.
    pub fn parse() -> Self {
        let threads = arg_usize("threads", RunExecutor::from_env().threads);
        assert!(threads > 0, "--threads expects a positive integer");
        // One flag, one budget: the same worker count drives the
        // repeated-run fan-out (RunExecutor) and the intra-run kernel
        // primitives; nesting collapses to serial inside workers, so
        // the two never multiply.
        fpna_core::executor::set_intra_threads(threads);
        let trace = arg_string("trace").map(PathBuf::from);
        if trace.is_some() {
            fpna_obs::trace::start();
        }
        let profile = arg_flag("profile");
        if profile {
            fpna_obs::counters::reset();
            fpna_obs::counters::set_enabled(true);
            fpna_obs::profile::reset();
            fpna_obs::profile::set_enabled(true);
        }
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let sweep = SweepMode::from_args_or_exit(&argv);
        if profile {
            if let Some(id) = sweep.shard_id() {
                fpna_obs::profile::set_context(Some(format!("shard-{id}")));
            }
        }
        ExperimentArgs {
            threads,
            paper_scale: arg_flag("paper-scale"),
            trace,
            profile,
            sweep,
        }
    }

    /// `true` when this process prints a report on stdout (Full or
    /// merge mode). Shard and `--emit-spec` processes must keep stdout
    /// silent apart from the protocol payload, so binaries guard every
    /// `println!` on this.
    pub fn reporting(&self) -> bool {
        self.sweep.reports()
    }

    /// Flush the observability outputs requested on the command line:
    /// the Chrome/Perfetto trace to `--trace`'s path and the profile
    /// report to `target/obs/<bin>.profile.json`. Call once at the end
    /// of `main` (before any early `exit`). All messaging goes to
    /// stderr so stdout stays byte-identical with and without the
    /// observability flags.
    /// In shard mode, reports additionally carry a `.shard-<id>`
    /// suffix (`target/obs/<bin>.shard-<id>.profile.json`, and
    /// `--trace out.json` becomes `out.shard-<id>.json`) so concurrent
    /// shard processes of the same binary cannot overwrite each
    /// other's files.
    pub fn finish(&self) {
        if let Some(path) = &self.trace {
            let path = self.shard_qualified(path);
            match fpna_obs::trace::write_json(&path) {
                Ok(n) => eprintln!("[obs] trace: {n} events -> {}", path.display()),
                Err(e) => eprintln!("[obs] trace: FAILED writing {}: {e}", path.display()),
            }
            fpna_obs::trace::stop();
        }
        if self.profile {
            let name = match self.sweep.shard_id() {
                Some(id) => format!("{}.shard-{id}.profile.json", bin_name()),
                None => format!("{}.profile.json", bin_name()),
            };
            let path = PathBuf::from("target/obs").join(name);
            match fpna_obs::profile::write_report(&path) {
                Ok(()) => eprintln!("[obs] profile report -> {}", path.display()),
                Err(e) => eprintln!("[obs] profile: FAILED writing {}: {e}", path.display()),
            }
        }
    }

    /// Insert `.shard-<id>` before `path`'s extension when running as
    /// a shard; the unchanged path otherwise.
    fn shard_qualified(&self, path: &std::path::Path) -> PathBuf {
        let Some(id) = self.sweep.shard_id() else {
            return path.to_path_buf();
        };
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_extension(format!("shard-{id}.{ext}")),
            None => path.with_extension(format!("shard-{id}")),
        }
    }

    /// The executor running this binary's repeated-run loops.
    pub fn executor(&self) -> RunExecutor {
        RunExecutor::new(self.threads)
    }

    /// An experiment size: the explicit `--name` flag when present,
    /// else the paper's size under `--paper-scale`, else the
    /// seconds-scale default.
    pub fn size(&self, name: &str, default: usize, paper: usize) -> usize {
        match arg_value(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v}")),
            None if self.paper_scale => paper,
            None => default,
        }
    }

    /// The scale label for banners: which preset is active.
    pub fn scale_label(&self) -> &'static str {
        if self.paper_scale {
            "paper-scale"
        } else {
            "scaled-down default"
        }
    }
}

/// The current binary's file stem (`table9`, `fig1`, …), for naming
/// per-binary artifacts such as profile reports.
fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .and_then(|a| std::path::Path::new(a).file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "experiment".to_string())
}

/// `true` when `--name` appears as a bare flag in the process
/// arguments.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Parse `--name value` from the process arguments, with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_value(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v}"))
        })
        .unwrap_or(default)
}

/// Parse `--name value` as u64.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    arg_value(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v}"))
        })
        .unwrap_or(default)
}

/// Parse `--name value` as a raw string (e.g. for comma-separated
/// lists a binary splits itself).
pub fn arg_string(name: &str) -> Option<String> {
    arg_value(name)
}

fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(rest) = a.strip_prefix(&format!("{flag}=")) {
            return Some(rest.to_string());
        }
    }
    None
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, scaling_note: &str) {
    println!("=== {id} — {paper_ref} ===");
    if !scaling_note.is_empty() {
        println!("({scaling_note})");
    }
    println!();
}

/// Render a sparse ASCII heat map of `values[row][col]` with row/col
/// labels — the Fig 3 output format.
pub fn ascii_heatmap(row_labels: &[String], col_labels: &[String], values: &[Vec<f64>]) -> String {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = values
        .iter()
        .flatten()
        .copied()
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::new();
    let label_w = row_labels.iter().map(|l| l.len()).max().unwrap_or(0);
    for (r, row) in values.iter().enumerate() {
        let _ = write!(out, "{:>label_w$} |", row_labels[r]);
        for &v in row {
            let idx = ((v / max) * (shades.len() - 1) as f64).round() as usize;
            let c = shades[idx.min(shades.len() - 1)];
            let _ = write!(out, " {c}{c}");
        }
        let _ = writeln!(out, " |");
    }
    let _ = write!(out, "{:>label_w$}  ", "");
    for l in col_labels {
        let _ = write!(out, " {:>2}", &l[..l.len().min(2)]);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "(shade ∝ value; max = {max:.3e})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_renders() {
        let rows = vec!["a".to_string(), "bb".to_string()];
        let cols = vec!["1".to_string(), "2".to_string()];
        let vals = vec![vec![0.0, 0.5], vec![1.0, 0.25]];
        let s = ascii_heatmap(&rows, &cols, &vals);
        assert!(s.contains('@'), "max cell should be darkest: {s}");
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn args_fall_back_to_defaults() {
        assert_eq!(arg_usize("definitely-not-passed", 42), 42);
        assert_eq!(arg_u64("also-not-passed", 7), 7);
        assert!(!arg_flag("definitely-not-passed"));
    }

    #[test]
    fn experiment_args_pick_preset_sizes() {
        let scaled = ExperimentArgs {
            threads: 1,
            paper_scale: false,
            trace: None,
            profile: false,
            sweep: SweepMode::Full,
        };
        assert_eq!(scaled.size("not-a-flag", 40, 10_000), 40);
        assert_eq!(scaled.scale_label(), "scaled-down default");
        assert!(scaled.reporting());
        let paper = ExperimentArgs {
            threads: 4,
            paper_scale: true,
            trace: None,
            profile: false,
            sweep: SweepMode::Full,
        };
        assert_eq!(paper.size("not-a-flag", 40, 10_000), 10_000);
        assert_eq!(paper.executor().threads, 4);
        assert_eq!(paper.scale_label(), "paper-scale");
    }

    #[test]
    fn shard_mode_namespaces_obs_outputs() {
        let shard = ExperimentArgs {
            threads: 1,
            paper_scale: false,
            trace: None,
            profile: false,
            sweep: SweepMode::Shard { id: 3, start: 0, end: 5, out: None },
        };
        assert!(!shard.reporting());
        assert_eq!(
            shard.shard_qualified(std::path::Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.shard-3.json")
        );
        assert_eq!(
            shard.shard_qualified(std::path::Path::new("trace")),
            PathBuf::from("trace.shard-3")
        );
        let full = ExperimentArgs { sweep: SweepMode::Full, ..shard };
        assert_eq!(
            full.shard_qualified(std::path::Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.json")
        );
    }
}
