//! # fpna-bench
//!
//! Regenerators for every table and figure in the paper, plus shared
//! experiment plumbing. Each `table*`/`fig*` binary prints the same
//! rows/series the paper reports; README's "Paper figures and tables →
//! binaries" maps each binary to the artifact it reproduces.
//!
//! All binaries accept `--runs`, `--arrays`, `--models`, … style
//! overrides; defaults are scaled down from the paper's (e.g. 10 000
//! runs → hundreds) so a full regeneration finishes in minutes on a
//! laptop. Each binary's header comment gives its default and
//! paper-scale sizes.
//!
//! Every binary reads its command line once, through [`Cli`]. Four
//! flags are shared by every fig/table binary:
//!
//! * `--threads N` — one worker budget, set on the main thread by
//!   [`Cli::start`] ([`fpna_core::executor::set_threads`]): repeated
//!   runs fan out across `N` OS threads through
//!   [`fpna_core::executor::map_runs`], and a *single* large run (one
//!   reduction replay, one epoch, one event-driven allreduce) fans its
//!   hot kernels across the same `N` through
//!   [`fpna_core::executor::par_fill`]; a fan-out started inside a
//!   worker runs serially, so the two never oversubscribe. Defaults to
//!   the `FPNA_THREADS` environment variable, then 1; the variable,
//!   when set, must also be a positive integer. Any value produces
//!   **bitwise-identical output**: run seeding, chunk boundaries and
//!   result collection are order-invariant by construction, so
//!   `--threads` only changes wall-clock time.
//! * `--paper-scale` — switch run counts / array counts to the paper's
//!   full experiment sizes (e.g. Table 5's 10 000 runs per
//!   configuration) instead of the seconds-scale defaults. Explicit
//!   size flags (`--runs`, `--arrays`, …) still win.
//! * `--trace out.json` — record every simulated-clock event (message
//!   hops, background bursts, admission drops, per-rank combines) as a
//!   Chrome trace-event / Perfetto JSON file. Purely simulated time:
//!   the trace bytes are a deterministic function of the experiment
//!   seed, not of the machine or thread count.
//! * `--profile` — enable the event counters and wall-clock phase
//!   profiler; the report lands in `target/obs/<bin>.profile.json`.
//!
//! The two observability switches (see [`fpna_obs`]) report to
//! **stderr** only, so stdout stays byte-identical with and without
//! them.
//!
//! `fig1`, `table2`, `table5`, `table7` and `table9` also speak the
//! sweep protocol (`--emit-spec`, `--shard-*`, `--from-shards`; see
//! [`Cli::sweep`]).
//!
//! Each binary accepts only the flags it reads. An unknown argument,
//! or a flag given a value it cannot use (`--runs abc`,
//! `--threads 0`, `fig4 --runs 1`), ends the process with one
//! `error: …` line on stderr and exit status 2, before anything is
//! printed on stdout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use fpna_core::executor::THREADS_ENV;
use fpna_gpu_sim::GpuModel;
use fpna_stats::bootstrap::bootstrap_mean;
pub use fpna_sweep::cli::usage_error;
use fpna_sweep::cli::Args;
use fpna_sweep::{SweepMode, SweepRows, SweepSpec};
use fpna_tensor::sweep::{ratio_experiment, RatioOp};

/// One experiment binary's command line: the shared flags, read on
/// [`Cli::parse`], and the binary's own flags, read through the
/// getters. [`Cli::start`] (or [`Cli::sweep`]) then rejects every
/// argument no getter read.
#[derive(Debug)]
pub struct Cli {
    args: Args,
    threads: usize,
    paper_scale: bool,
    trace: Option<PathBuf>,
    profile: bool,
    /// The shard id in shard mode, which namespaces the obs outputs.
    shard: Option<usize>,
}

impl Cli {
    /// Read the process arguments and the shared flags. A `--threads`,
    /// or else an `FPNA_THREADS`, that is not a positive integer is a
    /// [`usage_error`].
    pub fn parse() -> Cli {
        Cli::from_args(Args::from_env())
    }

    fn from_args(mut args: Args) -> Cli {
        // `--threads` wins over `FPNA_THREADS`; one parser reads both,
        // and with neither the run is serial.
        let flag = args
            .value("threads", "a positive integer")
            .map(|v| ("--threads", v));
        let env = || {
            let v = std::env::var_os(THREADS_ENV)?;
            Some((THREADS_ENV, v.to_string_lossy().into_owned()))
        };
        let threads = flag.or_else(env).map_or(1, |(source, v)| match v.parse() {
            Ok(t) if t > 0 => t,
            _ => usage_error(format!("{source} expects a positive integer, got {v:?}")),
        });
        Cli {
            threads,
            paper_scale: args.flag("paper-scale"),
            trace: args.value("trace", "a path"),
            profile: args.flag("profile"),
            shard: None,
            args,
        }
    }

    /// The value of `--name`, parsed, or `None` when it is absent. A
    /// value that does not parse is a [`usage_error`] saying the flag
    /// `expects` something else.
    pub fn value<T: FromStr>(&mut self, name: &str, expects: &str) -> Option<T> {
        self.args.value(name, expects)
    }

    /// The integer value of `--name`, else `default`.
    pub fn int<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.value(name, "an integer").unwrap_or(default)
    }

    /// An experiment size: the explicit `--name` flag when present,
    /// else the paper's size under `--paper-scale`, else the
    /// seconds-scale default.
    pub fn size(&mut self, name: &str, default: usize, paper: usize) -> usize {
        let preset = if self.paper_scale { paper } else { default };
        self.int(name, preset)
    }

    /// `--name a,b,…` as a list of `expects` (e.g. `"integers"`), else
    /// `default`. Every element must parse.
    pub fn list<T: FromStr>(&mut self, name: &str, expects: &str, default: Vec<T>) -> Vec<T> {
        let Some(list) = self.value::<String>(name, expects) else {
            return default;
        };
        list.split(',')
            .map(|v| {
                let v = v.trim();
                let bad = || usage_error(format!("--{name} expects {expects}, got {v:?}"));
                v.parse().unwrap_or_else(|_| bad())
            })
            .collect()
    }

    /// `true` when the switch `--name` is given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.args.flag(name)
    }

    /// End parsing and start the experiment: reject every argument no
    /// getter read, set the calling thread's worker budget and start
    /// the requested recorders. Call on the main thread, after the last
    /// getter and before any output.
    pub fn start(&mut self) {
        self.args.finish();
        // One flag, one budget: every fan-out on this thread reads it,
        // and fan-outs nested inside a worker run serially, so the
        // repeated-run loops and the kernels inside them never multiply.
        fpna_core::executor::set_threads(self.threads);
        if self.trace.is_some() {
            fpna_obs::trace::start();
        }
        if self.profile {
            fpna_obs::counters::reset();
            fpna_obs::counters::set_enabled(true);
            fpna_obs::profile::reset();
            fpna_obs::profile::set_enabled(true);
            if let Some(id) = self.shard {
                fpna_obs::profile::set_context(Some(format!("shard-{id}")));
            }
        }
    }

    /// Flush the observability outputs requested on the command line:
    /// the Chrome/Perfetto trace to `--trace`'s path and the profile
    /// report to `target/obs/<bin>.profile.json`. Call once at the end
    /// of `main`. All messaging goes to stderr so stdout stays
    /// byte-identical with and without the observability flags.
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
            let path = self.profile_path();
            match fpna_obs::profile::write_report(&path) {
                Ok(()) => eprintln!("[obs] profile report -> {}", path.display()),
                Err(e) => eprintln!("[obs] profile: FAILED writing {}: {e}", path.display()),
            }
        }
    }

    /// Run an experiment that speaks the sweep protocol. Reads the
    /// protocol flags (`--emit-spec`, `--shard-id N --shard-start A
    /// --shard-end B [--shard-out PATH]`, `--from-shards DIR`), starts
    /// the experiment, hands `spec`, `compute` and `report` to
    /// [`SweepMode::run`], flushes the observability outputs and
    /// returns the exit status. `compute(range)` computes the rows of
    /// the global runs in `range`; `report` prints the report and
    /// returns whether the experiment's own checks passed.
    pub fn sweep(
        mut self,
        spec: &SweepSpec,
        compute: impl FnOnce(Range<usize>) -> SweepRows,
        report: impl FnOnce(&SweepRows) -> bool,
    ) -> ExitCode {
        let mode = SweepMode::from_args(&mut self.args);
        if let SweepMode::Shard { id, .. } = mode {
            self.shard = Some(id);
        }
        self.start();
        let status = mode.run(spec, compute, report);
        // An emit-spec process runs nothing, so it must not overwrite
        // the obs files of the runs it describes.
        if mode != SweepMode::EmitSpec {
            self.finish();
        }
        status
    }

    /// `target/obs/<bin>.profile.json`, or
    /// `target/obs/<bin>.shard-<id>.profile.json` in shard mode.
    fn profile_path(&self) -> PathBuf {
        let shard = self.shard.map(|id| format!(".shard-{id}")).unwrap_or_default();
        PathBuf::from(format!("target/obs/{}{shard}.profile.json", self.args.program()))
    }

    /// Insert `.shard-<id>` before `path`'s extension when running as
    /// a shard; the unchanged path otherwise.
    fn shard_qualified(&self, path: &Path) -> PathBuf {
        let Some(id) = self.shard else {
            return path.to_path_buf();
        };
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_extension(format!("shard-{id}.{ext}")),
            None => path.with_extension(format!("shard-{id}")),
        }
    }
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, scaling_note: &str) {
    println!("=== {id} — {paper_ref} ===");
    if !scaling_note.is_empty() {
        println!("({scaling_note})");
    }
    println!();
}

/// Print the Fig 4 / Fig 5 table: one row per reduction ratio
/// R = 0.1, …, 1.0 and one column per op (`scatter_reduce(sum)` and
/// `scatter_reduce(mean)` on 2000-element arrays, `index_add` on
/// 100 × 100), each cell the bootstrap mean ± standard error of
/// `metric(vermv, vc)` over `runs` H100 runs, with `precision`
/// decimals. `salt` keys the bootstrap resampling.
pub fn ratio_table(
    runs: usize,
    seed: u64,
    metric: impl Fn(f64, f64) -> f64,
    salt: u64,
    precision: usize,
) {
    println!(
        "{:>4}  {:>26}  {:>26}  {:>26}",
        "R", "scatter reduce(sum)", "scatter reduce(mean)", "index add"
    );
    for r10 in 1..=10 {
        let r = r10 as f64 / 10.0;
        let mut cells = Vec::new();
        for (op, dim) in [
            (RatioOp::ScatterReduceSum, 2000usize),
            (RatioOp::ScatterReduceMean, 2000),
            (RatioOp::IndexAdd, 100),
        ] {
            let report = ratio_experiment(GpuModel::H100, op, dim, r, runs, seed ^ r10);
            let xs: Vec<f64> = report
                .per_run
                .iter()
                .map(|&(vermv, vc)| metric(vermv, vc))
                .collect();
            let b = bootstrap_mean(&xs, 200, seed ^ salt);
            cells.push(format!(
                "{:.precision$} +- {:.precision$}",
                b.estimate, b.std_error
            ));
        }
        println!(
            "{:>4.1}  {:>26}  {:>26}  {:>26}",
            r, cells[0], cells[1], cells[2]
        );
    }
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

    fn cli(argv: &[&str]) -> Cli {
        Cli::from_args(std::iter::once("table9").chain(argv.iter().copied()).collect())
    }

    #[test]
    fn args_fall_back_to_defaults() {
        let mut cli = cli(&["--threads", "2"]);
        assert_eq!(cli.int("definitely-not-passed", 42usize), 42);
        assert_eq!(cli.int("also-not-passed", 7u64), 7);
        assert!(!cli.flag("definitely-not-passed"));
        assert_eq!(cli.list("segments", "integers", vec![1usize]), [1]);
        assert_eq!(cli.threads, 2);
    }

    #[test]
    fn experiment_args_pick_preset_sizes() {
        let mut scaled = cli(&["--runs", "7"]);
        assert_eq!(scaled.size("arrays", 40, 10_000), 40);
        assert_eq!(scaled.size("runs", 40, 10_000), 7);
        let mut paper = cli(&["--paper-scale", "--threads=4", "--runs=7"]);
        assert_eq!(paper.size("arrays", 40, 10_000), 10_000);
        assert_eq!(paper.size("runs", 40, 10_000), 7, "an explicit size beats the preset");
        assert_eq!(paper.threads, 4);
    }

    #[test]
    fn shard_mode_namespaces_obs_outputs() {
        let mut shard = cli(&[]);
        shard.shard = Some(3);
        assert_eq!(
            shard.shard_qualified(Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.shard-3.json")
        );
        assert_eq!(
            shard.shard_qualified(Path::new("trace")),
            PathBuf::from("trace.shard-3")
        );
        assert_eq!(shard.profile_path(), PathBuf::from("target/obs/table9.shard-3.profile.json"));
        let full = cli(&[]);
        assert_eq!(
            full.shard_qualified(Path::new("target/obs/t9.json")),
            PathBuf::from("target/obs/t9.json")
        );
        assert_eq!(full.profile_path(), PathBuf::from("target/obs/table9.profile.json"));
    }
}
