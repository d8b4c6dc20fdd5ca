//! The sharding protocol experiment binaries speak.
//!
//! Any binary wired through [`SweepMode`] gains four modes from one
//! small flag set, while staying the single source of truth for its
//! own spec:
//!
//! * **Full** (no protocol flags): compute every run and print the
//!   report — exactly the pre-sweep behaviour.
//! * **`--emit-spec`**: print the canonical [`SweepSpec`] JSON on
//!   stdout and exit. The coordinator calls this instead of guessing a
//!   binary's flags.
//! * **`--shard-id N --shard-start A --shard-end B [--shard-out PATH]`**:
//!   compute only global runs `[A, B)`, write a self-describing shard
//!   file, print **nothing** on stdout.
//! * **`--from-shards STORE_ROOT`**: skip all computation, load and
//!   merge the shard files for this spec from the store, and print the
//!   report — byte-identical to Full mode's output.
//!
//! A binary reads every flag, these included, through one
//! [`Args`], then hands its spec and its compute and report steps to
//! [`SweepMode::run`], which sequences the mode:
//!
//! ```ignore
//! let mut args = Args::from_env();
//! let mode = SweepMode::from_args(&mut args);
//! let runs = args.value("runs", "an integer").unwrap_or(12);
//! args.finish();
//! mode.run(&SweepSpec::new("name", runs), compute, report)
//! ```

use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::cli::{usage_error, Args};
use crate::rows::SweepRows;
use crate::spec::SweepSpec;
use crate::store::{encode_shard, write_atomic, SweepStore};

/// Which of the four protocol modes the process is running in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepMode {
    /// Compute all runs and report (no protocol flags present).
    Full,
    /// Print the spec JSON and exit.
    EmitSpec,
    /// Compute one shard's run range and write its shard file.
    Shard {
        /// Shard index.
        id: usize,
        /// Global run range `[start, end)` to compute.
        start: usize,
        /// End of the global run range.
        end: usize,
        /// Where to write the shard file; defaults to the standard
        /// store path under `target/sweeps`.
        out: Option<PathBuf>,
    },
    /// Merge shard files from the store root and report.
    Merge {
        /// Results store root (the directory holding `<spec-hash>/`).
        root: PathBuf,
    },
}

impl SweepMode {
    /// Read the protocol flags from `args`. Only binaries that speak
    /// the protocol call this, so only they accept the flags. A
    /// malformed combination is a [`usage_error`].
    pub fn from_args(args: &mut Args) -> SweepMode {
        SweepMode::parse(args).unwrap_or_else(|e| usage_error(e))
    }

    fn parse(args: &mut Args) -> Result<SweepMode, String> {
        let emit = args.flag("emit-spec");
        let id = args.value("shard-id", "an integer");
        let start = args.value("shard-start", "an integer");
        let end = args.value("shard-end", "an integer");
        let out = args.value("shard-out", "a path");
        let root = args.value("from-shards", "a directory");
        if usize::from(emit) + usize::from(id.is_some()) + usize::from(root.is_some()) > 1 {
            return Err("--emit-spec, --shard-id and --from-shards are mutually exclusive".into());
        }
        match (id, (start, end)) {
            (Some(id), (Some(start), Some(end))) if start <= end => {
                Ok(SweepMode::Shard { id, start, end, out })
            }
            (Some(_), (Some(start), Some(end))) => {
                Err(format!("--shard-end {end} < --shard-start {start}"))
            }
            (Some(_), _) => Err("--shard-id requires --shard-start and --shard-end".into()),
            (None, (None, None)) if out.is_none() => Ok(match root {
                Some(root) => SweepMode::Merge { root },
                None if emit => SweepMode::EmitSpec,
                None => SweepMode::Full,
            }),
            (None, _) => Err("--shard-start, --shard-end and --shard-out need --shard-id".into()),
        }
    }

    /// Run one experiment in this mode and return the exit status.
    /// `compute(range)` computes the rows of the global runs in
    /// `range`; `report(rows)` prints the report and returns whether
    /// the experiment's own checks passed. A failed check exits 1, as
    /// do a shard set that is missing, corrupt or not an exact
    /// partition and a shard file that cannot be written. A shard range
    /// past `spec.runs` (the coordinator and the binary disagree about
    /// the spec) exits 2.
    pub fn run(
        &self,
        spec: &SweepSpec,
        compute: impl FnOnce(Range<usize>) -> SweepRows,
        report: impl FnOnce(&SweepRows) -> bool,
    ) -> ExitCode {
        let rows = match self {
            SweepMode::EmitSpec => {
                println!("{}", spec.canonical_json());
                return ExitCode::SUCCESS;
            }
            SweepMode::Full => compute(0..spec.runs),
            SweepMode::Shard { id, start, end, out } => {
                let (id, range, runs) = (*id, *start..*end, spec.runs);
                if range.end > runs {
                    eprintln!("error: shard range {range:?} exceeds the spec's {runs} runs");
                    return ExitCode::from(2);
                }
                let rows = compute(range.clone());
                let store_path = || SweepStore::default_root().shard_path(spec, id);
                let path = out.clone().unwrap_or_else(store_path);
                return match write_atomic(&path, encode_shard(spec, id, range, &rows).as_bytes()) {
                    Ok(()) => {
                        eprintln!(
                            "shard {id} [{start}..{end}) of spec {} -> {}",
                            spec.hash_hex(),
                            path.display()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: cannot write shard file: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            SweepMode::Merge { root } => match SweepStore::new(root).load_merged(spec) {
                Ok(rows) => rows,
                Err(e) => {
                    eprintln!("error: cannot merge shards for spec {}: {e}", spec.hash_hex());
                    return ExitCode::FAILURE;
                }
            },
        };
        if report(&rows) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(s: &[&str]) -> Result<SweepMode, String> {
        let mut args: Args = std::iter::once("sweep_selftest").chain(s.iter().copied()).collect();
        SweepMode::parse(&mut args)
    }

    fn spec() -> SweepSpec {
        SweepSpec::new("mode_test", 8)
    }

    fn rows(range: Range<usize>) -> SweepRows {
        let mut rows = SweepRows::new();
        for run in range {
            rows.push("c", run, vec![run as f64]);
        }
        rows
    }

    #[test]
    fn full_mode_when_no_protocol_flags() {
        assert_eq!(mode(&[]), Ok(SweepMode::Full));
        let mut seen = None;
        let status = SweepMode::Full.run(&spec(), rows, |r| {
            seen = Some(r.runs("c"));
            true
        });
        assert_eq!(status, ExitCode::SUCCESS);
        assert_eq!(seen, Some((0..8).collect()));
        assert_eq!(SweepMode::Full.run(&spec(), rows, |_| false), ExitCode::FAILURE);
    }

    #[test]
    fn shard_mode_parses_range_and_out() {
        let dir = std::env::temp_dir().join(format!("fpna-mode-shard-{}", std::process::id()));
        let out = dir.join("s1.json");
        let out_arg = format!("--shard-out={}", out.display());
        let m = mode(&["--shard-id", "1", "--shard-start=4", "--shard-end", "8", &out_arg]);
        let m = m.unwrap();
        assert_eq!(m, SweepMode::Shard { id: 1, start: 4, end: 8, out: Some(out.clone()) });
        let status = m.run(&spec(), rows, |_| panic!("shard mode must not report"));
        assert_eq!(status, ExitCode::SUCCESS);
        let text = std::fs::read_to_string(&out).unwrap();
        let shard = crate::store::decode_shard(&text).unwrap();
        assert_eq!(shard.rows.runs("c"), [4, 5, 6, 7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_mode_has_no_compute_range() {
        let root = std::env::temp_dir().join(format!("fpna-mode-merge-{}", std::process::id()));
        let m = mode(&["--from-shards", root.to_str().unwrap()]).unwrap();
        assert_eq!(m, SweepMode::Merge { root });
        let status = m.run(&spec(), |_| panic!("merge mode must not compute"), |_| true);
        assert_eq!(status, ExitCode::FAILURE, "an empty store has no shards to merge");
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(mode(&["--shard-id", "0"]).is_err());
        assert!(mode(&["--shard-start", "0", "--shard-end", "2"]).is_err());
        assert!(mode(&["--shard-id", "0", "--shard-start", "5", "--shard-end", "2"]).is_err());
        assert!(mode(&["--emit-spec", "--from-shards", "x"]).is_err());
        assert_eq!(mode(&["--emit-spec"]), Ok(SweepMode::EmitSpec));
    }

    #[test]
    fn shard_range_beyond_runs_is_a_usage_error() {
        let m = mode(&["--shard-id", "0", "--shard-start", "0", "--shard-end", "9"]).unwrap();
        let status = m.run(&spec(), |_| panic!("computed past the spec"), |_| true);
        assert_eq!(status, ExitCode::from(2));
    }
}
