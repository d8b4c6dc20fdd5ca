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
//! The intended `main` skeleton:
//!
//! ```ignore
//! let mode = SweepMode::from_args_or_exit(&raw_args);
//! let spec = /* built from parsed flags */;
//! if mode.emit_spec(&spec) { return; }
//! let rows = match mode.compute_range(spec.runs) {
//!     Some(range) => compute(range),            // Full or Shard
//!     None => mode.load_rows_or_exit(&spec),    // Merge
//! };
//! if mode.finish_shard_or_exit(&spec, &rows) { return; }
//! report(&rows);                                // Full or Merge
//! ```

use std::ops::Range;
use std::path::PathBuf;

use crate::rows::SweepRows;
use crate::spec::SweepSpec;
use crate::store::SweepStore;

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
    /// Parse the protocol flags out of an argument list. Unrelated
    /// flags are ignored (experiment binaries parse those themselves).
    pub fn from_args(args: &[String]) -> Result<SweepMode, String> {
        let value_of = |flag: &str| -> Result<Option<&String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => args
                    .get(i + 1)
                    .map(Some)
                    .ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        let usize_of = |flag: &str| -> Result<Option<usize>, String> {
            value_of(flag)?
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|e| format!("{flag} {v:?}: {e}"))
                })
                .transpose()
        };

        let emit = args.iter().any(|a| a == "--emit-spec");
        let shard_id = usize_of("--shard-id")?;
        let from_shards = value_of("--from-shards")?;

        let modes_requested =
            usize::from(emit) + usize::from(shard_id.is_some()) + usize::from(from_shards.is_some());
        if modes_requested > 1 {
            return Err(
                "--emit-spec, --shard-id and --from-shards are mutually exclusive".into(),
            );
        }

        if emit {
            return Ok(SweepMode::EmitSpec);
        }
        if let Some(root) = from_shards {
            return Ok(SweepMode::Merge {
                root: PathBuf::from(root),
            });
        }
        if let Some(id) = shard_id {
            let start =
                usize_of("--shard-start")?.ok_or("--shard-id requires --shard-start")?;
            let end = usize_of("--shard-end")?.ok_or("--shard-id requires --shard-end")?;
            if end < start {
                return Err(format!("--shard-end {end} < --shard-start {start}"));
            }
            return Ok(SweepMode::Shard {
                id,
                start,
                end,
                out: value_of("--shard-out")?.map(PathBuf::from),
            });
        }
        Ok(SweepMode::Full)
    }

    /// [`SweepMode::from_args`], exiting with status 2 and a message
    /// on stderr when the flags are malformed.
    pub fn from_args_or_exit(args: &[String]) -> SweepMode {
        SweepMode::from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// In `EmitSpec` mode: print the spec and return `true` (caller
    /// returns immediately). `false` in every other mode.
    pub fn emit_spec(&self, spec: &SweepSpec) -> bool {
        if matches!(self, SweepMode::EmitSpec) {
            println!("{}", spec.canonical_json());
            true
        } else {
            false
        }
    }

    /// The global run range this process must compute, or `None` in
    /// `Merge` mode (nothing is computed there).
    ///
    /// # Panics
    ///
    /// Panics if a shard range reaches past `total_runs` — the
    /// coordinator and the binary disagree about the spec, which must
    /// not be papered over.
    pub fn compute_range(&self, total_runs: usize) -> Option<Range<usize>> {
        match self {
            SweepMode::Full | SweepMode::EmitSpec => Some(0..total_runs),
            SweepMode::Shard { start, end, .. } => {
                assert!(
                    *end <= total_runs,
                    "shard range {start}..{end} exceeds --runs {total_runs}"
                );
                Some(*start..*end)
            }
            SweepMode::Merge { .. } => None,
        }
    }

    /// The shard id, when in shard mode.
    pub fn shard_id(&self) -> Option<usize> {
        match self {
            SweepMode::Shard { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// `true` when a report will be printed (Full or Merge mode).
    pub fn reports(&self) -> bool {
        matches!(self, SweepMode::Full | SweepMode::Merge { .. })
    }

    /// In `Merge` mode: load and merge this spec's shard files from
    /// the store, exiting with a diagnostic if they are absent,
    /// corrupt, or not an exact partition.
    ///
    /// # Panics
    ///
    /// Panics if called in a non-merge mode (`compute_range` returned
    /// a range, so there is nothing to load).
    pub fn load_rows_or_exit(&self, spec: &SweepSpec) -> SweepRows {
        let SweepMode::Merge { root } = self else {
            panic!("load_rows_or_exit outside merge mode");
        };
        match SweepStore::new(root).load_merged(spec) {
            Ok((rows, _stats)) => rows,
            Err(e) => {
                eprintln!("error: cannot merge shards for spec {}: {e}", spec.hash_hex());
                std::process::exit(1);
            }
        }
    }

    /// In `Shard` mode: write the shard file and return `true` (caller
    /// returns without reporting). `false` in every other mode.
    /// Exits with a diagnostic if the file cannot be written.
    pub fn finish_shard_or_exit(&self, spec: &SweepSpec, rows: &SweepRows) -> bool {
        let SweepMode::Shard { id, start, end, out } = self else {
            return false;
        };
        let result = match out {
            Some(path) => crate::store::write_atomic(
                path,
                crate::store::encode_shard(spec, *id, *start..*end, rows).as_bytes(),
            )
            .map(|()| path.clone()),
            None => SweepStore::default_root().write_shard(spec, *id, *start..*end, rows),
        };
        match result {
            Ok(path) => {
                eprintln!(
                    "shard {id} [{start}..{end}) of spec {} -> {}",
                    spec.hash_hex(),
                    path.display()
                );
                true
            }
            Err(e) => {
                eprintln!("error: cannot write shard file: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_mode_when_no_protocol_flags() {
        let m = SweepMode::from_args(&args(&["--runs", "8", "--seed", "3"])).unwrap();
        assert_eq!(m, SweepMode::Full);
        assert_eq!(m.compute_range(8), Some(0..8));
        assert!(m.reports());
    }

    #[test]
    fn shard_mode_parses_range_and_out() {
        let m = SweepMode::from_args(&args(&[
            "--runs", "8", "--shard-id", "1", "--shard-start", "4", "--shard-end", "8",
            "--shard-out", "/tmp/x.json",
        ]))
        .unwrap();
        assert_eq!(m.compute_range(8), Some(4..8));
        assert_eq!(m.shard_id(), Some(1));
        assert!(!m.reports());
    }

    #[test]
    fn merge_mode_has_no_compute_range() {
        let m = SweepMode::from_args(&args(&["--from-shards", "/tmp/store"])).unwrap();
        assert_eq!(m.compute_range(8), None);
        assert!(m.reports());
    }

    #[test]
    fn malformed_flags_are_rejected() {
        assert!(SweepMode::from_args(&args(&["--shard-id", "0"])).is_err());
        assert!(SweepMode::from_args(&args(&["--shard-id"])).is_err());
        assert!(SweepMode::from_args(&args(&[
            "--shard-id", "0", "--shard-start", "5", "--shard-end", "2",
        ]))
        .is_err());
        assert!(SweepMode::from_args(&args(&["--emit-spec", "--from-shards", "x"])).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn shard_range_beyond_runs_panics() {
        let m = SweepMode::from_args(&args(&[
            "--shard-id", "0", "--shard-start", "0", "--shard-end", "9",
        ]))
        .unwrap();
        let _ = m.compute_range(8);
    }
}
