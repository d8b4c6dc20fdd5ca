//! The process-sharding coordinator.
//!
//! Given an experiment binary and its arguments, the coordinator:
//!
//! 1. asks the binary for its [`SweepSpec`] (`--emit-spec`) — the
//!    binary stays the single source of truth for what it computes;
//! 2. answers from the cached merged report if the store already has
//!    one for this spec hash;
//! 3. otherwise partitions the runs with [`shard_assignments`], removes
//!    every shard file it cannot reuse (damaged, foreign, or left over
//!    from a different partition), skips every shard whose file it kept
//!    (resumability), and spawns one OS process per missing shard, at
//!    most `jobs` at a time;
//! 4. spawns the binary once more in `--from-shards` mode to merge and
//!    print the report — byte-identical to a single-process run. The
//!    merge refuses anything that is not an exact partition with one
//!    `error:` line, naming the file at fault where there is one;
//! 5. caches the report bytes for the next identical query.
//!
//! Shard boundaries and per-run seeds are pure functions of the spec,
//! so the same manifest can be split across machines: run the listed
//! shard commands anywhere, copy the shard files into one store, and
//! re-run the coordinator — completed shards are skipped and the merge
//! is unchanged.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::spec::{shard_assignments, ShardAssignment, SweepSpec};
use crate::store::SweepStore;

/// Configuration for one coordinated sweep.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Experiment binary: a bare name resolved against `bin_dir`, or a
    /// path (anything containing a separator) used as-is.
    pub bin: String,
    /// Directory holding experiment binaries. Defaults to the
    /// directory of the current executable — the coordinator normally
    /// lives next to the experiments in `target/release`.
    pub bin_dir: Option<PathBuf>,
    /// The experiment's own arguments (everything after `--`).
    pub user_args: Vec<String>,
    /// Number of shards to partition the runs into.
    pub shards: usize,
    /// Maximum concurrently running shard processes.
    pub jobs: usize,
    /// Delete this spec's store entry first and recompute everything.
    pub refresh: bool,
    /// Ignore cached shard files and the cached report; recompute all
    /// shards. (Shard files are still written — they are the merge
    /// transport — but the report cache is neither read nor written.)
    pub no_cache: bool,
    /// The results store.
    pub store: SweepStore,
}

/// What a coordinated run did and produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The spec the binary reported.
    pub spec: SweepSpec,
    /// Merged report bytes (the binary's Full-mode stdout, byte for
    /// byte).
    pub report: Vec<u8>,
    /// Shard ids that were computed this run.
    pub computed_shards: Vec<usize>,
    /// Shard ids answered from existing store files.
    pub cached_shards: Vec<usize>,
    /// `true` when the report came straight from the report cache (no
    /// shard work, no merge process).
    pub report_from_cache: bool,
    /// Exit code of the merge process (0 when the report was cached).
    /// Experiments use a non-zero exit to flag failed internal checks;
    /// the coordinator propagates it.
    pub merge_status: i32,
}

impl Coordinator {
    /// A coordinator with default store, jobs = available parallelism,
    /// and caching on.
    pub fn new(bin: impl Into<String>, user_args: Vec<String>, shards: usize) -> Self {
        Coordinator {
            bin: bin.into(),
            bin_dir: None,
            user_args,
            shards,
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            refresh: false,
            no_cache: false,
            store: SweepStore::default_root(),
        }
    }

    fn resolve_bin(&self) -> Result<PathBuf, String> {
        if self.bin.contains(std::path::MAIN_SEPARATOR) || self.bin.contains('/') {
            return Ok(PathBuf::from(&self.bin));
        }
        let dir = match &self.bin_dir {
            Some(d) => d.clone(),
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?
                .parent()
                .ok_or("executable has no parent directory")?
                .to_path_buf(),
        };
        let mut path = dir.join(&self.bin);
        if !path.exists() {
            let exe = format!("{}{}", self.bin, std::env::consts::EXE_SUFFIX);
            path = path.with_file_name(exe);
        }
        Ok(path)
    }

    fn command(&self) -> Result<Command, String> {
        let mut cmd = Command::new(self.resolve_bin()?);
        cmd.args(&self.user_args);
        Ok(cmd)
    }

    /// Ask the experiment binary for its spec (`--emit-spec`).
    pub fn emit_spec(&self) -> Result<SweepSpec, String> {
        let mut cmd = self.command()?;
        cmd.arg("--emit-spec");
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.bin))?;
        if !out.status.success() {
            return Err(format!("{} --emit-spec failed: {}", self.bin, out.status));
        }
        let text = String::from_utf8(out.stdout)
            .map_err(|_| "spec output is not UTF-8".to_string())?;
        SweepSpec::from_json_str(text.trim())
            .map_err(|e| format!("{} emitted an invalid spec: {e}", self.bin))
    }

    /// The manifest JSON for this sweep (spec + per-shard run ranges).
    pub fn manifest(&self) -> Result<String, String> {
        let spec = self.emit_spec()?;
        Ok(crate::spec::manifest_json(&spec, self.shards))
    }

    /// Run the coordinated sweep. Progress lines go to stderr; the
    /// merged report is returned (and cached) — printing it is the
    /// caller's job.
    pub fn run(&self) -> Result<RunOutcome, String> {
        let spec = self.emit_spec()?;
        eprintln!(
            "sweep: {} spec {} ({} runs, {} shards)",
            spec.experiment,
            spec.hash_hex(),
            spec.runs,
            self.shards
        );
        if self.refresh {
            self.store
                .clear(&spec)
                .map_err(|e| format!("cannot clear store entry: {e}"))?;
            eprintln!("sweep: cleared store entry (--refresh)");
        }

        if !self.no_cache && !self.refresh {
            if let Some(report) = self.store.read_report(&spec) {
                eprintln!("sweep: report from cache");
                return Ok(RunOutcome {
                    spec,
                    report,
                    computed_shards: Vec::new(),
                    cached_shards: Vec::new(),
                    report_from_cache: true,
                    merge_status: 0,
                });
            }
        }

        let assignments = shard_assignments(&spec, self.shards);
        let kept = self
            .store
            .remove_stale_shards(&spec, &assignments)
            .map_err(|e| format!("cannot prune stale shard files: {e}"))?;
        let mut cached_shards = Vec::new();
        let mut to_compute: Vec<&ShardAssignment> = Vec::new();
        for a in &assignments {
            if !self.no_cache && kept.contains(&a.shard_id) {
                eprintln!(
                    "sweep: shard {} [{}..{}) cached",
                    a.shard_id, a.run_range.start, a.run_range.end
                );
                cached_shards.push(a.shard_id);
            } else {
                to_compute.push(a);
            }
        }

        let computed_shards = self.run_shards(&spec, &to_compute)?;
        let (report, merge_status) = self.merge(&spec)?;
        if !self.no_cache && merge_status == 0 {
            self.store
                .write_report(&spec, &report)
                .map_err(|e| format!("cannot cache report: {e}"))?;
        }
        eprintln!(
            "sweep: report merged from {} shards ({} computed, {} cached)",
            assignments.len(),
            computed_shards.len(),
            cached_shards.len()
        );
        Ok(RunOutcome {
            spec,
            report,
            computed_shards,
            cached_shards,
            report_from_cache: false,
            merge_status,
        })
    }

    /// Spawn shard processes, at most `jobs` concurrently. Returns the
    /// computed shard ids.
    fn run_shards(
        &self,
        spec: &SweepSpec,
        shards: &[&ShardAssignment],
    ) -> Result<Vec<usize>, String> {
        let jobs = self.jobs.max(1);
        let mut computed = Vec::new();
        let mut running: Vec<(usize, std::process::Child)> = Vec::new();
        let mut queue = shards.iter();

        let wait_one =
            |running: &mut Vec<(usize, std::process::Child)>| -> Result<(), String> {
                let (id, mut child) = running.remove(0);
                let status = child
                    .wait()
                    .map_err(|e| format!("waiting for shard {id}: {e}"))?;
                if !status.success() {
                    return Err(format!("shard {id} failed: {status}"));
                }
                Ok(())
            };

        loop {
            while running.len() < jobs {
                let Some(a) = queue.next() else { break };
                let out = self.store.shard_path(spec, a.shard_id);
                let mut cmd = self.command()?;
                cmd.args([
                    "--shard-id".to_string(),
                    a.shard_id.to_string(),
                    "--shard-start".to_string(),
                    a.run_range.start.to_string(),
                    "--shard-end".to_string(),
                    a.run_range.end.to_string(),
                    "--shard-out".to_string(),
                    out.display().to_string(),
                ]);
                // Shard mode prints nothing on stdout by contract;
                // discard it anyway so a stray print can never corrupt
                // the coordinator's own stdout (the merged report).
                cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
                eprintln!(
                    "sweep: shard {} [{}..{}) computing",
                    a.shard_id, a.run_range.start, a.run_range.end
                );
                let child = cmd
                    .spawn()
                    .map_err(|e| format!("cannot spawn shard {}: {e}", a.shard_id))?;
                running.push((a.shard_id, child));
                computed.push(a.shard_id);
            }
            if running.is_empty() {
                break;
            }
            wait_one(&mut running)?;
        }
        Ok(computed)
    }

    /// Spawn the merge process and capture the report bytes.
    fn merge(&self, _spec: &SweepSpec) -> Result<(Vec<u8>, i32), String> {
        let mut cmd = self.command()?;
        cmd.args([
            "--from-shards".to_string(),
            self.store.root().display().to_string(),
        ]);
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn merge process: {e}"))?;
        let mut report = Vec::new();
        child
            .stdout
            .take()
            .expect("stdout piped")
            .read_to_end(&mut report)
            .map_err(|e| format!("reading merged report: {e}"))?;
        let status = child
            .wait()
            .map_err(|e| format!("waiting for merge process: {e}"))?;
        Ok((report, status.code().unwrap_or(1)))
    }
}
