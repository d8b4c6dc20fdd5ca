//! Content-addressed, resumable results store.
//!
//! Layout: `<root>/<spec-hash>/shard-<id>.json` plus a cached
//! `<root>/<spec-hash>/report.txt` holding the merged report bytes.
//! The root defaults to `target/sweeps`. Because the directory name is
//! the spec's content hash, re-running the same query finds its
//! results without recomputing, and *any* result-affecting flag change
//! lands in a fresh directory.
//!
//! Each shard file is self-describing: it embeds the full spec, the
//! spec hash, its shard id, and its global run range, so a file copied
//! from another machine can be validated before it is merged.
//! [`SweepStore::load_merged`] refuses to merge anything that is not
//! an exact partition of `0..runs` — stale files from a run with a
//! different shard count fail loudly instead of silently double
//! counting.
//!
//! Writes are atomic (`.tmp.<pid>` then rename), so a shard killed
//! mid-write leaves no partial file and a concurrent reader never sees
//! one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use fpna_obs::json::{self, Value};
use fpna_summation::ExactAccumulator;

use crate::rows::{f64_from_hex, f64_to_hex, CellStats, ExactStats, SweepRows};
use crate::spec::SweepSpec;

/// Schema tag written into every shard file.
const SHARD_SCHEMA: &str = "fpna-sweep-shard-v1";

/// A decoded shard result file.
#[derive(Debug, Clone)]
pub struct ShardFile {
    /// Hash of the spec the shard was computed for.
    pub spec_hash: String,
    /// The spec itself, as recorded by the producing process.
    pub spec: SweepSpec,
    /// Shard index.
    pub shard_id: usize,
    /// Global run range `[run_start, run_end)` the shard computed.
    pub run_range: std::ops::Range<usize>,
    /// The shard's rows.
    pub rows: SweepRows,
    /// Exact per-cell column sums over the shard's rows.
    pub stats: ExactStats,
}

/// Handle on a results store root directory.
#[derive(Debug, Clone)]
pub struct SweepStore {
    root: PathBuf,
}

impl SweepStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        SweepStore { root: root.into() }
    }

    /// The conventional in-repo store, `target/sweeps`.
    pub fn default_root() -> Self {
        SweepStore::new("target/sweeps")
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding everything for `spec`.
    pub fn sweep_dir(&self, spec: &SweepSpec) -> PathBuf {
        self.root.join(spec.hash_hex())
    }

    /// Path of shard `shard_id`'s result file for `spec`.
    pub fn shard_path(&self, spec: &SweepSpec, shard_id: usize) -> PathBuf {
        self.sweep_dir(spec).join(format!("shard-{shard_id}.json"))
    }

    /// Path of the cached merged report for `spec`.
    fn report_path(&self, spec: &SweepSpec) -> PathBuf {
        self.sweep_dir(spec).join("report.txt")
    }

    /// Encode and atomically write one shard's results. Returns the
    /// final path.
    pub fn write_shard(
        &self,
        spec: &SweepSpec,
        shard_id: usize,
        run_range: std::ops::Range<usize>,
        rows: &SweepRows,
    ) -> io::Result<PathBuf> {
        let path = self.shard_path(spec, shard_id);
        let text = encode_shard(spec, shard_id, run_range, rows);
        write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Read and validate one shard file for `(spec, shard_id)`.
    ///
    /// `Ok(None)` means "not usable — compute it": the file is absent,
    /// unreadable, malformed, or describes a different spec or a
    /// different run range than `expected_range`. Only an exact match
    /// is returned, so a store shared between runs with different
    /// shard counts re-computes rather than mis-merges.
    pub fn read_valid_shard(
        &self,
        spec: &SweepSpec,
        shard_id: usize,
        expected_range: std::ops::Range<usize>,
    ) -> Option<ShardFile> {
        let path = self.shard_path(spec, shard_id);
        let text = fs::read_to_string(&path).ok()?;
        let shard = decode_shard(&text).ok()?;
        let ok = shard.spec_hash == spec.hash_hex()
            && shard.shard_id == shard_id
            && shard.run_range == expected_range;
        ok.then_some(shard)
    }

    /// Load **all** shard files under `spec`'s directory and merge
    /// them, in shard-index order, into one row set and one exact
    /// statistic set.
    ///
    /// Fails unless the files form an exact partition of
    /// `0..spec.runs`: wrong hash, overlapping or gapped ranges, and
    /// duplicate shard ids are all hard errors. (Empty-range shards —
    /// produced when `shards > runs` — are accepted and contribute
    /// nothing.)
    pub fn load_merged(&self, spec: &SweepSpec) -> Result<(SweepRows, ExactStats), String> {
        let dir = self.sweep_dir(spec);
        let mut shards: Vec<ShardFile> = Vec::new();
        let entries = fs::read_dir(&dir)
            .map_err(|e| format!("no results for spec {}: {e}", spec.hash_hex()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("shard-") && name.ends_with(".json")) {
                continue;
            }
            let text = fs::read_to_string(entry.path())
                .map_err(|e| format!("{name}: {e}"))?;
            let shard = decode_shard(&text).map_err(|e| format!("{name}: {e}"))?;
            if shard.spec_hash != spec.hash_hex() {
                return Err(format!(
                    "{name}: spec hash {} does not match {} — stale or foreign file in store",
                    shard.spec_hash,
                    spec.hash_hex()
                ));
            }
            shards.push(shard);
        }
        shards.sort_by_key(|s| s.shard_id);
        if shards.windows(2).any(|w| w[0].shard_id == w[1].shard_id) {
            return Err("duplicate shard ids in store".into());
        }

        // The non-empty ranges must tile 0..runs exactly.
        let mut covered = 0usize;
        let mut ranges: Vec<_> = shards
            .iter()
            .filter(|s| !s.run_range.is_empty())
            .map(|s| s.run_range.clone())
            .collect();
        ranges.sort_by_key(|r| r.start);
        for r in &ranges {
            if r.start != covered {
                return Err(format!(
                    "shard ranges do not tile 0..{}: gap or overlap at run {} (next range starts at {}) — \
                     remove stale shard files or re-run with --refresh",
                    spec.runs, covered, r.start
                ));
            }
            covered = r.end;
        }
        if covered != spec.runs {
            return Err(format!(
                "shard ranges cover only 0..{covered} of 0..{} — missing shards",
                spec.runs
            ));
        }

        let mut rows = SweepRows::new();
        let mut stats = ExactStats::default();
        for shard in shards {
            rows.absorb(shard.rows)?;
            stats.merge_from(&shard.stats);
        }
        Ok((rows, stats))
    }

    /// Cache the merged report bytes for `spec` (atomic write).
    pub fn write_report(&self, spec: &SweepSpec, report: &[u8]) -> io::Result<PathBuf> {
        let path = self.report_path(spec);
        write_atomic(&path, report)?;
        Ok(path)
    }

    /// The cached merged report for `spec`, if one exists.
    pub fn read_report(&self, spec: &SweepSpec) -> Option<Vec<u8>> {
        fs::read(self.report_path(spec)).ok()
    }

    /// Delete everything stored for `spec` (the `--refresh` escape
    /// hatch). Missing directory is fine.
    pub fn clear(&self, spec: &SweepSpec) -> io::Result<()> {
        match fs::remove_dir_all(self.sweep_dir(spec)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// Remove shard files that do not belong to the given partition —
    /// run before merging when the shard count changed, so leftovers
    /// from an earlier partition cannot fail the tiling check.
    pub fn remove_stale_shards(
        &self,
        spec: &SweepSpec,
        assignments: &[crate::spec::ShardAssignment],
    ) -> io::Result<()> {
        let dir = self.sweep_dir(spec);
        let entries = match fs::read_dir(&dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            other => other?,
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if !(name.starts_with("shard-") && name.ends_with(".json")) {
                continue;
            }
            let keep = fs::read_to_string(entry.path())
                .ok()
                .and_then(|text| decode_shard(&text).ok())
                .is_some_and(|shard| {
                    assignments.iter().any(|a| {
                        a.shard_id == shard.shard_id
                            && a.run_range == shard.run_range
                            && shard.spec_hash == spec.hash_hex()
                    })
                });
            if !keep {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

/// One sweep's entry in the store, as surfaced by
/// [`SweepStore::list_entries`] (and consumed by `sweep --list` /
/// `sweep --gc`).
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Directory name under the root — the spec's content hash.
    pub hash: String,
    /// The spec, decoded from the first readable shard file. `None`
    /// when the entry holds no decodable shard (e.g. report-only or
    /// corrupt).
    pub spec: Option<SweepSpec>,
    /// Decodable shard files present.
    pub shard_count: usize,
    /// Total bytes of every file in the entry's directory.
    pub total_bytes: u64,
    /// Newest modification time over the entry's files (directory
    /// mtime when empty).
    pub newest_mtime: SystemTime,
    /// `true` when the decodable shards' non-empty run ranges exactly
    /// tile `0..spec.runs` for a consistent spec hash — i.e. the entry
    /// merges cleanly and re-running this sweep costs nothing.
    pub complete: bool,
    /// `true` when a cached merged report is present.
    pub has_report: bool,
}

/// What one [`SweepStore::gc`] pass removed and kept.
#[derive(Debug, Clone, Default)]
pub struct GcOutcome {
    /// Hashes of the entries deleted, in deletion order.
    pub removed: Vec<String>,
    /// Bytes freed by those deletions.
    pub freed_bytes: u64,
    /// Entries (and bytes) surviving the pass.
    pub kept: usize,
    /// Total bytes still stored after the pass.
    pub kept_bytes: u64,
}

impl SweepStore {
    /// Scan the store and describe every sweep entry, newest first.
    /// A missing root is an empty store, not an error; non-directory
    /// clutter under the root is ignored.
    pub fn list_entries(&self) -> io::Result<Vec<StoreEntry>> {
        let entries = match fs::read_dir(&self.root) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            other => other?,
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let hash = entry.file_name().to_string_lossy().into_owned();
            out.push(self.scan_entry(&entry.path(), hash)?);
        }
        out.sort_by(|a, b| b.newest_mtime.cmp(&a.newest_mtime).then(a.hash.cmp(&b.hash)));
        Ok(out)
    }

    fn scan_entry(&self, dir: &Path, hash: String) -> io::Result<StoreEntry> {
        let mut total_bytes = 0u64;
        let mut newest_mtime = fs::metadata(dir)?.modified()?;
        let mut has_report = false;
        let mut spec: Option<SweepSpec> = None;
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        let mut shard_count = 0usize;
        let mut all_match = true;
        for file in fs::read_dir(dir)? {
            let file = file?;
            let meta = file.metadata()?;
            if !meta.is_file() {
                continue;
            }
            total_bytes += meta.len();
            if let Ok(mtime) = meta.modified() {
                newest_mtime = newest_mtime.max(mtime);
            }
            let name = file.file_name();
            let name = name.to_string_lossy();
            if name == "report.txt" {
                has_report = true;
            } else if name.starts_with("shard-") && name.ends_with(".json") {
                match fs::read_to_string(file.path())
                    .ok()
                    .and_then(|text| decode_shard(&text).ok())
                {
                    Some(shard) => {
                        shard_count += 1;
                        all_match &= shard.spec_hash == hash;
                        if !shard.run_range.is_empty() {
                            ranges.push(shard.run_range.clone());
                        }
                        spec.get_or_insert(shard.spec);
                    }
                    None => all_match = false,
                }
            }
        }
        ranges.sort_by_key(|r| r.start);
        let complete = all_match
            && spec.as_ref().is_some_and(|s| {
                let mut covered = 0usize;
                for r in &ranges {
                    if r.start != covered {
                        return false;
                    }
                    covered = r.end;
                }
                covered == s.runs
            });
        Ok(StoreEntry {
            hash,
            spec,
            shard_count,
            total_bytes,
            newest_mtime,
            complete,
            has_report,
        })
    }

    /// Garbage-collect the store at time `now`:
    ///
    /// 1. every entry whose newest file is older than `max_age` is
    ///    removed — age is the explicit eviction cutoff;
    /// 2. if the survivors still exceed `max_bytes`, **incomplete**
    ///    entries go first (oldest first — they cannot merge anyway),
    ///    then complete entries oldest-first until under budget.
    ///
    /// A spec-complete entry newer than the age cutoff is therefore
    /// never removed unless the byte budget cannot be met without it,
    /// and with no `max_bytes` it is never removed at all.
    pub fn gc(
        &self,
        max_age: Option<Duration>,
        max_bytes: Option<u64>,
        now: SystemTime,
    ) -> io::Result<GcOutcome> {
        let entries = self.list_entries()?;
        let mut outcome = GcOutcome::default();
        let expired = |e: &StoreEntry| {
            max_age.is_some_and(|limit| {
                now.duration_since(e.newest_mtime)
                    .map(|age| age > limit)
                    .unwrap_or(false)
            })
        };
        let mut survivors: Vec<&StoreEntry> = Vec::new();
        for e in &entries {
            if expired(e) {
                self.remove_entry(e, &mut outcome)?;
            } else {
                survivors.push(e);
            }
        }
        if let Some(budget) = max_bytes {
            let mut used: u64 = survivors.iter().map(|e| e.total_bytes).sum();
            // Incomplete entries first, then complete; oldest first
            // within each class.
            survivors.sort_by(|a, b| {
                a.complete
                    .cmp(&b.complete)
                    .then(a.newest_mtime.cmp(&b.newest_mtime))
            });
            for e in survivors {
                if used <= budget {
                    break;
                }
                used -= e.total_bytes;
                self.remove_entry(e, &mut outcome)?;
            }
        }
        for e in self.list_entries()? {
            outcome.kept += 1;
            outcome.kept_bytes += e.total_bytes;
        }
        Ok(outcome)
    }

    fn remove_entry(&self, e: &StoreEntry, outcome: &mut GcOutcome) -> io::Result<()> {
        fs::remove_dir_all(self.root.join(&e.hash))?;
        outcome.removed.push(e.hash.clone());
        outcome.freed_bytes += e.total_bytes;
        Ok(())
    }
}

/// Atomically write `bytes` to `path`: parent dirs created, content
/// written to a pid-suffixed temp file, then renamed into place.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Encode one shard's results as the self-describing JSON document.
pub fn encode_shard(
    spec: &SweepSpec,
    shard_id: usize,
    run_range: std::ops::Range<usize>,
    rows: &SweepRows,
) -> String {
    let stats = ExactStats::from_rows(rows);
    let cells = rows
        .iter()
        .map(|(cell, runs)| {
            let run_idx = runs
                .keys()
                .map(|&r| Value::Num(r as f64))
                .collect::<Vec<_>>();
            let values = runs
                .values()
                .map(|v| {
                    Value::Arr(v.iter().map(|&x| Value::Str(f64_to_hex(x))).collect())
                })
                .collect::<Vec<_>>();
            (
                cell.to_string(),
                Value::Obj(vec![
                    ("runs".into(), Value::Arr(run_idx)),
                    ("values".into(), Value::Arr(values)),
                ]),
            )
        })
        .collect();
    let stat_members = stats
        .iter()
        .map(|(cell, cs)| {
            let sums = cs
                .sums
                .iter()
                .map(|acc| Value::Str(bytes_to_hex(&acc.to_wire_bytes())))
                .collect();
            (
                cell.to_string(),
                Value::Obj(vec![
                    ("count".into(), Value::Num(cs.count as f64)),
                    ("sums".into(), Value::Arr(sums)),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str(SHARD_SCHEMA.into())),
        ("spec_hash".into(), Value::Str(spec.hash_hex())),
        ("spec".into(), spec.to_value()),
        ("shard_id".into(), Value::Num(shard_id as f64)),
        ("run_start".into(), Value::Num(run_range.start as f64)),
        ("run_end".into(), Value::Num(run_range.end as f64)),
        ("cells".into(), Value::Obj(cells)),
        ("stats".into(), Value::Obj(stat_members)),
    ])
    .to_json()
}

/// Decode a shard file produced by [`encode_shard`].
pub fn decode_shard(text: &str) -> Result<ShardFile, String> {
    let v = json::parse(text)?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SHARD_SCHEMA {
        return Err(format!("unknown shard schema {schema:?}"));
    }
    let spec_hash = v
        .get("spec_hash")
        .and_then(Value::as_str)
        .ok_or("missing spec_hash")?
        .to_string();
    let spec = SweepSpec::from_value(v.get("spec").ok_or("missing spec")?)?;
    let shard_id = v
        .get("shard_id")
        .and_then(Value::as_usize)
        .ok_or("missing shard_id")?;
    let run_start = v
        .get("run_start")
        .and_then(Value::as_usize)
        .ok_or("missing run_start")?;
    let run_end = v
        .get("run_end")
        .and_then(Value::as_usize)
        .ok_or("missing run_end")?;
    if run_end < run_start {
        return Err("run_end < run_start".into());
    }

    let mut rows = SweepRows::new();
    for (cell, entry) in v
        .get("cells")
        .and_then(Value::as_obj)
        .ok_or("missing cells")?
    {
        let runs = entry
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("cell missing runs")?;
        let values = entry
            .get("values")
            .and_then(Value::as_arr)
            .ok_or("cell missing values")?;
        if runs.len() != values.len() {
            return Err(format!("cell {cell:?}: runs/values length mismatch"));
        }
        for (run_v, vals_v) in runs.iter().zip(values) {
            let run = run_v.as_usize().ok_or("run index must be an integer")?;
            let vals = vals_v
                .as_arr()
                .ok_or("row values must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .ok_or_else(|| "row value must be a hex string".to_string())
                        .and_then(f64_from_hex)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            rows.push(cell, run, vals);
        }
    }

    // Recompute stats from rows and cross-check against the recorded
    // ones — a cheap end-to-end integrity check on the payload.
    let stats = ExactStats::from_rows(&rows);
    let recorded = decode_stats(&v)?;
    if recorded.fingerprint() != stats.fingerprint() {
        return Err("recorded stats do not match row payload — corrupt shard file".into());
    }

    Ok(ShardFile {
        spec_hash,
        spec,
        shard_id,
        run_range: run_start..run_end,
        rows,
        stats,
    })
}

fn decode_stats(v: &Value) -> Result<ExactStats, String> {
    let mut out = ExactStats::default();
    let members = v
        .get("stats")
        .and_then(Value::as_obj)
        .ok_or("missing stats")?;
    for (cell, entry) in members {
        let count = entry
            .get("count")
            .and_then(Value::as_usize)
            .ok_or("stats missing count")?;
        let sums = entry
            .get("sums")
            .and_then(Value::as_arr)
            .ok_or("stats missing sums")?
            .iter()
            .map(|s| {
                let hex = s.as_str().ok_or("stat sum must be a hex string")?;
                let bytes = bytes_from_hex(hex)?;
                ExactAccumulator::from_wire_bytes(&bytes)
                    .ok_or_else(|| "bad accumulator wire bytes".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        out.insert_cell(cell.clone(), CellStats { count, sums });
    }
    Ok(out)
}

fn bytes_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn bytes_from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16).map_err(|e| format!("bad hex: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::shard_assignments;

    fn spec() -> SweepSpec {
        SweepSpec::new("selftest", 10).arg("seed", 7)
    }

    fn rows_for(range: std::ops::Range<usize>) -> SweepRows {
        let mut rows = SweepRows::new();
        for run in range {
            rows.push("cell", run, vec![run as f64 * 0.1, -1.0 / (run as f64 + 1.0)]);
        }
        rows
    }

    fn temp_store(tag: &str) -> SweepStore {
        let dir = std::env::temp_dir().join(format!(
            "fpna-sweep-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        SweepStore::new(dir)
    }

    #[test]
    fn shard_files_round_trip_bitwise() {
        let store = temp_store("roundtrip");
        let rows = rows_for(3..7);
        store.write_shard(&spec(), 1, 3..7, &rows).unwrap();
        let shard = store.read_valid_shard(&spec(), 1, 3..7).unwrap();
        assert_eq!(shard.rows, rows);
        assert_eq!(shard.spec, spec());
        assert_eq!(
            shard.stats.fingerprint(),
            ExactStats::from_rows(&rows).fingerprint()
        );
        // wrong range or id -> not usable
        assert!(store.read_valid_shard(&spec(), 1, 3..8).is_none());
        assert!(store.read_valid_shard(&spec(), 0, 3..7).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    /// Shard files move between processes and machines and are merged
    /// only when they validate, so their encoding must never drift.
    #[test]
    fn shard_encoding_is_pinned() {
        let want = concat!(
            r#"{"schema":"fpna-sweep-shard-v1","spec_hash":"4b51535b85636bd8","#,
            r#""spec":{"experiment":"selftest","runs":10,"args":{"seed":"7"}},"#,
            r#""shard_id":1,"run_start":3,"run_end":7,"#,
            r#""cells":{"cell":{"runs":[3,4,5,6],"values":["#,
            r#"["3fd3333333333334","bfd0000000000000"],"#,
            r#"["3fd999999999999a","bfc999999999999a"],"#,
            r#"["3fe0000000000000","bfc5555555555555"],"#,
            r#"["3fe3333333333334","bfc2492492492492"]]}},"#,
            r#""stats":{"cell":{"count":4,"sums":["#,
            r#""1f22000000600000000033333333000000003333070000000000","#,
            r#""1f22000000f8ffffffff643ff663000000003ff6fcffffffffff"]}}}"#,
        );
        assert_eq!(encode_shard(&spec(), 1, 3..7, &rows_for(3..7)), want);
    }

    #[test]
    fn merged_load_requires_exact_partition() {
        let store = temp_store("partition");
        let s = spec();
        store.write_shard(&s, 0, 0..5, &rows_for(0..5)).unwrap();
        // incomplete -> error
        assert!(store.load_merged(&s).is_err());
        store.write_shard(&s, 1, 5..10, &rows_for(5..10)).unwrap();
        let (rows, stats) = store.load_merged(&s).unwrap();
        assert_eq!(rows, rows_for(0..10));
        assert_eq!(
            stats.fingerprint(),
            ExactStats::from_rows(&rows_for(0..10)).fingerprint()
        );
        // stale extra shard from a different partition -> error
        store.write_shard(&s, 2, 6..10, &rows_for(6..10)).unwrap();
        let err = store.load_merged(&s).unwrap_err();
        assert!(err.contains("tile"), "{err}");
        // cleaning against the 2-shard partition recovers
        store
            .remove_stale_shards(&s, &shard_assignments(&s, 2))
            .unwrap();
        assert!(store.load_merged(&s).is_ok());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let store = temp_store("corrupt");
        let s = spec();
        let path = store.shard_path(&s, 0);
        store.write_shard(&s, 0, 0..10, &rows_for(0..10)).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        // flip one hex digit inside the row payload
        let pos = text.find("\"values\":[[\"").unwrap() + "\"values\":[[\"".len();
        let orig = text.as_bytes()[pos];
        let flipped = if orig == b'0' { '1' } else { '0' };
        text.replace_range(pos..pos + 1, &flipped.to_string());
        fs::write(&path, &text).unwrap();
        assert!(store.read_valid_shard(&s, 0, 0..10).is_none());
        let err = store.load_merged(&s).unwrap_err();
        assert!(err.contains("corrupt") || err.contains("stats"), "{err}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn list_describes_completeness_and_reports() {
        let store = temp_store("list");
        let done = spec();
        store.write_shard(&done, 0, 0..5, &rows_for(0..5)).unwrap();
        store.write_shard(&done, 1, 5..10, &rows_for(5..10)).unwrap();
        store.write_report(&done, b"cached\n").unwrap();
        let part = SweepSpec::new("selftest", 10).arg("seed", 8);
        store.write_shard(&part, 0, 0..5, &rows_for(0..5)).unwrap();

        let entries = store.list_entries().unwrap();
        assert_eq!(entries.len(), 2);
        let by_hash = |h: &str| entries.iter().find(|e| e.hash == h).unwrap();
        let d = by_hash(&done.hash_hex());
        assert!(d.complete && d.has_report && d.shard_count == 2);
        assert_eq!(d.spec.as_ref().unwrap(), &done);
        assert!(d.total_bytes > 0);
        let p = by_hash(&part.hash_hex());
        assert!(!p.complete && !p.has_report && p.shard_count == 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_never_deletes_a_complete_set_newer_than_the_cutoff() {
        let store = temp_store("gc-age");
        let s = spec();
        store.write_shard(&s, 0, 0..5, &rows_for(0..5)).unwrap();
        store.write_shard(&s, 1, 5..10, &rows_for(5..10)).unwrap();
        let written = SystemTime::now();

        // Young relative to the cutoff: spared, with or without a byte
        // budget generous enough to hold it.
        let hour = Duration::from_secs(3600);
        for max_bytes in [None, Some(u64::MAX)] {
            let out = store.gc(Some(hour), max_bytes, written + Duration::from_secs(60)).unwrap();
            assert!(out.removed.is_empty(), "young complete set must survive: {out:?}");
            assert_eq!(out.kept, 1);
            assert!(store.load_merged(&s).is_ok(), "survivor still merges");
        }
        // Past the cutoff: collected.
        let out = store.gc(Some(hour), None, written + 2 * hour).unwrap();
        assert_eq!(out.removed, vec![s.hash_hex()]);
        assert_eq!(out.kept, 0);
        assert!(store.list_entries().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_byte_budget_evicts_incomplete_entries_first() {
        let store = temp_store("gc-bytes");
        let done = spec();
        store.write_shard(&done, 0, 0..10, &rows_for(0..10)).unwrap();
        let part = SweepSpec::new("selftest", 10).arg("seed", 8);
        store.write_shard(&part, 0, 0..5, &rows_for(0..5)).unwrap();
        let entries = store.list_entries().unwrap();
        let complete_bytes = entries
            .iter()
            .find(|e| e.complete)
            .map(|e| e.total_bytes)
            .unwrap();

        // Budget with room for exactly the complete set: the
        // incomplete entry goes first even though both are young.
        let out = store.gc(None, Some(complete_bytes), SystemTime::now()).unwrap();
        assert_eq!(out.removed, vec![part.hash_hex()]);
        assert_eq!(out.kept, 1);
        assert!(store.load_merged(&done).is_ok());
        // A zero budget is the only thing that takes the complete set.
        let out = store.gc(None, Some(0), SystemTime::now()).unwrap();
        assert_eq!(out.removed, vec![done.hash_hex()]);
        assert_eq!(out.kept_bytes, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn report_cache_round_trips() {
        let store = temp_store("report");
        let s = spec();
        assert!(store.read_report(&s).is_none());
        store.write_report(&s, b"line one\nline two\n").unwrap();
        assert_eq!(store.read_report(&s).unwrap(), b"line one\nline two\n");
        store.clear(&s).unwrap();
        assert!(store.read_report(&s).is_none());
        store.clear(&s).unwrap(); // idempotent
        let _ = fs::remove_dir_all(store.root());
    }
}
