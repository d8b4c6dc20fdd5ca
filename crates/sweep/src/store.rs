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
//! spec hash, its shard id, its global run range, and one FNV-1a digest
//! of the spec hash, shard id, run range and every row's cell, run and
//! value bits, so a file copied from another machine can be validated
//! before it is merged. [`decode_shard`] is the one reader that
//! validates a file. What it refuses is recomputed, never merged; that
//! includes every file of the earlier `fpna-sweep-shard-v1` schema.
//! [`SweepStore::load_merged`] also refuses anything that is not an
//! exact partition of `0..runs` — stale files from a run with a
//! different shard count fail loudly instead of silently double
//! counting.
//!
//! Writes are atomic (`.tmp.<pid>` then rename), so a shard killed
//! mid-write leaves no partial file and a concurrent reader never sees
//! one.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use fpna_obs::json::{self, Value};

use crate::rows::{f64_from_hex, f64_to_hex, SweepRows};
use crate::spec::{fnv1a64, ShardAssignment, SweepSpec};

/// Schema tag written into every shard file.
const SHARD_SCHEMA: &str = "fpna-sweep-shard-v2";

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
    pub run_range: Range<usize>,
    /// The shard's rows.
    pub rows: SweepRows,
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
        run_range: Range<usize>,
        rows: &SweepRows,
    ) -> io::Result<PathBuf> {
        let path = self.shard_path(spec, shard_id);
        let text = encode_shard(spec, shard_id, run_range, rows);
        write_atomic(&path, text.as_bytes())?;
        Ok(path)
    }

    /// Load **all** shard files under `spec`'s directory and merge
    /// their rows into one row set.
    ///
    /// Fails, naming the file where one is at fault, unless every
    /// shard file decodes, holds this spec's hash and a distinct shard
    /// id, and the run ranges form an exact partition of
    /// `0..spec.runs` — the same check that marks an entry complete in
    /// [`SweepStore::list_entries`].
    pub fn load_merged(&self, spec: &SweepSpec) -> Result<SweepRows, String> {
        let hash = spec.hash_hex();
        let scan = Scan::of(&self.sweep_dir(spec))
            .map_err(|e| format!("no results for spec {hash}: {e}"))?;
        scan.check_partition(&hash, spec.runs)?;
        let mut rows = SweepRows::new();
        for (_, shard) in scan.shards {
            rows.absorb(shard?.rows)?;
        }
        Ok(rows)
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

    /// Remove every shard file of `spec` that cannot be reused for
    /// `assignments`, and return the ids of the shards whose files were
    /// kept, in id order. A file is kept only when it decodes, holds
    /// this spec's hash, sits at its own id's
    /// [`SweepStore::shard_path`], and its id and run range match an
    /// assignment. Run before computing, so damaged files and leftovers
    /// from an earlier partition are recomputed instead of merged: a
    /// store shared between runs with different shard counts
    /// re-computes rather than mis-merges.
    pub fn remove_stale_shards(
        &self,
        spec: &SweepSpec,
        assignments: &[ShardAssignment],
    ) -> io::Result<Vec<usize>> {
        let scan = match Scan::of(&self.sweep_dir(spec)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            other => other?,
        };
        let hash = spec.hash_hex();
        let mut kept = Vec::new();
        for (path, shard) in scan.shards {
            let reusable = shard.ok().filter(|s| {
                s.spec_hash == hash
                    && path == self.shard_path(spec, s.shard_id)
                    && assignments
                        .iter()
                        .any(|a| a.shard_id == s.shard_id && a.run_range == s.run_range)
            });
            match reusable {
                Some(s) => kept.push(s.shard_id),
                None => fs::remove_file(path)?,
            }
        }
        kept.sort_unstable();
        Ok(kept)
    }
}

/// One walk of a sweep directory: every shard file, decoded or with the
/// reason it is unusable, and the totals [`StoreEntry`] reports.
struct Scan {
    /// `(path, decoded shard or error)` per `shard-*.json`, in path
    /// order.
    shards: Vec<(PathBuf, Result<ShardFile, String>)>,
    /// Total bytes of every file in the directory.
    total_bytes: u64,
    /// Newest modification time over the files (directory mtime when
    /// empty).
    newest_mtime: SystemTime,
    /// `true` when a cached merged report is present.
    has_report: bool,
}

impl Scan {
    fn of(dir: &Path) -> io::Result<Scan> {
        let mut scan = Scan {
            shards: Vec::new(),
            total_bytes: 0,
            newest_mtime: fs::metadata(dir)?.modified()?,
            has_report: false,
        };
        for file in fs::read_dir(dir)? {
            let file = file?;
            let meta = file.metadata()?;
            if !meta.is_file() {
                continue;
            }
            scan.total_bytes += meta.len();
            if let Ok(mtime) = meta.modified() {
                scan.newest_mtime = scan.newest_mtime.max(mtime);
            }
            let name = file.file_name();
            let name = name.to_string_lossy();
            if name == "report.txt" {
                scan.has_report = true;
            } else if name.starts_with("shard-") && name.ends_with(".json") {
                let path = file.path();
                let shard = fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| decode_shard(&text));
                scan.shards.push((path, shard));
            }
        }
        scan.shards.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(scan)
    }

    /// The one tiling check. `Ok` when every shard file decodes and
    /// holds spec hash `hash`, no shard id repeats, and the non-empty
    /// run ranges tile `0..runs` exactly, so the set merges cleanly.
    /// Empty-range shards (from `shards > runs`) contribute nothing.
    fn check_partition(&self, hash: &str, runs: usize) -> Result<(), String> {
        let mut ids = Vec::new();
        let mut ranges = Vec::new();
        for (path, shard) in &self.shards {
            let shard = shard
                .as_ref()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if shard.spec_hash != hash {
                return Err(format!(
                    "{}: spec hash {} does not match {hash} — stale or foreign file in store",
                    path.display(),
                    shard.spec_hash
                ));
            }
            ids.push(shard.shard_id);
            if !shard.run_range.is_empty() {
                ranges.push(shard.run_range.clone());
            }
        }
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate shard ids in store".into());
        }
        ranges.sort_by_key(|r| r.start);
        let mut covered = 0usize;
        for r in &ranges {
            if r.start != covered {
                return Err(format!(
                    "shard ranges do not tile 0..{runs}: gap or overlap at run {covered} \
                     (next range starts at {}) — remove stale shard files or re-run with --refresh",
                    r.start
                ));
            }
            covered = r.end;
        }
        if covered != runs {
            return Err(format!(
                "shard ranges cover only 0..{covered} of 0..{runs} — missing shards"
            ));
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
    /// The spec, decoded from the first decodable shard file in name
    /// order. `None` when the entry holds no decodable shard (e.g.
    /// report-only or corrupt).
    pub spec: Option<SweepSpec>,
    /// Decodable shard files present.
    pub shard_count: usize,
    /// Total bytes of every file in the entry's directory.
    pub total_bytes: u64,
    /// Newest modification time over the entry's files (directory
    /// mtime when empty).
    pub newest_mtime: SystemTime,
    /// `true` when the entry passes the same partition check as
    /// [`SweepStore::load_merged`] — i.e. the entry merges cleanly and
    /// re-running this sweep costs nothing.
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
            let scan = Scan::of(&entry.path())?;
            let decoded = || scan.shards.iter().filter_map(|(_, s)| s.as_ref().ok());
            let spec = decoded().next().map(|s| s.spec.clone());
            let complete = spec
                .as_ref()
                .is_some_and(|s| scan.check_partition(&hash, s.runs).is_ok());
            out.push(StoreEntry {
                shard_count: decoded().count(),
                hash,
                spec,
                total_bytes: scan.total_bytes,
                newest_mtime: scan.newest_mtime,
                complete,
                has_report: scan.has_report,
            });
        }
        out.sort_by(|a, b| b.newest_mtime.cmp(&a.newest_mtime).then(a.hash.cmp(&b.hash)));
        Ok(out)
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
    run_range: Range<usize>,
    rows: &SweepRows,
) -> String {
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
    let spec_hash = spec.hash_hex();
    let digest = shard_digest(&spec_hash, shard_id, &run_range, rows);
    Value::Obj(vec![
        ("schema".into(), Value::Str(SHARD_SCHEMA.into())),
        ("spec_hash".into(), Value::Str(spec_hash)),
        ("spec".into(), spec.to_value()),
        ("shard_id".into(), Value::Num(shard_id as f64)),
        ("run_start".into(), Value::Num(run_range.start as f64)),
        ("run_end".into(), Value::Num(run_range.end as f64)),
        ("cells".into(), Value::Obj(cells)),
        ("digest".into(), Value::Str(digest)),
    ])
    .to_json()
}

/// Decode and validate a shard file produced by [`encode_shard`]: the
/// one reader of shard files. Any text that is not such a file is a
/// named `Err`, never a panic: malformed JSON or a missing member, a
/// wrong schema, an embedded spec that does not hash to `spec_hash`, a
/// row outside `[run_start, run_end)`, a repeated (cell, run), or a
/// digest that does not match the contents.
pub fn decode_shard(text: &str) -> Result<ShardFile, String> {
    let v = json::parse(text)?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != SHARD_SCHEMA {
        return Err(format!("unknown shard schema {schema:?}"));
    }
    let member = |key: &str| v.get(key).ok_or_else(|| format!("missing {key}"));
    let int = |key: &str| {
        member(key)?
            .as_usize()
            .ok_or_else(|| format!("{key} must be a non-negative integer"))
    };
    let spec_hash = member("spec_hash")?
        .as_str()
        .ok_or("spec_hash must be a string")?;
    let spec = SweepSpec::from_value(member("spec")?)?;
    if spec.hash_hex() != spec_hash {
        return Err(format!(
            "embedded spec hashes to {}, not to spec_hash {spec_hash:?}",
            spec.hash_hex()
        ));
    }
    let (shard_id, run_start, run_end) = (int("shard_id")?, int("run_start")?, int("run_end")?);
    if run_end < run_start {
        return Err("run_end < run_start".into());
    }
    let run_range = run_start..run_end;

    let mut rows = SweepRows::new();
    for (cell, entry) in member("cells")?.as_obj().ok_or("cells must be an object")? {
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
            if !run_range.contains(&run) {
                return Err(format!(
                    "cell {cell:?} run {run} lies outside [{run_start}, {run_end})"
                ));
            }
            if rows.values(cell, run).is_some() {
                return Err(format!("cell {cell:?} run {run} appears twice"));
            }
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

    let digest = member("digest")?
        .as_str()
        .ok_or("digest must be a string")?;
    if digest != shard_digest(spec_hash, shard_id, &run_range, &rows) {
        return Err("digest does not match the contents — corrupt shard file".into());
    }
    Ok(ShardFile {
        spec_hash: spec_hash.to_string(),
        spec,
        shard_id,
        run_range,
        rows,
    })
}

/// FNV-1a digest, as 16 hex digits, of a shard's spec hash, shard id,
/// run range and every row's cell, run and value bits. Strings and
/// rows are length-prefixed, so no two contents share one byte stream.
fn shard_digest(spec_hash: &str, shard_id: usize, runs: &Range<usize>, rows: &SweepRows) -> String {
    let word = |b: &mut Vec<u8>, x: usize| b.extend_from_slice(&(x as u64).to_le_bytes());
    let mut b = Vec::new();
    word(&mut b, spec_hash.len());
    b.extend_from_slice(spec_hash.as_bytes());
    for x in [shard_id, runs.start, runs.end] {
        word(&mut b, x);
    }
    for (cell, cell_runs) in rows.iter() {
        for (&run, values) in cell_runs {
            word(&mut b, cell.len());
            b.extend_from_slice(cell.as_bytes());
            word(&mut b, run);
            word(&mut b, values.len());
            for v in values {
                b.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    format!("{:016x}", fnv1a64(&b))
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
        let path = store.write_shard(&spec(), 1, 3..7, &rows).unwrap();
        let shard = decode_shard(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(shard.rows, rows);
        assert_eq!(shard.spec, spec());
        let prune = |shard_id, run_range| {
            let only = ShardAssignment {
                shard_id,
                base_seed: 7,
                run_range,
            };
            store.remove_stale_shards(&spec(), &[only]).unwrap()
        };
        // a copy under another id's name is not usable; the original is
        let copy = store.shard_path(&spec(), 2);
        fs::copy(&path, &copy).unwrap();
        assert_eq!(prune(1, 3..7), [1]);
        assert!(path.exists() && !copy.exists());
        // wrong range or id -> not usable
        for (id, range) in [(1, 3..8), (0, 3..7)] {
            store.write_shard(&spec(), 1, 3..7, &rows).unwrap();
            assert!(prune(id, range).is_empty());
            assert!(!path.exists());
        }
        let _ = fs::remove_dir_all(store.root());
    }

    /// The shard file of `spec()`, shard 1, runs `3..7`, byte for byte.
    const PINNED: &str = concat!(
        r#"{"schema":"fpna-sweep-shard-v2","spec_hash":"4b51535b85636bd8","#,
        r#""spec":{"experiment":"selftest","runs":10,"args":{"seed":"7"}},"#,
        r#""shard_id":1,"run_start":3,"run_end":7,"#,
        r#""cells":{"cell":{"runs":[3,4,5,6],"values":["#,
        r#"["3fd3333333333334","bfd0000000000000"],"#,
        r#"["3fd999999999999a","bfc999999999999a"],"#,
        r#"["3fe0000000000000","bfc5555555555555"],"#,
        r#"["3fe3333333333334","bfc2492492492492"]]}},"#,
        r#""digest":"5405c7c498dcd210"}"#,
    );

    /// Shard files move between processes and machines and are merged
    /// only when they validate, so their encoding must never drift.
    #[test]
    fn shard_encoding_is_pinned() {
        assert_eq!(encode_shard(&spec(), 1, 3..7, &rows_for(3..7)), PINNED);
    }

    /// Every single-bit flip and every truncation of a valid shard file
    /// is refused with an error or decodes to the same shard: never a
    /// panic, never a silently different merge.
    #[test]
    fn damaged_shard_files_are_refused_or_unchanged() {
        let bits = |rows: &SweepRows| {
            let mut out = Vec::new();
            for (cell, runs) in rows.iter() {
                for (&run, v) in runs {
                    out.push((
                        cell.to_string(),
                        run,
                        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    ));
                }
            }
            out
        };
        let orig = decode_shard(PINNED).unwrap();
        let bytes = PINNED.as_bytes();
        let flips = (0..bytes.len() * 8).map(|i| {
            let mut b = bytes.to_vec();
            b[i / 8] ^= 1 << (i % 8);
            b
        });
        let cuts = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        for (case, damaged) in flips.chain(cuts).enumerate() {
            // Bytes that are not UTF-8 fail `fs::read_to_string`, before
            // any decoding.
            let Ok(text) = std::str::from_utf8(&damaged) else {
                continue;
            };
            match std::panic::catch_unwind(|| decode_shard(text)) {
                Err(_) => panic!("case {case}: decode_shard panicked on {text}"),
                Ok(Err(_)) => {}
                Ok(Ok(s)) => assert!(
                    s.spec_hash == orig.spec_hash
                        && s.shard_id == orig.shard_id
                        && s.run_range == orig.run_range
                        && bits(&s.rows) == bits(&orig.rows),
                    "case {case}: {text} decoded to a different shard"
                ),
            }
        }
    }

    #[test]
    fn decoder_names_each_fault() {
        for (from, to, fault) in [
            ("shard-v2", "shard-v1", "unknown shard schema"),
            (r#""seed":"7""#, r#""seed":"8""#, "embedded spec hashes to"),
            ("[3,4,5,6]", "[3,4,5,7]", "run 7 lies outside [3, 7)"),
            ("[3,4,5,6]", "[3,3,5,6]", "run 3 appears twice"),
            ("2492492492", "2492492493", "digest does not match"),
            (r#","digest""#, r#","digestx""#, "missing digest"),
        ] {
            assert_eq!(PINNED.matches(from).count(), 1, "{from}");
            let err = decode_shard(&PINNED.replace(from, to)).unwrap_err();
            assert!(err.contains(fault), "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn merged_load_requires_exact_partition() {
        let store = temp_store("partition");
        let s = spec();
        store.write_shard(&s, 0, 0..5, &rows_for(0..5)).unwrap();
        // incomplete -> error
        assert!(store.load_merged(&s).is_err());
        store.write_shard(&s, 1, 5..10, &rows_for(5..10)).unwrap();
        assert_eq!(store.load_merged(&s).unwrap(), rows_for(0..10));
        // stale extra shard from a different partition -> error
        store.write_shard(&s, 2, 6..10, &rows_for(6..10)).unwrap();
        let err = store.load_merged(&s).unwrap_err();
        assert!(err.contains("tile"), "{err}");
        // cleaning against the 2-shard partition recovers
        let assignments = shard_assignments(&s, 2);
        assert_eq!(store.remove_stale_shards(&s, &assignments).unwrap(), [0, 1]);
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
        let err = store.load_merged(&s).unwrap_err();
        assert!(err.contains("corrupt") || err.contains("stats"), "{err}");
        let kept = store.remove_stale_shards(&s, &shard_assignments(&s, 1));
        assert!(kept.unwrap().is_empty() && !path.exists());
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
