//! Sweep specifications and shard manifests.
//!
//! A [`SweepSpec`] is the *semantic* identity of a sweep: which
//! experiment binary, how many runs, and every flag that affects the
//! numbers it produces. Scheduling-only knobs (`--threads`, `--trace`,
//! `--profile`, and the shard-protocol flags themselves) are
//! deliberately **not** part of a spec — results are bitwise invariant
//! to them, so two queries differing only there must hash to the same
//! store entry.
//!
//! The spec's canonical JSON (keys sorted) feeds an FNV-1a 64-bit hash;
//! that hex digest names the sweep's directory in the results store and
//! appears in every shard file so stale results are never merged.
//!
//! [`shard_assignments`] turns `(spec, shard_count)` into a manifest of
//! `(shard_id, base_seed, run_range)` rows. Boundaries come from
//! [`fpna_core::executor::fixed_chunks`] — a pure function of
//! `(runs, shards)` — and each run's RNG seed is already index-keyed
//! inside the experiments (`derive_seed(base_seed, run_index)`), so the
//! work a run does is independent of which shard executes it. That is
//! the whole trick behind byte-identical merges.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::Range;

use fpna_obs::json::{self, Value};

/// Identity of one sweep: experiment name, run count, and every
/// result-affecting argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Experiment (binary) name, e.g. `"table5"`.
    pub experiment: String,
    /// Total number of runs the full sweep performs.
    pub runs: usize,
    /// Result-affecting flags, keyed by long-option name without the
    /// leading `--`. Value-less flags store an empty string.
    pub args: BTreeMap<String, String>,
}

impl SweepSpec {
    /// Start a spec for `experiment` with `runs` total runs.
    pub fn new(experiment: impl Into<String>, runs: usize) -> Self {
        SweepSpec {
            experiment: experiment.into(),
            runs,
            args: BTreeMap::new(),
        }
    }

    /// Record a valued flag (`--key value`). Values go through
    /// `Display`, so sizes resolved from `--paper-scale` are stored as
    /// concrete numbers — specs never depend on how a size was asked
    /// for, only on what it resolved to.
    pub fn arg(mut self, key: &str, value: impl Display) -> Self {
        self.args.insert(key.to_string(), value.to_string());
        self
    }

    /// Record a value-less flag (`--key`).
    pub fn flag(mut self, key: &str) -> Self {
        self.args.insert(key.to_string(), String::new());
        self
    }

    /// The experiment's base RNG seed — by convention the `seed` arg,
    /// parsed as `u64`; 0 when absent. Manifest rows expose this so a
    /// remote machine can verify it is executing the sweep it thinks
    /// it is.
    pub fn base_seed(&self) -> u64 {
        self.args
            .get("seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Canonical JSON encoding: keys sorted (a `BTreeMap` iterates
    /// sorted already), no whitespace. Equal specs produce equal
    /// bytes; this is what gets hashed and embedded in shard files.
    pub fn canonical_json(&self) -> String {
        self.to_value().to_json()
    }

    pub(crate) fn to_value(&self) -> Value {
        let args = self
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Obj(vec![
            ("experiment".into(), Value::Str(self.experiment.clone())),
            ("runs".into(), Value::Num(self.runs as f64)),
            ("args".into(), Value::Obj(args)),
        ])
    }

    /// Content hash of the canonical JSON: FNV-1a 64, 16 lowercase hex
    /// digits. Names the sweep's directory under the results store.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_json().as_bytes()))
    }

    /// Reconstruct the command-line argument vector (excluding the
    /// binary name) that reproduces this spec: `--runs N` followed by
    /// each recorded flag in sorted-key order.
    pub fn argv(&self) -> Vec<String> {
        let mut out = vec!["--runs".to_string(), self.runs.to_string()];
        for (k, v) in &self.args {
            if k == "runs" {
                continue;
            }
            out.push(format!("--{k}"));
            if !v.is_empty() {
                out.push(v.clone());
            }
        }
        out
    }

    /// Parse a spec back from its JSON encoding (canonical or not —
    /// key order and whitespace are irrelevant on input).
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        Self::from_value(&v)
    }

    /// Parse a spec from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let experiment = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("spec missing \"experiment\"")?
            .to_string();
        let runs = v
            .get("runs")
            .and_then(Value::as_usize)
            .ok_or("spec missing \"runs\"")?;
        let mut args = BTreeMap::new();
        for (k, val) in v
            .get("args")
            .and_then(Value::as_obj)
            .ok_or("spec missing \"args\"")?
        {
            let s = val.as_str().ok_or("spec arg values must be strings")?;
            args.insert(k.clone(), s.to_string());
        }
        Ok(SweepSpec {
            experiment,
            runs,
            args,
        })
    }
}

/// FNV-1a, 64-bit. Stable, dependency-free, and plenty for
/// content-addressing a handful of sweep specs and for the digest that
/// catches a damaged shard file.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One row of a sweep manifest: which global runs a shard owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Shard index, `0..shards`.
    pub shard_id: usize,
    /// The sweep's base seed (identical for every shard; per-run seeds
    /// are derived from it by global run index, never by shard).
    pub base_seed: u64,
    /// Global run indices this shard computes.
    pub run_range: Range<usize>,
}

/// Partition a spec's runs across `shards` shards.
///
/// A pure function of `(spec.runs, shards)` via
/// [`fpna_core::executor::fixed_chunks`]: nearly-equal contiguous
/// ranges, earlier shards taking the remainder. Shards beyond
/// `spec.runs` get empty ranges (they still appear in the manifest so
/// shard ids are dense).
pub fn shard_assignments(spec: &SweepSpec, shards: usize) -> Vec<ShardAssignment> {
    assert!(shards > 0, "need at least one shard");
    let chunks = fpna_core::executor::fixed_chunks(spec.runs, shards);
    let base_seed = spec.base_seed();
    (0..shards)
        .map(|shard_id| ShardAssignment {
            shard_id,
            base_seed,
            run_range: chunks.get(shard_id).cloned().unwrap_or({
                let end = spec.runs;
                end..end
            }),
        })
        .collect()
}

/// Render the manifest for `(spec, shards)` as a JSON document: the
/// spec, its hash, and one row per shard. This is the file a fleet
/// operator distributes to machines; each machine runs the experiment
/// binary with the shard flags from its row and ships the resulting
/// shard file back into one store directory. `base_seed` is a decimal
/// string, as every spec arg is, because a JSON number would round
/// seeds above 2^53.
pub(crate) fn manifest_json(spec: &SweepSpec, shards: usize) -> String {
    let rows = shard_assignments(spec, shards)
        .into_iter()
        .map(|a| {
            Value::Obj(vec![
                ("shard_id".into(), Value::Num(a.shard_id as f64)),
                ("base_seed".into(), Value::Str(a.base_seed.to_string())),
                ("run_start".into(), Value::Num(a.run_range.start as f64)),
                ("run_end".into(), Value::Num(a.run_range.end as f64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str("fpna-sweep-manifest-v2".into())),
        ("spec_hash".into(), Value::Str(spec.hash_hex())),
        ("spec".into(), spec.to_value()),
        ("shards".into(), Value::Arr(rows)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new("table5", 40).arg("seed", 55).arg("gpu", "h100")
    }

    #[test]
    fn canonical_json_is_key_order_independent() {
        let a = SweepSpec::new("x", 3).arg("b", 2).arg("a", 1);
        let b = SweepSpec::new("x", 3).arg("a", 1).arg("b", 2);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.hash_hex(), b.hash_hex());
    }

    #[test]
    fn hash_distinguishes_result_affecting_changes() {
        let base = spec();
        assert_ne!(base.hash_hex(), base.clone().arg("seed", 56).hash_hex());
        assert_ne!(base.hash_hex(), SweepSpec { runs: 41, ..base.clone() }.hash_hex());
        assert_ne!(
            base.hash_hex(),
            SweepSpec::new("fig1", 40).arg("seed", 55).arg("gpu", "h100").hash_hex()
        );
        // The hash names a directory under the results store, so it
        // must be stable across processes and releases: pin one value.
        assert_eq!(
            spec().canonical_json(),
            r#"{"experiment":"table5","runs":40,"args":{"gpu":"h100","seed":"55"}}"#
        );
        assert_eq!(spec().hash_hex(), "e8a6bf061662ba24");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let back = SweepSpec::from_json_str(&s.canonical_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.base_seed(), 55);
    }

    #[test]
    fn argv_reproduces_flags() {
        let s = SweepSpec::new("t", 7).arg("seed", 9).flag("link-stats");
        assert_eq!(
            s.argv(),
            vec!["--runs", "7", "--link-stats", "--seed", "9"]
        );
    }

    #[test]
    fn assignments_partition_runs_exactly() {
        for shards in [1usize, 2, 3, 7, 40, 41] {
            let rows = shard_assignments(&spec(), shards);
            assert_eq!(rows.len(), shards);
            let mut next = 0usize;
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.shard_id, i);
                assert_eq!(row.base_seed, 55);
                assert_eq!(row.run_range.start, next.min(40));
                next = row.run_range.end;
            }
            assert_eq!(rows.last().unwrap().run_range.end, 40);
        }
    }

    #[test]
    fn manifest_lists_every_shard() {
        let text = manifest_json(&spec(), 3);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("spec_hash").unwrap().as_str().unwrap(), spec().hash_hex());
        let rows = v.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("run_start").unwrap().as_usize(), Some(0));
        assert_eq!(rows[2].get("run_end").unwrap().as_usize(), Some(40));
        // Seeds past 2^53 must read back exactly.
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let v = json::parse(&manifest_json(&spec().arg("seed", seed), 2)).unwrap();
            assert_eq!(
                v.get("schema").and_then(Value::as_str),
                Some("fpna-sweep-manifest-v2")
            );
            for row in v.get("shards").unwrap().as_arr().unwrap() {
                let got = row
                    .get("base_seed")
                    .and_then(Value::as_str)
                    .map(str::parse::<u64>);
                assert_eq!(got, Some(Ok(seed)));
            }
        }
    }
}
