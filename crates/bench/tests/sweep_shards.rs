//! Shard ≡ single-process, at the real-binary level: drive the
//! protocol-speaking binaries through the raw sweep protocol
//! (`--emit-spec`, one process per `--shard-id`, `--from-shards`
//! merge) and require the merged stdout to be byte-identical to a
//! plain run. The
//! coordinator's own orchestration (caching, resume, stale-shard
//! pruning) is covered in `fpna-sweep`'s tests; this one pins the
//! contract the experiment binaries themselves export.

use std::path::{Path, PathBuf};
use std::process::Command;

use fpna_sweep::{shard_assignments, SweepSpec, SweepStore};

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        // A CI thread matrix must not leak into the comparison.
        .env_remove("FPNA_THREADS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("experiment binaries emit UTF-8")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fpna-bench-shards-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Shard `bin` into `shards` processes via its own emitted spec, merge
/// with `--from-shards`, and return the merged stdout.
fn sharded_stdout(bin: &str, args: &[&str], shards: usize, store_root: &Path) -> String {
    let mut emit = args.to_vec();
    emit.push("--emit-spec");
    let spec = SweepSpec::from_json_str(&stdout_of(bin, &emit))
        .unwrap_or_else(|e| panic!("{bin} --emit-spec must print its canonical spec: {e}"));
    let store = SweepStore::new(store_root);
    for a in shard_assignments(&spec, shards) {
        let shard_out = store.shard_path(&spec, a.shard_id);
        let mut argv = args.to_vec();
        let (id, start, end) = (
            a.shard_id.to_string(),
            a.run_range.start.to_string(),
            a.run_range.end.to_string(),
        );
        argv.extend(["--shard-id", &id, "--shard-start", &start, "--shard-end", &end]);
        let out_str = shard_out.to_string_lossy().into_owned();
        argv.extend(["--shard-out", &out_str]);
        let shard_stdout = stdout_of(bin, &argv);
        assert!(
            shard_stdout.is_empty(),
            "shard processes must stay silent on stdout, got: {shard_stdout}"
        );
        assert!(shard_out.is_file(), "missing shard file {}", shard_out.display());
    }
    let mut merge = args.to_vec();
    let root = store_root.to_string_lossy().into_owned();
    merge.extend(["--from-shards", &root]);
    stdout_of(bin, &merge)
}

#[test]
fn table5_shards_merge_to_the_single_process_bytes() {
    let args = &["--runs", "6", "--seed", "77"];
    let single = stdout_of(env!("CARGO_BIN_EXE_table5"), args);
    let store = temp_store("t5");
    for shards in [2usize, 4] {
        let merged = sharded_stdout(env!("CARGO_BIN_EXE_table5"), args, shards, &store);
        assert_eq!(single, merged, "table5 diverged at {shards} shards");
        std::fs::remove_dir_all(&store).expect("clear store between shard counts");
    }
}

#[test]
fn table9_shards_merge_to_the_single_process_bytes() {
    // The golden_table9 flag set: the merge path must reproduce the
    // pinned stdout — acceptance checks, exit code, and all.
    let args = &["--runs", "4", "--len", "96", "--load", "0,0.5", "--seed", "9"];
    let single = stdout_of(env!("CARGO_BIN_EXE_table9"), args);
    let store = temp_store("t9");
    let merged = sharded_stdout(env!("CARGO_BIN_EXE_table9"), args, 3, &store);
    assert_eq!(single, merged, "table9 diverged at 3 shards");
    std::fs::remove_dir_all(&store).expect("clear store");
}

#[test]
fn table2_shards_merge_to_the_single_process_bytes() {
    // Static table, 6 kernel rows: the protocol's smallest conformance
    // surface — including the one-run-per-shard degenerate partition.
    let args: &[&str] = &[];
    let single = stdout_of(env!("CARGO_BIN_EXE_table2"), args);
    let store = temp_store("t2");
    for shards in [2usize, 6] {
        let merged = sharded_stdout(env!("CARGO_BIN_EXE_table2"), args, shards, &store);
        assert_eq!(single, merged, "table2 diverged at {shards} shards");
        std::fs::remove_dir_all(&store).expect("clear store between shard counts");
    }
}

#[test]
fn table7_shards_merge_to_the_single_process_bytes() {
    let args = &["--models", "4", "--epochs", "3", "--seed", "77"];
    let single = stdout_of(env!("CARGO_BIN_EXE_table7"), args);
    let store = temp_store("t7");
    let merged = sharded_stdout(env!("CARGO_BIN_EXE_table7"), args, 2, &store);
    assert_eq!(single, merged, "table7 diverged at 2 shards");
    std::fs::remove_dir_all(&store).expect("clear store");
}

#[test]
fn fig1_shards_merge_to_the_single_process_bytes() {
    let args = &["--arrays", "2", "--runs", "6", "--seed", "10"];
    let single = stdout_of(env!("CARGO_BIN_EXE_fig1"), args);
    let store = temp_store("f1");
    let merged = sharded_stdout(env!("CARGO_BIN_EXE_fig1"), args, 2, &store);
    assert_eq!(single, merged, "fig1 diverged at 2 shards");
    std::fs::remove_dir_all(&store).expect("clear store");
}

#[test]
fn table9_negative_zero_load_is_the_zero_load_sweep() {
    // One computation, one spec: `-0` must not key a second store entry.
    let spec = |load: &str| {
        stdout_of(
            env!("CARGO_BIN_EXE_table9"),
            &["--runs", "2", "--len", "64", "--load", load, "--emit-spec"],
        )
    };
    assert_eq!(spec("-0,0.5"), spec("0,0.5"));
}
