//! End-to-end process tests for the `sweep` coordinator, driven
//! against the `sweep_selftest` experiment binary: byte-identical
//! sharded reports, warm-cache answers, resume after a killed shard,
//! recovery from a damaged shard file, stale-partition recovery when
//! the shard count changes, and the experiment's own usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const SELFTEST: &str = env!("CARGO_BIN_EXE_sweep_selftest");

const EXP_ARGS: &[&str] = &["--runs", "9", "--len", "400", "--seed", "23"];

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fpna-sweep-e2e-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Single-process reference run of the experiment binary itself.
fn single_process_report() -> Vec<u8> {
    let out = Command::new(SELFTEST)
        .args(EXP_ARGS)
        .output()
        .expect("run selftest");
    assert!(out.status.success(), "selftest failed: {out:?}");
    assert!(!out.stdout.is_empty());
    out.stdout
}

fn run_sweep(store: &Path, shards: usize, extra: &[&str]) -> Output {
    let bin_dir = Path::new(SELFTEST).parent().unwrap();
    let mut cmd = Command::new(SWEEP);
    cmd.args([
        "--bin",
        "sweep_selftest",
        "--bin-dir",
        &bin_dir.display().to_string(),
        "--store",
        &store.display().to_string(),
        "--shards",
        &shards.to_string(),
    ]);
    cmd.args(extra);
    cmd.arg("--");
    cmd.args(EXP_ARGS);
    let out = cmd.output().expect("run sweep coordinator");
    assert!(
        out.status.success(),
        "sweep failed: status={:?} stderr={}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn sharded_report_is_byte_identical_to_single_process() {
    let store = temp_store("identical");
    let reference = single_process_report();
    for shards in [2usize, 3] {
        let out = run_sweep(&store, shards, &["--refresh"]);
        assert_eq!(
            out.stdout,
            reference,
            "merged report diverged at {shards} shards"
        );
        let log = stderr_of(&out);
        assert!(log.contains("report merged from"), "{log}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn warm_cache_answers_without_recompute() {
    let store = temp_store("warmcache");
    let cold = run_sweep(&store, 2, &[]);
    assert!(stderr_of(&cold).contains("computing"));

    let warm = run_sweep(&store, 2, &[]);
    let log = stderr_of(&warm);
    assert!(log.contains("report from cache"), "{log}");
    assert!(!log.contains("computing"), "warm run recomputed: {log}");
    assert_eq!(warm.stdout, cold.stdout);

    // --no-cache forces recompute and ignores the cached report…
    let forced = run_sweep(&store, 2, &["--no-cache"]);
    let log = stderr_of(&forced);
    assert!(log.contains("computing"), "{log}");
    assert!(!log.contains("report from cache"), "{log}");
    // …but the answer is still byte-identical.
    assert_eq!(forced.stdout, cold.stdout);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn killed_shard_resumes_without_redoing_completed_work() {
    let store = temp_store("resume");
    let full = run_sweep(&store, 3, &[]);

    // Simulate a shard killed before finishing: its result file is
    // missing while the others survive. Drop the cached report too —
    // the coordinator must re-merge, not answer from cache.
    let sweep_dir = {
        let mut dirs = std::fs::read_dir(&store)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .collect::<Vec<_>>();
        assert_eq!(dirs.len(), 1, "one spec directory expected");
        dirs.pop().unwrap()
    };
    std::fs::remove_file(sweep_dir.join("shard-1.json")).unwrap();
    std::fs::remove_file(sweep_dir.join("report.txt")).unwrap();

    let resumed = run_sweep(&store, 3, &[]);
    let log = stderr_of(&resumed);
    assert!(log.contains("shard 0 [0..3) cached"), "{log}");
    assert!(log.contains("shard 1 [3..6) computing"), "{log}");
    assert!(log.contains("shard 2 [6..9) cached"), "{log}");
    assert_eq!(resumed.stdout, full.stdout, "resumed report diverged");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn damaged_shard_is_named_listed_and_recomputed() {
    let store = temp_store("damaged");
    run_sweep(&store, 2, &[]);
    let sweep_dir = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .unwrap();
    std::fs::remove_file(sweep_dir.join("report.txt")).unwrap();
    // Shard 1 of 2 holds runs 5..9; repeat one run index in it.
    let shard = sweep_dir.join("shard-1.json");
    let text = std::fs::read_to_string(&shard).unwrap();
    let (runs, repeated) = ("\"runs\":[5,6,7,8]", "\"runs\":[5,5,7,8]");
    assert_eq!(text.matches(runs).count(), 1, "{text}");
    std::fs::write(&shard, text.replace(runs, repeated)).unwrap();

    let list = Command::new(SWEEP)
        .args(["--list", "--store", &store.display().to_string()])
        .output()
        .expect("run sweep --list");
    assert!(list.status.success(), "--list failed: {}", stderr_of(&list));
    let listing = String::from_utf8_lossy(&list.stdout);
    assert!(listing.contains("incomplete"), "{listing}");

    let merge = Command::new(SELFTEST)
        .args(EXP_ARGS)
        .args(["--from-shards", &store.display().to_string()])
        .output()
        .expect("run selftest --from-shards");
    let log = stderr_of(&merge);
    assert_eq!(merge.status.code(), Some(1), "{log}");
    assert!(merge.stdout.is_empty());
    assert_eq!(log.lines().count(), 1, "{log}");
    assert!(log.starts_with("error: "), "{log}");
    assert!(log.contains("shard-1.json"), "{log}");

    let resumed = run_sweep(&store, 2, &[]);
    let log = stderr_of(&resumed);
    assert!(log.contains("shard 0 [0..5) cached"), "{log}");
    assert!(log.contains("shard 1 [5..9) computing"), "{log}");
    assert_eq!(resumed.stdout, single_process_report());
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn changing_shard_count_reuses_store_without_mismerging() {
    let store = temp_store("reshard");
    let two = run_sweep(&store, 2, &[]);
    // Same store, different partition: stale 2-shard files must be
    // pruned, not merged alongside the 4-shard ones. Remove the report
    // cache so the merge actually happens.
    let report = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .unwrap()
        .join("report.txt");
    std::fs::remove_file(&report).unwrap();
    let four = run_sweep(&store, 4, &[]);
    assert_eq!(four.stdout, two.stdout);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn manifest_lists_the_partition() {
    let store = temp_store("manifest");
    let bin_dir = Path::new(SELFTEST).parent().unwrap();
    let out = Command::new(SWEEP)
        .args([
            "--bin",
            "sweep_selftest",
            "--bin-dir",
            &bin_dir.display().to_string(),
            "--store",
            &store.display().to_string(),
            "--shards",
            "3",
            "--manifest",
            "-",
            "--",
        ])
        .args(EXP_ARGS)
        .output()
        .expect("run sweep --manifest");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"schema\":\"fpna-sweep-manifest-v2\""), "{text}");
    assert!(text.contains("\"run_start\":0"), "{text}");
    assert!(text.contains("\"run_end\":9"), "{text}");
    assert!(text.contains("\"base_seed\":\"23\""), "{text}");
    // no store entry is created by a manifest-only invocation
    assert!(!store.exists());
}

#[test]
fn zero_length_is_a_usage_error() {
    let out = Command::new(SELFTEST)
        .args(["--len", "0"])
        .output()
        .expect("run selftest --len 0");
    let log = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{log}");
    assert!(out.stdout.is_empty());
    assert_eq!(log.lines().count(), 1, "{log}");
    assert!(log.starts_with("error: "), "{log}");
    // The smallest usable length still runs.
    let one = Command::new(SELFTEST)
        .args(["--runs", "3", "--len", "1"])
        .output()
        .expect("run selftest --len 1");
    assert!(one.status.success(), "{}", stderr_of(&one));
    assert!(!one.stdout.is_empty());
}
