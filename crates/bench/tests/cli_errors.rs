//! An argument an experiment binary (or `bench_gate`) does not read,
//! a flag value it cannot use, or an `FPNA_THREADS` that is not a
//! positive integer ends the process with exit status 2 and one
//! `error: …` line naming the flag on stderr, before anything reaches
//! stdout.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    assert_usage_error_with_threads(bin, args, None, flag);
}

/// As [`assert_usage_error`], with `FPNA_THREADS` set to `threads`
/// (removed when `None`).
fn assert_usage_error_with_threads(bin: &str, args: &[&str], threads: Option<&str>, flag: &str) {
    let mut cmd = Command::new(bin);
    cmd.args(args).env_remove("FPNA_THREADS");
    if let Some(t) = threads {
        cmd.env("FPNA_THREADS", t);
    }
    let out = cmd.output().expect("spawn experiment binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: stdout {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: stderr {stderr:?}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {:?}", lines[0]);
    assert!(
        lines[0].contains(flag),
        "{args:?}: {:?} does not name {flag}",
        lines[0]
    );
}

#[test]
fn unparsable_run_count() {
    assert_usage_error(env!("CARGO_BIN_EXE_fig3"), &["--runs", "abc"], "--runs");
}

#[test]
fn zero_threads() {
    assert_usage_error(env!("CARGO_BIN_EXE_fig1"), &["--threads", "0"], "--threads");
}

#[test]
fn unparsable_load_list() {
    assert_usage_error(env!("CARGO_BIN_EXE_table9"), &["--load", "x"], "--load");
}

#[test]
fn unknown_route() {
    assert_usage_error(env!("CARGO_BIN_EXE_table9"), &["--route", "foo"], "--route");
}

/// The fig/table binaries that speak the sweep protocol.
const PROTOCOL_BINS: [&str; 5] = [
    env!("CARGO_BIN_EXE_fig1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table5"),
    env!("CARGO_BIN_EXE_table7"),
    env!("CARGO_BIN_EXE_table9"),
];

/// The fig/table binaries that do not.
const OTHER_BINS: [&str; 15] = [
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig4"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig_allreduce"),
    env!("CARGO_BIN_EXE_fig_cg_divergence"),
    env!("CARGO_BIN_EXE_fig_f32"),
    env!("CARGO_BIN_EXE_fig_powerlaw"),
    env!("CARGO_BIN_EXE_fig_weight_divergence"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table3"),
    env!("CARGO_BIN_EXE_table4"),
    env!("CARGO_BIN_EXE_table6"),
    env!("CARGO_BIN_EXE_table8"),
];

#[test]
fn every_binary_rejects_an_unknown_flag() {
    let gate = env!("CARGO_BIN_EXE_bench_gate");
    for bin in PROTOCOL_BINS.iter().chain(&OTHER_BINS).chain([&gate]) {
        assert_usage_error(bin, &["--no-such-flag"], "--no-such-flag");
        assert_usage_error(bin, &["--no-such-flag=1"], "--no-such-flag");
    }
    // A misspelt flag is not a default run.
    assert_usage_error(env!("CARGO_BIN_EXE_fig3"), &["--runz", "5"], "--runz");
}

#[test]
fn only_protocol_binaries_accept_sweep_flags() {
    for bin in OTHER_BINS {
        assert_usage_error(bin, &["--emit-spec"], "--emit-spec");
        assert_usage_error(bin, &["--from-shards", "store"], "--from-shards");
    }
}

#[test]
fn sweep_flags_take_the_equals_form() {
    let out_path = std::env::temp_dir().join(format!("fpna-cli-shard-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--shard-id=0", "--shard-start=0", "--shard-end=3", "--shard-out"])
        .arg(&out_path)
        .env_remove("FPNA_THREADS")
        .output()
        .expect("spawn table2");
    assert!(out.status.success(), "stderr {:?}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.stdout.is_empty(),
        "a shard prints nothing, got {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    let shard = std::fs::read_to_string(&out_path).expect("shard file written");
    assert!(shard.contains("\"run_start\":0,\"run_end\":3"), "{shard}");
    std::fs::remove_file(&out_path).expect("remove shard file");
}

#[test]
fn malformed_sweep_flags() {
    let table2 = env!("CARGO_BIN_EXE_table2");
    assert_usage_error(table2, &["--shard-id"], "--shard-id");
    assert_usage_error(table2, &["--shard-id", "0", "--shard-start", "0"], "--shard-end");
    assert_usage_error(table2, &["--shard-id=0", "--shard-start=0", "--shard-end=9"], "0..9");
    assert_usage_error(table2, &["--emit-spec", "--emit-spec", "--from-shards=x"], "--from-shards");
}

#[test]
fn repeated_value_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_table9"), &["--runs", "3", "--runs=4"], "--runs");
}

#[test]
fn bad_gate_thresholds() {
    let gate = env!("CARGO_BIN_EXE_bench_gate");
    assert_usage_error(gate, &["--threshold", "abc"], "--threshold");
    assert_usage_error(gate, &["--suite-threshold", "gnn"], "--suite-threshold");
    assert_usage_error(gate, &["--suite-threshold=gnn=x"], "--suite-threshold");
}

/// Sizes an experiment's own asserts would reject: Jarque–Bera needs 8
/// samples, `fig3`/`fig4`/`fig5` a reference run plus one, a tree a
/// fanout of 2, everything else at least 1.
#[test]
fn sizes_a_binary_cannot_use() {
    let fig1 = env!("CARGO_BIN_EXE_fig1");
    let cases: [(&str, &[&str], &str); 21] = [
        (fig1, &["--runs", "0"], "--runs"),
        (fig1, &["--arrays", "0"], "--arrays"),
        (fig1, &["--bins", "0"], "--bins"),
        (fig1, &["--arrays", "1", "--runs", "4"], "--runs"),
        (env!("CARGO_BIN_EXE_fig2"), &["--runs", "1"], "--runs"),
        (env!("CARGO_BIN_EXE_fig2"), &["--arrays", "0"], "--arrays"),
        (env!("CARGO_BIN_EXE_fig2"), &["--bins", "0"], "--bins"),
        (env!("CARGO_BIN_EXE_fig3"), &["--runs", "0"], "--runs"),
        (env!("CARGO_BIN_EXE_fig3"), &["--runs", "1"], "--runs"),
        (env!("CARGO_BIN_EXE_fig4"), &["--runs", "0"], "--runs"),
        (env!("CARGO_BIN_EXE_fig4"), &["--runs", "1"], "--runs"),
        (env!("CARGO_BIN_EXE_fig5"), &["--runs", "0"], "--runs"),
        (env!("CARGO_BIN_EXE_fig5"), &["--runs", "1"], "--runs"),
        (env!("CARGO_BIN_EXE_fig_powerlaw"), &["--runs", "0"], "--runs"),
        (env!("CARGO_BIN_EXE_fig_powerlaw"), &["--arrays", "0"], "--arrays"),
        (env!("CARGO_BIN_EXE_fig_allreduce"), &["--ranks", "0"], "--ranks"),
        (env!("CARGO_BIN_EXE_fig_cg_divergence"), &["--grid", "0"], "--grid"),
        (env!("CARGO_BIN_EXE_table8"), &["--epochs", "0"], "--epochs"),
        (env!("CARGO_BIN_EXE_table9"), &["--len", "0"], "--len"),
        (env!("CARGO_BIN_EXE_table9"), &["--fanout", "0"], "--fanout"),
        (env!("CARGO_BIN_EXE_table9"), &["--fanout", "1"], "--fanout"),
    ];
    for (bin, args, flag) in cases {
        assert_usage_error(bin, args, flag);
    }
}

#[test]
fn thread_count_from_the_environment() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    for bad in ["abc", "0"] {
        assert_usage_error_with_threads(table1, &[], Some(bad), "FPNA_THREADS");
    }
    // An explicit --threads wins over the variable.
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--threads", "1", "--emit-spec"])
        .env("FPNA_THREADS", "abc")
        .output()
        .expect("spawn table2");
    assert!(out.status.success(), "stderr {:?}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty());
}
