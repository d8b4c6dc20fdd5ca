//! A flag value an experiment binary cannot use ends the process with
//! exit status 2 and one `error: …` line naming the flag on stderr,
//! before anything reaches stdout.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("FPNA_THREADS")
        .output()
        .expect("spawn experiment binary");
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
