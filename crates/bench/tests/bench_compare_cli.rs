//! `bench_compare` as a process: what a compare run accepts, refuses,
//! and how it exits.

use std::process::{Command, Output};

fn bench_compare(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("bench_compare runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The tool's no-false-positive gate: a kernel report against itself.
#[test]
fn a_kernel_report_against_itself_has_no_regression() {
    let out = bench_compare(&["BENCH_kernels.json", "BENCH_kernels.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("**0 regression(s)**"),
        "{}",
        stdout(&out)
    );
}

/// A lock-mode fleet report against an oplog-mode one once compared as
/// "0 regression(s)"; fleet reports are pinned by `cmp`, not compared.
#[test]
fn two_fleet_reports_are_refused_naming_bench_kernels() {
    let out = bench_compare(&["BENCH_fleet.json", "BENCH_fleet_oplog.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("only bench_kernels reports are compared"),
        "{}",
        stderr(&out)
    );
}

/// `unidrive_bench::arg_value`: a flag without its value is a usage
/// error, never an absent flag.
#[test]
fn a_flag_without_its_value_exits_2() {
    for args in [&["--validate"][..], &["--validate", "--quick"]] {
        let out = bench_compare(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stdout(&out));
        assert!(
            stderr(&out).contains("--validate needs a value"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}
