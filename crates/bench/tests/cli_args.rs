//! Malformed bench arguments are usage errors: exit code 2 and a message
//! naming the bad value, never a panic or a silent default.

use std::process::{Command, Output};

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Run `bin` with `args` (and `TLMM_PERF_TOLERANCE` set to `env_tol`, or
/// unset), writing any artifact to a scratch directory.
fn run(bin: &str, args: &[&str], env_tol: Option<&str>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).env(
        tlmm_bench::artifact::RESULTS_DIR_ENV,
        concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args"),
    );
    match env_tol {
        Some(t) => cmd.env("TLMM_PERF_TOLERANCE", t),
        None => cmd.env_remove("TLMM_PERF_TOLERANCE"),
    };
    cmd.output().expect("spawn bench binary")
}

fn assert_usage_error(out: &Output, needle: &str, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{context}: stderr {stderr}");
    assert!(
        stderr.contains(needle),
        "{context}: stderr {stderr:?} must name {needle:?}"
    );
}

fn perf_gate(args: &[&str], env_tol: Option<&str>) -> Output {
    run(env!("CARGO_BIN_EXE_perf_gate"), args, env_tol)
}

#[test]
fn perf_gate_rejects_a_malformed_tolerance_flag() {
    for bad in ["abc", "0.1x", "NaN", "inf", "-0.1"] {
        let out = perf_gate(&["--tolerance", bad], None);
        assert_usage_error(&out, "--tolerance", bad);
    }
}

#[test]
fn perf_gate_rejects_a_malformed_tolerance_env() {
    for bad in ["abc", "", "NaN", "-1"] {
        let out = perf_gate(&[], Some(bad));
        assert_usage_error(&out, "TLMM_PERF_TOLERANCE", bad);
    }
}

#[test]
fn perf_gate_rejects_a_flag_without_a_value() {
    for args in [
        &["--baseline"][..],
        &["--fresh"],
        &["--tolerance"],
        &["--fresh", "--tolerance", "0.1"],
    ] {
        let out = perf_gate(args, None);
        assert_usage_error(&out, "needs a value", &format!("{args:?}"));
    }
}

#[test]
fn perf_gate_rejects_unknown_flags_and_unreadable_files() {
    assert_usage_error(
        &perf_gate(&["--tolerence", "0.1"], None),
        "unknown flag",
        "typo",
    );
    let missing = "/nonexistent/BENCH_kernels_smoke.json";
    let out = perf_gate(&["--baseline", missing, "--fresh", missing], None);
    assert_usage_error(&out, "cannot read", "missing file");
}

#[test]
fn perf_gate_passes_a_file_against_itself() {
    let smoke = format!("{REPO}/BENCH_kernels_smoke.json");
    let out = perf_gate(
        &["--baseline", &smoke, "--fresh", &smoke, "--tolerance", "0"],
        Some("0.5"),
    );
    assert!(
        out.status.success(),
        "stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn table1_rejects_a_bad_size_argument() {
    for args in [&["abc"][..], &["0"], &["-5"], &["1e6"], &["1000", "2000"]] {
        let out = run(env!("CARGO_BIN_EXE_table1"), args, None);
        let needle = if args.len() > 1 { "usage" } else { "key count" };
        assert_usage_error(&out, needle, &format!("{args:?}"));
    }
}
