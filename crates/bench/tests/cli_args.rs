//! Malformed `experiments` arguments are usage errors: exit code 2 and a
//! message naming the bad value, before any work — never a panic, a silent
//! default or an ignored argument.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// One finished `experiments` run and the temporary directory it ran in.
struct Run {
    out: Output,
    /// Working directory of the run; its results directory is `dir/results`.
    dir: PathBuf,
}

/// Run `experiments args…` in a fresh, empty working directory (artifacts
/// go under it too), with `TLMM_PERF_TOLERANCE` set to `env_tol` or unset.
fn experiments(args: &[&str], env_tol: Option<&str>) -> Run {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli_args")
        .join(format!("run{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args)
        .current_dir(&dir)
        .env(tlmm_bench::artifact::RESULTS_DIR_ENV, dir.join("results"));
    match env_tol {
        Some(t) => cmd.env("TLMM_PERF_TOLERANCE", t),
        None => cmd.env_remove("TLMM_PERF_TOLERANCE"),
    };
    let out = cmd.output().expect("spawn experiments");
    Run { out, dir }
}

fn assert_usage_error(out: &Output, needle: &str, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{context}: stderr {stderr}");
    assert!(
        stderr.contains(needle),
        "{context}: stderr {stderr:?} must name {needle:?}"
    );
}

/// A usage error that left the working directory empty: no artifact, no
/// `BENCH_*.json`, no results directory.
fn assert_rejected_before_work(run: &Run, needle: &str, context: &str) {
    assert_usage_error(&run.out, needle, context);
    let left: Vec<_> = std::fs::read_dir(&run.dir)
        .expect("run dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(
        left.is_empty(),
        "{context}: wrote {left:?} before rejecting"
    );
}

fn reject(args: &[&str], needle: &str) {
    let run = experiments(args, None);
    assert_rejected_before_work(&run, needle, &format!("{args:?}"));
}

/// Every registered name, read from the unknown-experiment usage error so
/// a new experiment is covered without editing this file.
fn registry_names() -> Vec<String> {
    let run = experiments(&["no_such_experiment"], None);
    assert_rejected_before_work(&run, "unknown experiment", "unknown name");
    let stderr = String::from_utf8_lossy(&run.out.stderr);
    let (_, list) = stderr
        .split_once("known experiments: ")
        .expect("usage error lists the registry");
    let list = &list[..list.find(')').expect("list is parenthesized")];
    list.split(", ").map(str::to_string).collect()
}

#[test]
fn every_experiment_rejects_an_unknown_flag_before_work() {
    let names = registry_names();
    for required in ["all", "table1", "kernel_bench", "perf_gate", "soak_bench"] {
        assert!(
            names.iter().any(|n| n == required),
            "{required} in {names:?}"
        );
    }
    for name in &names {
        reject(&[name, "--bogus"], "unknown flag");
    }
}

#[test]
fn no_experiment_name_is_a_usage_error() {
    reject(&[], "known experiments");
}

#[test]
fn kernel_bench_rejects_a_misspelled_smoke_flag_without_writing_the_record() {
    let run = experiments(&["kernel_bench", "--smok"], None);
    assert_rejected_before_work(&run, "--smok", "kernel_bench --smok");
    assert!(!run.dir.join("BENCH_kernels.json").exists());
}

#[test]
fn parallel_bench_rejects_a_misspelled_smoke_flag() {
    reject(&["parallel_bench", "--smok"], "--smok");
}

#[test]
fn size_arguments_reject_a_non_number() {
    for name in ["fig_bandwidth", "phases", "fault_matrix"] {
        reject(&[name, "abc"], "bad key count \"abc\"");
    }
    reject(&["fault_matrix", "1000", "x"], "bad seed count \"x\"");
}

#[test]
fn fig_parallel_rejects_engines_without_a_value() {
    reject(&["fig_parallel", "--engines"], "--engines needs a value");
}

#[test]
fn bad_values_are_usage_errors_not_panics() {
    reject(
        &["fig_parallel", "--engines", "foo"],
        "unknown engine \"foo\"",
    );
    reject(
        &["fig_parallel", "--engines", "nmsort,"],
        "unknown engine \"\"",
    );
    reject(&["tlmm_profile", "--n", "abc"], "bad --n \"abc\"");
    reject(&["tlmm_profile", "--lanes", "0"], "bad --lanes \"0\"");
    reject(
        &["tlmm_profile", "--workers", "2", "--slots", "4"],
        "bad executor",
    );
}

#[test]
fn leftover_arguments_are_rejected() {
    reject(&["soak_bench", "--bogus"], "unknown flag \"--bogus\"");
    reject(&["fig_membound", "junk"], "unexpected argument \"junk\"");
}

#[test]
fn perf_gate_rejects_a_malformed_tolerance_flag() {
    for bad in ["abc", "0.1x", "NaN", "inf", "-0.1"] {
        let run = experiments(&["perf_gate", "--tolerance", bad], None);
        assert_usage_error(&run.out, "--tolerance", bad);
    }
}

#[test]
fn perf_gate_rejects_a_malformed_tolerance_env() {
    for bad in ["abc", "", "NaN", "-1"] {
        let run = experiments(&["perf_gate"], Some(bad));
        assert_usage_error(&run.out, "TLMM_PERF_TOLERANCE", bad);
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
        let argv: Vec<&str> = std::iter::once("perf_gate")
            .chain(args.iter().copied())
            .collect();
        let run = experiments(&argv, None);
        assert_usage_error(&run.out, "needs a value", &format!("{args:?}"));
    }
}

#[test]
fn perf_gate_rejects_unknown_flags_and_unreadable_files() {
    assert_usage_error(
        &experiments(&["perf_gate", "--tolerence", "0.1"], None).out,
        "unknown flag",
        "typo",
    );
    let missing = "/nonexistent/BENCH_kernels_smoke.json";
    let run = experiments(
        &["perf_gate", "--baseline", missing, "--fresh", missing],
        None,
    );
    assert_usage_error(&run.out, "cannot read", "missing file");
}

#[test]
fn perf_gate_passes_a_file_against_itself() {
    let smoke = format!("{REPO}/BENCH_kernels_smoke.json");
    let run = experiments(
        &[
            "perf_gate",
            "--baseline",
            &smoke,
            "--fresh",
            &smoke,
            "--tolerance",
            "0",
        ],
        Some("0.5"),
    );
    assert!(
        run.out.status.success(),
        "stderr {}",
        String::from_utf8_lossy(&run.out.stderr)
    );
}

#[test]
fn table1_rejects_a_bad_size_argument() {
    for args in [&["abc"][..], &["0"], &["-5"], &["1e6"], &["1000", "2000"]] {
        let argv: Vec<&str> = std::iter::once("table1")
            .chain(args.iter().copied())
            .collect();
        let run = experiments(&argv, None);
        let needle = if args.len() > 1 { "usage" } else { "key count" };
        assert_usage_error(&run.out, needle, &format!("{args:?}"));
    }
}
