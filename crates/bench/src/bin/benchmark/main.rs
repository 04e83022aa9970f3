//! The repository benchmark: four paper-scale workloads measured on both
//! clocks — host wall time and the modelled two-level machine — with a
//! traced mode that attributes them to layers. See `README.md` here.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs, one after another, each in a
//! fresh child process of this binary so peak memory and telemetry state
//! stay per workload. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod harness;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::harness::Ctx;
use crate::metrics::{metric_map, Outcome};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;

/// Engine threads asked for; a host with fewer cores gets fewer.
const THREADS_REQUESTED: usize = 2;

/// Settings that silently change what is measured.
const REFUSED_ENV: [&str; 4] = [
    "TLMM_FAULT_SEED",
    "TLMM_EXEC_SEED",
    "TLMM_NO_SIMD",
    "TLMM_TELEMETRY",
];

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
       benchmark compare A.json B.json";

#[derive(Debug, PartialEq)]
enum Cli {
    Run(Args),
    Compare(String, String),
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Cli::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two files".into()),
        };
    }
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: compare::run_seconds()?,
        traced: false,
        out: None,
    };
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if seen.contains(flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; one of {}",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => a.seed = number(value)?,
            "--seconds" => match number(value)? {
                0 => return Err("--seconds must be at least 1".into()),
                s => a.seconds = s,
            },
            "--trace" => match value.as_str() {
                "0" => a.traced = false,
                "1" => a.traced = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Cli::Run(a))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli {
        Cli::Compare(a, b) => match compare::compare(&a, &b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        },
        Cli::Run(a) => {
            if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
                eprintln!("benchmark: refusing to run with {var} set: it changes what is measured");
                return ExitCode::from(2);
            }
            let result = match &a.workload {
                Some(w) => run_one(w, &a),
                None => run_all(&a),
            };
            match result {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(1)
                }
            }
        }
    }
}

fn effective_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, THREADS_REQUESTED.min(nproc))
}

fn default_out(name: &str, a: &Args) -> PathBuf {
    Path::new("target/benchmark").join(format!(
        "{name}-seed{}-trace{}.json",
        a.seed,
        u8::from(a.traced)
    ))
}

/// Run one workload in this process, print its tables, summary lines and
/// result line, and write its samples. Returns whether it was correct.
fn run_one(workload: &str, a: &Args) -> Result<bool, String> {
    let (nproc, threads) = effective_threads();
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds as f64,
        traced: a.traced,
        threads,
    };
    eprintln!(
        "[benchmark] {workload}: seed {}, {} s, trace {}, {threads} threads on {nproc} cores",
        a.seed,
        a.seconds,
        u8::from(a.traced)
    );
    let o = workloads::run(workload, &ctx).ok_or_else(|| format!("no workload {workload}"))?;
    let reported = o.reported(a.traced)?;
    print!("{}", o.report);
    for line in o.summary_lines(&reported) {
        println!("{line}");
    }
    for e in &o.errors {
        eprintln!("[benchmark] {workload}: ERROR {e}");
    }
    let out = a.out.clone().unwrap_or_else(|| default_out(workload, a));
    write_json(&out, &record(&o, a, &reported, nproc, threads))?;
    println!(
        "{}",
        serde::json::value_to_string(&o.result_json(&reported))
    );
    Ok(o.correct())
}

/// Run every workload in a child process, merge their samples into one
/// file, and print one result line over all of them.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = a.out.clone().unwrap_or_else(|| default_out("all", a));
    let dir = out.parent().unwrap_or(Path::new(".")).to_path_buf();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let (mut runs, mut metrics) = (Vec::new(), Vec::new());
    for w in WORKLOADS {
        let child_out = dir.join(format!(
            "{w}-seed{}-trace{}.json",
            a.seed,
            u8::from(a.traced)
        ));
        let output = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&child_out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run the {w} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| serde::json::parse_value(l).ok())
            .filter(|_| output.status.code().is_some_and(|c| c <= 1));
        let Some(result) = result else {
            eprintln!("[benchmark] {w}: child failed ({})", output.status);
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Map(m)) = result.get("metrics") {
            metrics.extend(m.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{}: {e}", child_out.display()))?;
        runs.push(
            serde::json::parse_value(&text).map_err(|e| format!("{}: {e}", child_out.display()))?,
        );
    }
    write_json(&out, &Value::Map(vec![("runs".into(), Value::Seq(runs))]))?;
    let summary = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", serde::json::value_to_string(&summary));
    Ok(correct)
}

/// Commit of the checkout the benchmark runs from, read from `.git`.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Everything one workload run measured, as written under `target/benchmark/`.
fn record(
    o: &Outcome,
    a: &Args,
    reported: &[(String, &'static str, f64)],
    nproc: usize,
    threads: usize,
) -> Value {
    let host = Value::Map(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "threads_requested".into(),
            Value::U64(THREADS_REQUESTED as u64),
        ),
        ("threads".into(), Value::U64(threads as u64)),
        (
            "simd".into(),
            Value::Bool(tlmm_core::kernels::simd::enabled()),
        ),
        ("git_sha".into(), Value::Str(git_sha())),
    ]);
    let samples = Value::Map(
        o.samples
            .iter()
            .map(|(name, s)| {
                let (q1, q3) = quartiles(s);
                let entry = Value::Map(vec![
                    (
                        "unit".into(),
                        Value::Str(metrics::unit_of(name).unwrap_or("").into()),
                    ),
                    ("median".into(), Value::F64(stats::median(s))),
                    ("q1".into(), Value::F64(q1)),
                    ("q3".into(), Value::F64(q3)),
                    (
                        "samples".into(),
                        Value::Seq(s.iter().map(|&x| Value::F64(x)).collect()),
                    ),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    );
    let mut fields = vec![
        ("workload".into(), Value::Str(o.workload.into())),
        ("seed".into(), Value::U64(a.seed)),
        ("seconds".into(), Value::U64(a.seconds)),
        ("trace".into(), Value::Bool(a.traced)),
        ("host".into(), host),
        ("correct".into(), Value::Bool(o.correct())),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        (
            "errors".into(),
            Value::Seq(o.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        ),
        ("end_to_end".into(), samples),
    ];
    if a.traced {
        fields.push(("per_layer".into(), metric_map(reported)));
        fields.push(("report".into(), Value::Str(o.report.clone())));
    }
    Value::Map(fields)
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde::json::to_string_pretty(v).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::metrics::{per_layer, END_TO_END};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_accepts_only_its_flags() {
        assert_eq!(
            parse(&args(
                "--workload dma_100m --seed 7 --seconds 3 --trace 1 --out x.json"
            )),
            Ok(Cli::Run(Args {
                workload: Some("dma_100m".into()),
                seed: 7,
                seconds: 3,
                traced: true,
                out: Some("x.json".into()),
            }))
        );
        let Ok(Cli::Run(defaults)) = parse(&[]) else {
            panic!("no arguments run every workload");
        };
        assert_eq!(Ok(defaults.seconds), compare::run_seconds());
        assert_eq!(
            parse(&args("compare a.json b.json")),
            Ok(Cli::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            "--seed",
            "--seed x",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--workload kmeans",
            "--seed 1 --seed 2",
            "--traced 1",
            "compare a.json",
            "stray",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let v = serde::json::parse_value(compare::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(Value::Seq(list)) = v.get(section) else {
            panic!("BENCHMARK.json has no {section}");
        };
        list.iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_well_named_and_declared() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        assert!(e2e.iter().chain(&layers).all(|(n, _)| valid_name(n)));
        let v = serde::json::parse_value(compare::BENCHMARK_JSON).unwrap();
        let Some(Value::Seq(w)) = v.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = w.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }

    /// The lines of TOML table `[name]` in `toml`, without blanks and
    /// comments.
    fn section<'a>(toml: &'a str, name: &str) -> Vec<&'a str> {
        let header = format!("[{name}]");
        toml.lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// `BENCHMARK.json` builds the manifest in this directory, and Cargo
    /// also builds the same sources as the `benchmark` binary of
    /// `tlmm-bench`. Both must build the same program: the same edition and
    /// release profile, and each dependency the crate, with the features,
    /// that the workspace gives `tlmm-bench`.
    #[test]
    fn own_manifest_builds_what_the_workspace_builds() {
        let own = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let edition =
            |lines: Vec<&'static str>| lines.into_iter().find(|l| l.starts_with("edition"));
        assert_eq!(
            edition(section(own, "package")),
            edition(section(root, "workspace.package"))
        );
        assert_eq!(
            section(own, "profile.release"),
            section(root, "profile.release")
        );
        let workspace = section(root, "workspace.dependencies");
        let bench_deps = section(bench, "dependencies");
        let own_deps = section(own, "dependencies");
        assert!(!own_deps.is_empty());
        for dep in own_deps {
            let (name, spec) = dep.split_once(" = ").expect("`name = { ... }`");
            // This directory is crates/bench/src/bin/benchmark.
            let spec = spec
                .replace("\"../../../../../", "\"")
                .replace("\"../../../../", "\"crates/");
            assert!(
                workspace.contains(&format!("{name} = {spec}").as_str()),
                "{name}: {spec} is not the workspace's"
            );
            assert!(
                bench_deps.contains(&format!("{name}.workspace = true").as_str()),
                "tlmm-bench does not depend on {name}"
            );
        }
    }

    /// The workloads share the process-wide telemetry registry and flight
    /// recorder, so their tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn check(o: Outcome) {
        assert!(o.correct(), "{}: {:?}", o.workload, o.errors);
        assert!(o.attempted > 0);
        o.reported(false).expect("every end-to-end metric");
        o.reported(true).expect("every per-layer metric");
    }

    fn tiny() -> Ctx {
        Ctx {
            seed: 3,
            seconds: 0.0,
            traced: true,
            threads: 2,
        }
    }

    #[test]
    fn table1_runs_end_to_end_small() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        check(workloads::table1(&tiny(), 20_000, 5_000));
    }

    #[test]
    fn dma_runs_end_to_end_small() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let o = workloads::dma(&tiny(), 40_000, 5_000, 10_000);
        assert!(o.layers["core.dma.growth_10m_100m"] > 0.0);
        assert!(o.report.contains("growth carried by"));
        check(o);
    }

    #[test]
    fn spms_runs_end_to_end_small() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        check(workloads::spms_zipf(&tiny(), 20_000));
    }

    #[test]
    fn service_mix_runs_end_to_end_small() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        check(workloads::service_mix(&tiny(), 40));
    }
}
