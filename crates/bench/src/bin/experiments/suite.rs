//! `experiments all [OUT_DIR]` — run the whole evaluation suite and write
//! each artifact under `OUT_DIR` (default `results/`): the one-command
//! reproduction of EXPERIMENTS.md.
//!
//! Each suite member runs in its own process (`experiments <name> <suite
//! args>`), so telemetry stays per experiment; the child writes its own
//! `<stem>.txt` and `<stem>.json` into the output directory, passed on to
//! it as `TLMM_RESULTS_DIR`. Afterwards a `manifest.json`
//! maps every artifact to its files, runtime and exit status, stamped with
//! the git commit.

use crate::REGISTRY;
use serde::Serialize;
use std::process::Command;
use tlmm_bench::artifact;
use tlmm_bench::cli::{Args, Outcome};

#[derive(Serialize)]
struct ManifestEntry {
    artifact: String,
    ok: bool,
    seconds: f64,
    files: Vec<String>,
}

/// A Perfetto trace artifact: unlike the txt/json pairs these are loaded
/// into external tooling, so each records the experiment that produced it
/// and the commit it was produced at (schema v2).
#[derive(Serialize)]
struct TraceArtifact {
    file: String,
    produced_by: String,
    git_sha: String,
}

#[derive(Serialize)]
struct Manifest {
    schema_version: u32,
    git_sha: String,
    out_dir: String,
    entries: Vec<ManifestEntry>,
    traces: Vec<TraceArtifact>,
}

pub fn run(mut args: Args) -> Outcome {
    let out_dir: String = args
        .positional("output directory")
        .unwrap_or_else(|| "results".to_string());
    args.finish();
    std::fs::create_dir_all(&out_dir)?;
    let exe = std::env::current_exe()?;

    let git_sha = artifact::git_sha();
    let mut entries = Vec::new();
    let mut traces = Vec::new();
    let mut failures = 0;
    for e in REGISTRY {
        let Some(suite_args) = e.suite_args else {
            continue;
        };
        eprint!("[experiments all] {} ... ", e.name);
        let started = std::time::Instant::now();
        let output = Command::new(&exe)
            .arg(e.name)
            .args(suite_args)
            .env(artifact::RESULTS_DIR_ENV, &out_dir)
            .output();
        let seconds = started.elapsed().as_secs_f64();
        let ok = match &output {
            Ok(o) if o.status.success() => {
                eprintln!("ok ({seconds:.1}s)");
                true
            }
            Ok(o) => {
                failures += 1;
                eprintln!("FAILED (status {:?})", o.status.code());
                eprintln!("{}", String::from_utf8_lossy(&o.stderr));
                false
            }
            Err(err) => {
                failures += 1;
                eprintln!("could not launch {exe:?}: {err}");
                false
            }
        };
        // Record whichever artifact files the child actually produced.
        let files: Vec<String> = ["txt", "json", "jsonl", "trace.json"]
            .iter()
            .map(|ext| format!("{}.{ext}", e.stem))
            .filter(|f| std::path::Path::new(&out_dir).join(f).exists())
            .collect();
        for f in files.iter().filter(|f| f.ends_with(".trace.json")) {
            traces.push(TraceArtifact {
                file: f.clone(),
                produced_by: e.name.to_string(),
                git_sha: git_sha.clone(),
            });
        }
        entries.push(ManifestEntry {
            artifact: e.stem.to_string(),
            ok,
            seconds,
            files,
        });
    }

    let manifest = Manifest {
        schema_version: 2,
        git_sha,
        out_dir: out_dir.clone(),
        entries,
        traces,
    };
    let manifest_path = format!("{out_dir}/manifest.json");
    std::fs::write(&manifest_path, serde::json::to_string_pretty(&manifest)?)?;
    eprintln!("[experiments all] manifest -> {manifest_path}");

    if failures > 0 {
        eprintln!("[experiments all] {failures} experiment(s) failed");
        std::process::exit(1);
    }
    eprintln!("[experiments all] all artifacts written to {out_dir}/");
    Ok(())
}
