//! Result-file plumbing shared by every experiment.
//!
//! Each experiment renders its tables into a `String`, collects the run's
//! telemetry into a [`RunReport`], and calls [`emit`]: the text goes to
//! stdout (so interactive runs look unchanged) and both
//! `<results>/<name>.txt` and `<results>/<name>.json` are written. The
//! results directory is `TLMM_RESULTS_DIR` when set (`experiments all`
//! sets it) and `results/` otherwise.

use std::path::{Path, PathBuf};
use tlmm_telemetry::RunReport;

/// `writeln!` into a `String` buffer without the infallible-`Result`
/// boilerplate — the experiments build their rendered text with this.
#[macro_export]
macro_rules! outln {
    ($buf:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf);
    }};
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf, $($arg)*);
    }};
}

/// Environment variable naming the directory artifact files go to.
pub const RESULTS_DIR_ENV: &str = "TLMM_RESULTS_DIR";

/// Directory artifact files are written to: `$TLMM_RESULTS_DIR` or
/// `results/`.
pub fn results_dir() -> PathBuf {
    match std::env::var(RESULTS_DIR_ENV) {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("results"),
    }
}

/// Short git commit hash of the working tree, or `"unknown"` outside a
/// repository. Recorded in every report so result files are traceable to
/// the code that produced them.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Paths written by one [`emit`] call.
pub struct Written {
    /// The rendered-text artifact.
    pub text: PathBuf,
    /// The machine-readable [`RunReport`].
    pub json: PathBuf,
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Print `text` to stdout and persist both artifact files.
///
/// `report` should come from [`RunReport::collect`] after the experiment's
/// measured work, with the experiment's parameters attached via
/// [`RunReport::meta`] and its simulator outputs via
/// [`RunReport::section`]; this function stamps the git commit on top.
pub fn emit(name: &str, text: &str, report: RunReport) -> std::io::Result<Written> {
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
    let report = report.meta("git_sha", git_sha());
    let dir = results_dir();
    let written = Written {
        text: dir.join(format!("{name}.txt")),
        json: dir.join(format!("{name}.json")),
    };
    write_file(&written.text, text)?;
    let json = report
        .to_json_pretty()
        .map_err(|e| std::io::Error::other(format!("serialize {name} report: {e}")))?;
    write_file(&written.json, &json)?;
    eprintln!(
        "[{name}] wrote {} and {}",
        written.text.display(),
        written.json.display()
    );
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }

    #[test]
    fn results_dir_defaults() {
        // The env var may or may not be set in the test environment; the
        // default path is only asserted when it is absent.
        if std::env::var(RESULTS_DIR_ENV).is_err() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }
}
