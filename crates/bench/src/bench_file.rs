//! The `BENCH_*.json` record: written by the `kernel_bench` and
//! `parallel_bench` experiments, diffed by `perf_gate`.
//!
//! Full mode writes `BENCH_<stem>.json` into the working directory (at the
//! repo root that is the committed record); smoke mode writes
//! `BENCH_<stem>_smoke.json` under the results directory, next to the
//! other CI artifacts, so a smoke run never clobbers the full record.

use crate::artifact;
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// One measured cell. `kernel` names the measurement, `workload` its input
/// shape; only cells with a before/after pair carry `baseline_ms` and
/// `speedup`, and only cells with a `speedup` gate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    pub kernel: String,
    pub workload: String,
    pub n: usize,
    /// Median ms of the reference implementation.
    pub baseline_ms: Option<f64>,
    pub optimized_ms: f64,
    /// `baseline_ms / optimized_ms`, or the median of paired ratios.
    pub speedup: Option<f64>,
}

/// The parallel sweep's extra header fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepInfo {
    /// Host cores the wall-clock cells ran on (wall speedups are only
    /// meaningful when this reaches the thread axis).
    pub host_cores: usize,
    pub lanes: usize,
    pub rho: f64,
    /// Ledger invariance checks that passed in-binary this run.
    pub asserted: Vec<String>,
}

/// A whole `BENCH_*.json` file. Serializes as one flat object:
/// `git_sha, mode`, `simd_tier` when known, `warmup_iters,
/// measured_iters`, the [`SweepInfo`] fields when present, then `cells`.
#[derive(Debug, Clone)]
pub struct BenchFile {
    pub git_sha: String,
    pub mode: String,
    /// The SIMD tier the kernels ran at (`scalar`, `avx2` or `avx512`;
    /// `tlmm_core::kernels::simd::Tier::name`), so that records from
    /// different hosts say which kernels they timed. Records written
    /// before the field existed lack it.
    pub simd_tier: Option<String>,
    pub warmup_iters: usize,
    pub measured_iters: usize,
    pub sweep: Option<SweepInfo>,
    pub cells: Vec<Cell>,
}

impl Serialize for BenchFile {
    fn to_value(&self) -> Value {
        let mut m = vec![
            ("git_sha".to_string(), self.git_sha.to_value()),
            ("mode".to_string(), self.mode.to_value()),
        ];
        if let Some(tier) = &self.simd_tier {
            m.push(("simd_tier".to_string(), tier.to_value()));
        }
        m.extend([
            ("warmup_iters".to_string(), self.warmup_iters.to_value()),
            ("measured_iters".to_string(), self.measured_iters.to_value()),
        ]);
        if let Some(Value::Map(sweep)) = self.sweep.as_ref().map(Serialize::to_value) {
            m.extend(sweep);
        }
        m.push(("cells".to_string(), self.cells.to_value()));
        Value::Map(m)
    }
}

impl Deserialize for BenchFile {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
            let f = v
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))?;
            T::from_value(f)
        }
        Ok(BenchFile {
            git_sha: field(v, "git_sha")?,
            mode: field(v, "mode")?,
            simd_tier: match v.get("simd_tier") {
                Some(tier) => Some(String::from_value(tier)?),
                None => None,
            },
            warmup_iters: field(v, "warmup_iters")?,
            measured_iters: field(v, "measured_iters")?,
            sweep: match v.get("host_cores") {
                Some(_) => Some(SweepInfo::from_value(v)?),
                None => None,
            },
            cells: field(v, "cells")?,
        })
    }
}

impl BenchFile {
    /// Write `BENCH_<stem>_smoke.json` under the results directory when
    /// `smoke`, else `BENCH_<stem>.json` in the working directory; returns
    /// the path written.
    pub fn write(&self, smoke: bool, stem: &str) -> std::io::Result<PathBuf> {
        let path = if smoke {
            let dir = artifact::results_dir();
            std::fs::create_dir_all(&dir)?;
            dir.join(format!("BENCH_{stem}_smoke.json"))
        } else {
            PathBuf::from(format!("BENCH_{stem}.json"))
        };
        let json = serde::json::to_string_pretty(self)
            .map_err(|e| std::io::Error::other(format!("serialize {}: {e}", path.display())))?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }
}

/// Median of `samples` (the upper one for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed record parses and re-serializes byte-for-byte, so
    /// the one schema keeps both writers' field sets and order.
    #[test]
    fn committed_bench_files_round_trip() {
        for name in [
            "BENCH_kernels.json",
            "BENCH_kernels_smoke.json",
            "BENCH_parallel.json",
            "BENCH_parallel_smoke.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed record exists");
            let file: BenchFile = serde::json::from_str(&text).expect("committed record parses");
            assert_eq!(file.sweep.is_some(), name.contains("parallel"), "{name}");
            let again = serde::json::to_string_pretty(&file).expect("serializes") + "\n";
            assert_eq!(again, text, "{name}");
        }
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
