//! `compare A.json B.json`: judge run B against run A with the bounds the
//! repository's `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, spread};

/// The repository's benchmark definition, embedded so the verdicts and the
/// default run length always come from the sources the binary was built
/// from.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// `run_seconds` of [`BENCHMARK_JSON`]: what `--seconds` defaults to.
pub fn run_seconds() -> Result<u64, String> {
    serde::json::parse_value(BENCHMARK_JSON)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".into())
}

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end bounds declared in [`BENCHMARK_JSON`].
pub fn bounds() -> Result<Vec<Bound>, String> {
    let v = serde::json::parse_value(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = match v.get("end_to_end") {
        Some(Value::Seq(list)) => list,
        _ => return Err("BENCHMARK.json: no end_to_end list".into()),
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The spread of A or B is wider than the bound, and B does not beat
    /// A on every sample.
    Unresolved,
}

/// Apply `bound` to samples `a` (before) and `b` (after). Returns the
/// verdict and B's median change as a share of A's, signed so that a
/// positive value is worse.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        // `+ 0.0` turns a zero change's -0.0 into 0.
        sign * (mb - ma) / ma.abs() + 0.0
    };
    let better_everywhere = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let v = if spread(a).max(spread(b)) > bound.bound {
        if better_everywhere {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (v, worse_by)
}

type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// End-to-end samples per workload from a file the benchmark wrote: one
/// workload's record, or `{"runs": [record, ...]}`.
fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde::json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = match v.get("runs") {
        Some(Value::Seq(runs)) => runs.clone(),
        _ => vec![v],
    };
    let mut out = Samples::new();
    for run in &runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: record without a workload"))?;
        let Some(Value::Map(metrics)) = run.get("end_to_end") else {
            return Err(format!("{path}: {workload} has no end_to_end samples"));
        };
        let mut per_metric = BTreeMap::new();
        for (name, m) in metrics {
            let samples = match m.get("samples") {
                Some(Value::Seq(s)) => s.iter().filter_map(Value::as_f64).collect(),
                _ => return Err(format!("{path}: {workload}.{name} has no samples")),
            };
            per_metric.insert(name.clone(), samples);
        }
        out.insert(workload.to_string(), per_metric);
    }
    Ok(out)
}

/// Compare the runs in `a` and `b`: print one row per workload and return
/// whether any metric got worse.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (sa, sb) = (load(a)?, load(b)?);
    let mut any_worse = false;
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else {
            println!("{workload:<14} missing from {b}");
            continue;
        };
        let mut row = format!("{workload:<14}");
        for bound in &bounds {
            let (Some(xa), Some(xb)) = (ma.get(&bound.name), mb.get(&bound.name)) else {
                row.push_str(&format!(" {}=missing", bound.name));
                continue;
            };
            let (v, worse_by) = verdict(xa, xb, bound);
            any_worse |= v == Verdict::Worse;
            row.push_str(&format!(
                " {}={}({:+.2}%)",
                bound.name,
                format!("{v:?}").to_lowercase(),
                100.0 * worse_by
            ));
        }
        println!("{row}");
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn bounds_decide_better_worse_unchanged_unresolved() {
        let a = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(verdict(&a, &[1.05; 5], &lower(0.1)).0, Verdict::Unchanged);
        assert_eq!(verdict(&a, &[1.2; 5], &lower(0.1)).0, Verdict::Worse);
        assert_eq!(verdict(&a, &[0.8; 5], &lower(0.1)).0, Verdict::Better);
        let (v, d) = verdict(&a, &[1.2; 5], &lower(0.1));
        assert_eq!(v, Verdict::Worse);
        assert!((d - 0.2).abs() < 1e-12);
        // Higher is better: a drop is worse.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&a, &[0.8; 5], &higher).0, Verdict::Worse);
        assert_eq!(verdict(&a, &[1.2; 5], &higher).0, Verdict::Better);
        // A spread wider than the bound leaves a small change unresolved...
        let noisy = [0.7, 0.9, 1.0, 1.1, 1.3];
        assert_eq!(
            verdict(&noisy, &[1.05; 5], &lower(0.1)).0,
            Verdict::Unresolved
        );
        // ...unless every sample of B beats every sample of A.
        assert_eq!(verdict(&noisy, &[0.5; 5], &lower(0.1)).0, Verdict::Better);
    }

    #[test]
    fn bounds_parse_from_the_benchmark_definition() {
        let b = bounds().expect("BENCHMARK.json parses");
        assert!(b.iter().any(|m| m.name == "wall_s" && m.lower_is_better));
        assert!(b.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
