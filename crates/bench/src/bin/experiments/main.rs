//! `experiments` — every table, figure and bench of the evaluation behind
//! one argument parser.
//!
//! `experiments <name> [args]` runs one experiment from [`REGISTRY`];
//! `experiments all [OUT_DIR]` runs the suite (see `suite.rs`). An unknown
//! name or a malformed argument exits with code 2 before any work.
//!
//! Run: `cargo run --release -p tlmm-bench --bin experiments -- <name> [args]`

use tlmm_bench::cli::{process_args, Args, Outcome};

mod ablation;
mod fault_matrix;
mod fig_bandwidth;
mod fig_corescale;
mod fig_crossover;
mod fig_energy;
mod fig_gemm;
mod fig_kmeans;
mod fig_membound;
mod fig_model_validation;
mod fig_overhead;
mod fig_parallel;
mod kernel_bench;
mod parallel_bench;
mod perf_gate;
mod phases;
mod soak_bench;
mod suite;
mod table1;
mod telemetry_overhead;
mod tlmm_profile;

/// One registered experiment.
struct Experiment {
    name: &'static str,
    /// Stem of the artifact files it writes under the results directory.
    stem: &'static str,
    /// Its arguments, as printed after `experiments <name>` on a usage error.
    usage: &'static str,
    /// The arguments `experiments all` runs it with; `None` keeps it out of
    /// the suite.
    suite_args: Option<&'static [&'static str]>,
    /// Parses its arguments from the [`Args`] before doing any work.
    run: fn(Args) -> Outcome,
}

/// Run by `experiments all` with no arguments.
const SUITE: Option<&[&str]> = Some(&[]);
/// Left out of `experiments all`.
const NOT_SUITE: Option<&[&str]> = None;

/// Every experiment, suite members in the order `experiments all` runs
/// them. The soak bench runs `--smoke` in the suite so the full-length
/// soak stays a nightly job.
#[rustfmt::skip]
const REGISTRY: &[Experiment] = &[
    Experiment { name: "table1", stem: "table1", usage: "[N]", suite_args: SUITE, run: table1::run },
    Experiment { name: "fig_bandwidth", stem: "fig_bandwidth", usage: "[N]", suite_args: SUITE, run: fig_bandwidth::run },
    Experiment { name: "fig_corescale", stem: "fig_corescale", usage: "[N]", suite_args: SUITE, run: fig_corescale::run },
    Experiment { name: "fig_model_validation", stem: "fig_model_validation", usage: "", suite_args: SUITE, run: fig_model_validation::run },
    Experiment { name: "fig_membound", stem: "fig_membound", usage: "", suite_args: SUITE, run: fig_membound::run },
    Experiment { name: "fig_overhead", stem: "fig_overhead", usage: "", suite_args: SUITE, run: fig_overhead::run },
    Experiment { name: "fig_kmeans", stem: "fig_kmeans", usage: "", suite_args: SUITE, run: fig_kmeans::run },
    Experiment { name: "fig_parallel", stem: "fig_parallel", usage: "[--engines ENGINE,...]", suite_args: SUITE, run: fig_parallel::run },
    Experiment { name: "fig_energy", stem: "fig_energy", usage: "[N]", suite_args: SUITE, run: fig_energy::run },
    Experiment { name: "fig_gemm", stem: "fig_gemm", usage: "", suite_args: SUITE, run: fig_gemm::run },
    Experiment { name: "fig_crossover", stem: "fig_crossover", usage: "[--smoke]", suite_args: SUITE, run: fig_crossover::run },
    Experiment { name: "ablation", stem: "ablation", usage: "", suite_args: SUITE, run: ablation::run },
    Experiment { name: "telemetry_overhead", stem: "telemetry_overhead", usage: "", suite_args: SUITE, run: telemetry_overhead::run },
    Experiment { name: "tlmm_profile", stem: "tlmm_profile", usage: tlmm_profile::USAGE, suite_args: SUITE, run: tlmm_profile::run },
    Experiment { name: "soak_bench", stem: "soak", usage: "[--smoke]", suite_args: Some(&["--smoke"]), run: soak_bench::run },
    Experiment { name: "fault_matrix", stem: "fault_matrix", usage: "[N [SEEDS]]", suite_args: NOT_SUITE, run: fault_matrix::run },
    Experiment { name: "phases", stem: "phases", usage: "[N]", suite_args: NOT_SUITE, run: phases::run },
    Experiment { name: "kernel_bench", stem: "kernel_bench", usage: "[--smoke | --full10m]", suite_args: NOT_SUITE, run: kernel_bench::run },
    Experiment { name: "parallel_bench", stem: "parallel_bench", usage: "[--smoke]", suite_args: NOT_SUITE, run: parallel_bench::run },
    Experiment { name: "perf_gate", stem: "perf_gate", usage: "[--baseline PATH] [--fresh PATH] [--tolerance FRAC]", suite_args: NOT_SUITE, run: perf_gate::run },
];

fn main() -> Outcome {
    let mut argv = process_args();
    let names = std::iter::once("all")
        .chain(REGISTRY.iter().map(|e| e.name))
        .collect::<Vec<_>>()
        .join(", ");
    let top = Args::new("experiments", "<name> [args] | all [OUT_DIR]", Vec::new());
    if argv.is_empty() {
        top.fail(format_args!(
            "no experiment named (known experiments: {names})"
        ));
    }
    let name = argv.remove(0);
    if name == "all" {
        return suite::run(Args::new("experiments all", "[OUT_DIR]", argv));
    }
    match REGISTRY.iter().find(|e| e.name == name) {
        Some(e) => (e.run)(Args::new(format!("experiments {name}"), e.usage, argv)),
        None => top.fail(format_args!(
            "unknown experiment {name:?} (known experiments: {names})"
        )),
    }
}
