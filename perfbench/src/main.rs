//! The repository benchmark: three workloads over the SSMDVFS
//! reproduction, driven only through the library crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline|govern|serve --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! from a separate traced run. Any failed output check prints
//! `correct: false` and exits with code 1. See `perfbench/README.md`.

mod govern;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("sparse_flops", "count")];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.busy_s", "s"),
    ("datagen.samples", "count"),
    ("datagen.cpu_util", "ratio"),
    ("gpu_sim.snapshot_us", "us"),
    ("rfe.busy_s", "s"),
    ("rfe.cpu_util", "ratio"),
    ("rfe.selected_accuracy", "ratio"),
    ("train.full_s", "s"),
    ("train.compressed_s", "s"),
    ("train.cpu_util", "ratio"),
    ("train.decision_accuracy", "ratio"),
    ("train.calibrator_mape_pct", "%"),
    ("compress.busy_s", "s"),
    ("offline.unattributed_s", "s"),
    ("gpu_sim.epochs", "count"),
    ("gpu_sim.instructions", "count"),
    ("gpu_sim.epochs_per_s", "1/s"),
    ("gpu_sim.skipped_fraction", "ratio"),
    ("governor.static_run_s", "s"),
    ("governor.pcstall_run_s", "s"),
    ("governor.flemma_run_s", "s"),
    ("governor.ssmdvfs-nocal_run_s", "s"),
    ("governor.ssmdvfs_run_s", "s"),
    ("governor.ssmdvfs-comp_run_s", "s"),
    ("controller.decide_ns_p50", "ns"),
    ("controller.decide_ns_p99", "ns"),
    ("controller.decide_share", "ratio"),
    ("baselines.pcstall_decide_ns_p50", "ns"),
    ("baselines.flemma_decide_ns_p50", "ns"),
    ("plan.memo_hit_ratio", "ratio"),
    ("controller.norm_edp", "ratio"),
    ("controller.comp_norm_edp", "ratio"),
    ("controller.norm_latency", "ratio"),
    ("baselines.pcstall_norm_edp", "ratio"),
    ("baselines.flemma_norm_edp", "ratio"),
    ("controller.nocal_norm_edp", "ratio"),
    ("govern.preset_violations", "count"),
    ("govern.unattributed_s", "s"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.submit_ns_p99", "ns"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.batches", "count"),
    ("serve.achieved_rps", "1/s"),
    ("serve.fallback_share", "ratio"),
    ("serve.late_share", "ratio"),
    ("serve.lateness_us_p99", "us"),
    ("serve.overload_mean_batch", "count"),
    ("serve.overload_fallback_share", "ratio"),
    ("serve.overload_p50_us", "us"),
    ("serve.unattributed_s", "s"),
    ("run.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Where traced runs write their Chrome trace files (ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrunk inputs for the benchmark's own tests.
    pub smoke: bool,
    /// Worker threads for the library's parallel stages.
    pub jobs: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pipeline runs, governed simulations,
    /// decision requests).
    pub attempted: u64,
    /// Operations that failed (for `serve`: fallback answers at the
    /// nominal rate).
    pub failed: u64,
    /// Descriptions of failed output checks; empty when all passed.
    pub failures: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub per_layer: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload offline|govern|serve --seed N --seconds S --trace 0|1 \
         [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()).min(2),
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value == "1",
            _ => usage(),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        usage();
    }
    opts
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn target_features() -> String {
    let mut on = Vec::new();
    #[cfg(target_arch = "x86_64")]
    for (name, present) in [
        ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
        ("avx", std::arch::is_x86_feature_detected!("avx")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ] {
        if present {
            on.push(name);
        }
    }
    format!(
        "{} detected [{}], compiled avx2={}",
        std::env::consts::ARCH,
        on.join(","),
        cfg!(target_feature = "avx2")
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn print_env(opts: &Opts) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env {{\"nproc\":{nproc},\"cpu\":{},\"target_features\":{},\"rustc\":{},\"git_rev\":{},\
         \"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"workers\":{}}}",
        json_str(&cpu_model()),
        json_str(&target_features()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_rev()),
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        opts.jobs,
    );
}

/// Builds the result line: every metric of the selected kind, in table
/// order. Every workload measures every end-to-end metric; a per-layer
/// metric of a layer the workload does not run prints as 0.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = if trace {
            outcome.per_layer.get(*name).copied()
        } else {
            outcome.end_to_end.get(name).copied()
        };
        // JSON has no NaN; a missing or non-finite end-to-end value
        // already failed the run.
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    )
}

fn main() {
    let opts = parse_args();
    print_env(&opts);
    let mut outcome = match opts.workload.as_str() {
        "offline" => offline::run(&opts),
        "govern" => govern::run(&opts),
        "serve" => serve::run(&opts),
        _ => usage(),
    };
    // Metric names come from the tables above; a name outside them, or a
    // value that is not a finite number, is a bug in this benchmark.
    for name in outcome.per_layer.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unregistered per-layer metric {name}");
    }
    for name in outcome.end_to_end.keys() {
        assert!(END_TO_END.iter().any(|(n, _)| n == name), "unregistered metric {name}");
    }
    let non_finite: Vec<String> = outcome
        .end_to_end
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .chain(outcome.per_layer.iter().map(|(k, v)| (k.clone(), *v)))
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| format!("metric {k} is not finite"))
        .collect();
    outcome.failures.extend(non_finite);
    let missing: Vec<String> = END_TO_END
        .iter()
        .filter(|(n, _)| !outcome.end_to_end.contains_key(n))
        .map(|(n, _)| format!("end-to-end metric {n} was not measured"))
        .collect();
    outcome.failures.extend(missing);
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", result_line(&outcome, opts.trace));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
