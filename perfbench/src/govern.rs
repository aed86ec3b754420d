//! `govern`: the Fig. 4 online path.
//!
//! The fourteen evaluation benchmarks (ten unseen in training) run
//! closed-loop on the paper's 24-cluster `titan_x`, one governor call per
//! cluster-epoch, under the static default point, PCSTALL, F-LEMMA,
//! SSMDVFS without calibration, SSMDVFS and compressed SSMDVFS at presets
//! 10 % and 20 %. The static baseline does not depend on the preset and
//! runs once per benchmark. Every simulation starts with empty L1/L2
//! caches. The SSMDVFS models are trained in set-up from a small
//! fixed-seed datagen, so the seed moves only the simulated GPU.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dvfs_baselines::{FlemmaConfig, FlemmaGovernor, PcstallConfig, PcstallGovernor};
use gpu_power::VfTable;
use gpu_sim::{
    CounterId, DvfsGovernor, EpochCounters, GpuConfig, Simulation, StaticGovernor, Time, Workload,
};
use ssmdvfs::{
    compress_and_finetune_jobs, generate_suite, train_combined_jobs, CombinedModel, DataGenConfig,
    DvfsDataset, FeatureSet, ModelArch, SsmdvfsConfig, SsmdvfsGovernor, TrainSummary,
};
use tinynn::TrainConfig;

use crate::stats::{digest, mean, median, peak_rss_mb, print_bodies, quantile, timed};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

const PRESETS: [f64; 2] = [0.10, 0.20];
/// Latency slack beyond the preset before a cell counts as a violation.
const VIOLATION_SLACK: f64 = 0.005;
/// Simulation horizon per run; every program finishes well inside it.
const HORIZON_US: f64 = 3_000.0;
const SETUPS: usize = 3;
/// Nominal seconds of one body; a run times `--seconds / BODY_S` sweeps
/// (at least one) and reports their median.
const BODY_S: f64 = 10.0;
/// Governor labels in run order; `static` anchors the normalization.
const LABELS: [&str; 6] =
    ["static", "pcstall", "flemma", "ssmdvfs-nocal", "ssmdvfs", "ssmdvfs-comp"];

struct Sizes {
    eval_scale: f64,
    train_benchmarks: usize,
    train_scale: f64,
    train_epochs: usize,
    finetune_epochs: usize,
}

const FULL: Sizes = Sizes {
    eval_scale: 0.1,
    train_benchmarks: 6,
    train_scale: 0.05,
    train_epochs: 30,
    finetune_epochs: 10,
};
const SMOKE: Sizes = Sizes {
    eval_scale: 0.02,
    train_benchmarks: 2,
    train_scale: 0.02,
    train_epochs: 3,
    finetune_epochs: 2,
};

struct Setup {
    gpu: Arc<GpuConfig>,
    programs: Vec<(String, Arc<Workload>)>,
    full: (CombinedModel, TrainSummary),
    compressed: CombinedModel,
}

/// Trains the SSMDVFS models on a small datagen at fixed seeds and builds
/// the evaluation programs on a GPU seeded from the benchmark seed.
fn setup(opts: &Opts) -> Setup {
    let sizes = if opts.smoke { &SMOKE } else { &FULL };
    let train_gpu = GpuConfig::small_test();
    let benches: Vec<_> = gpu_workloads::training_set()
        .iter()
        .take(sizes.train_benchmarks)
        .map(|b| b.scaled(sizes.train_scale))
        .collect();
    let mut data = DvfsDataset::default();
    for part in generate_suite(&benches, &train_gpu, &DataGenConfig::default(), opts.jobs) {
        data.extend(part);
    }
    let train = TrainConfig {
        epochs: sizes.train_epochs,
        patience: 60,
        lr: 1.5e-3,
        ..TrainConfig::default()
    };
    let num_ops = train_gpu.vf_table.len();
    let features = FeatureSet::refined();
    let full = train_combined_jobs(
        &data,
        &features,
        &ModelArch::paper_full(),
        num_ops,
        &train,
        0.25,
        opts.jobs,
    );
    let (layerwise, _) = train_combined_jobs(
        &data,
        &features,
        &ModelArch::paper_compressed(),
        num_ops,
        &train,
        0.25,
        opts.jobs,
    );
    let finetune = TrainConfig { epochs: sizes.finetune_epochs, ..train };
    let compressed = compress_and_finetune_jobs(&layerwise, &data, 0.6, 0.9, &finetune, opts.jobs);
    Setup {
        gpu: Arc::new(GpuConfig::titan_x().with_seed(opts.seed)),
        programs: gpu_workloads::evaluation_set()
            .iter()
            .map(|b| (b.name().to_string(), Arc::new(b.scaled(sizes.eval_scale).into_workload())))
            .collect(),
        full,
        compressed,
    }
}

/// Times every `decide` of the wrapped governor.
struct Timed<'a> {
    inner: Box<dyn DvfsGovernor>,
    ns: &'a mut Vec<f64>,
}

impl DvfsGovernor for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, cluster: usize, counters: &EpochCounters, table: &VfTable) -> usize {
        let t0 = Instant::now();
        let op = self.inner.decide(cluster, counters, table);
        self.ns.push(t0.elapsed().as_nanos() as f64);
        op
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn governor(label: &str, preset: f64, s: &Setup) -> Box<dyn DvfsGovernor> {
    match label {
        "static" => Box::new(StaticGovernor::default_point(&s.gpu.vf_table)),
        "pcstall" => Box::new(PcstallGovernor::new(PcstallConfig::new(preset))),
        "flemma" => Box::new(FlemmaGovernor::new(FlemmaConfig::new(preset))),
        "ssmdvfs-nocal" => Box::new(SsmdvfsGovernor::new(
            s.full.0.clone(),
            SsmdvfsConfig::new(preset).without_calibration(),
        )),
        "ssmdvfs" => Box::new(SsmdvfsGovernor::new(s.full.0.clone(), SsmdvfsConfig::new(preset))),
        "ssmdvfs-comp" => {
            Box::new(SsmdvfsGovernor::new(s.compressed.clone(), SsmdvfsConfig::new(preset)))
        }
        _ => unreachable!("unknown governor {label}"),
    }
}

/// One normalized (benchmark, governor, preset) cell.
struct Cell {
    label: &'static str,
    preset: f64,
    norm_edp: f64,
    norm_latency: f64,
}

#[derive(Default)]
struct Sweep {
    cells: Vec<Cell>,
    decide_ns: BTreeMap<&'static str, Vec<f64>>,
    runs: u64,
    failed_runs: u64,
    failures: Vec<String>,
    epochs: u64,
    instructions: u64,
    cycles: f64,
    skipped_cycles: f64,
}

fn sweep(s: &Setup, tracer: &mut Tracer) -> Sweep {
    let mut out = Sweep::default();
    let horizon = Time::from_micros(HORIZON_US);
    for (name, workload) in &s.programs {
        let mut base = None;
        for preset in PRESETS {
            for label in LABELS {
                if label == "static" && base.is_some() {
                    continue;
                }
                let span = tracer.begin(&format!("governor.{label}"));
                let mut sim = Simulation::new(Arc::clone(&s.gpu), Arc::clone(workload));
                let ns = out.decide_ns.entry(label).or_default();
                let mut timed = Timed { inner: governor(label, preset, s), ns };
                let result = sim.run(&mut timed, horizon);
                tracer.end(span);
                out.runs += 1;
                out.epochs += result.epochs as u64;
                out.instructions += result.instructions;
                out.skipped_cycles += sim.skipped_cycles() as f64;
                out.cycles += sim
                    .records()
                    .iter()
                    .flat_map(|r| &r.clusters)
                    .map(|c| c.counters[CounterId::TotalCycles])
                    .sum::<f64>();
                if !result.completed {
                    out.failed_runs += 1;
                    out.failures.push(format!("{name} under {label} did not complete"));
                    continue;
                }
                let report = result.edp_report();
                let b = *base.get_or_insert(report);
                let normalized = report
                    .try_normalized_edp(&b)
                    .and_then(|e| report.try_normalized_latency(&b).map(|l| (e, l)));
                match normalized {
                    Ok((norm_edp, norm_latency))
                        if norm_edp.is_finite() && norm_latency.is_finite() =>
                    {
                        if label != "static" {
                            out.cells.push(Cell { label, preset, norm_edp, norm_latency });
                        }
                    }
                    other => {
                        out.failed_runs += 1;
                        out.failures.push(format!(
                            "{name} under {label}: cannot normalize: {:?}",
                            other.err()
                        ));
                    }
                }
            }
        }
    }
    out
}

fn cells_mean(sweep: &Sweep, label: &str, f: impl Fn(&Cell) -> f64) -> f64 {
    let v: Vec<f64> = sweep.cells.iter().filter(|c| c.label == label).map(f).collect();
    mean(&v)
}

fn violations(sweep: &Sweep, label: &str) -> usize {
    sweep
        .cells
        .iter()
        .filter(|c| c.label == label && c.norm_latency > 1.0 + c.preset + VIOLATION_SLACK)
        .count()
}

/// The paper's claim on the Fig. 4 path, checked on every sweep: both
/// SSMDVFS models save EDP over the static default point on average, and
/// full SSMDVFS keeps the mean normalized latency inside the mean preset.
fn check_quality(sweep: &Sweep, out: &mut Outcome) {
    for label in ["ssmdvfs", "ssmdvfs-comp"] {
        let edp = cells_mean(sweep, label, |c| c.norm_edp);
        out.check(edp < 1.0, || format!("{label} does not save EDP: mean normalized EDP {edp}"));
    }
    let latency = cells_mean(sweep, "ssmdvfs", |c| c.norm_latency);
    let limit = 1.0 + mean(&PRESETS) + VIOLATION_SLACK;
    out.check(latency <= limit, || {
        format!("ssmdvfs mean normalized latency {latency} exceeds the mean preset limit {limit}")
    });
}

fn model_digest(m: &CombinedModel) -> String {
    digest(serde_json::to_string(m).expect("model serializes").as_bytes())
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (made, t) = timed(|| setup(opts));
        setups.push(made);
        setup_times.push(t.cpu);
    }
    let s = setups.pop().expect("at least one set-up");
    let digests = [model_digest(&s.full.0), model_digest(&s.compressed)];
    for other in &setups {
        out.check(
            [model_digest(&other.full.0), model_digest(&other.compressed)] == digests,
            || "repeated set-ups trained different models".into(),
        );
    }
    drop(setups);
    println!(
        "input {{\"benchmarks\":{},\"gpu\":\"titan_x\",\"clusters\":{},\"scale\":{},\
         \"governors\":{:?},\"presets\":{:?},\"horizon_us\":{HORIZON_US}}}",
        s.programs.len(),
        s.gpu.num_clusters,
        if opts.smoke { SMOKE.eval_scale } else { FULL.eval_scale },
        LABELS,
        PRESETS,
    );
    println!("digest model_full={} model_compressed={}", digests[0], digests[1]);

    let bodies = if opts.trace { 1 } else { ((opts.seconds / BODY_S).round() as usize).max(1) };
    let mut timings = Vec::new();
    let mut result = None;
    for _ in 0..bodies {
        let (r, t) = timed(|| sweep(&s, &mut Tracer::new(false)));
        timings.push(t);
        out.attempted += r.runs;
        out.failed += r.failed_runs;
        result = Some(r);
    }
    let result = result.expect("at least one sweep ran");
    out.failures.extend(result.failures.iter().cloned());
    check_quality(&result, &mut out);
    for label in &LABELS[1..] {
        println!(
            "fig4 {{\"governor\":\"{label}\",\"norm_edp\":{},\"norm_latency\":{},\"violations\":{}}}",
            cells_mean(&result, label, |c| c.norm_edp),
            cells_mean(&result, label, |c| c.norm_latency),
            violations(&result, label),
        );
    }
    print_bodies(&timings);
    let run_s = median(&timings.iter().map(|t| t.cpu).collect::<Vec<_>>());
    out.end_to_end.insert("setup_s", median(&setup_times));
    out.end_to_end.insert("run_s", run_s);
    out.end_to_end.insert("sparse_flops", s.compressed.sparse_flops() as f64);
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());

    if opts.trace {
        let memo = |name: &str| obs::metrics::global().counter(name).get() as f64;
        let (hits0, misses0) = (memo("decide.memo_hits"), memo("decide.memo_misses"));
        let mut tracer = Tracer::new(true);
        obs::set_enabled(true);
        let (traced, traced_t) = timed(|| {
            let root = tracer.begin("govern");
            let traced = sweep(&s, &mut tracer);
            tracer.end(root);
            traced
        });
        obs::set_enabled(false);
        let (hits, misses) =
            (memo("decide.memo_hits") - hits0, memo("decide.memo_misses") - misses0);
        out.failures.extend(traced.failures.iter().cloned());
        check_quality(&traced, &mut out);
        let selfs = tracer.self_times();
        let busy = |name: &str| selfs.get(name).map_or(0.0, |t| t.cpu);
        let sim_s: f64 = LABELS.iter().map(|l| busy(&format!("governor.{l}"))).sum();
        let ssm_decide_s: f64 = ["ssmdvfs-nocal", "ssmdvfs", "ssmdvfs-comp"]
            .iter()
            .map(|l| traced.decide_ns[l].iter().sum::<f64>())
            .sum::<f64>()
            / 1e9;
        out.layer("gpu_sim.epochs", traced.epochs as f64);
        out.layer("gpu_sim.instructions", traced.instructions as f64);
        out.layer("gpu_sim.epochs_per_s", traced.epochs as f64 / sim_s);
        out.layer("gpu_sim.skipped_fraction", traced.skipped_cycles / traced.cycles.max(1.0));
        for label in LABELS {
            out.layer(&format!("governor.{label}_run_s"), busy(&format!("governor.{label}")));
        }
        out.layer("controller.decide_ns_p50", median(&traced.decide_ns["ssmdvfs"]));
        out.layer("controller.decide_ns_p99", quantile(&traced.decide_ns["ssmdvfs"], 0.99));
        out.layer("controller.decide_share", ssm_decide_s / traced_t.wall);
        out.layer("baselines.pcstall_decide_ns_p50", median(&traced.decide_ns["pcstall"]));
        out.layer("baselines.flemma_decide_ns_p50", median(&traced.decide_ns["flemma"]));
        out.layer("plan.memo_hit_ratio", hits / (hits + misses).max(1.0));
        out.layer("controller.norm_edp", cells_mean(&traced, "ssmdvfs", |c| c.norm_edp));
        out.layer("controller.comp_norm_edp", cells_mean(&traced, "ssmdvfs-comp", |c| c.norm_edp));
        out.layer("controller.norm_latency", cells_mean(&traced, "ssmdvfs", |c| c.norm_latency));
        out.layer("train.decision_accuracy", s.full.1.decision_accuracy);
        out.layer("train.calibrator_mape_pct", s.full.1.calibrator_mape);
        out.layer("baselines.pcstall_norm_edp", cells_mean(&traced, "pcstall", |c| c.norm_edp));
        out.layer("baselines.flemma_norm_edp", cells_mean(&traced, "flemma", |c| c.norm_edp));
        out.layer(
            "controller.nocal_norm_edp",
            cells_mean(&traced, "ssmdvfs-nocal", |c| c.norm_edp),
        );
        out.layer("govern.preset_violations", violations(&traced, "ssmdvfs") as f64);
        out.layer("govern.unattributed_s", busy("govern"));
        out.layer("run.wall_s", traced_t.wall);
        out.layer("trace.overhead_pct", (traced_t.cpu / run_s - 1.0) * 100.0);
        println!(
            "trace {{\"traced_run_s\":{},\"untraced_run_s\":{run_s},\"spans\":{}}}",
            traced_t.cpu,
            tracer.len()
        );
        let path = crate::out_dir().join(format!("trace-govern-{}.json", opts.seed));
        if let Err(e) = tracer.write_chrome(&path) {
            out.failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}
