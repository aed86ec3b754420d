//! `offline`: the paper's offline pipeline (Fig. 2, steps 1–4).
//!
//! All fifteen training benchmarks, scaled, go through data generation
//! (snapshot/replay sweeps in `gpu-sim`), RFE down to the Table I size,
//! training of the full and the compressed architecture, and two-stage
//! pruning with fine-tuning — at `opts.jobs` workers and without a replay
//! cache, so every run simulates from scratch. `plan` and `serve` do no
//! work inside the timed body. The sizes keep every stage well below half
//! of the body.

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::{GpuConfig, Simulation};
use gpu_workloads::Benchmark;
use ssmdvfs::{
    compress_and_finetune_jobs, generate_suite_with, select_features_with, train_combined_jobs,
    CombinedModel, DataGenConfig, DvfsDataset, FeatureSelection, ModelArch, RfeOptions,
    SuiteOptions, TrainSummary,
};
use tinynn::TrainConfig;

use crate::stats::{digest, median, peak_rss_mb, print_bodies, timed};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

/// Indirect features RFE keeps: Table I's IPC, MH, MH\L and L1CRM.
const KEEP_INDIRECT: usize = 4;
/// Pruning thresholds of the paper's compression step.
const PRUNE: (f32, f32) = (0.6, 0.9);
/// Set-ups timed before the first body and again after every body;
/// `setup_s` is the median of all of them. A set-up takes under a
/// millisecond and the host's speed drifts over seconds, so the samples
/// are many and spread over the run.
const SETUPS: usize = 25;
/// Nominal seconds of one body; a run times `--seconds / BODY_S` bodies
/// (at least one) and reports their median.
const BODY_S: f64 = 7.0;

struct Sizes {
    scale: f64,
    train_epochs: usize,
    rfe_epochs: usize,
    finetune_epochs: usize,
}

const FULL: Sizes = Sizes { scale: 0.05, train_epochs: 40, rfe_epochs: 2, finetune_epochs: 20 };
const SMOKE: Sizes = Sizes { scale: 0.02, train_epochs: 4, rfe_epochs: 1, finetune_epochs: 2 };

struct Setup {
    gpu: GpuConfig,
    benches: Vec<Benchmark>,
    datagen: DataGenConfig,
    train: TrainConfig,
    rfe: TrainConfig,
    finetune: TrainConfig,
}

fn setup(opts: &Opts) -> Setup {
    let sizes = if opts.smoke { &SMOKE } else { &FULL };
    let train = TrainConfig {
        epochs: sizes.train_epochs,
        patience: 60,
        lr: 1.5e-3,
        seed: opts.seed,
        ..TrainConfig::default()
    };
    Setup {
        gpu: GpuConfig::small_test().with_seed(opts.seed),
        benches: gpu_workloads::training_set().iter().map(|b| b.scaled(sizes.scale)).collect(),
        datagen: DataGenConfig::default(),
        rfe: TrainConfig { epochs: sizes.rfe_epochs, ..train.clone() },
        finetune: TrainConfig { epochs: sizes.finetune_epochs, ..train.clone() },
        train,
    }
}

/// Everything one pass of the pipeline produced.
struct Product {
    dataset: DvfsDataset,
    selection: FeatureSelection,
    full: (CombinedModel, TrainSummary),
    compressed: CombinedModel,
}

fn body(s: &Setup, jobs: usize, tracer: &mut Tracer) -> Product {
    let num_ops = s.gpu.vf_table.len();
    let dataset = tracer.scope("datagen", || {
        let outcome = generate_suite_with(&s.benches, &s.gpu, &s.datagen, &SuiteOptions::new(jobs))
            .expect("a sweep without a journal cannot fail on I/O");
        let mut dataset = DvfsDataset::default();
        for part in outcome.datasets {
            dataset.extend(part);
        }
        dataset
    });
    let selection = tracer.scope("rfe", || {
        let opts = RfeOptions { jobs, importance_repeats: 1 };
        select_features_with(&dataset, num_ops, KEEP_INDIRECT, &s.rfe, &opts)
    });
    let features = &selection.selected;
    let full = tracer.scope("train.full", || {
        train_combined_jobs(
            &dataset,
            features,
            &ModelArch::paper_full(),
            num_ops,
            &s.train,
            0.25,
            jobs,
        )
    });
    let (layerwise, _) = tracer.scope("train.compressed", || {
        let arch = ModelArch::paper_compressed();
        train_combined_jobs(&dataset, features, &arch, num_ops, &s.train, 0.25, jobs)
    });
    let compressed = tracer.scope("compress", || {
        compress_and_finetune_jobs(&layerwise, &dataset, PRUNE.0, PRUNE.1, &s.finetune, jobs)
    });
    Product { dataset, selection, full, compressed }
}

/// Digests of the dataset and both model JSONs.
fn digests(p: &Product) -> [String; 3] {
    let json = |text: Result<String, _>| digest(text.expect("serializes").as_bytes());
    [
        json(serde_json::to_string(&p.dataset)),
        json(serde_json::to_string(&p.full.0)),
        json(serde_json::to_string(&p.compressed)),
    ]
}

fn check(p: &Product, num_ops: usize, out: &mut Outcome) {
    let d = &p.dataset;
    out.check(!d.is_empty(), || "datagen produced an empty dataset".into());
    out.check(d.samples.iter().all(|s| s.op_index < num_ops), || {
        "a sample's operating point is outside the V/f table".into()
    });
    let labels = d.decision_data(&p.selection.selected, num_ops).y;
    out.check(labels.iter().all(|&y| y < num_ops), || {
        "a decision label is outside the V/f table".into()
    });
    out.check(d.samples.iter().all(|s| s.perf_loss.is_finite()), || {
        "a perf_loss is not finite".into()
    });
    out.check(p.selection.selected.len() == KEEP_INDIRECT + 1, || {
        format!("RFE kept {} features, not {}", p.selection.selected.len(), KEEP_INDIRECT + 1)
    });
}

/// Median µs of one `Simulation::snapshot` + `restore` on a running
/// training program — the checkpoint step every datagen replay starts
/// from.
fn snapshot_us(s: &Setup) -> f64 {
    let mut sim = Simulation::new(s.gpu.clone(), s.benches[0].workload().clone());
    let ops = vec![s.gpu.vf_table.default_index(); s.gpu.num_clusters];
    for _ in 0..3 {
        sim.step_epoch(&ops);
    }
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            black_box(black_box(sim.snapshot()).restore());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let time_setups = |times: &mut Vec<f64>| {
        for _ in 0..SETUPS {
            times.push(timed(|| black_box(setup(opts))).1.cpu);
        }
    };
    time_setups(&mut setup_times);
    let s = setup(opts);
    let num_ops = s.gpu.vf_table.len();
    println!(
        "input {{\"benchmarks\":{},\"gpu\":\"small_test\",\"scale\":{},\"workers\":{},\
         \"train_epochs\":{},\"rfe_epochs\":{},\"finetune_epochs\":{}}}",
        s.benches.len(),
        if opts.smoke { SMOKE.scale } else { FULL.scale },
        opts.jobs,
        s.train.epochs,
        s.rfe.epochs,
        s.finetune.epochs,
    );

    // Untraced bodies: a fixed count from the budget, at least one.
    let bodies = if opts.trace { 1 } else { ((opts.seconds / BODY_S).round() as usize).max(1) };
    let mut timings = Vec::new();
    let mut first_digests = None;
    let mut product = None;
    for _ in 0..bodies {
        let (p, t) = timed(|| body(&s, opts.jobs, &mut Tracer::new(false)));
        timings.push(t);
        time_setups(&mut setup_times);
        out.attempted += 1;
        check(&p, num_ops, &mut out);
        let d = digests(&p);
        match &first_digests {
            None => first_digests = Some(d),
            Some(first) => out.check(first == &d, || "repeated pipeline runs disagree".into()),
        }
        product = Some(p);
    }
    let product = product.expect("at least one body ran");
    let d = first_digests.expect("at least one body ran");
    println!("digest dataset={} model_full={} model_compressed={}", d[0], d[1], d[2]);
    println!(
        "result {{\"bodies\":{},\"samples\":{},\"selected\":{:?},\"accuracy\":{},\"mape_pct\":{},\
         \"sparse_flops\":{}}}",
        timings.len(),
        product.dataset.len(),
        product.selection.selected.counters().iter().map(|c| c.name()).collect::<Vec<_>>(),
        product.full.1.decision_accuracy,
        product.full.1.calibrator_mape,
        product.compressed.sparse_flops(),
    );
    print_bodies(&timings);
    let run_s = median(&timings.iter().map(|t| t.cpu).collect::<Vec<_>>());
    out.end_to_end.insert("setup_s", median(&setup_times));
    out.end_to_end.insert("run_s", run_s);
    out.end_to_end.insert("sparse_flops", product.compressed.sparse_flops() as f64);
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());

    if opts.trace {
        let mut tracer = Tracer::new(true);
        obs::set_enabled(true);
        let (traced, traced_t) = timed(|| {
            let root = tracer.begin("offline");
            let traced = body(&s, opts.jobs, &mut tracer);
            tracer.end(root);
            traced
        });
        obs::set_enabled(false);
        out.check(digests(&traced) == d, || "the traced pipeline run disagrees".into());
        let selfs = tracer.self_times();
        let stage = |name: &str| selfs.get(name).copied().unwrap_or_default();
        let busy = |name: &str| stage(name).cpu;
        let util = |names: &[&str]| {
            let (wall, cpu) = names
                .iter()
                .map(|n| stage(n))
                .fold((0.0, 0.0), |(w, c), t| (w + t.wall, c + t.cpu));
            if wall > 0.0 {
                cpu / (wall * opts.jobs as f64)
            } else {
                0.0
            }
        };
        out.layer("datagen.busy_s", busy("datagen"));
        out.layer("datagen.samples", traced.dataset.len() as f64);
        out.layer("datagen.cpu_util", util(&["datagen"]));
        out.layer("gpu_sim.snapshot_us", snapshot_us(&s));
        out.layer("rfe.busy_s", busy("rfe"));
        out.layer("rfe.cpu_util", util(&["rfe"]));
        out.layer("rfe.selected_accuracy", traced.selection.selected_accuracy);
        out.layer("train.full_s", busy("train.full"));
        out.layer("train.compressed_s", busy("train.compressed"));
        out.layer("train.cpu_util", util(&["train.full", "train.compressed"]));
        out.layer("train.decision_accuracy", traced.full.1.decision_accuracy);
        out.layer("train.calibrator_mape_pct", traced.full.1.calibrator_mape);
        out.layer("compress.busy_s", busy("compress"));
        out.layer("offline.unattributed_s", busy("offline"));
        out.layer("run.wall_s", traced_t.wall);
        out.layer("trace.overhead_pct", (traced_t.cpu / run_s - 1.0) * 100.0);
        println!(
            "trace {{\"traced_run_s\":{},\"untraced_run_s\":{run_s},\"spans\":{}}}",
            traced_t.cpu,
            tracer.len()
        );
        let path = crate::out_dir().join(format!("trace-offline-{}.json", opts.seed));
        if let Err(e) = tracer.write_chrome(&path) {
            out.failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}
