//! Perf-regression baselines for the offline pipeline.
//!
//! Two sections, selected by flag:
//!
//! * default (or `--datagen`): sequential vs parallel
//!   `generate_workload_jobs` throughput and the per-breakpoint checkpoint
//!   cost (cheap `SimSnapshot` vs full `Simulation` clone), written to
//!   `BENCH_datagen.json`.
//! * `--train`: training-loop throughput (epochs/sec on the paper-full
//!   decision head, serial vs the 4-job sharded-gradient engine with a
//!   byte-identity check) and RFE wall-clock at 1 vs 8 workers, written to
//!   `BENCH_train.json`.
//! * `--sim`: simulation-engine throughput — naive-tick vs cycle-skip
//!   cycles/sec on a memory-bound workload (byte-identical results, checked
//!   here too), `Arc`-shared snapshot cost, and replay-cache cold vs warm
//!   datagen wall-clock — written to `BENCH_sim.json`.
//! * `--serve`: decision-serving throughput — the sharded micro-batching
//!   service at `--max-batch 1` (single-request baseline) vs `32`, with
//!   p50/p99 decision latency, batch occupancy and a decision-stream
//!   identity check between the two modes — written to `BENCH_serve.json`.
//! * `--decide`: single-decision latency — ns/inference for the dense head
//!   kernel on the compressed decision head, ns/decision for the unfused
//!   reference path vs the compiled `DecisionPlan` (dense, CSR on 80 %-pruned
//!   heads, and memo-hit variants), plus the memo hit rate
//!   and a decision-stream identity check on a phase-structured replay —
//!   written to `BENCH_decide.json`.
//!
//! All JSON files land in the artifact directory so CI can diff runs.
//! Pass `--smoke` (or set `SSMDVFS_SMOKE=1`) for a seconds-long run on
//! tiny inputs; the numbers are still recorded but not meaningful as a
//! baseline.

use std::time::Instant;

use gpu_sim::{CounterId, EngineMode, EpochCounters, GpuConfig, Simulation, StaticGovernor, Time};
use gpu_workloads::by_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use ssmdvfs::serve::{DecisionRequest, DecisionService, ServeConfig, ServeStats};
use ssmdvfs::{
    generate_suite_with, generate_workload_jobs, select_features_with, CombinedModel,
    DataGenConfig, DecisionPlan, DvfsDataset, RawSample, ReplayCache, RfeOptions, SsmdvfsConfig,
    SuiteOptions,
};
use ssmdvfs_bench::artifacts_dir;
use tinynn::{
    effective_jobs, grad_shards, prune_magnitude, train_classifier_parallel_with,
    train_classifier_with, ClassificationData, InferScratch, Matrix, Mlp, TrainConfig, TrainPool,
    TrainScratch,
};

#[derive(Serialize)]
struct DatagenBaseline {
    smoke: bool,
    workers: usize,
    samples_per_run: usize,
    sequential_secs: f64,
    parallel_secs: f64,
    sequential_samples_per_sec: f64,
    parallel_samples_per_sec: f64,
    speedup: f64,
    snapshot_cost_us: f64,
    full_clone_cost_us: f64,
    snapshot_vs_clone: f64,
}

#[derive(Serialize)]
struct TrainBaseline {
    smoke: bool,
    workers: usize,
    /// Samples in the epochs/sec training set.
    train_samples: usize,
    /// Epochs actually executed during the timed run.
    train_epochs: usize,
    epochs_per_sec: f64,
    /// Worker count of the parallel SGD measurement.
    train_jobs: usize,
    /// Epochs/sec with the minibatch gradient sharded over `train_jobs`
    /// workers.
    parallel_epochs_per_sec: f64,
    /// Parallel vs serial epochs/sec (≥ 1.3 expected at 4 jobs on a
    /// multi-core host; sub-1 on a 1-core container, where the gate is
    /// skipped).
    train_speedup: f64,
    /// Gradient shards per default-sized (64-row) minibatch.
    grad_shards_per_batch: usize,
    /// Whether the parallel run reproduced the serial models byte-for-byte
    /// (the determinism contract of the training engine).
    parallel_identical: bool,
    /// Samples in the RFE dataset.
    rfe_samples: usize,
    rfe_importance_repeats: usize,
    rfe_jobs: usize,
    rfe_serial_secs: f64,
    rfe_parallel_secs: f64,
    rfe_speedup: f64,
}

#[derive(Serialize)]
struct SimBaseline {
    smoke: bool,
    workers: usize,
    /// Simulated core cycles per full run (identical in both modes — the
    /// engines are byte-equivalent, asserted below).
    total_cycles: f64,
    naive_secs: f64,
    skip_secs: f64,
    naive_cycles_per_sec: f64,
    skip_cycles_per_sec: f64,
    speedup: f64,
    /// Cycles the skip engine jumped over instead of ticking.
    skipped_cycles: u64,
    skipped_fraction: f64,
    snapshot_cost_us: f64,
    /// Datagen sweep wall-clock with an empty vs fully-populated replay
    /// cache (same process, same worker count).
    cache_cold_secs: f64,
    cache_warm_secs: f64,
    cache_speedup: f64,
    cache_warm_hits: u64,
}

/// Runs `bench` to completion under `mode`, `reps` times; returns the
/// mean wall-clock, simulated cycles per run, skipped cycles per run and
/// the serialized `SimResult` of the last run (for the equivalence check).
fn time_engine(
    cfg: &GpuConfig,
    bench: &gpu_workloads::Benchmark,
    mode: EngineMode,
    reps: usize,
) -> (f64, f64, u64, String) {
    let mut cycles = 0.0;
    let mut skipped = 0;
    let mut result_json = String::new();
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
        sim.set_engine(mode);
        let mut governor = StaticGovernor::new(cfg.vf_table.default_index());
        let result = sim.run(&mut governor, Time::from_micros(50_000.0));
        assert!(result.completed, "baseline workload must complete");
        cycles = sim
            .records()
            .iter()
            .flat_map(|r| r.clusters.iter())
            .map(|c| c.counters[CounterId::TotalCycles])
            .sum();
        skipped = sim.skipped_cycles();
        result_json = serde_json::to_string(&result).expect("result serializes");
    }
    (t0.elapsed().as_secs_f64() / reps as f64, cycles, skipped, result_json)
}

fn run_sim(smoke: bool) {
    let cfg = GpuConfig::small_test();
    let (scale, reps, checkpoint_iters) = if smoke { (0.05, 1, 50) } else { (0.4, 3, 500) };
    let bench = by_name("lbm").expect("lbm exists").scaled(scale);
    let workers = effective_jobs(0);
    eprintln!("[perf_baseline] sim engine on '{}' (smoke={smoke})", bench.name());

    let (naive_secs, naive_cycles, _, naive_json) =
        time_engine(&cfg, &bench, EngineMode::NaiveTick, reps);
    let (skip_secs, skip_cycles, skipped_cycles, skip_json) =
        time_engine(&cfg, &bench, EngineMode::CycleSkip, reps);
    assert_eq!(naive_json, skip_json, "engines must produce byte-identical SimResults");
    assert!((naive_cycles - skip_cycles).abs() < 0.5, "engines must simulate the same cycles");

    let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    for _ in 0..300 {
        if sim.is_complete() {
            break;
        }
        sim.step_epoch(&ops);
    }
    let (snapshot_cost_us, _) = time_checkpoints(&sim, checkpoint_iters);

    eprintln!("[perf_baseline] replay cache cold vs warm datagen sweep");
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(if smoke { 300.0 } else { 2_000.0 }),
        ..DataGenConfig::default()
    };
    let cache = std::sync::Arc::new(ReplayCache::in_memory());
    let mut options = SuiteOptions::new(0);
    options.cache = Some(cache.clone());
    let benches = [bench.clone()];
    let t0 = Instant::now();
    let cold = generate_suite_with(&benches, &cfg, &dg, &options).expect("cold sweep runs");
    let cache_cold_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = generate_suite_with(&benches, &cfg, &dg, &options).expect("warm sweep runs");
    let cache_warm_secs = t0.elapsed().as_secs_f64();
    let cache_warm_hits = cache.hits();
    assert!(cache_warm_hits > 0, "warm sweep must hit the cache");
    assert_eq!(
        serde_json::to_string(&cold.datasets).expect("serializes"),
        serde_json::to_string(&warm.datasets).expect("serializes"),
        "cache hits must reproduce the cold sweep byte-for-byte"
    );

    let baseline = SimBaseline {
        smoke,
        workers,
        total_cycles: skip_cycles,
        naive_secs,
        skip_secs,
        naive_cycles_per_sec: naive_cycles / naive_secs,
        skip_cycles_per_sec: skip_cycles / skip_secs,
        speedup: naive_secs / skip_secs,
        skipped_cycles,
        skipped_fraction: skipped_cycles as f64 / skip_cycles.max(1.0),
        snapshot_cost_us,
        cache_cold_secs,
        cache_warm_secs,
        cache_speedup: cache_cold_secs / cache_warm_secs,
        cache_warm_hits,
    };
    let path = artifacts_dir().join("BENCH_sim.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] {:.3e} cycles/s naive -> {:.3e} cycles/s skip ({:.2}x, {:.1}% skipped); snapshot {:.1} us; cache {:.2}s cold -> {:.2}s warm ({} hits) -> {}",
        baseline.naive_cycles_per_sec,
        baseline.skip_cycles_per_sec,
        baseline.speedup,
        baseline.skipped_fraction * 100.0,
        baseline.snapshot_cost_us,
        baseline.cache_cold_secs,
        baseline.cache_warm_secs,
        baseline.cache_warm_hits,
        path.display()
    );
}

fn time_generate(
    bench: &gpu_workloads::Benchmark,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    jobs: usize,
    runs: usize,
) -> (f64, usize) {
    let mut samples = 0;
    let t0 = Instant::now();
    for _ in 0..runs {
        samples =
            generate_workload_jobs(bench.name(), bench.workload().clone(), cfg, dg, jobs).len();
    }
    (t0.elapsed().as_secs_f64() / runs as f64, samples)
}

fn time_checkpoints(sim: &Simulation, iters: usize) -> (f64, f64) {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sim.snapshot());
    }
    let snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sim.clone());
    }
    let clone_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    (snapshot_us, clone_us)
}

fn run_datagen(smoke: bool) {
    let cfg = GpuConfig::small_test();
    let (scale, max_us, runs, checkpoint_iters) =
        if smoke { (0.05, 300.0, 1, 50) } else { (0.4, 2_000.0, 3, 500) };
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(max_us),
        ..DataGenConfig::default()
    };
    let bench = by_name("lbm").expect("lbm exists").scaled(scale);
    let workers = effective_jobs(0);

    eprintln!("[perf_baseline] datagen on '{}' (smoke={smoke}, workers={workers})", bench.name());
    let (sequential_secs, samples) = time_generate(&bench, &cfg, &dg, 1, runs);
    let (parallel_secs, par_samples) = time_generate(&bench, &cfg, &dg, 0, runs);
    assert_eq!(samples, par_samples, "parallel datagen changed the sample count");
    assert!(samples > 0, "datagen produced no samples");

    let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let mut sim = Simulation::new(cfg, bench.workload().clone());
    for _ in 0..300 {
        if sim.is_complete() {
            break;
        }
        sim.step_epoch(&ops);
    }
    let (snapshot_cost_us, full_clone_cost_us) = time_checkpoints(&sim, checkpoint_iters);

    let baseline = DatagenBaseline {
        smoke,
        workers,
        samples_per_run: samples,
        sequential_secs,
        parallel_secs,
        sequential_samples_per_sec: samples as f64 / sequential_secs,
        parallel_samples_per_sec: samples as f64 / parallel_secs,
        speedup: sequential_secs / parallel_secs,
        snapshot_cost_us,
        full_clone_cost_us,
        snapshot_vs_clone: full_clone_cost_us / snapshot_cost_us,
    };
    let path = artifacts_dir().join("BENCH_datagen.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] {:.0} samples/s sequential, {:.0} samples/s parallel ({:.2}x on {} workers); snapshot {:.1} us vs clone {:.1} us ({:.1}x cheaper) -> {}",
        baseline.sequential_samples_per_sec,
        baseline.parallel_samples_per_sec,
        baseline.speedup,
        workers,
        snapshot_cost_us,
        full_clone_cost_us,
        baseline.snapshot_vs_clone,
        path.display()
    );
}

/// Synthetic counter samples with a learnable stall-fraction → frequency
/// rule, with signal spread over several counters so RFE has real work.
fn synthetic_dataset(n: usize) -> DvfsDataset {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let stall = (i % 11) as f64 / 10.0;
        let mut c = EpochCounters::zeroed();
        c[CounterId::Ipc] = 2.0 - 1.5 * stall;
        c[CounterId::PowerTotalW] = 3.0 + 4.0 * (1.0 - stall);
        c[CounterId::StallMemLoad] = stall * 8_000.0;
        c[CounterId::StallMemOther] = stall * 900.0;
        c[CounterId::L1ReadMiss] = stall * 600.0;
        c[CounterId::DramQueueNs] = stall * 2_500.0;
        c[CounterId::MemTransactions] = stall * 1_200.0;
        samples.push(RawSample {
            benchmark: "syn".into(),
            cluster: i % 4,
            breakpoint: i / 4,
            counters: c.clone(),
            scaled_counters: c,
            op_index: i % 6,
            perf_loss: (1.0 - stall) * 0.1 * (5 - i % 6) as f64,
            instructions: 8_000,
        });
    }
    DvfsDataset { samples, ..DvfsDataset::default() }
}

/// Epochs/sec through the paper-full decision head on a 1200×6 random
/// classification set — the training-loop throughput number
/// docs/performance.md tracks. The raw-matrix setup (not `decision_data`,
/// which fans each context into variant × preset rows) matches the pre-PR
/// baseline measurement this number is compared against.
fn time_training(smoke: bool, jobs: usize) -> (usize, usize, f64, f64, bool) {
    let n = if smoke { 240 } else { 1_200 };
    let epochs = if smoke { 5 } else { 60 };
    let reps = if smoke { 1 } else { 5 };
    let mut rng = StdRng::seed_from_u64(1);
    let mut x = Matrix::zeros(n, 6);
    for v in x.as_mut_slice() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
    let y: Vec<usize> = (0..n).map(|i| i % 6).collect();
    let data = ClassificationData::new(x, y, 6);
    let (train, val) = data.split(0.25, &mut rng);
    // patience = epochs disables early stopping so every timed epoch runs.
    let cfg = TrainConfig { epochs, patience: epochs, ..TrainConfig::default() };
    let mut scratch = TrainScratch::new();
    // Both runs train the same initial models, so the parallel pass can be
    // checked byte-for-byte against the serial one.
    let inits: Vec<Mlp> =
        (0..reps).map(|_| Mlp::new(&[6, 20, 20, 20, 20, 20, 6], &mut rng)).collect();
    // Warm-up sizes the scratch buffers; the timed runs are allocation-free.
    let mut mlp = inits[0].clone();
    train_classifier_with(&mut mlp, &train, &val, &cfg, None, &mut scratch);

    let mut ran = 0;
    let mut serial_models = Vec::with_capacity(reps);
    let t0 = Instant::now();
    for init in &inits {
        let mut mlp = init.clone();
        let report = train_classifier_with(&mut mlp, &train, &val, &cfg, None, &mut scratch);
        ran += report.train_loss.len();
        serial_models.push(mlp);
    }
    let serial_secs = t0.elapsed().as_secs_f64();

    let pool = TrainPool::new(jobs);
    // Parallel warm-up (first fan-out wakes the worker team).
    let mut mlp = inits[0].clone();
    train_classifier_parallel_with(&mut mlp, &train, &val, &cfg, None, &mut scratch, &pool);
    let mut identical = true;
    let t0 = Instant::now();
    for (init, serial) in inits.iter().zip(&serial_models) {
        let mut mlp = init.clone();
        train_classifier_parallel_with(&mut mlp, &train, &val, &cfg, None, &mut scratch, &pool);
        identical &= mlp == *serial;
    }
    let parallel_secs = t0.elapsed().as_secs_f64();
    (n, ran, ran as f64 / serial_secs, ran as f64 / parallel_secs, identical)
}

/// RFE wall-clock, serial vs `jobs` workers. Identical selection is a
/// tested invariant; this only reports the time.
fn time_rfe(smoke: bool, jobs: usize) -> (usize, usize, f64, f64) {
    let (n, epochs, keep, repeats) = if smoke { (96, 1, 36, 2) } else { (480, 8, 4, 8) };
    let dataset = synthetic_dataset(n);
    let cfg = TrainConfig { epochs, ..TrainConfig::default() };
    let opts = RfeOptions { jobs: 1, importance_repeats: repeats };
    let t0 = Instant::now();
    let serial = select_features_with(&dataset, 6, keep, &cfg, &opts);
    let serial_secs = t0.elapsed().as_secs_f64();
    let opts = RfeOptions { jobs, importance_repeats: repeats };
    let t0 = Instant::now();
    let parallel = select_features_with(&dataset, 6, keep, &cfg, &opts);
    let parallel_secs = t0.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "worker count changed the RFE selection");
    (n, repeats, serial_secs, parallel_secs)
}

fn run_train(smoke: bool) {
    let workers = effective_jobs(0);
    let rfe_jobs = 8;
    let train_jobs = 4;
    eprintln!(
        "[perf_baseline] training loop at 1 vs {train_jobs} workers (smoke={smoke}, workers={workers})"
    );
    let (train_samples, train_epochs, epochs_per_sec, parallel_epochs_per_sec, parallel_identical) =
        time_training(smoke, train_jobs);
    eprintln!("[perf_baseline] rfe wall-clock at 1 vs {rfe_jobs} workers");
    let (rfe_samples, rfe_importance_repeats, rfe_serial_secs, rfe_parallel_secs) =
        time_rfe(smoke, rfe_jobs);

    let baseline = TrainBaseline {
        smoke,
        workers,
        train_samples,
        train_epochs,
        epochs_per_sec,
        train_jobs,
        parallel_epochs_per_sec,
        train_speedup: parallel_epochs_per_sec / epochs_per_sec,
        grad_shards_per_batch: grad_shards(TrainConfig::default().batch_size),
        parallel_identical,
        rfe_samples,
        rfe_importance_repeats,
        rfe_jobs,
        rfe_serial_secs,
        rfe_parallel_secs,
        rfe_speedup: rfe_serial_secs / rfe_parallel_secs,
    };
    assert!(
        baseline.parallel_identical,
        "parallel SGD diverged from the serial models (determinism contract broken)"
    );
    let path = artifacts_dir().join("BENCH_train.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] {:.1} epochs/s serial vs {:.1} at {} jobs ({:.2}x, {} shards/batch, identical={}); RFE {:.2}s serial vs {:.2}s at {} workers ({:.2}x) -> {}",
        baseline.epochs_per_sec,
        baseline.parallel_epochs_per_sec,
        train_jobs,
        baseline.train_speedup,
        baseline.grad_shards_per_batch,
        baseline.parallel_identical,
        baseline.rfe_serial_secs,
        baseline.rfe_parallel_secs,
        rfe_jobs,
        baseline.rfe_speedup,
        path.display()
    );
}

#[derive(Serialize)]
struct ServeBaseline {
    smoke: bool,
    /// Concurrent client threads submitting decision requests.
    clients: usize,
    requests_per_client: usize,
    max_batch: usize,
    single_throughput_rps: f64,
    batched_throughput_rps: f64,
    /// Batched vs single-request throughput (the headline number).
    speedup: f64,
    single_p50_us: f64,
    single_p99_us: f64,
    batched_p50_us: f64,
    batched_p99_us: f64,
    /// Mean requests answered per batched forward pass at `max_batch`.
    mean_batch_occupancy: f64,
    deadline_misses: u64,
    /// Whether both modes produced byte-identical per-client decision
    /// streams (batching must never change a decision).
    decisions_identical: bool,
}

/// Deterministic synthetic epoch counters for client `c`'s request `i` —
/// identical across runs so the two serve modes see the same stream.
fn serve_counters(c: usize, i: usize) -> EpochCounters {
    let v = gpu_sim::mix_seed(0x5e21, (c as u64) << 32 | i as u64);
    let mut counters = EpochCounters::zeroed();
    counters[CounterId::TotalCycles] = 1_000.0;
    counters[CounterId::TotalInstrs] = 400.0 + (v % 800) as f64;
    counters[CounterId::IntAluInstrs] = 150.0 + (v % 101) as f64;
    counters[CounterId::LoadGlobalInstrs] = 40.0 + (v % 31) as f64;
    counters[CounterId::StallMemLoad] = 100.0 + (v % 211) as f64;
    counters[CounterId::StallEmpty] = (v % 97) as f64;
    counters[CounterId::L1ReadAccess] = 80.0 + (v % 17) as f64;
    counters[CounterId::L1ReadMiss] = (v % 41) as f64;
    counters.recompute_derived();
    counters
}

/// Hammers one service with `clients` threads × `requests` pipelined
/// submissions each; returns per-client decision streams, all latencies in
/// µs, wall-clock seconds and the service stats.
fn time_serve(
    model: &std::sync::Arc<CombinedModel>,
    table: &gpu_sim::VfTable,
    clients: usize,
    requests: usize,
    max_batch: usize,
) -> (Vec<Vec<usize>>, Vec<f64>, f64, ServeStats) {
    let service = DecisionService::start(
        std::sync::Arc::clone(model),
        SsmdvfsConfig::new(0.10),
        table.clone(),
        ServeConfig { shards: 1, max_batch, queue_depth: 256, deadline: None },
    );
    let t0 = Instant::now();
    let per_client: Vec<(Vec<usize>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = service.client();
                scope.spawn(move || {
                    let mut ops = Vec::with_capacity(requests);
                    let mut lats = Vec::with_capacity(requests);
                    let mut i = 0;
                    // Pipeline a window of submissions before collecting so
                    // the queue stays deep enough for the batcher to fill
                    // real batches.
                    while i < requests {
                        let window = 64.min(requests - i);
                        let pending: Vec<_> = (0..window)
                            .map(|k| {
                                client.submit(DecisionRequest {
                                    gpu: c,
                                    cluster: 0,
                                    counters: serve_counters(c, i + k),
                                })
                            })
                            .collect();
                        for p in pending {
                            let d = p.wait();
                            ops.push(d.op_index);
                            lats.push(d.latency.as_secs_f64() * 1e6);
                        }
                        i += window;
                    }
                    (ops, lats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve client panicked")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    let mut streams = Vec::with_capacity(clients);
    let mut lats = Vec::with_capacity(clients * requests);
    for (ops, l) in per_client {
        streams.push(ops);
        lats.extend(l);
    }
    (streams, lats, elapsed, stats)
}

fn percentile_us(lats: &mut [f64], q: f64) -> f64 {
    if lats.is_empty() {
        return 0.0;
    }
    lats.sort_by(f64::total_cmp);
    lats[((lats.len() - 1) as f64 * q).round() as usize]
}

fn run_serve(smoke: bool) {
    let (clients, requests) = if smoke { (8, 256) } else { (32, 4_096) };
    let max_batch = 32;
    let table = GpuConfig::small_test().vf_table;
    let model = std::sync::Arc::new(CombinedModel::synthetic(table.len(), 7));
    eprintln!("[perf_baseline] serve: {clients} clients x {requests} requests, max-batch 1 vs {max_batch}");

    let (single_ops, mut single_lats, single_secs, _) =
        time_serve(&model, &table, clients, requests, 1);
    let (batched_ops, mut batched_lats, batched_secs, stats) =
        time_serve(&model, &table, clients, requests, max_batch);

    let total = (clients * requests) as f64;
    let baseline = ServeBaseline {
        smoke,
        clients,
        requests_per_client: requests,
        max_batch,
        single_throughput_rps: total / single_secs,
        batched_throughput_rps: total / batched_secs,
        speedup: single_secs / batched_secs,
        single_p50_us: percentile_us(&mut single_lats, 0.50),
        single_p99_us: percentile_us(&mut single_lats, 0.99),
        batched_p50_us: percentile_us(&mut batched_lats, 0.50),
        batched_p99_us: percentile_us(&mut batched_lats, 0.99),
        mean_batch_occupancy: stats.mean_batch(),
        deadline_misses: stats.deadline_misses,
        decisions_identical: single_ops == batched_ops,
    };
    assert!(
        baseline.decisions_identical,
        "batched decision streams diverged from the single-request baseline"
    );
    let path = artifacts_dir().join("BENCH_serve.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] serve {:.0} req/s single vs {:.0} req/s batched ({:.2}x), p99 {:.1} µs, mean batch {:.1} -> {}",
        baseline.single_throughput_rps,
        baseline.batched_throughput_rps,
        baseline.speedup,
        baseline.batched_p99_us,
        baseline.mean_batch_occupancy,
        path.display()
    );
}

#[derive(Serialize)]
struct DecideBaseline {
    smoke: bool,
    /// Timed iterations per measurement (each taken as the best of several
    /// rounds to shed scheduler noise).
    iters: usize,
    /// ns per single dense forward through the compressed `[6, 12, 12, 6]`
    /// decision head.
    kernel_dense_ns: f64,
    /// ns per complete governor decision (feature extraction, calibration,
    /// both heads, decode) through the unfused allocating model-method
    /// path — what every decision cost before the compiled plan.
    reference_decision_ns: f64,
    /// Same complete decision through the compiled `DecisionPlan` arena
    /// (exact f32 programs, memo disabled).
    plan_decision_ns: f64,
    /// The same plan decision on a model whose heads are 80 %-pruned.
    plan_sparse_decision_ns: f64,
    /// Whether both pruned heads compiled to the CSR program.
    plan_sparse: bool,
    /// The memo short-circuit: a bit-identical repeated epoch replayed
    /// without inference.
    plan_memo_hit_ns: f64,
    /// Epochs in the phase-structured replay below.
    replay_epochs: usize,
    memo_hits: u64,
    memo_misses: u64,
    /// Fraction of replay decisions answered by the memo.
    memo_hit_rate: f64,
    /// Whether plan-with-memo, plan-without-memo and the unfused reference
    /// produced byte-identical decision streams on the replay.
    decisions_identical: bool,
}

/// Best-of-`rounds` wrapper: each round times `iters` calls of `f` and the
/// minimum mean survives, shedding scheduler and frequency noise.
fn best_ns<F: FnMut()>(iters: usize, rounds: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// Phase-structured epoch counters: `epoch` walks through phases of
/// `phase_len` identical epochs — active compute phases interleaved with
/// starved (kernel-boundary) phases, the temporal locality the decision
/// memo exploits.
fn decide_counters(epoch: usize, phase_len: usize) -> EpochCounters {
    let phase = epoch / phase_len;
    let starved = phase % 3 == 2;
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::TotalInstrs] = if starved { 150.0 } else { 3_000.0 + 450.0 * (phase % 7) as f64 };
    c[CounterId::StallEmpty] = if starved { 9_200.0 } else { 0.0 };
    c[CounterId::StallMemLoad] = 400.0 + 60.0 * (phase % 5) as f64;
    c[CounterId::PowerTotalW] = 4.0 + 0.3 * (phase % 4) as f64;
    c[CounterId::L1ReadMiss] = 25.0 + (phase % 9) as f64;
    c.recompute_derived();
    c
}

/// The unfused reference decision: allocating `CombinedModel` methods plus
/// a replica of the controller's calibration state machine — the exact
/// arithmetic (and cost) of the pre-plan governor hot path.
struct ReferenceDecider {
    state: (f64, Option<f32>, f64), // (effective_preset, predicted, err_ewma)
    config: SsmdvfsConfig,
}

impl ReferenceDecider {
    fn new(config: SsmdvfsConfig) -> ReferenceDecider {
        ReferenceDecider { state: (config.preset, None, 0.0), config }
    }

    fn decide(
        &mut self,
        model: &CombinedModel,
        counters: &EpochCounters,
        table_len: usize,
    ) -> usize {
        let (ref mut eff, ref mut pred, ref mut err) = self.state;
        let features = model.feature_set.extract(counters);
        let cycles = counters[CounterId::TotalCycles].max(1.0);
        let starved = counters[CounterId::StallEmpty] / cycles > 0.2;
        if self.config.calibration && !starved {
            if let Some(predicted) = *pred {
                let actual = counters.total_instructions() as f32;
                if predicted > 0.0 {
                    let rel_err = f64::from((predicted - actual) / predicted);
                    *err = 0.7 * *err + 0.3 * rel_err;
                    if *err > self.config.deadband {
                        *eff = (*eff
                            - self.config.gain
                                * (*err - self.config.deadband)
                                * self.config.preset)
                            .max(self.config.min_preset);
                    } else {
                        *eff = (*eff + self.config.recovery * self.config.preset)
                            .min(self.config.preset);
                    }
                }
            }
        }
        let logits = model.decision_logits(&features, *eff as f32);
        let op = model.decode_ordinal(&logits).min(table_len - 1);
        *pred = Some(model.predict_instructions(&features, self.config.preset as f32, op));
        op
    }
}

fn run_decide(smoke: bool) {
    let (iters, rounds, replay_epochs) =
        if smoke { (20_000, 3, 2_000) } else { (1_000_000, 5, 50_000) };
    let phase_len = 8;
    eprintln!("[perf_baseline] decide: kernel + fused-plan latency (smoke={smoke})");

    // --- Kernel micro-latencies on the compressed decision head. ---
    let mut rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&[6, 12, 12, 6], &mut rng);
    let x = [0.4f32, -0.2, 1.1, 0.3, -0.8, 0.1];
    let mut scratch = InferScratch::new();
    let kernel_dense_ns = best_ns(iters, rounds, || {
        std::hint::black_box(mlp.forward_one_into(std::hint::black_box(&x), &mut scratch));
    });

    // --- Full-decision latencies: unfused reference vs compiled plan. ---
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let config = SsmdvfsConfig::new(0.10);
    let active = decide_counters(0, phase_len);
    let starved = decide_counters(2 * phase_len, phase_len);
    let decision_iters = iters / 2;

    let mut reference = ReferenceDecider::new(config.clone());
    let reference_decision_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(reference.decide(&model, std::hint::black_box(&active), table.len()));
    });

    let mut plan = DecisionPlan::compile(&model, &config);
    plan.set_memo(false);
    let mut slot = plan.new_slot();
    let plan_decision_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(plan.decide_slot(
            &mut slot,
            std::hint::black_box(&active),
            table.len(),
        ));
    });
    let mut pruned = model.clone();
    prune_magnitude(&mut pruned.decision, 0.8);
    prune_magnitude(&mut pruned.calibrator, 0.8);
    let mut sparse_plan = DecisionPlan::compile(&pruned, &config);
    sparse_plan.set_memo(false);
    let plan_sparse = sparse_plan.decision_is_sparse() && sparse_plan.calibrator_is_sparse();
    let mut sparse_slot = sparse_plan.new_slot();
    let plan_sparse_decision_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(sparse_plan.decide_slot(
            &mut sparse_slot,
            std::hint::black_box(&active),
            table.len(),
        ));
    });
    plan.set_memo(true);
    let mut memo_slot = plan.new_slot();
    plan.decide_slot(&mut memo_slot, &starved, table.len()); // warm the memo
    let plan_memo_hit_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(plan.decide_slot(
            &mut memo_slot,
            std::hint::black_box(&starved),
            table.len(),
        ));
    });

    // --- Phase-structured replay: hit rate + three-way identity. ---
    let mut with_memo = DecisionPlan::compile(&model, &config);
    let mut without_memo = DecisionPlan::compile(&model, &config);
    without_memo.set_memo(false);
    let mut warm_slot = with_memo.new_slot();
    let mut cold_slot = without_memo.new_slot();
    let mut oracle = ReferenceDecider::new(config.clone());
    let mut memo_hits = 0u64;
    let mut decisions_identical = true;
    for epoch in 0..replay_epochs {
        let counters = decide_counters(epoch, phase_len);
        let w = with_memo.decide_slot(&mut warm_slot, &counters, table.len());
        let c = without_memo.decide_slot(&mut cold_slot, &counters, table.len());
        let r = oracle.decide(&model, &counters, table.len());
        memo_hits += w.memo_hit as u64;
        decisions_identical &= w.op == c.op && c.op == r;
    }
    let memo_misses = replay_epochs as u64 - memo_hits;
    let memo_hit_rate = memo_hits as f64 / replay_epochs as f64;

    let baseline = DecideBaseline {
        smoke,
        iters,
        kernel_dense_ns,
        reference_decision_ns,
        plan_decision_ns,
        plan_sparse_decision_ns,
        plan_sparse,
        plan_memo_hit_ns,
        replay_epochs,
        memo_hits,
        memo_misses,
        memo_hit_rate,
        decisions_identical,
    };
    assert!(baseline.decisions_identical, "plan/memo/reference decision streams diverged");
    assert!(baseline.memo_hit_rate > 0.0, "phase-structured replay produced no memo hits");
    assert!(
        baseline.plan_decision_ns < baseline.reference_decision_ns,
        "compiled plan ({:.0} ns) must beat the unfused reference ({:.0} ns)",
        baseline.plan_decision_ns,
        baseline.reference_decision_ns
    );
    let path = artifacts_dir().join("BENCH_decide.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] dense kernel {:.0} ns; decision {:.0} ns reference -> {:.0} ns plan / {:.0} ns csr-plan / {:.0} ns memo-hit; hit rate {:.1}% over {} epochs, identical={} -> {}",
        baseline.kernel_dense_ns,
        baseline.reference_decision_ns,
        baseline.plan_decision_ns,
        baseline.plan_sparse_decision_ns,
        baseline.plan_memo_hit_ns,
        baseline.memo_hit_rate * 100.0,
        baseline.replay_epochs,
        baseline.decisions_identical,
        path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var_os("SSMDVFS_SMOKE").is_some_and(|v| v != "0");
    let train = args.iter().any(|a| a == "--train");
    let sim = args.iter().any(|a| a == "--sim");
    let serve = args.iter().any(|a| a == "--serve");
    let decide = args.iter().any(|a| a == "--decide");
    let datagen = args.iter().any(|a| a == "--datagen") || (!train && !sim && !serve && !decide);
    if datagen {
        run_datagen(smoke);
    }
    if train {
        run_train(smoke);
    }
    if sim {
        run_sim(smoke);
    }
    if serve {
        run_serve(smoke);
    }
    if decide {
        run_decide(smoke);
    }
}
