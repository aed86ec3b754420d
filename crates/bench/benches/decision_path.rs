//! Single-decision latency — the criterion counterpart of
//! `perf_baseline --decide`.
//!
//! Compares the unfused reference (allocating `CombinedModel` methods, the
//! oracle the plan is pinned to) against the fused [`DecisionPlan`] — the
//! one single-sample inference path — on the synthetic model, on the
//! paper's full architecture and on its pruned compressed architecture
//! (CSR heads), and on a memo hit, plus the dense head kernel underneath
//! (`Mlp::forward_one_into`). The paper's microsecond-scale epoch budget leaves
//! roughly 1 µs for the whole control step; every variant here must sit
//! far inside that.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{CounterId, EpochCounters, GpuConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssmdvfs::plan::DecisionPlan;
use ssmdvfs::{CombinedModel, FeatureSet, ModelArch, SsmdvfsConfig};
use tinynn::{prune_two_stage, InferScratch, Matrix, Mlp, Normalizer};

fn counters(instrs: f64, stall_frac: f64) -> EpochCounters {
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalInstrs] = instrs;
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::StallEmpty] = stall_frac * 10_000.0;
    c[CounterId::StallMemLoad] = 120.0;
    c[CounterId::PowerTotalW] = 3.4;
    c[CounterId::L1ReadMiss] = (instrs * 0.07).floor();
    c.recompute_derived();
    c
}

/// A randomly initialized model of the given paper architecture.
fn model_for(arch: &ModelArch, num_ops: usize) -> CombinedModel {
    let fs = FeatureSet::refined();
    let mut rng = StdRng::seed_from_u64(7);
    let mut dec_sizes = vec![fs.len() + 1];
    dec_sizes.extend(&arch.decision_hidden);
    dec_sizes.push(num_ops);
    let mut cal_sizes = vec![fs.len() + 2];
    cal_sizes.extend(&arch.calibrator_hidden);
    cal_sizes.push(1);
    CombinedModel {
        decision: Mlp::new(&dec_sizes, &mut rng),
        calibrator: Mlp::new(&cal_sizes, &mut rng),
        feature_set: fs.clone(),
        decision_norm: Normalizer::fit(&Matrix::zeros(4, fs.len() + 1)),
        calibrator_norm: Normalizer::fit(&Matrix::zeros(4, fs.len() + 2)),
        instr_scale: 1000.0,
        num_ops,
    }
}

fn bench_decision_path(c: &mut Criterion) {
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let full = model_for(&ModelArch::paper_full(), table.len());
    let mut compressed = model_for(&ModelArch::paper_compressed(), table.len());
    compressed.decision = prune_two_stage(&compressed.decision, 0.6, 0.9);
    compressed.calibrator = prune_two_stage(&compressed.calibrator, 0.6, 0.9);
    let config = SsmdvfsConfig::new(0.1);
    let active = counters(9_000.0, 0.05);
    let starved = counters(400.0, 0.9);

    let mut group = c.benchmark_group("decision_path");

    // Unfused reference: the allocating model methods.
    group.bench_function("reference_unfused", |b| {
        let features = model.feature_set.extract(&active);
        b.iter(|| {
            let logits = model.decision_logits(&features, 0.1);
            let op = model.decode_ordinal(&logits).min(table.len() - 1);
            model.predict_instructions(&features, 0.1, op)
        });
    });

    // Fused exact plan, memo disabled: alternate two distinct epochs so
    // every iteration does the full feature → heads → decode pipeline.
    for (name, model, sparse) in [
        ("plan_exact", &model, false),
        ("plan_paper_full", &full, false),
        ("plan_paper_compressed_csr", &compressed, true),
    ] {
        let mut plan = DecisionPlan::compile(model, &config);
        assert_eq!(plan.decision_is_sparse() && plan.calibrator_is_sparse(), sparse, "{name}");
        plan.set_memo(false);
        let mut slot = plan.new_slot();
        let mut flip = false;
        group.bench_function(name, |b| {
            b.iter(|| {
                flip = !flip;
                let c = if flip { &active } else { &starved };
                plan.decide_slot(&mut slot, c, table.len()).op
            });
        });
    }

    // Memo hit: the same starved epoch repeated, the phase-locality case.
    group.bench_function("plan_memo_hit", |b| {
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        plan.decide_slot(&mut slot, &starved, table.len());
        b.iter(|| plan.decide_slot(&mut slot, &starved, table.len()).op);
    });

    group.finish();
}

/// The head kernel under the plan, on the compressed decision head's
/// [6, 12, 12, 6] shape: the dense f32 forward (the plan's arithmetic).
fn bench_head_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mlp = Mlp::new(&[6, 12, 12, 6], &mut rng);
    let x = [0.4f32, -0.2, 1.1, 0.3, -0.8, 0.1];
    let mut scratch = InferScratch::new();

    let mut group = c.benchmark_group("decision_path/head_kernel");
    group.bench_function("dense", |bch| bch.iter(|| mlp.forward_one_into(&x, &mut scratch)[0]));
    group.finish();
}

criterion_group!(benches, bench_decision_path, bench_head_kernels);
criterion_main!(benches);
