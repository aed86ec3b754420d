//! The decision path in tier 1. `DecisionPlan` is the workspace's one
//! single-sample inference path; these tests pin it to the allocating
//! `CombinedModel` method oracle on a dense and on a CSR-compiled head and
//! through the sharded decision service, and check that bad telemetry
//! never poisons the self-calibration state.

use std::sync::Arc;

use gpu_power::VfTable;
use gpu_sim::{CounterId, EpochCounters};
use ssmdvfs::plan::{ClusterSlot, DecisionPlan, PlanDecision};
use ssmdvfs::serve::{DecisionRequest, DecisionService, ServeConfig};
use ssmdvfs::{CombinedModel, SsmdvfsConfig};

const OPS: usize = 6;

/// The synthetic model, optionally 80 %-pruned so both heads compile to
/// CSR. A positive calibrator bias keeps predictions above zero, so active
/// epochs really run the calibration update.
fn model(sparse: bool) -> CombinedModel {
    let mut model = CombinedModel::synthetic(OPS, 29);
    if sparse {
        tinynn::prune_magnitude(&mut model.decision, 0.8);
        tinynn::prune_magnitude(&mut model.calibrator, 0.8);
    }
    model.calibrator.layers_mut().last_mut().expect("calibrator has layers").b[0] = 8.0;
    model
}

fn counters(instrs: f64, stall_frac: f64) -> EpochCounters {
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalInstrs] = instrs;
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::StallEmpty] = stall_frac * 10_000.0;
    c[CounterId::StallMemLoad] = 300.0;
    c[CounterId::PowerTotalW] = 3.5;
    c[CounterId::L1ReadMiss] = (instrs * 0.07).floor();
    c.recompute_derived();
    c
}

/// Phases of four identical epochs: active phases with varying work, and
/// every third phase starved (a kernel boundary), whose repeats the memo
/// replays.
fn stream() -> Vec<EpochCounters> {
    (0..48)
        .map(|i| {
            let phase = i / 4;
            if phase % 3 == 2 {
                counters(150.0, 0.9)
            } else {
                counters(2_000.0 + 700.0 * (phase % 5) as f64, 0.0)
            }
        })
        .collect()
}

/// The reference: allocating model methods plus a replica of the
/// calibration step, including its bad-telemetry rule.
struct Oracle {
    config: SsmdvfsConfig,
    effective_preset: f64,
    predicted: Option<f32>,
    err_ewma: f64,
    /// Calibration updates skipped for a non-finite or negative count.
    bad_inputs: u64,
}

impl Oracle {
    fn new(config: &SsmdvfsConfig) -> Oracle {
        Oracle {
            config: config.clone(),
            effective_preset: config.preset,
            predicted: None,
            err_ewma: 0.0,
            bad_inputs: 0,
        }
    }

    fn decide(&mut self, model: &CombinedModel, c: &EpochCounters) -> (usize, f32, Vec<f32>) {
        let cfg = &self.config;
        let features = model.feature_set.extract(c);
        let starved = c[CounterId::StallEmpty] / c[CounterId::TotalCycles].max(1.0) > 0.2;
        let judged = if cfg.calibration && !starved { self.predicted } else { None };
        if let Some(predicted) = judged {
            let actual = c.total_instructions();
            if !(actual >= 0.0 && (actual as f32).is_finite()) {
                self.bad_inputs += 1;
            } else if predicted > 0.0 {
                let rel_err = f64::from((predicted - actual as f32) / predicted);
                self.err_ewma = 0.7 * self.err_ewma + 0.3 * rel_err;
                self.effective_preset = if self.err_ewma > cfg.deadband {
                    (self.effective_preset - cfg.gain * (self.err_ewma - cfg.deadband) * cfg.preset)
                        .max(cfg.min_preset)
                } else {
                    (self.effective_preset + cfg.recovery * cfg.preset).min(cfg.preset)
                };
            }
        }
        let logits = model.decision_logits(&features, self.effective_preset as f32);
        let op = model.decode_ordinal(&logits).min(OPS - 1);
        let predicted = model.predict_instructions(&features, cfg.preset as f32, op);
        self.predicted = Some(predicted);
        (op, predicted, logits)
    }

    /// Decides `c` on the plan and asserts the decision and slot state
    /// equal the oracle's, bit for bit.
    fn check(
        &mut self,
        model: &CombinedModel,
        plan: &mut DecisionPlan,
        slot: &mut ClusterSlot,
        c: &EpochCounters,
        step: usize,
    ) -> PlanDecision {
        let d = plan.decide_slot(slot, c, OPS);
        let (op, predicted, logits) = self.decide(model, c);
        assert_eq!(d.op, op, "step {step}: decision");
        assert_eq!(d.predicted.to_bits(), predicted.to_bits(), "step {step}: prediction");
        assert_eq!(d.effective_preset.to_bits(), self.effective_preset.to_bits(), "step {step}");
        assert_eq!(slot.state.err_ewma.to_bits(), self.err_ewma.to_bits(), "step {step}: EWMA");
        assert_eq!(bits(plan.logits()), bits(&logits), "step {step}: logits");
        assert_eq!(bits(plan.features()), bits(&model.feature_set.extract(c)), "step {step}");
        d
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn plan_matches_the_model_method_oracle_on_dense_and_csr_heads() {
    for sparse in [false, true] {
        let model = model(sparse);
        let config = SsmdvfsConfig::new(0.1);
        let mut plan = DecisionPlan::compile(&model, &config);
        assert_eq!(plan.decision_is_sparse(), sparse);
        assert_eq!(plan.calibrator_is_sparse(), sparse);
        let mut slot = plan.new_slot();
        let mut oracle = Oracle::new(&config);
        let (mut hits, mut tightened) = (0, false);
        for (step, c) in stream().iter().enumerate() {
            let d = oracle.check(&model, &mut plan, &mut slot, c, step);
            tightened |= d.effective_preset < config.preset;
            hits += usize::from(d.memo_hit);
        }
        assert!(tightened, "sparse={sparse}: the stream must exercise calibration");
        assert!(hits > 0, "sparse={sparse}: starved repeats must hit the memo");
    }
}

#[test]
fn served_decisions_match_the_oracle_per_key() {
    const GPUS: usize = 4;
    const CLUSTERS: usize = 2;
    /// Epochs each key has in flight before the client collects answers.
    const WINDOW: usize = 4;
    let model = model(false);
    let config = SsmdvfsConfig::new(0.1);
    let table = VfTable::titan_x();
    assert_eq!(table.len(), OPS);
    let epochs = stream();
    // Every key sees the same stream and starts from a fresh state, so one
    // oracle run is every key's expected decision sequence.
    let mut oracle = Oracle::new(&config);
    let expected: Vec<usize> = epochs.iter().map(|c| oracle.decide(&model, c).0).collect();

    let service = DecisionService::start(
        Arc::new(model),
        config,
        table,
        ServeConfig { shards: 2, max_batch: 8, ..ServeConfig::default() },
    );
    let client = service.client();
    let mut requests = 0u64;
    for (w, window) in epochs.chunks(WINDOW).enumerate() {
        // Pipelined: the whole window for all keys is queued before the
        // first answer is read; per-key submission order is epoch order.
        let mut pending = Vec::new();
        for (i, c) in window.iter().enumerate() {
            for key in 0..GPUS * CLUSTERS {
                let (gpu, cluster) = (key / CLUSTERS, key % CLUSTERS);
                let request = DecisionRequest { gpu, cluster, counters: c.clone() };
                pending.push((w * WINDOW + i, key, client.submit(request)));
            }
        }
        for (step, key, p) in pending {
            let d = p.wait();
            requests += 1;
            assert!(!d.fallback, "step {step} key {key}: no deadline, no fallback");
            assert_eq!(d.op_index, expected[step], "step {step} key {key}");
        }
    }
    let stats = service.shutdown();
    assert_eq!(requests, (epochs.len() * GPUS * CLUSTERS) as u64);
    assert_eq!(stats.decisions, requests);
}

#[test]
fn bad_instruction_counts_never_poison_calibration() {
    obs::set_enabled(true);
    let bad_counter = obs::metrics::global().counter("decide.bad_input");
    let before = bad_counter.get();
    let model = model(false);
    let config = SsmdvfsConfig::new(0.1);
    let mut plan = DecisionPlan::compile(&model, &config);
    let mut slot = plan.new_slot();
    let mut oracle = Oracle::new(&config);
    let mut epochs = stream();
    for (i, bad) in
        [f64::NAN, f64::INFINITY, -40.0, f64::NEG_INFINITY, 1e300].into_iter().enumerate()
    {
        epochs.insert(3 + 9 * i, counters(bad, 0.0));
    }
    for (step, c) in epochs.iter().enumerate() {
        oracle.check(&model, &mut plan, &mut slot, c, step);
        assert!(slot.state.err_ewma.is_finite(), "step {step}: EWMA poisoned");
        assert!(slot.state.effective_preset.is_finite(), "step {step}: preset poisoned");
    }
    assert!(oracle.bad_inputs >= 4, "the bad epochs must reach the calibration step");
    assert_eq!(bad_counter.get() - before, oracle.bad_inputs);
}
