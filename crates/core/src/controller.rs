//! The runtime SSMDVFS governor: per-epoch inference plus the
//! self-calibration loop of Fig. 1.
//!
//! Every 10 µs epoch, per cluster:
//!
//! 1. Compare the instruction count the Calibrator predicted for the epoch
//!    that just ended against the actual count. If the prediction exceeds
//!    reality, the cluster is running slower than the model expected, so the
//!    *effective* preset is tightened (guiding the Decision-maker toward a
//!    faster point); if reality meets the prediction, the effective preset
//!    relaxes back toward the user's original preset.
//! 2. Feed the epoch's counters plus the effective preset to the
//!    Decision-maker to pick the next epoch's operating point.
//! 3. Feed the counters, the *original* preset and the chosen point to the
//!    Calibrator to produce the next prediction.

use gpu_power::VfTable;
use gpu_sim::{AuditRecord, AuditTrail, DvfsGovernor, EpochCounters};
use serde::{Deserialize, Serialize};

use crate::model::CombinedModel;
use crate::plan::{ClusterSlot, DecisionPlan};

/// Tunables of the runtime controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsmdvfsConfig {
    /// The user's performance-loss preset (0.10 = allow 10 % slowdown).
    pub preset: f64,
    /// Whether the Calibrator feedback loop is active (the paper's
    /// with/without-Calibrator ablation).
    pub calibration: bool,
    /// Proportional gain applied to the relative prediction error when
    /// tightening the effective preset.
    pub gain: f64,
    /// Additive recovery applied when the cluster meets its prediction,
    /// relaxing the effective preset back toward `preset`.
    pub recovery: f64,
    /// Lower clamp for the effective preset (0 = "no loss allowed").
    pub min_preset: f64,
    /// Relative prediction-error deadband: shortfalls smaller than this are
    /// treated as calibration noise and do not tighten the preset.
    pub deadband: f64,
    /// Use plain argmax instead of ordinal decoding for the Decision-maker
    /// output (ablation switch; ordinal is the default).
    pub argmax_decode: bool,
}

impl SsmdvfsConfig {
    /// A controller allowing `preset` performance loss with calibration on.
    pub fn new(preset: f64) -> SsmdvfsConfig {
        SsmdvfsConfig {
            preset,
            calibration: true,
            gain: 1.0,
            recovery: 0.10,
            min_preset: 0.005,
            deadband: 0.05,
            argmax_decode: false,
        }
    }

    /// Disables the Calibrator feedback loop.
    pub fn without_calibration(mut self) -> SsmdvfsConfig {
        self.calibration = false;
        self
    }
}

/// The SSMDVFS DVFS governor.
///
/// # Examples
///
/// ```no_run
/// use gpu_sim::{GpuConfig, Simulation, Time};
/// use ssmdvfs::{CombinedModel, SsmdvfsConfig, SsmdvfsGovernor};
///
/// # fn demo(model: CombinedModel, sim: &mut Simulation) {
/// let mut governor = SsmdvfsGovernor::new(model, SsmdvfsConfig::new(0.10));
/// let result = sim.run(&mut governor, Time::from_micros(2_000.0));
/// println!("EDP: {:.3e}", result.edp_report().edp());
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SsmdvfsGovernor {
    /// The trained model, shared immutably: cloning the governor (one per
    /// evaluated run in the bench sweeps) shares the weights instead of
    /// deep-copying every layer.
    model: std::sync::Arc<CombinedModel>,
    config: SsmdvfsConfig,
    clusters: Vec<ClusterSlot>,
    name: String,
    audit: Option<AuditTrail>,
    /// The compiled fast path: feature extraction, normalization, both
    /// heads, decode and the calibration clamp fused into one flat arena
    /// (see [`DecisionPlan`]), with a per-cluster phase-locality memo.
    plan: DecisionPlan,
}

impl SsmdvfsGovernor {
    /// Creates a governor around a trained model, compiling both heads (and
    /// everything around them) into a fused [`DecisionPlan`] — CSR layer
    /// programs when a head is mostly zeros, dense otherwise.
    pub fn new(
        model: impl Into<std::sync::Arc<CombinedModel>>,
        config: SsmdvfsConfig,
    ) -> SsmdvfsGovernor {
        let model: std::sync::Arc<CombinedModel> = model.into();
        let name = if config.calibration {
            format!("ssmdvfs[{:.0}%]", config.preset * 100.0)
        } else {
            format!("ssmdvfs-nocal[{:.0}%]", config.preset * 100.0)
        };
        let plan = DecisionPlan::compile(&model, &config);
        SsmdvfsGovernor { model, config, clusters: Vec::new(), name, audit: None, plan }
    }

    /// The controller configuration.
    pub fn config(&self) -> &SsmdvfsConfig {
        &self.config
    }

    /// The underlying model.
    pub fn model(&self) -> &CombinedModel {
        &self.model
    }

    /// The compiled decision plan (introspection: engine choice, FLOPs,
    /// memo state).
    pub fn plan(&self) -> &DecisionPlan {
        &self.plan
    }

    /// The effective preset currently applied to `cluster` (equals the
    /// original preset until calibration adjusts it).
    pub fn effective_preset(&self, cluster: usize) -> f64 {
        self.clusters.get(cluster).map_or(self.config.preset, |s| s.state.effective_preset)
    }
}

impl DvfsGovernor for SsmdvfsGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, cluster: usize, counters: &EpochCounters, table: &VfTable) -> usize {
        // An empty table is reachable through deserialization (which
        // bypasses `VfTable::new`); the `len() - 1` decode clamps below
        // would underflow on it, so refuse up front with a clear message.
        assert!(
            !table.is_empty(),
            "SsmdvfsGovernor::decide needs a non-empty VfTable; \
             run VfTable::validate() on tables loaded from disk"
        );
        if cluster >= self.clusters.len() {
            let fresh = self.plan.new_slot();
            self.clusters.resize(cluster + 1, fresh);
        }
        // The whole decision — feature extraction, calibration, both heads,
        // decode — runs inside the compiled plan's arena; a warm governor
        // allocates nothing per epoch (audit clones aside).
        let d = self.plan.decide_slot(&mut self.clusters[cluster], counters, table.len());

        if let Some(trail) = self.audit.as_mut() {
            let point = table.point(d.op);
            trail.record(AuditRecord {
                seq: 0, // stamped by the trail
                cluster,
                features: self.plan.features().to_vec(),
                logits: self.plan.logits().to_vec(),
                preset: self.config.preset,
                effective_preset: d.effective_preset,
                // The prediction made *for* the epoch that just ended,
                // paired with the reality it was judged on.
                predicted_instructions: d.prev_predicted,
                actual_instructions: counters.total_instructions(),
                next_predicted_instructions: Some(d.predicted),
                starved: d.starved,
                op_index: d.op,
                freq_mhz: point.freq_mhz(),
                voltage_v: point.voltage_v(),
            });
        }
        d.op
    }

    fn reset(&mut self) {
        self.clusters.clear();
        // The trail is per-run: a reset starts a fresh one at the same
        // capacity, in place, without reallocating the ring.
        if let Some(trail) = self.audit.as_mut() {
            trail.clear();
        }
    }

    fn enable_audit(&mut self, capacity: usize) {
        self.audit = Some(AuditTrail::new(self.name.clone(), capacity));
    }

    fn audit_trail(&self) -> Option<&AuditTrail> {
        self.audit.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use gpu_sim::CounterId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tinynn::{Matrix, Mlp, Normalizer};

    fn identity_normalizer(n: usize) -> Normalizer {
        // Fit on rows with mean 0, std 1 per column.
        let mut lo = vec![0.0f32; n];
        let hi = vec![2.0f32; n];
        for v in &mut lo {
            *v = -2.0;
        }
        Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]))
    }

    fn dummy_model() -> CombinedModel {
        let fs = FeatureSet::refined();
        let mut rng = StdRng::seed_from_u64(9);
        CombinedModel {
            decision: Mlp::new(&[fs.len() + 1, 8, 6], &mut rng),
            calibrator: Mlp::new(&[fs.len() + 2, 8, 1], &mut rng),
            feature_set: fs.clone(),
            decision_norm: identity_normalizer(fs.len() + 1),
            calibrator_norm: identity_normalizer(fs.len() + 2),
            instr_scale: 1_000.0,
            num_ops: 6,
        }
    }

    fn counters_with(instrs: f64) -> EpochCounters {
        let mut c = EpochCounters::zeroed();
        c[CounterId::TotalInstrs] = instrs;
        c[CounterId::TotalCycles] = 10_000.0;
        c.recompute_derived();
        c
    }

    #[test]
    #[should_panic(expected = "non-empty VfTable")]
    fn empty_deserialized_table_is_rejected_not_underflowed() {
        // Deserialization bypasses `VfTable::new`, so an empty table can
        // reach `decide`; before the up-front check, `table.len() - 1`
        // underflowed usize and panicked with an inscrutable message.
        let empty: VfTable = serde_json::from_str(r#"{"points":[],"default_index":0}"#)
            .expect("an empty table deserializes fine — that is the bug");
        assert!(empty.validate().is_err(), "validate flags what decide refuses");
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        gov.decide(0, &counters_with(5_000.0), &empty);
    }

    #[test]
    fn decisions_are_valid_indices() {
        let table = VfTable::titan_x();
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        for cluster in 0..3 {
            let idx = gov.decide(cluster, &counters_with(5_000.0), &table);
            assert!(idx < table.len());
        }
    }

    #[test]
    fn calibration_tightens_preset_when_running_slow() {
        let table = VfTable::titan_x();
        let model = dummy_model();
        let mut gov = SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(0.1));
        // First decision primes a prediction.
        gov.decide(0, &counters_with(8_000.0), &table);
        let predicted = gov.clusters[0].state.predicted_instructions.unwrap();
        assert!(predicted >= 0.0);
        // Report far fewer instructions than predicted: preset must shrink
        // (if the model predicted anything positive).
        if predicted > 0.0 {
            let before = gov.effective_preset(0);
            gov.decide(0, &counters_with(0.0), &table);
            assert!(gov.effective_preset(0) < before);
        }
    }

    #[test]
    fn calibration_recovers_when_meeting_predictions() {
        let table = VfTable::titan_x();
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        gov.decide(0, &counters_with(5_000.0), &table);
        // Force a tightened state, then exceed the prediction.
        gov.clusters[0].state.effective_preset = 0.02;
        gov.clusters[0].state.predicted_instructions = Some(100.0);
        gov.decide(0, &counters_with(1_000_000.0), &table);
        assert!(gov.effective_preset(0) > 0.02);
        assert!(gov.effective_preset(0) <= 0.1 + 1e-12);
    }

    #[test]
    fn no_calibration_keeps_preset_fixed() {
        let table = VfTable::titan_x();
        let mut gov =
            SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1).without_calibration());
        gov.decide(0, &counters_with(5_000.0), &table);
        gov.clusters[0].state.predicted_instructions = Some(1_000_000.0);
        gov.decide(0, &counters_with(1.0), &table);
        assert_eq!(gov.effective_preset(0), 0.1);
        assert!(gov.name().contains("nocal"));
    }

    #[test]
    fn reset_clears_per_run_state() {
        let table = VfTable::titan_x();
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        gov.decide(0, &counters_with(5_000.0), &table);
        assert!(!gov.clusters.is_empty());
        gov.reset();
        assert!(gov.clusters.is_empty());
        assert_eq!(gov.effective_preset(0), 0.1);
    }

    #[test]
    fn audit_trail_pairs_predictions_with_reality() {
        let table = VfTable::titan_x();
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        assert!(gov.audit_trail().is_none(), "auditing is opt-in");
        gov.enable_audit(16);
        gov.decide(0, &counters_with(5_000.0), &table);
        gov.decide(0, &counters_with(4_000.0), &table);
        let trail = gov.audit_trail().unwrap();
        assert_eq!(trail.len(), 2);
        let recs: Vec<&AuditRecord> = trail.iter().collect();
        // The first epoch had no prior prediction to judge.
        assert_eq!(recs[0].predicted_instructions, None);
        // The second record's "predicted" is exactly what the first
        // decision forecast.
        assert_eq!(recs[1].predicted_instructions, recs[0].next_predicted_instructions);
        assert_eq!(recs[1].actual_instructions, 4_000.0);
        assert_eq!(recs[0].logits.len(), 6);
        assert!(!recs[0].features.is_empty());
        assert!(recs[0].freq_mhz > 0.0);
        // A reset starts a fresh per-run trail at the same capacity.
        gov.reset();
        let trail = gov.audit_trail().unwrap();
        assert!(trail.is_empty());
        assert_eq!(trail.capacity(), 16);
    }

    #[test]
    fn engine_path_matches_model_methods() {
        // The buffered engine path in `decide` must replicate the
        // allocating `CombinedModel` methods exactly: same logits, same
        // decoded op, same instruction prediction.
        let table = VfTable::titan_x();
        let model = dummy_model();
        let mut gov = SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(0.1));
        gov.enable_audit(4);
        let counters = counters_with(5_000.0);
        let op = gov.decide(0, &counters, &table);
        let features = model.feature_set.extract(&counters);
        // First epoch: no prior prediction, so the effective preset is
        // still the configured preset.
        let logits = model.decision_logits(&features, 0.1);
        let rec: &AuditRecord = gov.audit_trail().unwrap().iter().next().unwrap();
        assert_eq!(rec.features, features);
        assert_eq!(rec.logits, logits);
        assert_eq!(op, model.decode_ordinal(&logits).min(table.len() - 1));
        assert_eq!(
            gov.clusters[0].state.predicted_instructions,
            Some(model.predict_instructions(&features, 0.1, op))
        );
    }

    #[test]
    fn pruned_model_compiles_to_sparse_engine_with_identical_decisions() {
        let table = VfTable::titan_x();
        let mut model = dummy_model();
        tinynn::prune_magnitude(&mut model.decision, 0.8);
        tinynn::prune_magnitude(&mut model.calibrator, 0.8);
        for instrs in [1_000.0, 5_000.0, 9_000.0] {
            let mut gov = SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(0.1));
            assert!(gov.plan().decision_is_sparse(), "80 % pruned head must go CSR");
            assert!(gov.plan().decision_flops() < model.decision.flops());
            let counters = counters_with(instrs);
            let op = gov.decide(0, &counters, &table);
            let features = model.feature_set.extract(&counters);
            assert_eq!(op, model.decide(&features, 0.1).min(table.len() - 1));
        }
    }

    #[test]
    fn clusters_calibrate_independently() {
        let table = VfTable::titan_x();
        let mut gov = SsmdvfsGovernor::new(dummy_model(), SsmdvfsConfig::new(0.1));
        gov.decide(0, &counters_with(5_000.0), &table);
        gov.decide(1, &counters_with(5_000.0), &table);
        gov.clusters[0].state.predicted_instructions = Some(1_000_000.0);
        gov.decide(0, &counters_with(10.0), &table);
        assert!(gov.effective_preset(0) < 0.1);
        assert_eq!(gov.effective_preset(1), 0.1);
    }
}
