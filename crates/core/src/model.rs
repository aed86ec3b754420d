//! The combined Decision-maker / Calibrator network.
//!
//! The paper combines the two models into a single network because their
//! inputs overlap almost entirely: five fully connected layers feed the
//! Decision-maker's classification output, and four further layers (which
//! additionally see the chosen frequency) feed the Calibrator's regression
//! output. [`CombinedModel`] packages both heads together with the feature
//! set, the input normalizers and the instruction-count scale, so one value
//! carries everything the runtime controller needs.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};
use tinynn::{Matrix, Mlp, Normalizer};

use crate::error::{Artifact, SsmdvfsError};
use crate::features::FeatureSet;

/// Architecture of the two heads, expressed as hidden-layer widths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelArch {
    /// Hidden widths of the Decision-maker head.
    pub decision_hidden: Vec<usize>,
    /// Hidden widths of the Calibrator head.
    pub calibrator_hidden: Vec<usize>,
}

impl ModelArch {
    /// The paper's pre-compression architecture: five 20-neuron layers for
    /// the Decision-maker and four for the Calibrator.
    pub fn paper_full() -> ModelArch {
        ModelArch { decision_hidden: vec![20; 5], calibrator_hidden: vec![20; 4] }
    }

    /// The layer-wise-compressed architecture of Section IV-B: three
    /// fully connected layers (two hidden) for the Decision-maker and two
    /// (one hidden) for the Calibrator, 12 neurons each.
    pub fn paper_compressed() -> ModelArch {
        ModelArch { decision_hidden: vec![12, 12], calibrator_hidden: vec![12] }
    }

    /// A custom uniform architecture: `layers` hidden layers of `neurons`
    /// for the decision head and `layers - 1` (at least one) for the
    /// calibrator head — the shape family swept in Fig. 3.
    pub fn uniform(layers: usize, neurons: usize) -> ModelArch {
        ModelArch {
            decision_hidden: vec![neurons; layers.max(1)],
            calibrator_hidden: vec![neurons; layers.saturating_sub(1).max(1)],
        }
    }
}

/// The trained combined model: both heads plus all input plumbing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinedModel {
    /// Decision-maker head: `[features..., preset] -> logits over operating
    /// points`.
    pub decision: Mlp,
    /// Calibrator head: `[features..., preset, op/(num_ops-1)] -> scaled
    /// instruction count`.
    pub calibrator: Mlp,
    /// Which counters feed the model.
    pub feature_set: FeatureSet,
    /// Normalizer for the decision input.
    pub decision_norm: Normalizer,
    /// Normalizer for the calibrator input.
    pub calibrator_norm: Normalizer,
    /// The Calibrator target was divided by this during training.
    pub instr_scale: f32,
    /// Number of operating points (decision classes).
    pub num_ops: usize,
}

impl CombinedModel {
    /// A deterministic, untrained model over the refined feature set:
    /// seeded random weights in the paper's compressed shape and
    /// normalizers fitted to plausible counter ranges. Serving benchmarks,
    /// fleet smokes and determinism tests need a governor without paying
    /// for a training run; the decisions are arbitrary but reproducible.
    /// Never a substitute for a trained model.
    ///
    /// # Panics
    ///
    /// Panics if `num_ops < 2`.
    pub fn synthetic(num_ops: usize, seed: u64) -> CombinedModel {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert!(num_ops >= 2, "a decision head needs at least two operating points");
        let feature_set = FeatureSet::refined();
        let f = feature_set.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let decision = Mlp::new(&[f + 1, 12, 12, num_ops], &mut rng);
        let calibrator = Mlp::new(&[f + 2, 12, 1], &mut rng);
        // Rough per-feature spans (cycled when the feature set grows) so
        // the normalizers neither explode nor flatten typical counters.
        let spans = [1.0f32, 10.0, 100.0, 10.0, 50.0];
        let mut hi: Vec<f32> = (0..f).map(|i| spans[i % spans.len()]).collect();
        hi.push(0.2); // preset column
        let lo = vec![0.0f32; f + 1];
        let decision_norm = Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]));
        let mut hi_cal = hi.clone();
        hi_cal.push(1.0); // normalized operating-point column
        let lo_cal = vec![0.0f32; f + 2];
        let calibrator_norm = Normalizer::fit(&Matrix::from_rows(&[&lo_cal, &hi_cal]));
        CombinedModel {
            decision,
            calibrator,
            feature_set,
            decision_norm,
            calibrator_norm,
            instr_scale: 1_000.0,
            num_ops,
        }
    }

    /// Picks the operating-point index for the given raw features and
    /// performance-loss preset.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the model's feature set.
    pub fn decide(&self, features: &[f32], preset: f32) -> usize {
        assert_eq!(features.len(), self.feature_set.len(), "feature count mismatch");
        self.decode_ordinal(&self.decision_logits(features, preset))
    }

    /// Ordinal decode over precomputed logits. Callers that also want the
    /// raw logits (e.g. the decision audit trail) compute
    /// [`CombinedModel::decision_logits`] once and decode from it, instead
    /// of paying a second forward pass through [`CombinedModel::decide`].
    ///
    /// Ordinal decoding: the classes are ordered frequencies, so the
    /// probability-weighted mean class (rounded) is used instead of a
    /// plain argmax. A near-miss between adjacent points then lands on
    /// one of them, while argmax can flip to a distant point on a small
    /// logit perturbation — an expensive failure when the points differ
    /// by hundreds of MHz.
    pub fn decode_ordinal(&self, logits: &[f32]) -> usize {
        let mut probs = logits.to_vec();
        tinynn::softmax_in_place(&mut probs);
        let mean: f32 = probs.iter().enumerate().map(|(i, p)| i as f32 * p).sum();
        (mean.round() as usize).min(self.num_ops - 1)
    }

    /// Full logits for inspection (e.g. confidence analysis).
    pub fn decision_logits(&self, features: &[f32], preset: f32) -> Vec<f32> {
        let mut input = features.to_vec();
        input.push(preset);
        self.decision_norm.transform_one(&mut input);
        self.decision.forward_one(&input)
    }

    /// Predicts the instruction count of the next epoch if the cluster runs
    /// at `op_index`, given the current features and the *original* preset
    /// (the paper's Calibrator always sees the original preset).
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match the model's feature set.
    pub fn predict_instructions(&self, features: &[f32], preset: f32, op_index: usize) -> f32 {
        assert_eq!(features.len(), self.feature_set.len(), "feature count mismatch");
        let mut input = features.to_vec();
        input.push(preset);
        input.push(op_index as f32 / (self.num_ops.max(2) - 1) as f32);
        self.calibrator_norm.transform_one(&mut input);
        let out = self.calibrator.forward_one(&input);
        (out[0] * self.instr_scale).max(0.0)
    }

    /// Batch decision logits (rows of `x` are already assembled, raw
    /// `[features..., preset]` rows).
    pub fn decision_forward_raw(&self, x: &Matrix) -> Matrix {
        self.decision.forward(&self.decision_norm.transform(x))
    }

    /// Batch calibrator outputs (raw `[features..., preset, op]` rows),
    /// in scaled units.
    pub fn calibrator_forward_raw(&self, x: &Matrix) -> Matrix {
        self.calibrator.forward(&self.calibrator_norm.transform(x))
    }

    /// Total dense FLOPs of both heads.
    pub fn flops(&self) -> u64 {
        self.decision.flops() + self.calibrator.flops()
    }

    /// Total FLOPs counting only non-zero weights.
    pub fn sparse_flops(&self) -> u64 {
        self.decision.sparse_flops() + self.calibrator.sparse_flops()
    }

    /// Serializes the model to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] tagged with [`Artifact::Model`] on a
    /// write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SsmdvfsError> {
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| SsmdvfsError::parse(Artifact::Model, path, e))?;
        fs::write(path, json).map_err(|e| SsmdvfsError::write(Artifact::Model, path, e))
    }

    /// Loads a model serialized by [`CombinedModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file is unreadable and
    /// [`SsmdvfsError::Parse`] if it is not a valid model, both tagged with
    /// [`Artifact::Model`] so the CLI names the failing stage.
    pub fn load(path: impl AsRef<Path>) -> Result<CombinedModel, SsmdvfsError> {
        let path = path.as_ref();
        let json =
            fs::read_to_string(path).map_err(|e| SsmdvfsError::read(Artifact::Model, path, e))?;
        serde_json::from_str(&json).map_err(|e| SsmdvfsError::parse(Artifact::Model, path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dummy_model() -> CombinedModel {
        let fs = FeatureSet::refined();
        let mut rng = StdRng::seed_from_u64(5);
        let decision = Mlp::new(&[fs.len() + 1, 12, 6], &mut rng);
        let calibrator = Mlp::new(&[fs.len() + 2, 12, 1], &mut rng);
        let dn = Normalizer::fit(&Matrix::from_rows(&[
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[1.0, 10.0, 100.0, 10.0, 50.0, 0.2],
        ]));
        let cn = Normalizer::fit(&Matrix::from_rows(&[
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[1.0, 10.0, 100.0, 10.0, 50.0, 0.2, 1.0],
        ]));
        CombinedModel {
            decision,
            calibrator,
            feature_set: fs,
            decision_norm: dn,
            calibrator_norm: cn,
            instr_scale: 1_000.0,
            num_ops: 6,
        }
    }

    #[test]
    fn decide_returns_valid_index() {
        let m = dummy_model();
        let idx = m.decide(&[0.5, 5.0, 50.0, 5.0, 25.0], 0.1);
        assert!(idx < 6);
        let logits = m.decision_logits(&[0.5, 5.0, 50.0, 5.0, 25.0], 0.1);
        assert_eq!(logits.len(), 6);
    }

    #[test]
    fn ordinal_decode_matches_argmax_on_confident_logits() {
        // When one class dominates, ordinal decoding equals argmax.
        let mut m = dummy_model();
        // Rig the decision head: zero everything, bias class 2 high.
        for layer in m.decision.layers_mut() {
            layer.w.map_inplace(|_| 0.0);
            for b in &mut layer.b {
                *b = 0.0;
            }
        }
        let last = m.decision.layers_mut().last_mut().unwrap();
        last.b[2] = 50.0;
        let idx = m.decide(&[0.0, 0.0, 0.0, 0.0, 0.0], 0.1);
        assert_eq!(idx, 2);
    }

    #[test]
    fn predicted_instructions_are_non_negative_and_scaled() {
        let m = dummy_model();
        let p = m.predict_instructions(&[0.5, 5.0, 50.0, 5.0, 25.0], 0.1, 3);
        assert!(p >= 0.0);
        assert!(p.is_finite());
    }

    #[test]
    fn architectures_match_the_paper() {
        let full = ModelArch::paper_full();
        assert_eq!(full.decision_hidden, vec![20; 5]);
        assert_eq!(full.calibrator_hidden, vec![20; 4]);
        let small = ModelArch::paper_compressed();
        assert_eq!(small.decision_hidden, vec![12, 12]);
        assert_eq!(small.calibrator_hidden, vec![12]);
        let u = ModelArch::uniform(3, 16);
        assert_eq!(u.decision_hidden, vec![16, 16, 16]);
        assert_eq!(u.calibrator_hidden, vec![16, 16]);
    }

    #[test]
    fn flops_sum_both_heads() {
        let m = dummy_model();
        assert_eq!(m.flops(), m.decision.flops() + m.calibrator.flops());
        assert!(m.sparse_flops() <= m.flops());
    }

    #[test]
    fn save_load_roundtrip() {
        let m = dummy_model();
        let dir = std::env::temp_dir().join("ssmdvfs_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let loaded = CombinedModel::load(&path).unwrap();
        assert_eq!(m, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_feature_count_rejected() {
        let m = dummy_model();
        m.decide(&[1.0, 2.0], 0.1);
    }
}
