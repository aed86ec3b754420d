//! The compiled single-decision path — the workspace's one single-sample
//! inference path.
//!
//! Every production decision — [`SsmdvfsGovernor`](crate::SsmdvfsGovernor)'s
//! per-epoch hot path, the [`serve`](crate::serve) shards and the gpu-sim
//! fleets they answer — runs through a [`DecisionPlan`]. It fuses feature
//! extraction, both [`Normalizer`]s, both model heads, the operating-point
//! decode and the self-calibration update at governor construction into
//! one flat preplanned arena: a single contiguous `f32` allocation holding
//! the normalizer constants, both heads' weights and biases and every
//! scratch slot the decision needs, with all layer offsets precomputed.
//! Each head compiles either to dense row-major weights or, when pruning
//! left it below half density, to a CSR program read straight from
//! [`SparseMlp`]'s value, row-pointer and column-index arrays; this module
//! is the only place that makes that choice. A decision then runs
//! branchless inner loops over that one allocation — no per-decision heap
//! traffic, no pointer chasing between model pieces.
//!
//! Two properties are load-bearing and test-enforced:
//!
//! * **Bit-identity.** The plan replicates the exact arithmetic of the
//!   reference oracle — the allocating [`CombinedModel`] methods (built on
//!   `Mlp::forward_one`) plus the calibration update — same feature
//!   extraction, same `(x - mean) / std` normalization, same ascending-`k`
//!   dense accumulation (CSR skips only exact-zero terms, in the same
//!   column order), same softmax/ordinal decode, same `f64` calibration
//!   update. The decision stream is byte-identical to that oracle
//!   (proptest-enforced in `tests/plan_equivalence.rs`).
//! * **Memoization is invisible.** The per-cluster memo (see below) only
//!   ever replays a decision whose *entire* input — feature bits, actual
//!   instruction count, starvation flag, pre-decision calibration state and
//!   table size — is bit-for-bit identical to the memoized epoch, so a hit
//!   returns exactly what recomputing would have.
//!
//! # Phase-locality memo
//!
//! GPU workloads run in phases: during a steady compute or memory phase the
//! quantized counter vector of consecutive 10 µs epochs is frequently
//! unchanged, and the calibration state sits at a fixed point (starved
//! epochs skip the update entirely; converged epochs are clamped at the
//! preset). The plan keeps a depth-1 memo per cluster slot: when the new
//! epoch's inputs match the previous epoch bit-for-bit, inference is
//! short-circuited entirely and the stored decision (including the logits
//! the audit trail records) is replayed. Hits and misses are observable as
//! `decide.memo_hits` / `decide.memo_misses`, and the plan latency as the
//! `decide.plan_latency_ns` histogram.
//!
//! # Bad telemetry
//!
//! An epoch whose instruction count is non-finite or negative cannot be
//! judged against the outstanding prediction, so the calibration update
//! skips it: the slot's [`CalState`] is left untouched and the
//! `decide.bad_input` counter is incremented. Without the guard one NaN
//! `TotalInstrs` would turn the error EWMA into NaN for good, and the
//! cluster could never tighten its preset again.

use gpu_sim::{CounterId, EpochCounters};
use tinynn::{Activation, Mlp, Normalizer, SparseMlp};

use crate::controller::SsmdvfsConfig;
use crate::model::CombinedModel;

/// Whole-head weight density below which a head compiles to the CSR
/// program: at half density the skipped multiplies outweigh the index
/// indirection.
const SPARSE_DENSITY_THRESHOLD: f64 = 0.5;

/// One fused layer inside the arena program.
#[derive(Debug, Clone)]
struct PlanStep {
    /// Output width.
    rows: usize,
    /// Input width.
    cols: usize,
    /// Arena offset of the weights: row-major dense values, or the CSR
    /// value stream when `csr` is set.
    w_off: usize,
    /// Arena offset of the biases.
    b_off: usize,
    /// Apply ReLU after the affine map.
    relu: bool,
    /// CSR bookkeeping offsets into the index arena; `None` for dense.
    csr: Option<CsrOff>,
}

/// Offsets of one CSR layer's structure inside the shared index arena.
#[derive(Debug, Clone)]
struct CsrOff {
    /// Offset of the `rows + 1` row pointers.
    row_ptr: usize,
    /// Offset of the per-value column indices.
    col_idx: usize,
}

/// Compiled program for one model head: its steps plus engine metadata.
#[derive(Debug, Clone)]
struct HeadProgram {
    steps: Vec<PlanStep>,
    sparse: bool,
    flops: u64,
    output_size: usize,
}

/// Per-cluster self-calibration state, updated once per judged epoch by
/// the plan's calibration step.
#[derive(Debug, Clone, PartialEq)]
pub struct CalState {
    /// The preset the Decision-maker currently sees (tightened below the
    /// configured preset while the cluster runs slower than predicted).
    pub effective_preset: f64,
    /// The Calibrator's instruction-count prediction for the epoch in
    /// flight, judged when that epoch's counters arrive.
    pub predicted_instructions: Option<f32>,
    /// Exponentially smoothed relative prediction error; single-epoch
    /// throughput variance (cache bursts, CTA boundaries) must not trigger
    /// calibration, persistent shortfalls must.
    pub err_ewma: f64,
}

/// The depth-1 decision memo of one cluster slot: the complete bit-exact
/// input of the last decision, plus everything needed to replay its output.
/// Buffers are reused across epochs — storing a memo never allocates once
/// the slot is warm.
#[derive(Debug, Clone, Default)]
struct MemoEntry {
    valid: bool,
    // --- key: every input the decision arithmetic reads ---
    features: Vec<f32>,
    actual_bits: u64,
    starved: bool,
    table_len: usize,
    pre_preset_bits: u64,
    pre_err_bits: u64,
    pre_pred_bits: Option<u32>,
    // --- replayed output ---
    op: usize,
    post_preset_bits: u64,
    post_err_bits: u64,
    post_pred: f32,
    logits: Vec<f32>,
}

/// Per-cluster state a [`DecisionPlan`] decides against: calibration state
/// plus the phase-locality memo. Create via [`DecisionPlan::new_slot`]; the
/// governor keeps one per cluster, the decision service one per
/// `(gpu, cluster)` key.
#[derive(Debug, Clone)]
pub struct ClusterSlot {
    /// The calibration state (public so harnesses and tests can inspect or
    /// perturb it; the memo key covers it, so perturbation never causes a
    /// stale replay).
    pub state: CalState,
    memo: MemoEntry,
}

/// What one fused decision produced (the governor's audit trail consumes
/// every field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// Chosen operating-point index.
    pub op: usize,
    /// `true` when the memo replayed the previous epoch's decision without
    /// running inference.
    pub memo_hit: bool,
    /// The epoch was dominated by empty-pipeline stalls and skipped
    /// calibration.
    pub starved: bool,
    /// The effective preset after this decision's calibration update.
    pub effective_preset: f64,
    /// The instruction-count prediction made for the *next* epoch.
    pub predicted: f32,
    /// The prediction that was outstanding *for* the epoch just judged
    /// (`None` on a cluster's first decision).
    pub prev_predicted: Option<f32>,
}

/// The compiled single-decision fast path. See the module docs.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CounterId, EpochCounters};
/// use ssmdvfs::plan::DecisionPlan;
/// use ssmdvfs::{CombinedModel, SsmdvfsConfig};
///
/// let model = CombinedModel::synthetic(6, 7);
/// let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
/// let mut slot = plan.new_slot();
/// // A starvation-dominated epoch: calibration skips it, so the slot's
/// // state freezes and an exact repeat is the memo's guaranteed hit.
/// let mut counters = EpochCounters::zeroed();
/// counters[CounterId::TotalCycles] = 10_000.0;
/// counters[CounterId::StallEmpty] = 9_000.0;
/// let first = plan.decide_slot(&mut slot, &counters, 6);
/// assert!(first.op < 6 && !first.memo_hit);
/// // Identical inputs + unchanged state → the memo replays the decision.
/// let replay = plan.decide_slot(&mut slot, &counters, 6);
/// assert!(replay.memo_hit);
/// assert_eq!(replay.op, first.op);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionPlan {
    /// The single contiguous allocation: `[0, scratch_base)` is the
    /// immutable program (normalizer constants, weights, biases),
    /// `[scratch_base, ..)` the per-decision scratch slots.
    arena: Vec<f32>,
    /// CSR structure (row pointers + column indices) for sparse steps;
    /// empty when both heads compiled dense.
    idx: Vec<u32>,
    decision: HeadProgram,
    calibrator: HeadProgram,
    /// Which counters feed the model, fused from the feature set.
    feature_ids: Vec<CounterId>,
    // Program offsets (into the arena's program region).
    dec_mean: usize,
    dec_std: usize,
    cal_mean: usize,
    cal_std: usize,
    // Scratch offsets (relative to `scratch_base`).
    scratch_base: usize,
    s_features: usize,
    s_input: usize,
    s_a: usize,
    s_b: usize,
    s_logits: usize,
    s_probs: usize,
    act_width: usize,
    // Decode and calibration constants.
    num_ops: usize,
    instr_scale: f32,
    cal_op_denom: f32,
    cal: Calibration,
    argmax_decode: bool,
    memo: bool,
}

/// The controller's self-calibration constants, copied from
/// [`SsmdvfsConfig`] at compile time.
#[derive(Debug, Clone, Copy)]
struct Calibration {
    enabled: bool,
    preset: f64,
    gain: f64,
    recovery: f64,
    min_preset: f64,
    deadband: f64,
}

impl Calibration {
    /// The one self-calibration step, on the epoch that just ended: judge
    /// the prediction outstanding for it against its `actual` instruction
    /// count, fold the relative shortfall into the error EWMA, then tighten
    /// the effective preset while the EWMA sits above the deadband (the
    /// cluster runs persistently slower than the preset expects) and relax
    /// it toward the configured preset otherwise.
    ///
    /// Skipped when calibration is off, on starved epochs (an instruction
    /// shortfall there signals missing work, not a slow clock), before the
    /// first prediction, and on bad telemetry (see the module docs).
    #[inline]
    fn update(&self, state: &mut CalState, actual: f64, starved: bool) {
        if !self.enabled || starved {
            return;
        }
        let Some(predicted) = state.predicted_instructions else {
            return;
        };
        let actual_f32 = actual as f32;
        if !(actual >= 0.0 && actual_f32.is_finite()) {
            obs::counter!("decide.bad_input").inc(1);
            return;
        }
        if predicted > 0.0 {
            let rel_err = f64::from((predicted - actual_f32) / predicted);
            state.err_ewma = 0.7 * state.err_ewma + 0.3 * rel_err;
            if state.err_ewma > self.deadband {
                state.effective_preset = (state.effective_preset
                    - self.gain * (state.err_ewma - self.deadband) * self.preset)
                    .max(self.min_preset);
            } else {
                state.effective_preset =
                    (state.effective_preset + self.recovery * self.preset).min(self.preset);
            }
        }
    }
}

impl DecisionPlan {
    /// Compiles the model and controller config into a fused plan. Each
    /// head compiles to CSR below half density and to branch-free dense
    /// otherwise.
    pub fn compile(model: &CombinedModel, config: &SsmdvfsConfig) -> DecisionPlan {
        let f = model.feature_set.len();
        let mut arena: Vec<f32> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();

        let push_norm = |arena: &mut Vec<f32>, n: &Normalizer| -> (usize, usize) {
            let mean = arena.len();
            arena.extend_from_slice(n.mean());
            let std = arena.len();
            arena.extend_from_slice(n.std());
            (mean, std)
        };
        let (dec_mean, dec_std) = push_norm(&mut arena, &model.decision_norm);
        let (cal_mean, cal_std) = push_norm(&mut arena, &model.calibrator_norm);
        let decision = compile_head(&model.decision, &mut arena, &mut idx);
        let calibrator = compile_head(&model.calibrator, &mut arena, &mut idx);

        // Scratch layout: features | assembled input | activation ping |
        // activation pong | logits | probs. The activation slots must fit
        // the widest layer input/output of either head.
        let act_width = model
            .decision
            .layers()
            .iter()
            .chain(model.calibrator.layers())
            .flat_map(|l| [l.input_size(), l.output_size()])
            .max()
            .unwrap_or(0)
            .max(f + 2);
        let num_out = decision.output_size;
        let scratch_base = arena.len();
        let s_features = 0;
        let s_input = s_features + f;
        let s_a = s_input + (f + 2);
        let s_b = s_a + act_width;
        let s_logits = s_b + act_width;
        let s_probs = s_logits + num_out;
        arena.resize(scratch_base + s_probs + num_out, 0.0);

        DecisionPlan {
            arena,
            idx,
            decision,
            calibrator,
            feature_ids: model.feature_set.counters().to_vec(),
            dec_mean,
            dec_std,
            cal_mean,
            cal_std,
            scratch_base,
            s_features,
            s_input,
            s_a,
            s_b,
            s_logits,
            s_probs,
            act_width,
            num_ops: model.num_ops,
            instr_scale: model.instr_scale,
            cal_op_denom: (model.num_ops.max(2) - 1) as f32,
            cal: Calibration {
                enabled: config.calibration,
                preset: config.preset,
                gain: config.gain,
                recovery: config.recovery,
                min_preset: config.min_preset,
                deadband: config.deadband,
            },
            argmax_decode: config.argmax_decode,
            memo: true,
        }
    }

    /// A fresh cluster slot at the configured preset, with a cold memo.
    pub fn new_slot(&self) -> ClusterSlot {
        ClusterSlot {
            state: CalState {
                effective_preset: self.cal.preset,
                predicted_instructions: None,
                err_ewma: 0.0,
            },
            memo: MemoEntry::default(),
        }
    }

    /// Enables or disables the phase-locality memo (on by default). The
    /// decision stream is byte-identical either way; turning it off is for
    /// benchmarking the uncached path.
    pub fn set_memo(&mut self, on: bool) {
        self.memo = on;
    }

    /// Whether the memo is active.
    pub fn memo_enabled(&self) -> bool {
        self.memo
    }

    /// Whether the Decision-maker head compiled to the CSR program.
    pub fn decision_is_sparse(&self) -> bool {
        self.decision.sparse
    }

    /// Whether the Calibrator head compiled to the CSR program.
    pub fn calibrator_is_sparse(&self) -> bool {
        self.calibrator.sparse
    }

    /// FLOPs of one Decision-maker inference on the compiled program
    /// (sparse-aware: stored weights only when the head compiled to CSR).
    pub fn decision_flops(&self) -> u64 {
        self.decision.flops
    }

    /// The features extracted by the most recent decision (valid after any
    /// [`DecisionPlan::decide_slot`] call; the audit trail reads it).
    pub fn features(&self) -> &[f32] {
        let base = self.scratch_base + self.s_features;
        &self.arena[base..base + self.feature_ids.len()]
    }

    /// The Decision-maker logits of the most recent decision (replayed from
    /// the memo on a hit, so they are always the logits of the returned
    /// decision).
    pub fn logits(&self) -> &[f32] {
        let base = self.scratch_base + self.s_logits;
        &self.arena[base..base + self.decision.output_size]
    }

    /// One fused decision for `slot`: feature extraction, calibration
    /// update, Decision-maker inference + decode, Calibrator prediction —
    /// all inside the preplanned arena, memo-short-circuited when the epoch
    /// bit-exactly repeats the previous one. Byte-identical to the
    /// allocating [`CombinedModel`] method oracle.
    ///
    /// # Panics
    ///
    /// Panics if `table_len` is zero (there would be no decodable decision).
    pub fn decide_slot(
        &mut self,
        slot: &mut ClusterSlot,
        counters: &EpochCounters,
        table_len: usize,
    ) -> PlanDecision {
        assert!(table_len > 0, "DecisionPlan::decide_slot needs a non-empty operating-point table");
        // Timing the sub-200ns path costs two clock reads; only pay for it
        // when the metrics plane is actually on.
        let t0 = if obs::enabled() { Some(std::time::Instant::now()) } else { None };

        let f = self.feature_ids.len();
        let (prog, scratch) = self.arena.split_at_mut(self.scratch_base);
        for (i, &c) in self.feature_ids.iter().enumerate() {
            scratch[self.s_features + i] = counters[c] as f32;
        }
        // Epochs dominated by empty-pipeline stalls (the cluster ran out of
        // work, e.g. at a kernel boundary) are excluded from calibration: an
        // instruction shortfall there signals missing work, not a slow
        // clock.
        let cycles = counters[CounterId::TotalCycles].max(1.0);
        let starved = counters[CounterId::StallEmpty] / cycles > 0.2;
        let actual = counters.total_instructions();
        let prev_predicted = slot.state.predicted_instructions;

        // Memo probe: a hit requires every input of the decision arithmetic
        // — features, judged instruction count, starvation, pre-decision
        // calibration state, table size — to match the stored epoch
        // bit-for-bit, which makes the replay provably identical to
        // recomputing.
        if self.memo {
            let m = &slot.memo;
            // The outstanding prediction only feeds the calibration update;
            // when that update cannot run (starved epoch, or calibration
            // off) every output is independent of it, so it drops out of
            // the key — this is what lets steady starved phases hit from
            // their second epoch on.
            let pred_matches =
                starved || !self.cal.enabled || m.pre_pred_bits == prev_predicted.map(f32::to_bits);
            if m.valid
                && m.table_len == table_len
                && m.starved == starved
                && m.actual_bits == actual.to_bits()
                && m.pre_preset_bits == slot.state.effective_preset.to_bits()
                && m.pre_err_bits == slot.state.err_ewma.to_bits()
                && pred_matches
                && bits_equal(&m.features, &scratch[self.s_features..self.s_features + f])
            {
                slot.state.effective_preset = f64::from_bits(m.post_preset_bits);
                slot.state.err_ewma = f64::from_bits(m.post_err_bits);
                slot.state.predicted_instructions = Some(m.post_pred);
                scratch[self.s_logits..self.s_logits + m.logits.len()].copy_from_slice(&m.logits);
                let decision = PlanDecision {
                    op: m.op,
                    memo_hit: true,
                    starved,
                    effective_preset: slot.state.effective_preset,
                    predicted: m.post_pred,
                    prev_predicted,
                };
                obs::counter!("decide.memo_hits").inc(1);
                if let Some(t0) = t0 {
                    obs::histogram!("decide.plan_latency_ns")
                        .record(t0.elapsed().as_nanos() as f64);
                }
                return decision;
            }
        }
        let pre_preset_bits = slot.state.effective_preset.to_bits();
        let pre_err_bits = slot.state.err_ewma.to_bits();
        let pre_pred_bits = prev_predicted.map(f32::to_bits);

        self.cal.update(&mut slot.state, actual, starved);
        let effective_preset = slot.state.effective_preset;

        // Decision head: assemble [features..., effective preset],
        // normalize, run the fused program, decode.
        scratch.copy_within(self.s_features..self.s_features + f, self.s_input);
        scratch[self.s_input + f] = effective_preset as f32;
        normalize(
            &mut scratch[self.s_input..self.s_input + f + 1],
            &prog[self.dec_mean..self.dec_mean + f + 1],
            &prog[self.dec_std..self.dec_std + f + 1],
        );
        run_head(
            prog,
            &self.idx,
            &self.decision,
            scratch,
            self.s_input,
            f + 1,
            self.s_a,
            self.s_b,
            self.act_width,
            self.s_logits,
        );
        let num_out = self.decision.output_size;
        let (logits, probs) = scratch[self.s_logits..self.s_probs + num_out].split_at_mut(num_out);
        let op = decode_op(logits, probs, self.argmax_decode, self.num_ops, table_len);

        // Calibrator head: always sees the original preset.
        scratch.copy_within(self.s_features..self.s_features + f, self.s_input);
        scratch[self.s_input + f] = self.cal.preset as f32;
        scratch[self.s_input + f + 1] = op as f32 / self.cal_op_denom;
        normalize(
            &mut scratch[self.s_input..self.s_input + f + 2],
            &prog[self.cal_mean..self.cal_mean + f + 2],
            &prog[self.cal_std..self.cal_std + f + 2],
        );
        run_head(
            prog,
            &self.idx,
            &self.calibrator,
            scratch,
            self.s_input,
            f + 2,
            self.s_a,
            self.s_b,
            self.act_width,
            self.s_a, // calibrator output lands in the ping slot
        );
        let predicted = (scratch[self.s_a] * self.instr_scale).max(0.0);
        slot.state.predicted_instructions = Some(predicted);

        if self.memo {
            let m = &mut slot.memo;
            m.valid = true;
            m.features.clear();
            m.features.extend_from_slice(&scratch[self.s_features..self.s_features + f]);
            m.actual_bits = actual.to_bits();
            m.starved = starved;
            m.table_len = table_len;
            m.pre_preset_bits = pre_preset_bits;
            m.pre_err_bits = pre_err_bits;
            m.pre_pred_bits = pre_pred_bits;
            m.op = op;
            m.post_preset_bits = slot.state.effective_preset.to_bits();
            m.post_err_bits = slot.state.err_ewma.to_bits();
            m.post_pred = predicted;
            m.logits.clear();
            m.logits.extend_from_slice(&scratch[self.s_logits..self.s_logits + num_out]);
        }
        obs::counter!("decide.memo_misses").inc(1);
        if let Some(t0) = t0 {
            obs::histogram!("decide.plan_latency_ns").record(t0.elapsed().as_nanos() as f64);
        }
        PlanDecision { op, memo_hit: false, starved, effective_preset, predicted, prev_predicted }
    }
}

/// Bit-exact slice comparison (`f32::to_bits`, not `==`): NaN-proof and
/// `-0.0 ≠ 0.0`-strict, which is what "exact replay" requires.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `(x - mean) / std` per column — the exact arithmetic of
/// [`Normalizer::transform_one`].
fn normalize(x: &mut [f32], mean: &[f32], std: &[f32]) {
    for ((v, &m), &s) in x.iter_mut().zip(mean).zip(std) {
        *v = (*v - m) / s;
    }
}

/// The one operating-point decode: argmax (first maximal logit wins), or
/// the rounded expected index under the softmax of the logits (computed in
/// `probs`, a scratch slice of the same length) for the default ordinal
/// decode. Clamped to the model's and the table's operating points.
#[inline]
fn decode_op(
    logits: &[f32],
    probs: &mut [f32],
    argmax: bool,
    num_ops: usize,
    table_len: usize,
) -> usize {
    if argmax {
        tinynn::argmax(logits).min(table_len - 1)
    } else {
        probs.copy_from_slice(logits);
        tinynn::softmax_in_place(probs);
        let mean: f32 = probs.iter().enumerate().map(|(i, p)| i as f32 * p).sum();
        (mean.round() as usize).min(num_ops - 1).min(table_len - 1)
    }
}

/// Flattens one head into the arena: dense layers append row-major weights,
/// CSR layers append the value stream to the arena and row pointers +
/// column indices to the index arena. Engine choice: whole-head density
/// against [`SPARSE_DENSITY_THRESHOLD`].
fn compile_head(mlp: &Mlp, arena: &mut Vec<f32>, idx: &mut Vec<u32>) -> HeadProgram {
    let sparse_mlp = SparseMlp::from_mlp(mlp);
    let sparse = sparse_mlp.density() < SPARSE_DENSITY_THRESHOLD;
    let flops = if sparse { sparse_mlp.flops() } else { mlp.flops() };
    let mut steps = Vec::with_capacity(mlp.layers().len());
    if sparse {
        for layer in sparse_mlp.layers() {
            let w_off = arena.len();
            arena.extend_from_slice(layer.w.vals());
            let b_off = arena.len();
            arena.extend_from_slice(&layer.b);
            let row_ptr = idx.len();
            idx.extend_from_slice(layer.w.row_ptr());
            let col_idx = idx.len();
            idx.extend_from_slice(layer.w.col_idx());
            steps.push(PlanStep {
                rows: layer.w.rows(),
                cols: layer.w.cols(),
                w_off,
                b_off,
                relu: layer.activation == Activation::Relu,
                csr: Some(CsrOff { row_ptr, col_idx }),
            });
        }
    } else {
        for layer in mlp.layers() {
            let w_off = arena.len();
            arena.extend_from_slice(layer.w.as_slice());
            let b_off = arena.len();
            arena.extend_from_slice(&layer.b);
            steps.push(PlanStep {
                rows: layer.output_size(),
                cols: layer.input_size(),
                w_off,
                b_off,
                relu: layer.activation == Activation::Relu,
                csr: None,
            });
        }
    }
    HeadProgram { steps, sparse, flops, output_size: mlp.output_size() }
}

/// Runs one compiled head over the scratch ping-pong slots and copies the
/// final activations to `out_off`. Dense accumulates each output over `k`
/// ascending with a single `f32` accumulator, CSR over stored columns
/// ascending; both then add the bias and apply the ReLU. Skipping an
/// exact-zero weight never changes a finite dot product (the skipped term
/// is an exact `±0.0`), so both are bit-identical to `Mlp::forward_one_into`
/// on finite inputs.
#[allow(clippy::too_many_arguments)]
fn run_head(
    prog: &[f32],
    idx: &[u32],
    head: &HeadProgram,
    scratch: &mut [f32],
    in_off: usize,
    in_len: usize,
    s_a: usize,
    s_b: usize,
    act_width: usize,
    out_off: usize,
) {
    scratch.copy_within(in_off..in_off + in_len, s_a);
    // Two disjoint ping-pong views over the one scratch slice; roles swap
    // per layer.
    let (lo, hi) = scratch.split_at_mut(s_b);
    let mut src: &mut [f32] = &mut lo[s_a..s_a + act_width];
    let mut dst: &mut [f32] = &mut hi[..act_width];
    let mut out_in_a = true;
    for step in &head.steps {
        run_step(prog, idx, step, src, dst);
        std::mem::swap(&mut src, &mut dst);
        out_in_a = !out_in_a;
    }
    let n = head.output_size;
    let final_off = if out_in_a { s_a } else { s_b };
    if final_off != out_off {
        scratch.copy_within(final_off..final_off + n, out_off);
    }
}

/// One fused layer: `y = act(W @ x + b)` in the reference accumulation
/// order (see [`run_head`]).
fn run_step(prog: &[f32], idx: &[u32], step: &PlanStep, x: &[f32], out: &mut [f32]) {
    let b = &prog[step.b_off..step.b_off + step.rows];
    match &step.csr {
        None => {
            let w = &prog[step.w_off..step.w_off + step.rows * step.cols];
            let x = &x[..step.cols];
            for (j, (o, &bj)) in out[..step.rows].iter_mut().zip(b).enumerate() {
                let wrow = &w[j * step.cols..(j + 1) * step.cols];
                let mut acc = 0.0f32;
                for (&wv, &xv) in wrow.iter().zip(x) {
                    acc += wv * xv;
                }
                acc += bj;
                if step.relu {
                    acc = acc.max(0.0);
                }
                *o = acc;
            }
        }
        Some(c) => {
            let row_ptr = &idx[c.row_ptr..c.row_ptr + step.rows + 1];
            for (j, (o, &bj)) in out[..step.rows].iter_mut().zip(b).enumerate() {
                let (start, end) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
                let cols = &idx[c.col_idx + start..c.col_idx + end];
                let vals = &prog[step.w_off + start..step.w_off + end];
                let mut acc = 0.0f32;
                for (&ci, &v) in cols.iter().zip(vals) {
                    acc += v * x[ci as usize];
                }
                acc += bj;
                if step.relu {
                    acc = acc.max(0.0);
                }
                *o = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use gpu_power::VfTable;
    use gpu_sim::DvfsGovernor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tinynn::{Matrix, Normalizer};

    fn dummy_model(seed: u64) -> CombinedModel {
        let fs = FeatureSet::refined();
        let mut rng = StdRng::seed_from_u64(seed);
        let decision = Mlp::new(&[fs.len() + 1, 12, 12, 6], &mut rng);
        let calibrator = Mlp::new(&[fs.len() + 2, 12, 1], &mut rng);
        let lo = vec![0.0f32; fs.len() + 1];
        let hi = vec![5.0f32; fs.len() + 1];
        let decision_norm = Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]));
        let lo = vec![0.0f32; fs.len() + 2];
        let hi = vec![5.0f32; fs.len() + 2];
        let calibrator_norm = Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]));
        CombinedModel {
            decision,
            calibrator,
            feature_set: fs,
            decision_norm,
            calibrator_norm,
            instr_scale: 1_000.0,
            num_ops: 6,
        }
    }

    fn counters_with(instrs: f64, stall_empty: f64) -> EpochCounters {
        let mut c = EpochCounters::zeroed();
        c[CounterId::TotalInstrs] = instrs;
        c[CounterId::TotalCycles] = 10_000.0;
        c[CounterId::StallEmpty] = stall_empty;
        c[CounterId::L1ReadMiss] = instrs % 97.0;
        c.recompute_derived();
        c
    }

    #[test]
    fn plan_matches_model_methods_exactly() {
        // First decision on a fresh slot: effective preset is still the
        // configured preset, so the allocating CombinedModel methods are a
        // complete independent oracle.
        let model = dummy_model(3);
        let config = SsmdvfsConfig::new(0.1);
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        let counters = counters_with(5_000.0, 0.0);
        let d = plan.decide_slot(&mut slot, &counters, 6);
        let features = model.feature_set.extract(&counters);
        assert_eq!(plan.features(), &features[..]);
        let logits = model.decision_logits(&features, 0.1);
        assert_eq!(plan.logits(), &logits[..]);
        assert_eq!(d.op, model.decode_ordinal(&logits).min(5));
        assert_eq!(d.predicted, model.predict_instructions(&features, 0.1, d.op));
        assert_eq!(slot.state.predicted_instructions, Some(d.predicted));
    }

    #[test]
    fn sparse_heads_compile_to_csr_programs_with_identical_results() {
        let mut model = dummy_model(5);
        tinynn::prune_magnitude(&mut model.decision, 0.8);
        tinynn::prune_magnitude(&mut model.calibrator, 0.8);
        let config = SsmdvfsConfig::new(0.1);
        let mut plan = DecisionPlan::compile(&model, &config);
        assert!(plan.decision_is_sparse());
        assert!(plan.calibrator_is_sparse());
        assert!(plan.decision_flops() < model.decision.flops());
        let mut slot = plan.new_slot();
        let counters = counters_with(4_000.0, 0.0);
        let d = plan.decide_slot(&mut slot, &counters, 6);
        let features = model.feature_set.extract(&counters);
        assert_eq!(plan.logits(), &model.decision_logits(&features, 0.1)[..]);
        assert_eq!(d.op, model.decide(&features, 0.1).min(5));
    }

    #[test]
    fn memo_hits_on_exact_repeat_and_misses_on_any_change() {
        let model = dummy_model(7);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut slot = plan.new_slot();
        // Starved epochs skip calibration, so the state reaches a fixed
        // point immediately and an exact counter repeat must hit.
        let starved = counters_with(100.0, 9_000.0);
        let first = plan.decide_slot(&mut slot, &starved, 6);
        assert!(first.starved && !first.memo_hit);
        let hit = plan.decide_slot(&mut slot, &starved, 6);
        assert!(hit.memo_hit);
        assert_eq!(hit.op, first.op);
        assert_eq!(hit.predicted, first.predicted);
        // Any input change misses.
        let changed = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(!changed.memo_hit);
        // Perturbing the calibration state invalidates the key too.
        let again = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(again.memo_hit, "sanity: repeat hits");
        slot.state.err_ewma = 0.25;
        let perturbed = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(!perturbed.memo_hit, "stale state must never replay");
    }

    #[test]
    fn memo_replay_equals_recompute_stream() {
        // The same counter stream through a memo-on and a memo-off plan
        // must produce byte-identical decisions, predictions and state.
        let model = dummy_model(11);
        let config = SsmdvfsConfig::new(0.1);
        let mut with = DecisionPlan::compile(&model, &config);
        let mut without = DecisionPlan::compile(&model, &config);
        without.set_memo(false);
        assert!(with.memo_enabled() && !without.memo_enabled());
        let mut slot_a = with.new_slot();
        let mut slot_b = without.new_slot();
        let stream = [
            (5_000.0, 0.0),
            (5_000.0, 0.0),
            (200.0, 9_500.0),
            (200.0, 9_500.0),
            (200.0, 9_500.0),
            (7_000.0, 0.0),
            (5_000.0, 0.0),
        ];
        let mut hits = 0;
        for &(instrs, stall) in &stream {
            let c = counters_with(instrs, stall);
            let a = with.decide_slot(&mut slot_a, &c, 6);
            let b = without.decide_slot(&mut slot_b, &c, 6);
            assert_eq!(a.op, b.op);
            assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
            assert_eq!(
                slot_a.state.effective_preset.to_bits(),
                slot_b.state.effective_preset.to_bits()
            );
            assert_eq!(slot_a.state.err_ewma.to_bits(), slot_b.state.err_ewma.to_bits());
            assert_eq!(with.logits(), without.logits());
            hits += a.memo_hit as usize;
            assert!(!b.memo_hit);
        }
        assert!(hits >= 2, "the starved repeats must hit the memo, got {hits}");
    }

    #[test]
    fn plan_decisions_match_the_governor_stream() {
        // The governor now runs on the plan, but this pins the whole loop
        // (slot management, audit bookkeeping) to a raw plan driven by
        // hand.
        let model = dummy_model(17);
        let config = SsmdvfsConfig::new(0.1);
        let table = VfTable::titan_x();
        let mut gov = crate::SsmdvfsGovernor::new(model.clone(), config.clone());
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        for i in 0..12 {
            let c =
                counters_with(4_000.0 + 300.0 * i as f64, if i % 4 == 0 { 9_000.0 } else { 0.0 });
            let g = gov.decide(0, &c, &table);
            let p = plan.decide_slot(&mut slot, &c, table.len());
            assert_eq!(g, p.op, "epoch {i}");
        }
    }

    #[test]
    fn bad_instruction_count_skips_calibration_without_poisoning_it() {
        let mut model = dummy_model(23);
        // A positive calibrator bias keeps every prediction above zero, so
        // each finite epoch runs the calibration update.
        model.calibrator.layers_mut().last_mut().unwrap().b[0] = 8.0;
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        plan.set_memo(false);
        let mut poisoned = plan.new_slot();
        let mut skipped = plan.new_slot();
        let first = counters_with(4_000.0, 0.0);
        plan.decide_slot(&mut poisoned, &first, 6);
        plan.decide_slot(&mut skipped, &first, 6);
        assert!(poisoned.state.predicted_instructions.unwrap() > 0.0);
        for bad in [f64::NAN, f64::INFINITY, -5.0] {
            let before = poisoned.state.clone();
            let d = plan.decide_slot(&mut poisoned, &counters_with(bad, 0.0), 6);
            assert_eq!(poisoned.state.err_ewma.to_bits(), before.err_ewma.to_bits());
            assert_eq!(d.effective_preset.to_bits(), before.effective_preset.to_bits());
            // The reference stream skips the same epoch's calibration by
            // having no outstanding prediction to judge.
            skipped.state.predicted_instructions = None;
            plan.decide_slot(&mut skipped, &counters_with(bad, 0.0), 6);
            for i in 0..6 {
                let c = counters_with(1_000.0 + 900.0 * i as f64, 0.0);
                let p = plan.decide_slot(&mut poisoned, &c, 6);
                let s = plan.decide_slot(&mut skipped, &c, 6);
                assert!(poisoned.state.err_ewma.is_finite(), "{bad}: EWMA poisoned");
                assert!(p.effective_preset.is_finite());
                assert_eq!(p.op, s.op);
                assert_eq!(poisoned.state.err_ewma.to_bits(), skipped.state.err_ewma.to_bits());
                assert_eq!(p.effective_preset.to_bits(), s.effective_preset.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty operating-point table")]
    fn empty_table_is_rejected() {
        let model = dummy_model(19);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut slot = plan.new_slot();
        plan.decide_slot(&mut slot, &counters_with(1.0, 0.0), 0);
    }
}
