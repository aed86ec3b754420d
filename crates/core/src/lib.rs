//! SSMDVFS: a supervised and self-calibrated machine-learning framework for
//! microsecond-scale GPU voltage and frequency scaling.
//!
//! This crate is the paper's primary contribution, built on the workspace
//! substrates ([`gpu_sim`], [`gpu_power`], [`gpu_workloads`], [`tinynn`]).
//! It implements the full end-to-end pipeline of Fig. 2:
//!
//! 1. **Data generation** ([`generate`]) — breakpoints every ~100 µs, a
//!    10 µs feature-collection window, a 10 µs frequency-scaling window
//!    replayed at every operating point, and measured performance-loss
//!    labels.
//! 2. **Feature selection** ([`select_features`], [`FeatureSet`]) — RFE over the 47
//!    counters down to the Table I set (IPC, PPC, MH, MH\L, L1CRM).
//! 3. **Model training** ([`train_combined`], [`CombinedModel`]) — the
//!    combined Decision-maker (classifier over the six V/f points) and
//!    Calibrator (next-epoch instruction-count regressor).
//! 4. **Compression** ([`compress_and_finetune`]) — the layer-wise sweep and two-stage
//!    pruning of Fig. 3 / Table II.
//! 5. **Runtime control** ([`SsmdvfsGovernor`]) — per-epoch inference with
//!    the self-calibrating preset feedback loop of Fig. 1.
//! 6. **Hardware cost** ([`estimate_asic`]) — the Section V-D ASIC module
//!    estimate (cycles/area/power at 28 nm).
//!
//! # Examples
//!
//! End-to-end, on a scaled-down configuration:
//!
//! ```
//! use gpu_sim::{GpuConfig, Simulation, Time};
//! use ssmdvfs::{
//!     generate, train_combined, DataGenConfig, FeatureSet, ModelArch, SsmdvfsConfig,
//!     SsmdvfsGovernor,
//! };
//! use tinynn::TrainConfig;
//!
//! let cfg = GpuConfig::small_test();
//! let bench = gpu_workloads::by_name("sgemm").unwrap().scaled(0.05);
//! let dg = DataGenConfig::default();
//! let data = generate(&bench, &cfg, &dg);
//! let train_cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
//! let (model, _) = train_combined(
//!     &data,
//!     &FeatureSet::refined(),
//!     &ModelArch::paper_compressed(),
//!     cfg.vf_table.len(),
//!     &train_cfg,
//!     0.25,
//! );
//! let mut governor = SsmdvfsGovernor::new(model, SsmdvfsConfig::new(0.10));
//! let mut sim = Simulation::new(cfg, bench.into_workload());
//! let result = sim.run(&mut governor, Time::from_micros(3_000.0));
//! assert!(result.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asic;
pub mod checkpoint;
mod compress;
mod controller;
mod datagen;
mod error;
pub mod exec;
pub mod failpoint;
mod features;
mod model;
pub mod plan;
mod replay_cache;
mod rfe;
pub mod serve;
mod train;

pub use asic::{estimate_asic, AsicConfig, AsicReport};
pub use compress::{
    compress_and_finetune, compress_and_finetune_jobs, compress_and_finetune_prepared,
    compress_model, layerwise_sweep, layerwise_sweep_jobs, pruning_sweep, pruning_sweep_jobs,
    quantize_model, CompressionPoint, FinetuneSplits,
};
pub use controller::{SsmdvfsConfig, SsmdvfsGovernor};
pub use datagen::{
    generate, generate_suite, generate_suite_with, generate_with_jobs, generate_workload,
    generate_workload_jobs, DataGenConfig, DvfsDataset, LabelingMode, RawSample, SuiteOptions,
    SuiteOutcome, DECISION_PRESET_GRID,
};
pub use error::{Artifact, IoOp, SsmdvfsError};
pub use features::FeatureSet;
pub use model::{CombinedModel, ModelArch};
pub use plan::{ClusterSlot, DecisionPlan, PlanDecision};
pub use replay_cache::{fingerprint, ReplayCache};
pub use rfe::{
    candidate_counters, select_features, select_features_with, FeatureSelection, RfeOptions,
};
pub use serve::{
    Decision, DecisionClient, DecisionRequest, DecisionService, PendingDecision, ServeConfig,
    ServeStats,
};
pub use train::{
    evaluate, train_combined, train_combined_jobs, train_prepared, PreparedSplits, TrainSummary,
    INSTR_SCALE,
};
