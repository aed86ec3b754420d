//! Baseline DVFS governors for the SSMDVFS comparison (Section V-B/C).
//!
//! * [`PcstallGovernor`] — the analytical frequency-sensitivity method
//!   (Bharadwaj et al., ASPLOS 2022), modified per the paper to select the
//!   minimum frequency that keeps predicted performance loss under a
//!   preset.
//! * [`FlemmaGovernor`] — the hierarchical actor-critic RL method (Zou et
//!   al., MLCAD 2020), modified per the paper with a reduced throughput
//!   baseline and a shortened update cycle.
//! * [`OndemandGovernor`] — a Linux-`ondemand`-style utilization governor
//!   (extension; shows why CPU-style policies fail on GPUs).
//! * [`run_oracle`] — a one-step-lookahead oracle (upper-bound ablation,
//!   not in the paper).
//!
//! The static default-point baseline lives in
//! [`gpu_sim::StaticGovernor`].
//!
//! # Examples
//!
//! ```
//! use dvfs_baselines::{PcstallConfig, PcstallGovernor};
//! use gpu_power::VfTable;
//! use gpu_sim::{DvfsGovernor, EpochCounters};
//!
//! let mut governor = PcstallGovernor::new(PcstallConfig::new(0.10));
//! let idx = governor.decide(0, &EpochCounters::zeroed(), &VfTable::titan_x());
//! assert!(idx < 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flemma;
mod ondemand;
mod oracle;
mod pcstall;

pub use flemma::{FlemmaConfig, FlemmaGovernor};
pub use ondemand::{OndemandConfig, OndemandGovernor};
pub use oracle::run_oracle;
pub use pcstall::{PcstallConfig, PcstallEdpGovernor, PcstallGovernor};

use gpu_power::VfTable;
use gpu_sim::{AuditRecord, AuditTrail, EpochCounters};

/// Records one heuristic decision into an audit trail. Heuristic baselines
/// carry no learned model, so `logits` stay empty and both prediction
/// fields stay `None`; governors with interpretable per-epoch features
/// (e.g. F-LEMMA) may still pass them through.
pub(crate) fn record_heuristic_decision(
    trail: &mut AuditTrail,
    cluster: usize,
    preset: f64,
    features: Vec<f32>,
    counters: &EpochCounters,
    op: usize,
    table: &VfTable,
) {
    let point = table.point(op);
    trail.record(AuditRecord {
        seq: 0,
        cluster,
        features,
        logits: Vec::new(),
        preset,
        effective_preset: preset,
        predicted_instructions: None,
        actual_instructions: counters.total_instructions(),
        next_predicted_instructions: None,
        starved: false,
        op_index: op,
        freq_mhz: point.freq_mhz(),
        voltage_v: point.voltage_v(),
    });
}

/// Clears an enabled trail in place — same capacity, no reallocation — so a
/// trail always describes exactly one run (mirrors the SSMDVFS governor).
pub(crate) fn reset_trail(audit: &mut Option<AuditTrail>) {
    if let Some(trail) = audit {
        trail.clear();
    }
}
