//! Component-level GPU power, energy and EDP modeling.
//!
//! This crate is the [McPAT] stand-in for the SSMDVFS reproduction. Its job is
//! the same as McPAT's in the paper: given the activity a processor cluster
//! performed during one DVFS epoch (instruction counts by class, cache and
//! DRAM traffic, active cycles) and the voltage/frequency operating point the
//! cluster ran at, produce the energy that epoch consumed, broken down by
//! component, so that controllers can optimize the energy-delay product (EDP).
//!
//! The model captures the first-order physics that make DVFS interesting:
//!
//! * switching energy per operation scales with `V²`,
//! * clock-tree and pipeline overhead power scales with `V²·f`,
//! * leakage power grows superlinearly with `V` and does not scale with `f`,
//! * memory (L2/DRAM) energy is tied to traffic, not to core frequency.
//!
//! # Examples
//!
//! ```
//! use gpu_power::{Activity, PowerModel, VfTable};
//!
//! let table = VfTable::titan_x();
//! let model = PowerModel::titan_x();
//! let mut activity = Activity::default();
//! activity.int_alu = 5_000;
//! activity.fp_alu = 3_000;
//! activity.active_cycles = 9_000;
//! activity.total_cycles = 11_650;
//!
//! // Energy over one 10 µs epoch at the default operating point.
//! let breakdown = model.epoch_energy(&activity, table.default_point(), 10e-6);
//! assert!(breakdown.total().joules() > 0.0);
//! ```
//!
//! [McPAT]: https://doi.org/10.1145/1669112.1669172

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod edp;
mod energy;
mod error;
mod model;
mod op;
mod scaling;

pub use activity::Activity;
pub use edp::EdpReport;
pub use energy::{Energy, Power};
pub use error::PowerError;
pub use model::{EnergyBreakdown, PowerModel, PowerModelConfig};
pub use op::{OperatingPoint, VfTable};
pub use scaling::{TechScaler, UnsupportedNodeError};
