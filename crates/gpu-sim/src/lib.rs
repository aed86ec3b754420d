//! A cycle-approximate SIMT GPU timing simulator with per-cluster DVFS.
//!
//! This crate is the [GPGPU-Sim] stand-in for the SSMDVFS reproduction. It
//! models a GTX-Titan-X-class GPU as 24 independently clocked clusters (one
//! SM each), executing procedural kernel specifications with warp-level
//! scheduling, a set-associative L1/L2/DRAM hierarchy, and 10 µs DVFS
//! epochs. At the end of every epoch each cluster produces the paper's
//! 47-counter performance-counter vector, and a pluggable [`DvfsGovernor`]
//! chooses its next voltage/frequency operating point.
//!
//! The DVFS physics are faithful where it matters for the paper: core
//! frequency scales compute throughput while L2/DRAM latencies stay on the
//! fixed memory clock, so memory-bound phases are frequency-insensitive and
//! compute-bound phases scale proportionally — the signal every governor in
//! this workspace (SSMDVFS, PCSTALL, F-LEMMA) learns or models.
//!
//! # Examples
//!
//! Run a small workload at the default operating point and inspect EDP:
//!
//! ```
//! use gpu_sim::{
//!     BasicBlock, GpuConfig, InstrClass, KernelSpec, MemoryBehavior, Simulation,
//!     StaticGovernor, Time, Workload,
//! };
//!
//! let cfg = GpuConfig::small_test();
//! let kernel = KernelSpec::new(
//!     "axpy",
//!     vec![BasicBlock::new(
//!         vec![InstrClass::LoadGlobal, InstrClass::FpAlu, InstrClass::StoreGlobal],
//!         200,
//!         0.0,
//!     )],
//!     2,
//!     8,
//!     MemoryBehavior::streaming(1 << 20),
//! );
//! let mut governor = StaticGovernor::default_point(&cfg.vf_table);
//! let mut sim = Simulation::new(cfg, Workload::new("demo", vec![kernel]));
//! let result = sim.run(&mut governor, Time::from_micros(5_000.0));
//! assert!(result.completed);
//! println!("EDP = {:.3e}", result.edp_report().edp());
//! ```
//!
//! [GPGPU-Sim]: https://doi.org/10.1109/ISPASS.2009.4919648

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cluster;
mod counters;
mod fleet;
mod governor;
mod gpu;
mod isa;
mod kernel;
mod memory;
mod rng;
mod sim;
mod sm;
mod time;
mod trace;
mod warp;

pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use cluster::Cluster;
pub use counters::{CounterCategory, CounterId, EpochCounters};
pub use fleet::{run_fleet, DecisionSource, FleetGpuResult};
pub use governor::{AuditRecord, AuditTrail, DvfsGovernor, ScheduleGovernor, StaticGovernor};
pub use gpu::GpuConfig;
pub use isa::{InstrClass, LatencyTable};
pub use kernel::{BasicBlock, InstrTemplate, KernelSpec, MemoryBehavior, Workload};
pub use memory::{ClusterMemory, MemAccessResult, MemLevel, MemoryConfig};
pub use rng::{mix_seed, SplitMix64};
pub use sim::{ClusterEpochRecord, EnergySummary, EpochRecord, SimResult, SimSnapshot, Simulation};
pub use sm::{EngineMode, EpochOutcome, SmCore};
pub use time::Time;
pub use trace::epoch_trace_csv;
pub use warp::{Cursor, WaitCause, Warp, WarpState};

// Re-export the power-model types that appear in this crate's public API so
// downstream users need only one import root.
pub use gpu_power::{OperatingPoint, VfTable};
