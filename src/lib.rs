//! Umbrella crate for the SSMDVFS reproduction workspace.
//!
//! Re-exports every member crate so examples and integration tests can use a
//! single dependency. See the workspace `README.md` and `DESIGN.md` for the
//! architecture, and the member crates for the real APIs:
//!
//! * [`gpu_sim`] — cycle-approximate SIMT GPU timing simulator (GPGPU-Sim stand-in)
//! * [`gpu_power`] — component-level power/energy/EDP model (McPAT stand-in)
//! * [`gpu_workloads`] — synthetic Rodinia/Parboil/PolyBench benchmark suite
//! * [`tinynn`] — from-scratch MLP training/compression library
//! * [`ssmdvfs`] — the paper's contribution: datagen, models, controller, ASIC model
//! * [`dvfs_baselines`] — PCSTALL, F-LEMMA, ondemand, static and oracle governors
//!
//! # Examples
//!
//! A one-minute tour — simulate a benchmark, then ask what an analytical
//! governor would have saved:
//!
//! ```
//! use ssmdvfs_repro::dvfs_baselines::{PcstallConfig, PcstallGovernor};
//! use ssmdvfs_repro::gpu_sim::{GpuConfig, Simulation, StaticGovernor, Time};
//! use ssmdvfs_repro::gpu_workloads::by_name;
//!
//! let cfg = GpuConfig::small_test();
//! let bench = by_name("lbm").expect("part of the suite").scaled(0.05);
//! let horizon = Time::from_micros(10_000.0);
//!
//! let mut base_sim = Simulation::new(cfg.clone(), bench.workload().clone());
//! let mut base_gov = StaticGovernor::default_point(&cfg.vf_table);
//! let base = base_sim.run(&mut base_gov, horizon).edp_report();
//!
//! let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
//! let mut governor = PcstallGovernor::new(PcstallConfig::new(0.10));
//! let tuned = sim.run(&mut governor, horizon).edp_report();
//!
//! assert!(tuned.normalized_edp(&base) < 1.0, "DVFS saves EDP on memory-bound work");
//! ```

#![forbid(unsafe_code)]

pub use dvfs_baselines;
pub use gpu_power;
pub use gpu_sim;
pub use gpu_workloads;
pub use ssmdvfs;
pub use tinynn;
