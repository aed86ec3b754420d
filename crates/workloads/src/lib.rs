//! A synthetic GPU benchmark suite modeled after Rodinia, Parboil and
//! PolyBench.
//!
//! The SSMDVFS paper trains and evaluates on "over 20 benchmarks from
//! Rodinia, Parboil and PolyBench". The real suites are CUDA programs we
//! cannot execute; what the DVFS controllers actually observe, however, is
//! only the *counter dynamics* those programs induce: arithmetic intensity,
//! cache locality, branch divergence, phase changes between kernels, and
//! kernel lengths. This crate provides 25 named benchmark specifications
//! that span those axes the same way the real suites do, each one a
//! deterministic procedural instruction stream for the
//! [`gpu_sim`] simulator.
//!
//! Benchmarks are sized so the full workload runs for roughly 300 µs on the
//! 24-cluster Titan X configuration at the default clock, matching the
//! paper's "execution time of programs limited to approximately 0.0003 s".
//!
//! # Examples
//!
//! ```
//! use gpu_workloads::{suite, training_set, evaluation_set};
//!
//! let all = suite();
//! assert!(all.len() >= 20, "the paper uses over 20 benchmarks");
//!
//! // More than half of the evaluation programs are unseen during training.
//! let train = training_set();
//! let eval = evaluation_set();
//! let unseen = eval
//!     .iter()
//!     .filter(|b| train.iter().all(|t| t.name() != b.name()))
//!     .count();
//! assert!(unseen * 2 > eval.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
mod builders;
mod parboil;
mod polybench;
mod rodinia;
mod suite;

pub use benchmark::{Benchmark, Boundedness, Family};
pub use suite::{by_name, evaluation_set, suite, training_set, EVALUATION_NAMES, TRAINING_NAMES};
