//! Library backing the `ssmdvfs` command-line tool.
//!
//! Exposes the argument parser and subcommand implementations so they can be
//! tested directly; the binary in `main.rs` is a thin shell around
//! [`dispatch`].
//!
//! ```sh
//! ssmdvfs list-benchmarks
//! ssmdvfs simulate --benchmark lbm --governor pcstall --preset 0.10
//! ssmdvfs datagen  --out data.json --benchmarks sgemm,lbm --scale 0.2
//! ssmdvfs train    --dataset data.json --out model.json
//! ssmdvfs simulate --benchmark mvt --governor ssmdvfs --model model.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Args, ErrorKind, ParseArgsError};
pub use commands::{
    asic, compress, datagen, dispatch, eval_cmd, inspect, list_benchmarks, run, simulate,
    slo_check, train, usage, watch,
};
