//! # `logdiam-bench` — experiment harness
//!
//! One function per experiment (E1–E14), each checking a claim of the
//! paper. Each returns [`table::Table`]s that the `experiments` binary
//! prints as Markdown — these are the "tables and figures" of the
//! reproduction. Wall-clock and simulator throughput are measured by the
//! repository's benchmark, `perfbench/`.
//!
//! Sizes are chosen so `experiments all` finishes in minutes on a laptop;
//! `--full` enlarges the sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod svc;
pub mod svc_durable;
pub mod svc_mt;
pub mod table;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Enlarged sweeps.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full: false,
            seed: 0xC0FFEE,
        }
    }
}
