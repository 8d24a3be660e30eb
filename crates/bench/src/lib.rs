//! Experiment harness reproducing the Coconut paper's evaluation.
//!
//! Every figure of the paper's Section 5 has a runner in [`experiments`],
//! beside the distance-kernel baseline (`bench_distance`); the `repro`
//! binary dispatches to them (`repro fig8a`, `repro all`, ...). Runners
//! print the same rows/series the paper reports and write CSVs to
//! `results/`. The workspace's own subsystems (LSM, server, shard fabric)
//! are checked by `cargo test`, not here.
//!
//! Because the original testbed (5×2TB RAID0, 100–277 GB datasets) cannot
//! be reproduced on a laptop, every measurement reports **both** wall-clock
//! time and the modeled disk time of the I/O trace under a spinning-disk
//! profile ([`coconut_storage::DiskProfile`]) — the paper's claims are
//! about I/O behaviour, and the modeled column is hardware-independent.

pub mod data;
pub mod experiments;
pub mod harness;
pub mod zoo;

pub use coconut_storage::Result;
