//! One runner per table/figure of the paper's evaluation (Section 5), plus
//! the distance-kernel baseline. The workspace's own subsystems (LSM
//! ingest, the query server, the shard fabric, split policies) are checked
//! by `cargo test`, not here.
//!
//! | id | paper content | runner |
//! |----|---------------|--------|
//! | fig7  | dataset value histograms | [`fig7::run`] |
//! | fig8a | construction, materialized, vs memory | [`fig8::run_8a`] |
//! | fig8b | construction, non-materialized, vs memory | [`fig8::run_8b`] |
//! | fig8c | index space overhead + occupancy | [`fig8::run_8c`] |
//! | fig8d | construction, materialized, fixed memory, growing N | [`fig8::run_8d`] |
//! | fig8e | construction, non-materialized, fixed memory, growing N | [`fig8::run_8e`] |
//! | fig8f | construction vs series length | [`fig8::run_8f`] |
//! | fig9a | exact query time vs N | [`fig9::run_9a`] |
//! | fig9b | approximate query time vs N | [`fig9::run_9b`] |
//! | fig9c | approximate query time, large config | [`fig9::run_9c`] |
//! | fig9d | approximate answer quality (radius sweep) | [`fig9::run_9d`] |
//! | fig9e | exact query time, large config (SIMS radius) | [`fig9::run_9e`] |
//! | fig9f | records visited during exact search | [`fig9::run_9f`] |
//! | fig10a | mixed insert/query workload (batch sweep) | [`fig10::run_10a`] |
//! | fig10b | astronomy end-to-end vs memory | [`fig10::run_10b`] |
//! | fig10c | seismic end-to-end vs memory | [`fig10::run_10c`] |
//! | ablation | z-order vs lexicographic ordering (Figs. 2/4) | [`ablation::run`] |
//! | bench_distance | distance-kernel baseline: scalar vs SIMD | [`bench_distance::run`] |

pub mod ablation;
pub mod bench_distance;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use std::path::PathBuf;

/// Experiment scale: `quick` keeps `repro all` under a few minutes on a
/// laptop; `full` uses larger datasets for smoother curves.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Base dataset size (series).
    pub n: u64,
    /// Series length (points).
    pub series_len: usize,
    /// Queries per workload (the paper uses 100).
    pub queries: usize,
    /// Leaf capacity shared by all indexes (the paper uses 2000 at 100M+
    /// series; scaled to keep a comparable leaf count).
    pub leaf_capacity: usize,
    /// SIMS threads.
    pub threads: usize,
}

impl Scale {
    /// The fast CI-friendly scale.
    pub fn quick() -> Self {
        Scale {
            n: 6_000,
            series_len: 128,
            queries: 20,
            leaf_capacity: 100,
            threads: 4,
        }
    }

    /// The default reporting scale.
    pub fn full() -> Self {
        Scale {
            n: 40_000,
            series_len: 256,
            queries: 100,
            leaf_capacity: 200,
            threads: 4,
        }
    }
}

/// Where experiments run and deposit outputs.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory (datasets, index files, sort runs).
    pub work_dir: PathBuf,
    /// Results directory (CSV outputs).
    pub results_dir: PathBuf,
    /// Scale parameters.
    pub scale: Scale,
}
