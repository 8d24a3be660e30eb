//! Figure 9: query answering experiments.

use coconut_core::{BuildOptions, CoconutTree, IndexConfig, Query};
use coconut_series::index::{QueryStats, SeriesIndex};
use coconut_storage::Result;
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind, Workload};
use crate::experiments::Env;
use crate::harness::{fmt_secs, Table};
use crate::zoo::{build_index, Algo, BuildParams};

fn params(env: &Env) -> BuildParams {
    BuildParams {
        leaf_capacity: env.scale.leaf_capacity,
        memory_bytes: 64 << 20,
        threads: env.scale.threads,
        shards: 1,
    }
}

/// Average exact-query wall time, modeled disk time and work counters.
fn run_exact(idx: &dyn SeriesIndex, w: &Workload) -> Result<(f64, f64, QueryStats)> {
    let mut stats = QueryStats::default();
    let (_, m) = crate::harness::measure(&w.stats, || {
        for q in &w.queries {
            let (_, s) = idx.exact(q)?;
            stats.add(&s);
        }
        Ok(())
    })?;
    let nq = w.queries.len() as f64;
    Ok((m.wall_s / nq, m.modeled_s() / nq, stats))
}

fn run_approx(idx: &dyn SeriesIndex, w: &Workload) -> Result<(f64, f64, f64)> {
    let mut total_dist = 0.0;
    let (_, m) = crate::harness::measure(&w.stats, || {
        for q in &w.queries {
            total_dist += idx.approximate(q)?.dist;
        }
        Ok(())
    })?;
    let nq = w.queries.len() as f64;
    Ok((m.wall_s / nq, m.modeled_s() / nq, total_dist / nq))
}

const QUERY_ALGOS: [Algo; 6] = [
    Algo::CTree,
    Algo::CTreeFull,
    Algo::AdsPlus,
    Algo::AdsFull,
    Algo::RTree,
    Algo::RTreePlus,
];

/// Figure 9a: exact query answering vs dataset size.
pub fn run_9a(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "fig9a",
        "exact query answering (avg per query) vs dataset size",
        &[
            "algorithm",
            "series",
            "avg_exact",
            "modeled_disk",
            "fetched/query",
        ],
    );
    for &n in &[env.scale.n / 4, env.scale.n / 2, env.scale.n] {
        let w = prepare(
            &env.work_dir,
            DataKind::RandomWalk,
            n,
            env.scale.series_len,
            env.scale.queries,
            7,
        )?;
        let build_dir = coconut_storage::TempDir::new("fig9a")?;
        for algo in QUERY_ALGOS {
            let idx = build_index(algo, &w, &params(env), build_dir.path())?;
            let (avg, modeled, stats) = run_exact(idx.as_ref(), &w)?;
            table.push_row(vec![
                algo.name().to_string(),
                n.to_string(),
                fmt_secs(avg),
                fmt_secs(modeled),
                (stats.records_fetched / w.queries.len() as u64).to_string(),
            ]);
        }
    }
    table.emit(&env.results_dir)
}

/// Figure 9b: approximate query answering vs dataset size.
pub fn run_9b(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "fig9b",
        "approximate query answering (avg per query) vs dataset size",
        &[
            "algorithm",
            "series",
            "avg_approx",
            "modeled_disk",
            "avg_distance",
        ],
    );
    for &n in &[env.scale.n / 4, env.scale.n / 2, env.scale.n] {
        let w = prepare(
            &env.work_dir,
            DataKind::RandomWalk,
            n,
            env.scale.series_len,
            env.scale.queries,
            7,
        )?;
        let build_dir = coconut_storage::TempDir::new("fig9b")?;
        for algo in QUERY_ALGOS {
            let idx = build_index(algo, &w, &params(env), build_dir.path())?;
            let (avg_t, modeled, avg_d) = run_approx(idx.as_ref(), &w)?;
            table.push_row(vec![
                algo.name().to_string(),
                n.to_string(),
                fmt_secs(avg_t),
                fmt_secs(modeled),
                format!("{avg_d:.3}"),
            ]);
        }
    }
    table.emit(&env.results_dir)
}

/// Figure 9c: approximate query answering at the large configuration.
pub fn run_9c(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "fig9c",
        "approximate query answering at the largest configuration",
        &["algorithm", "avg_approx", "modeled_disk", "avg_distance"],
    );
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        7,
    )?;
    let build_dir = coconut_storage::TempDir::new("fig9c")?;
    for algo in [Algo::CTree, Algo::CTreeFull, Algo::AdsPlus, Algo::AdsFull] {
        let idx = build_index(algo, &w, &params(env), build_dir.path())?;
        let (avg_t, modeled, avg_d) = run_approx(idx.as_ref(), &w)?;
        table.push_row(vec![
            algo.name().to_string(),
            fmt_secs(avg_t),
            fmt_secs(modeled),
            format!("{avg_d:.3}"),
        ]);
    }
    table.emit(&env.results_dir)
}

/// Build a concrete Coconut-Tree for the radius experiments.
fn build_ctree(env: &Env, w: &Workload, dir: &std::path::Path) -> Result<CoconutTree> {
    let config = IndexConfig {
        sax: SaxConfig::default_for_len(w.dataset.series_len()),
        leaf_capacity: env.scale.leaf_capacity,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: coconut_core::SplitPolicyKind::Fixed,
    };
    CoconutTree::build(
        &w.dataset,
        &config,
        dir,
        BuildOptions {
            memory_bytes: 64 << 20,
            materialized: false,
            threads: env.scale.threads,
            shards: 1,
        },
    )
}

/// Figure 9d: quality of approximate answers — CTree with radius 1 and 10
/// vs ADSFull, plus the fraction of queries where CTree's answer is better.
pub fn run_9d(env: &Env) -> Result<()> {
    let mut table = Table::new(
        "fig9d",
        "average distance of approximate answers (radius sweep vs ADSFull)",
        &["algorithm", "avg_distance", "better_than_ADSFull"],
    );
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        7,
    )?;
    let build_dir = coconut_storage::TempDir::new("fig9d")?;
    let tree = build_ctree(env, &w, build_dir.path())?;
    let ads = build_index(Algo::AdsFull, &w, &params(env), build_dir.path())?;

    let ads_dists: Vec<f64> = w
        .queries
        .iter()
        .map(|q| ads.approximate(q).map(|a| a.dist))
        .collect::<Result<_>>()?;
    for radius in [1usize, 10] {
        let dists: Vec<f64> = w
            .queries
            .iter()
            .map(|q| tree.approximate_search(q, radius).map(|a| a.dist))
            .collect::<Result<_>>()?;
        let avg = dists.iter().sum::<f64>() / dists.len() as f64;
        let better = dists
            .iter()
            .zip(ads_dists.iter())
            .filter(|(c, a)| c <= a)
            .count();
        table.push_row(vec![
            format!("CTree({radius})"),
            format!("{avg:.3}"),
            format!("{:.0}%", 100.0 * better as f64 / dists.len() as f64),
        ]);
    }
    let ads_avg = ads_dists.iter().sum::<f64>() / ads_dists.len() as f64;
    table.push_row(vec!["ADSFull".into(), format!("{ads_avg:.3}"), "-".into()]);
    table.emit(&env.results_dir)
}

/// Figure 9e: exact query answering at the large configuration, comparing
/// CoconutTreeSIMS seed radii against ADS SIMS.
pub fn run_9e(env: &Env) -> Result<()> {
    let (table, _) = exact_radius_tables(env)?;
    table.emit(&env.results_dir)
}

/// Figure 9f: raw records visited during exact query answering.
pub fn run_9f(env: &Env) -> Result<()> {
    let (_, table) = exact_radius_tables(env)?;
    table.emit(&env.results_dir)
}

fn exact_radius_tables(env: &Env) -> Result<(Table, Table)> {
    let mut time_table = Table::new(
        "fig9e",
        "exact query answering at the largest configuration",
        &["algorithm", "avg_exact", "modeled_disk"],
    );
    let mut visit_table = Table::new(
        "fig9f",
        "raw records visited during exact query answering",
        &["algorithm", "visited/query", "pruned/query"],
    );
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        7,
    )?;
    let build_dir = coconut_storage::TempDir::new("fig9ef")?;
    let tree = build_ctree(env, &w, build_dir.path())?;
    let nq = w.queries.len() as u64;
    for radius in [1usize, 10] {
        let mut stats = QueryStats::default();
        let (_, m) = crate::harness::measure(&w.stats, || {
            for q in &w.queries {
                let seeded = Query {
                    radius,
                    ..Query::nearest()
                };
                let (_, s) = tree.search(q, &seeded)?;
                stats.add(&s);
            }
            Ok(())
        })?;
        let avg = m.wall_s / nq as f64;
        time_table.push_row(vec![
            format!("CTreeSIMS({radius})"),
            fmt_secs(avg),
            fmt_secs(m.modeled_s() / nq as f64),
        ]);
        visit_table.push_row(vec![
            format!("CTreeSIMS({radius})"),
            (stats.records_fetched / nq).to_string(),
            (stats.pruned / nq).to_string(),
        ]);
    }
    for algo in [Algo::AdsPlus, Algo::AdsFull] {
        let idx = build_index(algo, &w, &params(env), build_dir.path())?;
        let (avg, modeled, stats) = run_exact(idx.as_ref(), &w)?;
        time_table.push_row(vec![
            algo.name().to_string(),
            fmt_secs(avg),
            fmt_secs(modeled),
        ]);
        visit_table.push_row(vec![
            algo.name().to_string(),
            (stats.records_fetched / nq).to_string(),
            (stats.pruned / nq).to_string(),
        ]);
    }
    Ok((time_table, visit_table))
}
