//! Query latency on pre-built indexes: approximate and exact (SIMS),
//! including the SIMS thread-count scaling ablation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use coconut_bench::data::{prepare, DataKind};
use coconut_bench::zoo::{build_index, Algo, BuildParams};
use coconut_core::{BuildOptions, CoconutTree, IndexConfig};
use coconut_storage::TempDir;
use coconut_summary::SaxConfig;

fn bench_queries(c: &mut Criterion) {
    let n: u64 = 20_000;
    let len = 128usize;
    let data_dir = TempDir::new("bench-query-data").unwrap();
    let w = prepare(data_dir.path(), DataKind::RandomWalk, n, len, 16, 5).unwrap();
    let params = BuildParams {
        leaf_capacity: 200,
        memory_bytes: 64 << 20,
        threads: 4,
        shards: 1,
    };
    let build_dir = TempDir::new("bench-query-idx").unwrap();

    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    for algo in [Algo::CTree, Algo::CTreeFull, Algo::AdsPlus, Algo::AdsFull] {
        let idx = build_index(algo, &w, &params, build_dir.path()).unwrap();
        // Warm the lazily loaded summaries so we measure steady state.
        idx.exact(&w.queries[0]).unwrap();
        let mut qi = 0usize;
        group.bench_function(BenchmarkId::new("approximate", algo.name()), |b| {
            b.iter(|| {
                let q = &w.queries[qi % w.queries.len()];
                qi += 1;
                idx.approximate(black_box(q)).unwrap()
            })
        });
        let mut qi = 0usize;
        group.bench_function(BenchmarkId::new("exact", algo.name()), |b| {
            b.iter(|| {
                let q = &w.queries[qi % w.queries.len()];
                qi += 1;
                idx.exact(black_box(q)).unwrap()
            })
        });
    }
    group.finish();

    // SIMS thread scaling on the Coconut-Tree.
    let mut group = c.benchmark_group("sims_threads");
    group.sample_size(20);
    for threads in [1usize, 2, 4, 8] {
        let config = IndexConfig {
            sax: SaxConfig::default_for_len(len),
            leaf_capacity: 200,
            fill_factor: 1.0,
            internal_fanout: 64,
            split_policy: coconut_core::SplitPolicyKind::Fixed,
        };
        let tree = CoconutTree::build(
            &w.dataset,
            &config,
            build_dir.path(),
            BuildOptions {
                memory_bytes: 64 << 20,
                materialized: false,
                threads,
                shards: 1,
            },
        )
        .unwrap();
        tree.exact_search(&w.queries[0]).unwrap();
        let mut qi = 0usize;
        group.bench_function(BenchmarkId::new("exact", threads), |b| {
            b.iter(|| {
                let q = &w.queries[qi % w.queries.len()];
                qi += 1;
                tree.exact_search(black_box(q)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_queries
}
criterion_main!(benches);
