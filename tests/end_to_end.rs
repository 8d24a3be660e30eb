//! Cross-crate integration tests: the whole pipeline from generator to
//! query answer, for every index family, driven through the facade crate.

use std::sync::Arc;

use coconut::baselines::{
    AdsIndex, AdsVariant, DsTree, Isax2Index, RTreeIndex, SerialScan, VerticalIndex,
};
use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::series::gen::Generator;
use coconut::summary::mindist::ZONE;
use coconut::summary::SaxConfig;

const LEN: usize = 64;
const N: u64 = 700;

struct Fixture {
    _dir: TempDir,
    dir_path: std::path::PathBuf,
    dataset: Dataset,
    queries: Vec<Vec<f32>>,
}

fn fixture(kind: u8) -> Fixture {
    let dir = TempDir::new("e2e").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut generator: Box<dyn Generator> = match kind {
        0 => Box::new(RandomWalkGen::new(5)),
        1 => Box::new(SeismicGen::new(5)),
        _ => Box::new(AstronomyGen::new(5)),
    };
    write_dataset(&path, generator.as_mut(), N, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let queries = (0..6u64)
        .map(|i| {
            let mut q = RandomWalkGen::new(100 + i).generate(LEN);
            znormalize(&mut q);
            q
        })
        .collect();
    Fixture {
        dir_path: dir.path().to_path_buf(),
        _dir: dir,
        dataset,
        queries,
    }
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 40;
    c
}

/// Build every index and require exact agreement with the serial scan, on
/// all three data distributions.
#[test]
fn all_indexes_agree_with_scan_on_all_generators() {
    for kind in 0..3u8 {
        let f = fixture(kind);
        let sax = SaxConfig::default_for_len(LEN);
        let opts = BuildOptions {
            memory_bytes: 1 << 20,
            materialized: false,
            threads: 2,
            shards: 1,
        };
        let indexes: Vec<Box<dyn SeriesIndex>> = vec![
            Box::new(CoconutTree::build(&f.dataset, &config(), &f.dir_path, opts.clone()).unwrap()),
            Box::new(
                CoconutTree::build(
                    &f.dataset,
                    &config(),
                    &f.dir_path,
                    opts.clone().materialized(),
                )
                .unwrap(),
            ),
            Box::new(CoconutTrie::build(&f.dataset, &config(), &f.dir_path, opts.clone()).unwrap()),
            Box::new(
                CoconutTrie::build(
                    &f.dataset,
                    &config(),
                    &f.dir_path,
                    opts.clone().materialized(),
                )
                .unwrap(),
            ),
            Box::new(
                AdsIndex::build(
                    &f.dataset,
                    sax,
                    40,
                    1 << 20,
                    &f.dir_path,
                    AdsVariant::Plus,
                    2,
                )
                .unwrap(),
            ),
            Box::new(
                AdsIndex::build(
                    &f.dataset,
                    sax,
                    40,
                    1 << 20,
                    &f.dir_path,
                    AdsVariant::Full,
                    2,
                )
                .unwrap(),
            ),
            Box::new(RTreeIndex::build(&f.dataset, sax, 40, false, &f.dir_path).unwrap()),
            Box::new(RTreeIndex::build(&f.dataset, sax, 40, true, &f.dir_path).unwrap()),
            Box::new(Isax2Index::build(&f.dataset, sax, 40, 1 << 20, &f.dir_path).unwrap()),
            Box::new(DsTree::build(&f.dataset, 40, &f.dir_path).unwrap()),
            Box::new(VerticalIndex::build(&f.dataset, &f.dir_path).unwrap()),
        ];
        let scan = SerialScan::new(&f.dataset);
        for q in &f.queries {
            let (truth, _) = scan.exact(q).unwrap();
            for idx in &indexes {
                let (ans, _) = idx.exact(q).unwrap();
                assert_eq!(
                    ans.pos,
                    truth.pos,
                    "{} (kind {kind}) disagrees with scan",
                    idx.name()
                );
                assert!((ans.dist - truth.dist).abs() < 1e-4);
                let approx = idx.approximate(q).unwrap();
                assert!(
                    approx.dist + 1e-9 >= ans.dist,
                    "{} approximate beat exact",
                    idx.name()
                );
            }
        }
    }
}

/// Member queries (series already in the dataset) must be found at
/// distance zero by exact search.
#[test]
fn member_queries_find_themselves() {
    let f = fixture(0);
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 2,
        shards: 1,
    };
    let tree = CoconutTree::build(&f.dataset, &config(), &f.dir_path, opts.clone()).unwrap();
    let trie = CoconutTrie::build(&f.dataset, &config(), &f.dir_path, opts).unwrap();
    for pos in [0u64, N / 2, N - 1] {
        let member = f.dataset.get(pos).unwrap();
        for (name, (ans, _)) in [
            ("tree", tree.exact_search(&member).unwrap()),
            ("trie", trie.exact_search(&member).unwrap()),
        ] {
            assert!(
                ans.dist < 1e-4,
                "{name}: member at {pos} not found (dist {})",
                ans.dist
            );
        }
    }
}

/// The memory budget must not change any answer, only the cost.
#[test]
fn answers_independent_of_memory_budget() {
    let f = fixture(0);
    let budgets = [512u64, 16 << 10, 8 << 20];
    let mut answers: Vec<Vec<u64>> = Vec::new();
    for &b in &budgets {
        let opts = BuildOptions {
            memory_bytes: b,
            materialized: false,
            threads: 2,
            shards: 1,
        };
        let tree = CoconutTree::build(&f.dataset, &config(), &f.dir_path, opts).unwrap();
        answers.push(
            f.queries
                .iter()
                .map(|q| tree.exact_search(q).unwrap().0.pos)
                .collect(),
        );
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
}

/// Query stats must be internally consistent.
#[test]
fn query_stats_are_consistent() {
    let f = fixture(0);
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 2,
        shards: 1,
    };
    let tree = CoconutTree::build(&f.dataset, &config(), &f.dir_path, opts).unwrap();
    let zones: u64 = tree
        .leaf_entry_counts()
        .iter()
        .map(|&c| c.div_ceil(ZONE) as u64)
        .sum();
    for q in &f.queries {
        let (_, s) = tree.exact_search(q).unwrap();
        // Every record is either pruned or fetched during the SIMS phase
        // (the probe adds its own fetches and skips on top); bounds are
        // computed per leaf box, per zone of a surviving leaf and per key
        // of a surviving zone only.
        assert!(s.pruned + s.records_fetched >= N);
        assert!(s.lower_bounds <= N + tree.leaf_count() + zones);
    }
}
