//! The read-path fault sites under a query. An injected `leaf.read` error
//! fails the query that meets it with a typed I/O error and leaves the
//! leaf's block unloaded, so the next query reads the leaf again and
//! answers exactly — on a freshly opened index and through a pinned LSM
//! snapshot. An injected `dataset.read` error — a raw fetch of the probe, or
//! one of the scan's sweeps — fails its query the same way, and the next
//! query is exact. An injected `index.read` error — any of the header,
//! directory and trie-tail reads of `open` — fails that `open` the same way,
//! and the next `open` answers exactly.
//!
//! One test in a file of its own: the fault plan is process-global, and
//! no other test may meet it.

use std::sync::Arc;

use coconut_core::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig, LsmCoconut, Query};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::{fault, Error, FaultPlan, IoStats, TempDir};

const LEN: usize = 64;
const N: u64 = 3_000;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 10;
    c
}

fn brute_force(ds: &Dataset, q: &[Value]) -> Answer {
    let mut best = Answer::none();
    for pos in 0..ds.len() {
        best.merge(Answer {
            pos,
            dist: euclidean(q, &ds.get(pos).unwrap()),
        });
    }
    best
}

/// Fail the next leaf read of the process.
fn fail_next_leaf_read() -> Arc<FaultPlan> {
    fault::install(FaultPlan::parse("leaf.read=err@1", 0).unwrap())
}

fn assert_injected_io_error(err: Error, site: &str) {
    match err {
        Error::Io(e) => assert!(e.to_string().contains(site), "{e}"),
        other => panic!("expected an injected I/O error at {site}, got {other}"),
    }
}

#[test]
fn a_failed_leaf_read_fails_one_query_and_the_next_is_exact() {
    let dir = TempDir::new("read-faults").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(31), N, LEN, &stats).unwrap();
    let ds = Dataset::open(&path, stats).unwrap();
    let mut q = RandomWalkGen::new(4_242).generate(LEN);
    znormalize(&mut q);
    let oracle = brute_force(&ds, &q);

    let built = CoconutTree::build(&ds, &config(), dir.path(), BuildOptions::default()).unwrap();
    let tree = CoconutTree::open(built.index_path(), &ds, 2).unwrap();
    let plan = fail_next_leaf_read();
    assert_injected_io_error(tree.exact_search(&q).unwrap_err(), "leaf.read");
    assert_eq!(tree.loaded_blocks(), 0, "the failed block stays unloaded");
    let (found, _) = tree.exact_search(&q).unwrap();
    assert_eq!(found, oracle);
    assert!(tree.loaded_blocks() > 0);
    assert_eq!(plan.injected(), 1);
    fault::clear();

    // Raw fetches: the probe's first, then the first of the scan's sweeps
    // (the one after every probe fetch; the approximate query is the probe
    // alone).
    let (_, probe) = tree.search(&q, &Query::approx()).unwrap();
    let (_, exact) = tree.exact_search(&q).unwrap();
    assert!(
        exact.records_fetched > probe.records_fetched,
        "the scan fetches"
    );
    for nth in [1, probe.records_fetched + 1] {
        let spec = format!("dataset.read=err@{nth}");
        let plan = fault::install(FaultPlan::parse(&spec, 0).unwrap());
        assert_injected_io_error(tree.exact_search(&q).unwrap_err(), "dataset.read");
        let (found, _) = tree.exact_search(&q).unwrap();
        assert_eq!(found, oracle, "after raw fetch {nth} failed");
        assert_eq!(plan.injected(), 1);
        fault::clear();
    }

    // Two fresh runs, pinned before the fault: their blocks load on the
    // snapshot's first query.
    let lsm = LsmCoconut::new(config(), BuildOptions::default(), dir.path().join("lsm")).unwrap();
    lsm.set_max_runs(100);
    lsm.ingest_upto(&ds, N / 2).unwrap();
    lsm.ingest_upto(&ds, N).unwrap();
    lsm.wait_for_compactions().unwrap();
    let snapshot = lsm.snapshot();
    assert_eq!(snapshot.run_count(), 2);
    let plan = fail_next_leaf_read();
    assert_injected_io_error(
        snapshot.search(&q, &Query::nearest()).unwrap_err(),
        "leaf.read",
    );
    let (answers, _) = snapshot.search(&q, &Query::nearest()).unwrap();
    assert_eq!(answers, [oracle]);
    assert_eq!(plan.injected(), 1);
    fault::clear();

    // Opening: a tree reads its header and its directory (head, then
    // records); a trie also reads its tail (node count, then nodes).
    let trie = CoconutTrie::build(&ds, &config(), dir.path(), BuildOptions::default()).unwrap();
    for nth in 1..=3 {
        let plan = fault::install(FaultPlan::parse(&format!("index.read=err@{nth}"), 0).unwrap());
        let Err(err) = CoconutTree::open(built.index_path(), &ds, 2) else {
            panic!("tree open survived index read {nth} failing");
        };
        assert_injected_io_error(err, "index.read");
        let (found, _) = CoconutTree::open(built.index_path(), &ds, 2)
            .unwrap()
            .exact_search(&q)
            .unwrap();
        assert_eq!(found, oracle, "after tree index read {nth} failed");
        assert_eq!(plan.injected(), 1);
        fault::clear();
    }
    for nth in 1..=5 {
        let plan = fault::install(FaultPlan::parse(&format!("index.read=err@{nth}"), 0).unwrap());
        let Err(err) = CoconutTrie::open(trie.index_path(), &ds, 2) else {
            panic!("trie open survived index read {nth} failing");
        };
        assert_injected_io_error(err, "index.read");
        let (found, _) = CoconutTrie::open(trie.index_path(), &ds, 2)
            .unwrap()
            .exact_search(&q)
            .unwrap();
        assert_eq!(found, oracle, "after trie index read {nth} failed");
        assert_eq!(plan.injected(), 1);
        fault::clear();
    }
}
