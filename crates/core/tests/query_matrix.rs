//! One query matrix: every [`Kind`] × [`Metric`] on every layer that
//! answers a [`Query`] — pointer and materialized Coconut-Trees and
//! Coconut-Tries (both split policies), a three-run [`Snapshot`], and a
//! two-shard [`ShardSet`] — against a brute-force oracle.
//!
//! The contract each cell must meet:
//!
//! * answers are **bit-identical** to brute force, ties included: the
//!   dataset holds a group of exact duplicates larger than a leaf and a
//!   mirrored pair (different keys, equal distance), so any layout- or
//!   seed-dependent tie order shows;
//! * `bound` is strict, `f64::INFINITY` is no bound, and a bound at the
//!   true nearest distance returns nothing;
//! * an expired [`Deadline`] fails with a typed deadline error.

use std::sync::Arc;

use coconut_core::backend::partition;
use coconut_core::query::dist_pos;
use coconut_core::{
    BuildOptions, CoconutTree, CoconutTrie, IndexConfig, Kind, LocalShard, LsmCoconut, Metric,
    Query, ShardSet, SplitPolicyKind,
};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::dtw::dtw;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::{Deadline, IoStats, Result, TempDir};

const LEN: usize = 64;
const N: u64 = 240;
const BAND: usize = 4;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c
}

fn walk(seed: u64) -> Vec<Value> {
    let mut s = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut s);
    s
}

/// A query on a dyadic grid, and an offset from it on the same grid:
/// `mirror_query() ± mirror_offset()` are two different series at exactly
/// the same distance from it (every subtraction is exact in `f32`).
fn mirror_query() -> Vec<Value> {
    (0..LEN).map(|i| ((i % 5) as Value - 2.0) * 0.5).collect()
}

fn mirror_offset(i: usize) -> Value {
    ((i * 7 % 3) as Value - 1.0) * 0.25
}

/// 240 series: random walks, except a 20-strong group of exact duplicates
/// (more than one leaf holds, spread over every run and shard) and the
/// mirrored pair.
fn series() -> Vec<Vec<Value>> {
    let duplicate = walk(9_000);
    let q = mirror_query();
    (0..N)
        .map(|pos| match pos {
            p if p % 12 == 7 => duplicate.clone(),
            30 => (0..LEN).map(|i| q[i] + mirror_offset(i)).collect(),
            150 => (0..LEN).map(|i| q[i] - mirror_offset(i)).collect(),
            p => walk(p),
        })
        .collect()
}

fn queries() -> Vec<Vec<Value>> {
    let duplicate = walk(9_000);
    let mut near_duplicate = duplicate.clone();
    near_duplicate[3] += 0.125;
    near_duplicate[40] -= 0.25;
    vec![
        duplicate,
        near_duplicate,
        mirror_query(),
        walk(77_001),
        walk(77_002),
    ]
}

/// Every series' distance to `q`, in the total `(dist, pos)` order.
fn brute_force(all: &[Vec<Value>], q: &[Value], metric: Metric) -> Vec<Answer> {
    let mut answers: Vec<Answer> = all
        .iter()
        .enumerate()
        .map(|(pos, s)| Answer {
            pos: pos as u64,
            dist: match metric {
                Metric::Ed => euclidean(q, s),
                Metric::Dtw(band) => dtw(q, s, band),
            },
        })
        .collect();
    answers.sort_by(dist_pos);
    answers
}

/// What `query` must return given the full sorted oracle list.
fn expected(oracle: &[Answer], query: &Query) -> Vec<Answer> {
    let below = oracle.iter().filter(|a| a.dist < query.bound);
    match query.kind {
        Kind::Nearest => below.take(1).copied().collect(),
        Kind::Knn(k) => below.take(k).copied().collect(),
        Kind::Range(eps) => below.filter(|a| a.dist <= eps).copied().collect(),
        Kind::Approx => unreachable!("approximate answers have no oracle list"),
    }
}

fn bits(answers: &[Answer]) -> Vec<(u64, u64)> {
    answers.iter().map(|a| (a.pos, a.dist.to_bits())).collect()
}

type Search = Box<dyn Fn(&[Value], &Query) -> Result<Vec<Answer>>>;

/// The seven layers under test, by name.
fn cells(dir: &TempDir, ds: &Dataset) -> Vec<(&'static str, Search)> {
    let opts = |materialized| BuildOptions {
        materialized,
        ..BuildOptions::default()
    };
    let adaptive = config().with_split_policy(SplitPolicyKind::Adaptive);
    let mut cells: Vec<(&'static str, Search)> = Vec::new();
    for (name, materialized) in [("ctree ptr", false), ("ctree full", true)] {
        let tree = CoconutTree::build(ds, &config(), dir.path(), opts(materialized)).unwrap();
        cells.push((name, Box::new(move |s, q| Ok(tree.search(s, q)?.0))));
    }
    for (name, config, materialized) in [
        ("ctrie ptr", config(), false),
        ("ctrie full", config(), true),
        ("ctrie adaptive", adaptive, false),
    ] {
        let trie = CoconutTrie::build(ds, &config, dir.path(), opts(materialized)).unwrap();
        cells.push((name, Box::new(move |s, q| Ok(trie.search(s, q)?.0))));
    }

    let lsm = LsmCoconut::new(config(), opts(false), dir.path().join("lsm")).unwrap();
    lsm.set_max_runs(100); // no compaction: keep all three runs
    for upto in [N / 3, 2 * N / 3, N] {
        lsm.ingest_upto(ds, upto).unwrap();
    }
    lsm.wait_for_compactions().unwrap();
    let snapshot = lsm.snapshot();
    assert_eq!(snapshot.run_count(), 3);
    cells.push((
        "3-run snapshot",
        Box::new(move |s, q| Ok(snapshot.search(s, q)?.0)),
    ));

    let shards = partition(N, 2)
        .into_iter()
        .enumerate()
        .map(|(i, range)| {
            let dir = dir.path().join(format!("shard-{i}"));
            let lsm = LsmCoconut::new_based(config(), opts(false), dir, range.start).unwrap();
            LocalShard::new(Arc::new(lsm), ds.clone(), range).unwrap()
        })
        .collect();
    let set = ShardSet::new(shards).unwrap();
    set.build(N).unwrap();
    cells.push((
        "2-shard set",
        Box::new(move |s, q| {
            let found = set.search(s, q, false)?;
            assert!(found.is_complete());
            Ok(found.value)
        }),
    ));
    cells
}

#[test]
fn every_layer_answers_every_query_like_brute_force() {
    let dir = TempDir::new("query-matrix").unwrap();
    let all = series();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut w = DatasetWriter::create(&path, LEN, true, Arc::clone(&stats)).unwrap();
    for s in &all {
        w.append(s).unwrap();
    }
    w.finish().unwrap();
    let ds = Dataset::open(&path, stats).unwrap();
    // The dataset ties where it claims to.
    let mirrored = brute_force(&all, &mirror_query(), Metric::Ed);
    assert_eq!((mirrored[0].pos, mirrored[1].pos), (30, 150));
    assert_eq!(mirrored[0].dist, mirrored[1].dist);
    assert_eq!(brute_force(&all, &queries()[0], Metric::Ed)[19].dist, 0.0);
    let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));

    for (cell, search) in cells(&dir, &ds) {
        for (qi, q) in queries().iter().enumerate() {
            for metric in [Metric::Ed, Metric::Dtw(BAND)] {
                let oracle = brute_force(&all, q, metric);
                let at = |what: &str| format!("{cell}, query {qi}, {metric:?}: {what}");

                // The 5th distance: on the duplicate queries it sits inside
                // the 20-way tie, so an inclusive range must return all 20.
                let kinds = [
                    Kind::Nearest,
                    Kind::Knn(0),
                    Kind::Knn(1),
                    Kind::Knn(5),
                    Kind::Knn(25),
                    Kind::Range(oracle[4].dist),
                ];
                // No bound; a bound inside the answer list; a bound at the
                // true nearest distance, which nothing is strictly below.
                let bounds = [f64::INFINITY, oracle[21].dist, oracle[0].dist];
                for kind in kinds {
                    for bound in bounds {
                        let query = Query {
                            metric,
                            bound,
                            ..Query::new(kind)
                        };
                        let got = search(q, &query).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&expected(&oracle, &query)),
                            "{}",
                            at(&format!("{kind:?} below {bound}"))
                        );
                        if bound == oracle[0].dist {
                            assert!(got.is_empty(), "{}", at("bound at the true NN"));
                        }
                    }
                    if kind != Kind::Knn(0) {
                        let late = Query {
                            metric,
                            deadline: expired,
                            ..Query::new(kind)
                        };
                        let err = search(q, &late).unwrap_err();
                        assert!(err.is_deadline(), "{}", at(&format!("{kind:?}: {err}")));
                    }
                }

                // An approximate answer is a real series at its true
                // distance, never better than the exact one — and honours
                // the deadline like everything else.
                let approx = Query {
                    metric,
                    ..Query::approx()
                };
                let got = search(q, &approx).unwrap();
                assert_eq!(got.len(), 1, "{}", at("approx"));
                let truth = oracle.iter().find(|a| a.pos == got[0].pos).unwrap();
                assert_eq!(bits(&got), bits(&[*truth]), "{}", at("approx distance"));
                let late = Query {
                    deadline: expired,
                    ..approx
                };
                assert!(
                    search(q, &late).unwrap_err().is_deadline(),
                    "{}",
                    at("approx")
                );
            }
        }
    }
}
