//! One query matrix: every [`Kind`] × [`Metric`] on every layer that
//! answers a [`Query`] — pointer and materialized Coconut-Trees and
//! Coconut-Tries (both split policies), pointer and materialized
//! three-run [`Snapshot`]s, a five-run one holding a one-leaf run, and a
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
//!
//! Beside the matrix: answers *and* work counters do not depend on the
//! thread count, and a snapshot's counters account for every entry it
//! covers exactly once; zone boxes change how many bounds a query computes
//! and nothing else it returns; a bound below every leaf box prunes the whole index
//! untouched; one-leaf and empty indexes answer, reopened too; and the
//! probe returns the true best of its seed leaves while fetching only part
//! of them.

use std::sync::Arc;

use coconut_core::backend::partition;
use coconut_core::query::dist_pos;
use coconut_core::records::KeyPos;
use coconut_core::{
    BuildOptions, CoconutTree, CoconutTrie, IndexConfig, Kind, LocalShard, LsmCoconut, Metric,
    Query, ShardSet, Snapshot, SplitPolicyKind,
};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::dtw::dtw;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{Deadline, IoStats, RecordStream, Result, TempDir};
use coconut_summary::mindist::ZONE;
use coconut_summary::sax::Summarizer;

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

fn opts(materialized: bool) -> BuildOptions {
    BuildOptions {
        materialized,
        ..BuildOptions::default()
    }
}

/// The three-run ingest and the five-run one: 100, 10 (a single leaf),
/// 50, 40 and 40 series — no four runs share a size tier, so none merge.
const THREE_RUNS: [u64; 3] = [N / 3, 2 * N / 3, N];
const FIVE_RUNS: [u64; 5] = [100, 110, 160, 200, 240];

/// A snapshot of an LSM in `dir/name` that ingested `ds` up to each of
/// `uptos` in turn, one run per ingest.
fn snapshot(
    dir: &TempDir,
    name: &str,
    ds: &Dataset,
    uptos: &[u64],
    opts: BuildOptions,
) -> Snapshot {
    let lsm = LsmCoconut::new(config(), opts, dir.path().join(name)).unwrap();
    lsm.set_max_runs(100); // no compaction by count: keep every run
    for &upto in uptos {
        lsm.ingest_upto(ds, upto).unwrap();
    }
    lsm.wait_for_compactions().unwrap();
    let snapshot = lsm.snapshot();
    assert_eq!(snapshot.run_count(), uptos.len(), "{name}");
    snapshot
}

/// The nine layers under test, by name.
fn cells(dir: &TempDir, ds: &Dataset) -> Vec<(&'static str, Search)> {
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

    for (name, uptos, materialized) in [
        ("3-run snapshot", &THREE_RUNS[..], false),
        ("3-run full snapshot", &THREE_RUNS[..], true),
        ("5-run snapshot", &FIVE_RUNS[..], false),
    ] {
        let snapshot = snapshot(dir, name, ds, uptos, opts(materialized));
        cells.push((name, Box::new(move |s, q| Ok(snapshot.search(s, q)?.0))));
    }

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

/// `all` as a dataset file in `dir`.
fn dataset(dir: &TempDir, all: &[Vec<Value>]) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut w = DatasetWriter::create(&path, LEN, true, Arc::clone(&stats)).unwrap();
    for s in all {
        w.append(s).unwrap();
    }
    w.finish().unwrap();
    Dataset::open(&path, stats).unwrap()
}

#[test]
fn every_layer_answers_every_query_like_brute_force() {
    let dir = TempDir::new("query-matrix").unwrap();
    let all = series();
    let ds = dataset(&dir, &all);
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

/// Every bounded kind under both metrics.
fn exact_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for metric in [Metric::Ed, Metric::Dtw(BAND)] {
        for kind in [Kind::Nearest, Kind::Knn(5), Kind::Knn(25), Kind::Range(6.0)] {
            queries.push(Query {
                metric,
                ..Query::new(kind)
            });
        }
    }
    queries
}

/// Zones prune bounds, never answers: a search and its zones-off reference
/// return the same answers and agree on every counter but `lower_bounds`.
fn assert_zones_save_only_bounds(
    zoned: &(Vec<Answer>, QueryStats),
    unzoned: &(Vec<Answer>, QueryStats),
    at: &str,
) {
    assert_eq!(bits(&zoned.0), bits(&unzoned.0), "{at}");
    let counters = |s: &QueryStats| (s.records_fetched, s.pruned, s.leaves_visited);
    assert_eq!(counters(&zoned.1), counters(&unzoned.1), "{at}");
}

/// The zones of leaves holding `counts` entries.
fn zones(counts: &[usize]) -> u64 {
    counts.iter().map(|c| c.div_ceil(ZONE) as u64).sum()
}

#[test]
fn answers_and_stats_do_not_depend_on_threads() {
    let dir = TempDir::new("query-matrix").unwrap();
    let ds = dataset(&dir, &series());
    for materialized in [false, true] {
        let build = |threads| {
            let opts = BuildOptions {
                threads,
                ..opts(materialized)
            };
            CoconutTree::build(&ds, &config(), dir.path(), opts).unwrap()
        };
        // (The matrix above checks the default thread count against brute
        // force; equality with it carries that over.)
        let (one, two, four) = (build(1), build(2), build(4));
        let zones = zones(&one.leaf_entry_counts());
        for q in queries() {
            for query in exact_queries() {
                let want = one.search(&q, &query).unwrap();
                assert_eq!(two.search(&q, &query).unwrap(), want, "{query:?}");
                assert_eq!(four.search(&q, &query).unwrap(), want, "{query:?}");
                for tree in [&one, &two, &four] {
                    let unzoned = tree.search_unzoned(&q, &query).unwrap();
                    assert_zones_save_only_bounds(&want, &unzoned, &format!("{query:?}"));
                }
                // The counters account for every record, and bounds are only
                // computed per leaf box, per zone of a surviving leaf and per
                // key of a surviving zone.
                let stats = want.1;
                assert!(stats.pruned + stats.records_fetched >= N, "{query:?}");
                let most = N + one.leaf_count() + zones;
                assert!(stats.lower_bounds <= most, "{query:?}");
            }
        }

        // Multi-run snapshots: one scan over every run, so the probe's
        // leaves and the scan's together meet each covered entry once.
        for (uptos, name) in [(&THREE_RUNS[..], "three"), (&FIVE_RUNS[..], "five")] {
            let snap = |threads| {
                let opts = BuildOptions {
                    threads,
                    ..opts(materialized)
                };
                let name = format!("{name}-{materialized}-{threads}");
                snapshot(&dir, &name, &ds, uptos, opts)
            };
            let (one, two, four) = (snap(1), snap(2), snap(4));
            for q in queries() {
                for query in exact_queries() {
                    let at = format!("{name} runs, full={materialized}, {query:?}");
                    let want = one.search(&q, &query).unwrap();
                    assert_eq!(two.search(&q, &query).unwrap(), want, "{at}");
                    assert_eq!(four.search(&q, &query).unwrap(), want, "{at}");
                    for snapshot in [&one, &two, &four] {
                        let unzoned = snapshot.search_unzoned(&q, &query).unwrap();
                        assert_zones_save_only_bounds(&want, &unzoned, &at);
                    }
                    let stats = want.1;
                    assert_eq!(stats.pruned + stats.records_fetched, N, "{at}");
                }
            }
        }
    }
}

#[test]
fn a_bound_below_every_leaf_box_prunes_the_index_untouched() {
    let dir = TempDir::new("query-matrix").unwrap();
    let ds = dataset(&dir, &series());
    for materialized in [false, true] {
        let tree = CoconutTree::build(&ds, &config(), dir.path(), opts(materialized)).unwrap();
        for q in queries() {
            for query in exact_queries() {
                // Nothing is strictly below distance zero: no box is.
                let query = Query {
                    bound: 0.0,
                    ..query
                };
                let (answers, stats) = tree.search(&q, &query).unwrap();
                assert!(answers.is_empty(), "{query:?}");
                assert_eq!(stats.records_fetched, 0, "{query:?}");
                assert_eq!(stats.lower_bounds, tree.leaf_count(), "{query:?}");
                assert!(stats.pruned >= N, "{query:?}");
            }
        }
    }
}

#[test]
fn one_leaf_and_empty_indexes_answer() {
    let dir = TempDir::new("query-matrix").unwrap();
    let all = series();
    let ds = dataset(&dir, &all);
    for materialized in [false, true] {
        for entries in [0u64, 1, 11] {
            let range = 0..entries;
            let tree =
                CoconutTree::build_range(&ds, range, &config(), dir.path(), opts(materialized))
                    .unwrap();
            assert_eq!(tree.leaf_count(), entries.min(1));
            let reopened = CoconutTree::open_range(tree.index_path(), &ds, 2, 0..entries).unwrap();
            assert_eq!(reopened.leaf_count(), entries.min(1));
            for q in queries() {
                for query in exact_queries() {
                    let oracle = brute_force(&all[..entries as usize], &q, query.metric);
                    let want = bits(&expected(&oracle, &query));
                    let at = format!("{entries} entries, {query:?}");
                    assert_eq!(bits(&tree.search(&q, &query).unwrap().0), want, "{at}");
                    assert_eq!(bits(&reopened.search(&q, &query).unwrap().0), want, "{at}");
                }
                let best = brute_force(&all[..entries as usize], &q, Metric::Ed);
                for index in [&tree, &reopened] {
                    let (approx, _) = index.search(&q, &Query::approx()).unwrap();
                    assert_eq!(bits(&approx), bits(&best[..entries.min(1) as usize]));
                }
            }
        }
    }
}

/// The leaves of `tree` as `(first key, positions)`, in leaf order.
fn leaves_of(tree: &CoconutTree) -> Vec<(coconut_summary::ZKey, Vec<u64>)> {
    let mut entries = tree.leaf_entries::<KeyPos>();
    tree.leaf_entry_counts()
        .into_iter()
        .map(|count| {
            let leaf: Vec<KeyPos> = (0..count)
                .map(|_| entries.next_item().unwrap().unwrap())
                .collect();
            (leaf[0].key, leaf.iter().map(|e| e.pos).collect())
        })
        .collect()
}

#[test]
fn the_probe_returns_the_true_best_of_its_seed_leaves_for_a_share_of_their_fetches() {
    let dir = TempDir::new("query-matrix").unwrap();
    let all = series();
    let ds = dataset(&dir, &all);
    // A member with a little noise: its own entry bounds almost everything
    // else in the seed leaves away.
    let mut near = all[100].clone();
    near[5] += 0.03;
    near[41] -= 0.02;
    let mut probes = queries();
    probes.push(near);
    for materialized in [false, true] {
        let tree = CoconutTree::build(&ds, &config(), dir.path(), opts(materialized)).unwrap();
        let leaves = leaves_of(&tree);
        for (qi, q) in probes.iter().enumerate() {
            let key = Summarizer::new(config().sax).zkey(q);
            let target = leaves
                .partition_point(|(first, _)| *first <= key)
                .saturating_sub(1);
            for metric in [Metric::Ed, Metric::Dtw(BAND)] {
                for radius in [0usize, 1, 3] {
                    let lo = target.saturating_sub(radius);
                    let hi = (target + radius).min(leaves.len() - 1);
                    let seeds: Vec<u64> = leaves[lo..=hi]
                        .iter()
                        .flat_map(|(_, positions)| positions.iter().copied())
                        .collect();
                    let best = brute_force(&all, q, metric)
                        .into_iter()
                        .find(|a| seeds.contains(&a.pos))
                        .unwrap();
                    let query = Query {
                        metric,
                        radius,
                        ..Query::approx()
                    };
                    let (got, stats) = tree.search(q, &query).unwrap();
                    let at = format!("full={materialized} query {qi} {metric:?} radius {radius}");
                    assert_eq!(bits(&got), bits(&[best]), "{at}");
                    assert_eq!(stats.leaves_visited, (hi - lo + 1) as u64, "{at}");
                    assert_eq!(stats.lower_bounds, 0, "{at}: the probe loads no summaries");
                    assert_eq!(
                        stats.pruned + stats.records_fetched,
                        seeds.len() as u64,
                        "{at}"
                    );
                    if qi == probes.len() - 1 {
                        assert!(
                            stats.records_fetched < seeds.len() as u64 / 2,
                            "{at}: fetched {} of {}",
                            stats.records_fetched,
                            seeds.len()
                        );
                    }
                }
            }
        }
    }
}
