//! The verify-once leaf blocks behind [`SortedLeafIndex::search`]: opening
//! an index reads its directory and nothing else, a query verifies only the
//! leaves it cannot prune and counts each as a read of its stored bytes,
//! concurrent cold queries and any thread count get the same answers, a
//! corrupt leaf — or one the file no longer holds — fails exactly the
//! queries that touch it, and blocks borrowed from the index file answer
//! like blocks built from the sorted entries in memory.
//!
//! [`SortedLeafIndex::search`]: coconut_core::SortedLeafIndex::search

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use coconut_core::layout::{pos_bytes, IndexHeader, LEAF_REGION_OFFSET};
use coconut_core::leaves::Summaries;
use coconut_core::records::KeyPos;
use coconut_core::sims::{sims_scan, Collector, Distance, Dtw, Ed, SeriesFetcher, Within};
use coconut_core::{
    BuildOptions, CoconutTree, CoconutTrie, Directory, IndexConfig, Kind, Metric, Query,
    SortedLeafIndex,
};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Deadline, Error, IoStats, RecordStream, TempDir};
use coconut_summary::sax::Summarizer;
use coconut_summary::ZKey;

const LEN: usize = 64;
const N: u64 = 3_000;
const LEAF: usize = 10;

/// Stored bytes per pointer entry: its symbols and its position, which
/// takes the fewest bytes that hold `N - 1`.
fn entry_bytes() -> usize {
    config().sax.segments + pos_bytes(N - 1)
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = LEAF;
    c
}

fn dataset(dir: &TempDir) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(23), N, LEN, &stats).unwrap();
    Dataset::open(&path, stats).unwrap()
}

/// Build a pointer tree over `ds` and return only its file.
fn built_tree(dir: &TempDir, ds: &Dataset) -> PathBuf {
    let tree = CoconutTree::build(ds, &config(), dir.path(), BuildOptions::default()).unwrap();
    tree.index_path().to_path_buf()
}

fn walk(seed: u64) -> Vec<Value> {
    let mut q = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut q);
    q
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

fn bytes_read_by<T>(ds: &Dataset, work: impl FnOnce() -> T) -> (T, u64) {
    let stats = ds.file().stats();
    let before = stats.snapshot();
    let out = work();
    (out, stats.snapshot().since(&before).bytes_read)
}

/// Header, directory and tail: everything of the file at `path` that is not
/// a leaf block.
fn directory_bytes(path: &Path) -> u64 {
    let file = CountedFile::open(path, Arc::new(IoStats::new())).unwrap();
    let header = IndexHeader::read_from(&file).unwrap();
    64 + file.len() - header.dir_offset
}

#[test]
fn open_reads_the_directory_and_no_leaf() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let tree_path = built_tree(&dir, &ds);
    let (tree, read) = bytes_read_by(&ds, || CoconutTree::open(&tree_path, &ds, 2).unwrap());
    assert!(read <= directory_bytes(&tree_path), "tree open read {read}");
    assert_eq!(tree.loaded_blocks(), 0);
    assert_eq!(tree.leaf_count(), N.div_ceil(LEAF as u64));

    let trie = CoconutTrie::build(&ds, &config(), dir.path(), BuildOptions::default()).unwrap();
    let trie_path = trie.index_path().to_path_buf();
    // A build holds no blocks either.
    assert_eq!(trie.loaded_blocks(), 0);
    drop(trie);
    let (trie, read) = bytes_read_by(&ds, || CoconutTrie::open(&trie_path, &ds, 2).unwrap());
    assert!(read <= directory_bytes(&trie_path), "trie open read {read}");
    assert_eq!(trie.loaded_blocks(), 0);
}

#[test]
fn a_query_loads_only_the_leaves_it_cannot_prune() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let path = built_tree(&dir, &ds);
    let leaves = N.div_ceil(LEAF as u64) as usize;
    for member in [17, 1_234, 2_999] {
        // A member is its own nearest neighbor: the probe finds it and the
        // scan prunes every leaf whose box does not hold its key.
        let tree = CoconutTree::open(&path, &ds, 2).unwrap();
        let q = ds.get(member).unwrap();
        let (found, _) = tree.exact_search(&q).unwrap();
        assert_eq!((found.pos, found.dist), (member, 0.0));
        let loaded = tree.loaded_blocks();
        assert!(loaded * 10 <= leaves, "{loaded} of {leaves} blocks loaded");
        // Asking again loads nothing: it reads the series it fetches and
        // no leaf.
        let ((_, stats), read) = bytes_read_by(&ds, || tree.exact_search(&q).unwrap());
        assert_eq!(tree.loaded_blocks(), loaded);
        assert_eq!(read, stats.records_fetched * (LEN * 4) as u64);
    }
    for radius in [0usize, 1, 3] {
        let tree = CoconutTree::open(&path, &ds, 2).unwrap();
        let approx = Query {
            radius,
            ..Query::new(Kind::Approx)
        };
        tree.search(&walk(5), &approx).unwrap();
        assert!(tree.loaded_blocks() <= 2 * radius + 1, "radius {radius}");
        assert!(tree.loaded_blocks() >= 1);
    }
}

#[test]
fn concurrent_cold_queries_match_brute_force() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let tree = CoconutTree::open(&built_tree(&dir, &ds), &ds, 2).unwrap();
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            let (tree, ds, start) = (&tree, &ds, &start);
            scope.spawn(move || {
                let queries: Vec<_> = (0..6).map(|i| walk(700 + worker * 10 + i)).collect();
                // Every worker's first query races the others for the blocks.
                start.wait();
                for q in &queries {
                    let (found, _) = tree.exact_search(q).unwrap();
                    assert_eq!(found, brute_force(ds, q), "worker {worker}");
                }
            });
        }
    });
}

#[test]
fn fresh_opens_answer_alike_on_any_thread_count() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let path = built_tree(&dir, &ds);
    let queries: Vec<_> = (0..5).map(|i| walk(900 + i)).collect();
    let run = |threads: usize| {
        let tree = CoconutTree::open(&path, &ds, threads).unwrap();
        let mut out = Vec::new();
        for q in &queries {
            for kind in [Kind::Nearest, Kind::Knn(7), Kind::Range(7.5)] {
                out.push(tree.search(q, &Query::new(kind)).unwrap());
            }
        }
        out
    };
    let one = run(1);
    assert_eq!(run(2), one);
    assert_eq!(run(4), one);
}

#[test]
fn a_corrupt_leaf_fails_the_queries_that_touch_it_and_no_other() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let path = built_tree(&dir, &ds);
    // Leaf 40 of the bulk-loaded file starts 40 full leaves into its leaf
    // region; note who lives there.
    const VICTIM: usize = 40;
    let inside: Vec<u64> = {
        let tree = CoconutTree::open(&path, &ds, 1).unwrap();
        assert!(tree.verify().is_ok());
        let mut entries = tree.leaf_entries::<KeyPos>();
        let mut leaves = tree.leaf_entry_counts().into_iter().map(|count| {
            let leaf: Vec<u64> = (0..count)
                .map(|_| entries.next_item().unwrap().unwrap().pos)
                .collect();
            leaf
        });
        leaves.nth(VICTIM).unwrap()
    };
    let file = CountedFile::open_rw(&path, Arc::new(IoStats::new())).unwrap();
    let at = LEAF_REGION_OFFSET + (VICTIM * LEAF * entry_bytes()) as u64 + 5;
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, at).unwrap();
    file.write_all_at(&[byte[0] ^ 0x10], at).unwrap();

    // The directory is intact, so the index opens; the scrub finds the leaf.
    let tree = CoconutTree::open(&path, &ds, 2).unwrap();
    assert!(matches!(tree.verify(), Err(Error::Corrupt(_))));
    let (mut exact, mut refused) = (0, 0);
    for member in (0..N).step_by(40).chain(inside.iter().copied()) {
        match tree.exact_search(&ds.get(member).unwrap()) {
            // Its box was pruned, or the query would not be exact.
            Ok((found, _)) => {
                assert_eq!((found.pos, found.dist), (member, 0.0));
                assert!(
                    !inside.contains(&member),
                    "{member} lives in the corrupt leaf"
                );
                exact += 1;
            }
            Err(Error::Corrupt(_)) => refused += 1,
            Err(other) => panic!("member {member}: {other}"),
        }
    }
    assert!(refused >= inside.len(), "{refused} refused");
    assert!(exact > refused, "{exact} exact, {refused} refused");
}

#[test]
fn a_cold_query_reads_the_stored_bytes_of_the_blocks_it_verifies() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let path = built_tree(&dir, &ds);
    // Every leaf holds `LEAF` entries of `entry_bytes()` stored bytes.
    let leaf_bytes = (LEAF * entry_bytes()) as u64;
    let series_bytes = (LEN * 4) as u64;
    for seed in 0..4 {
        for query in [Query::nearest(), Query::knn(10)] {
            let tree = CoconutTree::open(&path, &ds, 2).unwrap();
            let ((_, stats), read) =
                bytes_read_by(&ds, || tree.search(&walk(300 + seed), &query).unwrap());
            assert!(tree.loaded_blocks() > 0);
            assert_eq!(
                read,
                tree.loaded_blocks() as u64 * leaf_bytes + stats.records_fetched * series_bytes,
                "seed {seed} {:?}",
                query.kind
            );
        }
    }
}

#[test]
fn a_file_cut_after_open_fails_the_queries_that_need_a_cut_leaf() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let path = built_tree(&dir, &ds);
    // Cut the file in the middle of leaf 200: that leaf, every one after
    // it and the directory are gone.
    const CUT: usize = 200;
    let (cut, kept): (Vec<u64>, usize) = {
        let tree = CoconutTree::open(&path, &ds, 1).unwrap();
        let mut entries = tree.leaf_entries::<KeyPos>();
        let kept: usize = tree.leaf_entry_counts()[..CUT].iter().sum();
        for _ in 0..kept {
            entries.next_item().unwrap().unwrap();
        }
        let mut cut = Vec::new();
        while let Some(entry) = entries.next_item().unwrap() {
            cut.push(entry.pos);
        }
        (cut, kept)
    };
    assert_eq!(kept + cut.len(), N as usize);

    let tree = CoconutTree::open(&path, &ds, 2).unwrap();
    let at = LEAF_REGION_OFFSET + (kept * entry_bytes()) as u64 + 7;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(at)
        .unwrap();
    let (mut exact, mut refused) = (0, 0);
    for member in (0..N).step_by(25).chain(cut.iter().copied().step_by(10)) {
        match tree.exact_search(&ds.get(member).unwrap()) {
            Ok((found, _)) => {
                assert_eq!((found.pos, found.dist), (member, 0.0));
                assert!(!cut.contains(&member), "{member} lives in a cut leaf");
                exact += 1;
            }
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains("past the end"), "{msg}");
                refused += 1;
            }
            Err(other) => panic!("member {member}: {other}"),
        }
    }
    assert!(refused >= cut.len() / 10, "{refused} refused");
    assert!(exact > 0, "{exact} exact, {refused} refused");
}

/// A fetcher over the series in memory: by position, or by scan index
/// through the sorted `entries`.
struct InMemory<'a, const BY_POS: bool> {
    all: &'a [Vec<Value>],
    entries: &'a [(ZKey, u64)],
}

impl<const BY_POS: bool> SeriesFetcher for InMemory<'_, BY_POS> {
    const POSITION_ORDER: bool = BY_POS;

    fn fetch(&mut self, at: u64, out: &mut [Value]) -> coconut_storage::Result<u64> {
        let pos = if BY_POS {
            at
        } else {
            self.entries[at as usize].1
        };
        out.copy_from_slice(&self.all[pos as usize]);
        Ok(pos)
    }
}

/// The answers and counters of a range query of radius `eps` under
/// `metric`, scanning `summaries` with `fetcher` on two threads.
fn scan_range<M: Distance, F: SeriesFetcher>(
    metric: &M,
    summaries: &Summaries,
    fetcher: &mut F,
    eps: f64,
) -> (Vec<Answer>, QueryStats) {
    let mut hits = Within::new(eps, f64::INFINITY);
    let stats = sims_scan(
        metric,
        LEN,
        summaries,
        2,
        fetcher,
        &mut hits,
        Deadline::NONE,
    )
    .unwrap();
    (hits.into_answers(), stats)
}

/// A range query's answers and counters on `index` (a range query is the
/// scan alone, no probe), then those of the same scan over
/// `Summaries::from_sorted` blocks of `entries`, cut as `index` cuts them.
fn range_both_ways<D: Directory, const BY_POS: bool>(
    index: &SortedLeafIndex<D>,
    entries: &[(ZKey, u64)],
    all: &[Vec<Value>],
    q: &[Value],
    query: &Query,
) -> [(Vec<Answer>, QueryStats); 2] {
    let Kind::Range(eps) = query.kind else {
        unreachable!("a range query")
    };
    let sax = config().sax;
    let in_memory = Summaries::from_sorted(&sax, entries, index.leaf_entry_counts());
    let mut fetcher = InMemory::<BY_POS> { all, entries };
    let reference = match query.metric {
        Metric::Ed => scan_range(&Ed::new(q, &sax), &in_memory, &mut fetcher, eps),
        Metric::Dtw(band) => scan_range(&Dtw::new(q, band, &sax), &in_memory, &mut fetcher, eps),
    };
    [index.search(q, query).unwrap(), reference]
}

#[test]
fn mapped_blocks_answer_like_blocks_built_from_sorted_entries() {
    let dir = TempDir::new("leaf-blocks").unwrap();
    let ds = dataset(&dir);
    let all: Vec<Vec<Value>> = (0..N).map(|p| ds.get(p).unwrap()).collect();
    let mut summarizer = Summarizer::new(config().sax);
    let mut entries: Vec<(ZKey, u64)> = all.iter().map(|s| summarizer.zkey(s)).zip(0..).collect();
    entries.sort_unstable();

    let full = BuildOptions {
        materialized: true,
        ..BuildOptions::default()
    };
    let tree_path = CoconutTree::build(&ds, &config(), dir.path(), full)
        .unwrap()
        .index_path()
        .to_path_buf();
    let trie_path = CoconutTrie::build(&ds, &config(), dir.path(), BuildOptions::default())
        .unwrap()
        .index_path()
        .to_path_buf();
    for seed in 0..3 {
        let q = walk(500 + seed);
        let mut dists: Vec<f64> = all.iter().map(|s| euclidean(&q, s)).collect();
        dists.sort_by(f64::total_cmp);
        let range = Query::range(dists[20]);
        let dtw_range = Query {
            metric: Metric::Dtw(4),
            ..range
        };
        for query in [range, dtw_range] {
            // Fresh opens: every block the scan touches is mapped cold.
            let tree = CoconutTree::open(&tree_path, &ds, 2).unwrap();
            let [mapped, in_memory] =
                range_both_ways::<_, false>(&tree, &entries, &all, &q, &query);
            assert!(!mapped.0.is_empty());
            assert_eq!(mapped, in_memory, "materialized tree, seed {seed}");
            let trie = CoconutTrie::open(&trie_path, &ds, 2).unwrap();
            let [mapped, in_memory] = range_both_ways::<_, true>(&trie, &entries, &all, &q, &query);
            assert_eq!(mapped, in_memory, "ctrie, seed {seed}");
        }
    }
}
