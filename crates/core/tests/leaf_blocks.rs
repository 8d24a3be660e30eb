//! The load-once leaf blocks behind [`SortedLeafIndex::search`]: opening an
//! index reads its directory and nothing else, a query loads only the
//! leaves it cannot prune, concurrent cold queries and any thread count get
//! the same answers, and a corrupt leaf fails exactly the queries that
//! touch it.
//!
//! [`SortedLeafIndex::search`]: coconut_core::SortedLeafIndex::search

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use coconut_core::layout::{IndexHeader, LEAF_REGION_OFFSET};
use coconut_core::records::KeyPos;
use coconut_core::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig, Kind, Query};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::{Answer, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Error, IoStats, RecordStream, TempDir};

const LEN: usize = 64;
const N: u64 = 3_000;
const LEAF: usize = 10;

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
    // Leaf 40 of the bulk-loaded file is its block 40; note who lives there.
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
    let at = LEAF_REGION_OFFSET + (VICTIM * LEAF * 24) as u64 + 5;
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
