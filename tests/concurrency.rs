//! Concurrency integration tests: indexes answer queries from many threads
//! simultaneously (all query paths take `&self`), and the LSM layer
//! sustains multi-writer ingest under live-snapshot query load and forced
//! compaction churn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use coconut::baselines::SerialScan;
use coconut::index::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig, LsmCoconut};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::storage::Deadline;

const LEN: usize = 64;
const N: u64 = 500;

fn setup() -> (TempDir, Dataset, Vec<Vec<f32>>) {
    let dir = TempDir::new("concurrency").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut generator = RandomWalkGen::new(77);
    write_dataset(&path, &mut generator, N, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let queries = (0..16u64)
        .map(|i| {
            let mut q = RandomWalkGen::new(3000 + i).generate(LEN);
            znormalize(&mut q);
            q
        })
        .collect();
    (dir, dataset, queries)
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

#[test]
fn parallel_exact_queries_agree_with_scan() {
    let (dir, dataset, queries) = setup();
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 1,
        shards: 1,
    };
    let tree = Arc::new(CoconutTree::build(&dataset, &config(), dir.path(), opts.clone()).unwrap());
    let trie = Arc::new(CoconutTrie::build(&dataset, &config(), dir.path(), opts).unwrap());
    let scan = SerialScan::new(&dataset);
    let truths: Vec<u64> = queries
        .iter()
        .map(|q| scan.exact(q).unwrap().0.pos)
        .collect();

    std::thread::scope(|s| {
        for worker in 0..8usize {
            let tree = Arc::clone(&tree);
            let trie = Arc::clone(&trie);
            let queries = &queries;
            let truths = &truths;
            s.spawn(move || {
                for (q, &want) in queries.iter().zip(truths.iter()) {
                    let (a, _) = tree.exact_search(q).unwrap();
                    assert_eq!(a.pos, want, "tree worker {worker}");
                    let (b, _) = trie.exact_search(q).unwrap();
                    assert_eq!(b.pos, want, "trie worker {worker}");
                }
            });
        }
    });
}

#[test]
fn lazy_summary_load_races_are_safe() {
    // The first exact queries after open() load the leaf blocks they
    // touch; fire many at once.
    let (dir, dataset, queries) = setup();
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 2,
        shards: 1,
    };
    let built = CoconutTree::build(&dataset, &config(), dir.path(), opts).unwrap();
    let path = built.index_path().to_path_buf();
    drop(built);
    let tree = Arc::new(CoconutTree::open(&path, &dataset, 2).unwrap());
    let scan = SerialScan::new(&dataset);
    let truths: Vec<u64> = queries
        .iter()
        .map(|q| scan.exact(q).unwrap().0.pos)
        .collect();
    std::thread::scope(|s| {
        for _ in 0..8usize {
            let tree = Arc::clone(&tree);
            let queries = &queries;
            let truths = &truths;
            s.spawn(move || {
                for (q, &want) in queries.iter().zip(truths.iter()) {
                    let (a, _) = tree.exact_search(q).unwrap();
                    assert_eq!(a.pos, want);
                }
            });
        }
    });
}

#[test]
fn concurrent_sharded_builds_are_deterministic_under_query_load() {
    // Stress the sharded construction path: four builder threads each run a
    // multi-shard build over the same dataset (nested parallelism — every
    // build spawns its own shard workers) while four query threads hammer a
    // finished index, racing its lazy-summary RwLock. All concurrently built
    // indexes must be bit-identical to the single-shard baseline.
    let (dir, dataset, queries) = setup();
    let opts = BuildOptions {
        memory_bytes: 1 << 18, // small: every shard spills and merges
        materialized: false,
        threads: 2,
        shards: 1,
    };
    let baseline = CoconutTree::build(&dataset, &config(), dir.path(), opts.clone()).unwrap();
    let baseline_bytes = std::fs::read(baseline.index_path()).unwrap();
    let reference = Arc::new(baseline);
    let scan = SerialScan::new(&dataset);
    let truths: Vec<u64> = queries
        .iter()
        .map(|q| scan.exact(q).unwrap().0.pos)
        .collect();

    std::thread::scope(|s| {
        for worker in 0..4usize {
            let dataset = &dataset;
            let dir = &dir;
            let opts = opts.clone();
            let baseline_bytes = &baseline_bytes;
            s.spawn(move || {
                let sub = dir.path().join(format!("builder-{worker}"));
                std::fs::create_dir_all(&sub).unwrap();
                let shards = 2 + worker; // 2..=5 shards across workers
                let tree =
                    CoconutTree::build(dataset, &config(), &sub, opts.with_shards(shards)).unwrap();
                let bytes = std::fs::read(tree.index_path()).unwrap();
                assert_eq!(
                    &bytes, baseline_bytes,
                    "worker {worker} ({shards} shards) diverged"
                );
            });
        }
        for _ in 0..4usize {
            let reference = Arc::clone(&reference);
            let queries = &queries;
            let truths = &truths;
            s.spawn(move || {
                for (q, &want) in queries.iter().zip(truths.iter()) {
                    let (a, _) = reference.exact_search(q).unwrap();
                    assert_eq!(a.pos, want);
                }
            });
        }
    });
}

/// A tiny seeded xorshift used to shuffle thread interleavings: each
/// participant yields a pseudo-random number of times between operations,
/// so repeated runs explore different schedules while a fixed seed keeps
/// any failure reproducible.
struct YieldShuffle(u64);

impl YieldShuffle {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn shuffle(&mut self) {
        for _ in 0..(self.next() % 4) {
            std::thread::yield_now();
        }
    }
}

#[test]
fn multi_writer_ingest_under_query_load_and_compaction_churn() {
    // The full streaming write path under contention: three writer threads
    // group-commit runs, two query threads verify live snapshots against a
    // brute-force oracle and watch the manifest sequence, while a churn
    // thread switches the run cap and forces full compactions the whole
    // time. The test completing
    // at all is the no-deadlock assertion; the oracle and sequence checks
    // are the no-corruption and commit-ordering assertions.
    const STREAM_N: u64 = 900;
    let dir = TempDir::new("concurrency-lsm").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut generator = RandomWalkGen::new(4242);
    write_dataset(&path, &mut generator, STREAM_N, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let all: Vec<Vec<f32>> = (0..STREAM_N).map(|p| dataset.get(p).unwrap()).collect();

    let mut config = IndexConfig::default_for_len(LEN);
    config.leaf_capacity = 32;
    let lsm = LsmCoconut::new(
        config,
        BuildOptions {
            memory_bytes: 1 << 20,
            materialized: false,
            threads: 2,
            shards: 1,
        },
        dir.path().join("idx"),
    )
    .unwrap();

    let done = AtomicBool::new(false);
    let max_seq = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..3u64 {
            let lsm = &lsm;
            let dataset = &dataset;
            s.spawn(move || {
                let mut shuffle = YieldShuffle(0x51ED | (w << 32));
                let writer = lsm.writer();
                while writer.ingest_next(dataset, 30).unwrap().is_some() {
                    shuffle.shuffle();
                }
            });
        }
        for q in 0..2u64 {
            let lsm = &lsm;
            let all = &all;
            let done = &done;
            let max_seq = &max_seq;
            s.spawn(move || {
                let mut shuffle = YieldShuffle(0xBADC0DE | (q << 32));
                let mut query = RandomWalkGen::new(7000 + q).generate(LEN);
                znormalize(&mut query);
                let mut last_seq = 0;
                while !done.load(Ordering::Acquire) {
                    let snap = lsm.snapshot();
                    // Manifest sequence numbers never go backwards, from
                    // this thread's view or globally.
                    let seq = snap.seq();
                    assert!(seq >= last_seq, "seq regressed: {seq} < {last_seq}");
                    last_seq = seq;
                    max_seq.fetch_max(seq, Ordering::AcqRel);
                    // The snapshot answers exactly over its frozen prefix,
                    // no matter what commits and compactions land mid-query.
                    let covered = snap.covered_end() as usize;
                    if covered > 0 {
                        let (ans, _) = snap.exact(&query, Deadline::NONE).unwrap();
                        let mut best = f64::INFINITY;
                        let mut pos = 0u64;
                        for (i, series) in all[..covered].iter().enumerate() {
                            let d = coconut::series::distance::euclidean(&query, series);
                            if d < best {
                                best = d;
                                pos = i as u64;
                            }
                        }
                        assert_eq!(ans.pos, pos, "snapshot diverged at covered={covered}");
                    }
                    shuffle.shuffle();
                }
            });
        }
        {
            let lsm = &lsm;
            let done = &done;
            s.spawn(move || {
                let mut shuffle = YieldShuffle(0xC0FFEE);
                let mut round = 0;
                while !done.load(Ordering::Acquire) {
                    // Alternate a two-run cap, whose merges cascade on every
                    // commit, with the default ladder's cap of 12.
                    round += 1;
                    lsm.set_max_runs(if round % 2 == 1 { 2 } else { 12 });
                    lsm.compact().unwrap();
                    shuffle.shuffle();
                }
            });
        }
        // Writers finish on their own; queries and churn run until the
        // whole dataset is covered, then stand down.
        let lsm = &lsm;
        let done = &done;
        s.spawn(move || {
            while lsm.covered_end() < STREAM_N {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    // Everything landed: contiguous full coverage, a settled run set, and
    // oracle-exact answers through a final full compaction.
    assert_eq!(lsm.covered_end(), STREAM_N);
    assert_eq!(lsm.len(), STREAM_N);
    let stats = lsm.write_stats();
    assert!(stats.runs_committed >= stats.ingest_commits);
    lsm.wait_for_compactions().unwrap();
    lsm.compact().unwrap();
    assert_eq!(lsm.run_count(), 1);
    // The final snapshot is at least as new as anything any query thread
    // ever observed (global commit ordering never went backwards).
    assert!(lsm.snapshot().seq() >= max_seq.load(Ordering::Acquire));
    let mut query = RandomWalkGen::new(9999).generate(LEN);
    znormalize(&mut query);
    let (ans, _) = lsm.exact(&query).unwrap();
    let scan = SerialScan::new(&dataset);
    assert_eq!(ans.pos, scan.exact(&query).unwrap().0.pos);
}
