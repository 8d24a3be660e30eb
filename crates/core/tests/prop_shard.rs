//! Property tests for sharded construction: over random dataset sizes,
//! budgets and shard counts (including K = 1 and K greater than the record
//! count), the sharded pipeline must produce the record stream of an
//! in-memory sort — and the same index file whatever the shard count.
//! Two fixed-seed tests pin the whole `CoconutTree::build` in both layouts:
//! one index file for K in {1, 2, 4}, and one pass over the raw file.

use std::sync::Arc;

use coconut_core::records::KeyPos;
use coconut_core::shard::{shard_ranges, sorted_key_pos_sharded};
use coconut_core::{BuildOptions, CoconutTree, IndexConfig};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::gen::RandomWalkGen;
use coconut_storage::{IoStats, RecordStream, TempDir};
use coconut_summary::sax::Summarizer;
use coconut_summary::SaxConfig;
use proptest::prelude::*;

const LEN: usize = 32;

fn make_dataset(dir: &TempDir, n: u64, seed: u64) -> (Dataset, Arc<IoStats>) {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(seed), n, LEN, &stats).unwrap();
    (Dataset::open(&path, Arc::clone(&stats)).unwrap(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shard_ranges_are_a_partition(
        start in 0u64..1000,
        len in 0u64..5000,
        shards in 0usize..40,
    ) {
        let ranges = shard_ranges(start..start + len, shards);
        // Contiguous, gap-free, non-empty, near-equal.
        let mut expect_start = start;
        for r in &ranges {
            prop_assert_eq!(r.start, expect_start);
            prop_assert!(r.end > r.start, "empty shard {:?}", r);
            expect_start = r.end;
        }
        prop_assert_eq!(expect_start, start + len);
        if len == 0 {
            prop_assert!(ranges.is_empty());
        } else {
            prop_assert!(ranges.len() <= shards.max(1));
            let min = ranges.iter().map(|r| r.end - r.start).min().unwrap();
            let max = ranges.iter().map(|r| r.end - r.start).max().unwrap();
            prop_assert!(max - min <= 1, "unbalanced: {min}..{max}");
        }
    }

    #[test]
    fn sharded_stream_equals_single_sorter(
        n in 0u64..400,
        shards in 1usize..12,
        budget in 512u64..(1 << 20),
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-shard-stream").unwrap();
        let (ds, stats) = make_dataset(&dir, n, seed);
        let sax = SaxConfig::default_for_len(LEN);
        // The oracle: each series read on its own, keyed, sorted in memory.
        let mut summarizer = Summarizer::new(sax);
        let mut expected: Vec<KeyPos> = (0..n)
            .map(|pos| KeyPos { key: summarizer.zkey(&ds.get(pos).unwrap()), pos })
            .collect();
        expected.sort();
        let got = sorted_key_pos_sharded(&ds, 0..n, &sax, budget, dir.path(), &stats, shards)
            .unwrap()
            .collect_all()
            .unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sharded_index_is_bit_identical(
        n in 1u64..350,
        shards in 2usize..9,
        materialized in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-shard-index").unwrap();
        let (ds, _) = make_dataset(&dir, n, seed);
        let mut config = IndexConfig::default_for_len(LEN);
        config.leaf_capacity = 16;
        let opts = BuildOptions {
            memory_bytes: 8 << 10, // small: shards spill and merge
            materialized,
            threads: 1,
            shards: 1,
        };
        let single = CoconutTree::build(&ds, &config, dir.path(), opts.clone()).unwrap();
        let sharded =
            CoconutTree::build(&ds, &config, dir.path(), opts.with_shards(shards)).unwrap();
        let a = std::fs::read(single.index_path()).unwrap();
        let b = std::fs::read(sharded.index_path()).unwrap();
        prop_assert_eq!(a, b, "n={} shards={} mat={}", n, shards, materialized);
    }
}

#[test]
fn tree_builds_are_bit_identical_for_one_two_and_four_shards() {
    let dir = TempDir::new("shard-identity").unwrap();
    let (ds, _) = make_dataset(&dir, 2000, 7);
    let mut config = IndexConfig::default_for_len(LEN);
    config.leaf_capacity = 32;
    for materialized in [false, true] {
        let opts = BuildOptions {
            // Half the raw size: every shard count spills and merges.
            memory_bytes: ds.payload_bytes() / 2,
            materialized,
            threads: 2,
            shards: 1,
        };
        let single = CoconutTree::build(&ds, &config, dir.path(), opts.clone()).unwrap();
        let baseline = std::fs::read(single.index_path()).unwrap();
        for shards in [2, 4] {
            let sharded =
                CoconutTree::build(&ds, &config, dir.path(), opts.clone().with_shards(shards))
                    .unwrap();
            let bytes = std::fs::read(sharded.index_path()).unwrap();
            assert!(
                bytes == baseline,
                "materialized={materialized}: {shards} shards differ from 1 shard"
            );
        }
    }
}

#[test]
fn tree_build_reads_dataset_once_in_both_layouts() {
    let dir = TempDir::new("shard-one-pass").unwrap();
    let (ds, stats) = make_dataset(&dir, 2000, 7);
    let mut config = IndexConfig::default_for_len(LEN);
    config.leaf_capacity = 32;
    for materialized in [false, true] {
        let opts = BuildOptions {
            memory_bytes: 256 << 20, // ample: no spills, so reads are the scan alone
            materialized,
            threads: 2,
            shards: 4,
        };
        let before = stats.snapshot();
        CoconutTree::build(&ds, &config, dir.path(), opts).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(
            delta.bytes_read,
            ds.payload_bytes(),
            "materialized={materialized}: a 4-shard build must read one pass, not 4"
        );
    }
}
