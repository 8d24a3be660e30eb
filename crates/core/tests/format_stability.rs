//! On-disk format stability: the index files this build writes for a fixed
//! dataset are byte-for-byte the files the first writer of their layout
//! version produced (pinned as length + CRC-32 goldens), for both index
//! kinds, pointer and materialized, either split policy, single-sorter and
//! sharded builds.
//!
//! A refactor of the builders must leave these untouched; a deliberate
//! format change updates the goldens and the layout version
//! (`coconut_core::layout::LAYOUT_VERSION`) in the same commit. The goldens
//! below are layout version 3's: leaves stored as symbol blocks packed back
//! to back, positions 2 bytes wide (3,000 series), one CRC per payload in
//! materialized leaves, and one trie tail encoding for both split
//! policies.

use std::sync::Arc;

use coconut_core::layout::crc32;
use coconut_core::{BuildOptions, CoconutTree, CoconutTrie, IndexConfig, SplitPolicyKind};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::gen::RandomWalkGen;
use coconut_storage::{IoStats, TempDir};

/// `(file length, crc32)` of the file at `path`.
fn fingerprint(path: &std::path::Path) -> (u64, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len() as u64, crc32(&bytes))
}

#[test]
fn index_files_match_their_golden_fingerprints() {
    let dir = TempDir::new("format").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(31), 3000, 64, &stats).unwrap();
    let ds = Dataset::open(&path, stats).unwrap();
    let mut fixed = IndexConfig::default_for_len(64);
    fixed.leaf_capacity = 40;
    let adaptive = fixed.with_split_policy(SplitPolicyKind::Adaptive);

    let golden = [
        ("ctree ptr", GOLDEN_CTREE_PTR),
        ("ctree full", GOLDEN_CTREE_FULL),
        ("ctrie ptr", GOLDEN_CTRIE_PTR),
        ("ctrie full", GOLDEN_CTRIE_FULL),
        ("ctrie adaptive ptr", GOLDEN_CTRIE_ADAPTIVE_PTR),
        ("ctrie adaptive full", GOLDEN_CTRIE_ADAPTIVE_FULL),
    ];
    for shards in [1usize, 2] {
        let opts = |materialized| BuildOptions {
            materialized,
            memory_bytes: 1 << 20,
            shards,
            ..BuildOptions::default()
        };
        let tree = |m| CoconutTree::build(&ds, &fixed, dir.path(), opts(m)).unwrap();
        let trie = |c: &IndexConfig, m| CoconutTrie::build(&ds, c, dir.path(), opts(m)).unwrap();
        let built = [
            fingerprint(tree(false).index_path()),
            fingerprint(tree(true).index_path()),
            fingerprint(trie(&fixed, false).index_path()),
            fingerprint(trie(&fixed, true).index_path()),
            fingerprint(trie(&adaptive, false).index_path()),
            fingerprint(trie(&adaptive, true).index_path()),
        ];
        for ((name, want), got) in golden.iter().zip(built) {
            assert_eq!(got, *want, "{name}, {shards} build shard(s)");
        }
    }
}

const GOLDEN_CTREE_PTR: (u64, u32) = (60512, 2048663409);
const GOLDEN_CTREE_FULL: (u64, u32) = (840512, 531230404);
const GOLDEN_CTRIE_PTR: (u64, u32) = (67761, 944774872);
const GOLDEN_CTRIE_FULL: (u64, u32) = (847761, 1317646165);
const GOLDEN_CTRIE_ADAPTIVE_PTR: (u64, u32) = (65142, 4202916792);
const GOLDEN_CTRIE_ADAPTIVE_FULL: (u64, u32) = (845142, 3767498753);
