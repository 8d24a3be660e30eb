//! The shared bottom-up build pipeline: scan → summarize → external sort.
//!
//! Both Coconut indexes start the same way (Algorithms 2 and 3, lines 2–12):
//! scan the raw file sequentially, compute each series' sortable
//! summarization (`invSAX`), and sort the records externally under the
//! memory budget. Non-materialized builds sort only `(key, position)`
//! pairs; `-Full` builds sort whole records. Every build sorts through
//! [`crate::shard`], on `BuildOptions::shards` workers.

use std::path::Path;
use std::sync::Arc;

use coconut_series::dataset::Dataset;
use coconut_storage::{IoStats, MergedStream, Result, SortReport, SortedStream};
use coconut_summary::SaxConfig;

use crate::config::BuildOptions;
use crate::records::{KeyPosCodec, KeySeriesCodec};
use crate::shard::{sorted_key_pos_sharded, sorted_key_series_sharded};

/// Scan `range` of `dataset` and return the `(key, position)` pairs sorted
/// by key — the non-materialized pipeline on one shard.
pub fn sorted_key_pos(
    dataset: &Dataset,
    range: std::ops::Range<u64>,
    sax: &SaxConfig,
    memory_bytes: u64,
    tmp_dir: &Path,
    stats: &Arc<IoStats>,
) -> Result<MergedStream<SortedStream<KeyPosCodec>>> {
    sorted_key_pos_sharded(dataset, range, sax, memory_bytes, tmp_dir, stats, 1)
}

/// The `(key, position)` records of `range` in sorted order under `opts`:
/// `opts.shards` parallel sorts (0 is read as 1), K-way merged. The merged
/// stream is record-for-record identical whatever the shard count.
pub(crate) fn key_pos_stream(
    dataset: &Dataset,
    range: std::ops::Range<u64>,
    sax: &SaxConfig,
    opts: &BuildOptions,
    tmp_dir: &Path,
) -> Result<MergedStream<SortedStream<KeyPosCodec>>> {
    let stats = dataset.file().stats();
    let shards = opts.shards.max(1);
    sorted_key_pos_sharded(
        dataset,
        range,
        sax,
        opts.memory_bytes,
        tmp_dir,
        stats,
        shards,
    )
}

/// [`key_pos_stream`] for materialized (`-Full`) builds: whole records.
pub(crate) fn key_series_stream(
    dataset: &Dataset,
    range: std::ops::Range<u64>,
    sax: &SaxConfig,
    opts: &BuildOptions,
    tmp_dir: &Path,
) -> Result<MergedStream<SortedStream<KeySeriesCodec>>> {
    let stats = dataset.file().stats();
    let shards = opts.shards.max(1);
    sorted_key_series_sharded(
        dataset,
        range,
        sax,
        opts.memory_bytes,
        tmp_dir,
        stats,
        shards,
    )
}

/// A summary of how a build went, reported by the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildReport {
    /// Records indexed.
    pub items: u64,
    /// External-sort behaviour (runs, merge passes).
    pub sort: SortReport,
    /// Leaf nodes created.
    pub leaves: u64,
    /// Leaves forced beyond `leaf_capacity` because identical keys could
    /// not be split further (see `CoconutTrie`'s carve). Zero for
    /// Coconut-Tree builds, which pack by median instead of prefix.
    pub oversized_leaves: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::dataset::write_dataset;
    use coconut_series::gen::RandomWalkGen;
    use coconut_storage::{RecordStream, TempDir};

    fn small_dataset(dir: &TempDir, n: u64, len: usize) -> (Dataset, Arc<IoStats>) {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(99), n, len, &stats).unwrap();
        (Dataset::open(&path, Arc::clone(&stats)).unwrap(), stats)
    }

    #[test]
    fn key_pos_stream_is_sorted_and_complete() {
        let dir = TempDir::new("builder").unwrap();
        let (ds, stats) = small_dataset(&dir, 500, 64);
        let sax = SaxConfig::default_for_len(64);
        let mut stream = sorted_key_pos(&ds, 0..500, &sax, 1 << 20, dir.path(), &stats).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        while let Some(kp) = stream.next_item().unwrap() {
            if let Some(p) = prev {
                assert!(p <= kp, "stream must be sorted");
            }
            assert!(seen.insert(kp.pos), "duplicate position {}", kp.pos);
            prev = Some(kp);
        }
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn key_series_stream_carries_correct_payloads() {
        let dir = TempDir::new("builder").unwrap();
        let (ds, stats) = small_dataset(&dir, 100, 32);
        let sax = SaxConfig::default_for_len(32);
        let mut stream =
            sorted_key_series_sharded(&ds, 0..100, &sax, 1 << 16, dir.path(), &stats, 1).unwrap();
        let mut n = 0;
        while let Some(ks) = stream.next_item().unwrap() {
            let expected = ds.get(ks.pos).unwrap();
            assert_eq!(ks.series, expected, "payload mismatch at pos {}", ks.pos);
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn range_restricts_positions() {
        let dir = TempDir::new("builder").unwrap();
        let (ds, stats) = small_dataset(&dir, 200, 32);
        let sax = SaxConfig::default_for_len(32);
        let mut stream = sorted_key_pos(&ds, 50..150, &sax, 1 << 20, dir.path(), &stats).unwrap();
        let mut n = 0;
        while let Some(kp) = stream.next_item().unwrap() {
            assert!((50..150).contains(&kp.pos));
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn tail_range_reads_io_proportional_to_range() {
        // The headline bugfix: building over `start..end` must seek to
        // `start`, not skip-scan from position 0.
        let dir = TempDir::new("builder").unwrap();
        let (ds, stats) = small_dataset(&dir, 2000, 64);
        let sax = SaxConfig::default_for_len(64);
        let before = stats.snapshot();
        let mut stream =
            sorted_key_pos(&ds, 1900..2000, &sax, 1 << 20, dir.path(), &stats).unwrap();
        let mut n = 0;
        while let Some(kp) = stream.next_item().unwrap() {
            assert!((1900..2000).contains(&kp.pos));
            n += 1;
        }
        assert_eq!(n, 100);
        let delta = stats.snapshot().since(&before);
        // Exactly the 100-series tail (100 * 64 points * 4 bytes), not the
        // 2000-series file.
        assert_eq!(delta.bytes_read, 100 * 64 * 4, "tail build read too much");
    }

    #[test]
    fn tiny_memory_budget_spills_runs() {
        let dir = TempDir::new("builder").unwrap();
        let (ds, stats) = small_dataset(&dir, 2000, 32);
        let sax = SaxConfig::default_for_len(32);
        let stream = sorted_key_pos(&ds, 0..2000, &sax, 1024, dir.path(), &stats).unwrap();
        assert!(
            stream.report().runs > 1,
            "expected spills, got {:?}",
            stream.report()
        );
    }
}
