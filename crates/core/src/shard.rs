//! The build's scan → summarize → sort phase, run over K shards.
//!
//! The paper's construction recipe (scan → summarize → external sort →
//! bulk load) is embarrassingly parallel in its first three stages: split
//! `0..dataset.len()` into K contiguous position ranges, run each shard's
//! pipeline on its own worker thread — each with its own
//! [`ExternalSorter`] and `1/K` of the memory budget — and K-way merge the
//! per-shard sorted streams into the tree / trie bulk loaders. Every build
//! sorts this way; K = 1 is one worker and a merge of one stream.
//!
//! The workers share what the caller gives them: they spill into its
//! `tmp_dir` (a sorter's run files carry the process and sorter in their
//! names, and the sorter deletes them on every exit path) and count their
//! I/O into its [`IoStats`] (each file classifies its own accesses as
//! sequential or random, so workers never scramble each other's).
//!
//! Two invariants make this safe and exact:
//!
//! * **One pass over the raw file.** Shards scan *disjoint* ranges via
//!   [`Dataset::scan_range`], whose reads never extend past the shard
//!   boundary, so a K-shard build reads every data byte exactly once
//!   (the bug this module was built on top of: the old skip-scan restarted
//!   at position 0 per shard, making partitioned builds quadratic).
//! * **Deterministic total order.** Records are ordered by the unique
//!   `(key, position)` pair, so merging K sorted shard streams yields the
//!   exact sequence one big sort would — builds are bit-identical whatever
//!   their shard count. This holds for every
//!   [`crate::split::SplitPolicy`]: splitting consumes the merged stream,
//!   so the policy sees the same key sequence regardless of shard count
//!   and produces the same index file bytes.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use coconut_series::dataset::Dataset;
use coconut_series::Value;
use coconut_storage::{Codec, Error, ExternalSorter, IoStats, MergedStream, Result, SortedStream};
use coconut_summary::sax::Summarizer;
use coconut_summary::SaxConfig;

use crate::records::{KeyPos, KeyPosCodec, KeySeries, KeySeriesCodec};

/// Split `range` into at most `shards` contiguous, non-empty, gap-free
/// subranges of near-equal size (sizes differ by at most one).
pub fn shard_ranges(range: Range<u64>, shards: usize) -> Vec<Range<u64>> {
    let n = range.end.saturating_sub(range.start);
    if n == 0 {
        return Vec::new();
    }
    let k = (shards.max(1) as u64).min(n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k as usize);
    let mut start = range.start;
    for i in 0..k {
        let len = base + u64::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, range.end);
    out
}

/// The generic sharded pipeline: one worker thread per shard, each scanning
/// its range, summarizing, and sorting under `memory_bytes / K` into
/// `tmp_dir` with its I/O counted in `stats`; the sorted shard streams are
/// returned as one K-way merge.
#[allow(clippy::too_many_arguments)]
fn sharded_sort<C, F>(
    dataset: &Dataset,
    range: Range<u64>,
    sax: SaxConfig,
    memory_bytes: u64,
    tmp_dir: &Path,
    stats: &Arc<IoStats>,
    shards: usize,
    codec: C,
    make_record: F,
) -> Result<MergedStream<SortedStream<C>>>
where
    C: Codec + Copy + Send,
    C::Item: Ord + Send,
    F: Fn(&mut Summarizer, u64, &[Value]) -> C::Item + Sync,
{
    debug_assert!(range.end <= dataset.len());
    let ranges = shard_ranges(range, shards);
    // The budget invariant on `ExternalSorter::new`: K concurrent sorters
    // share the build's memory, so each gets 1/K of it.
    let per_shard_budget = (memory_bytes / ranges.len().max(1) as u64).max(1);
    let make_record = &make_record;
    let streams = std::thread::scope(|scope| -> Result<Vec<SortedStream<C>>> {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|shard_range| {
                scope.spawn(move || -> Result<SortedStream<C>> {
                    let mut summarizer = Summarizer::new(sax);
                    let mut sorter =
                        ExternalSorter::new(codec, per_shard_budget, tmp_dir, Arc::clone(stats))?;
                    let mut scan = dataset.scan_range(shard_range);
                    while let Some((pos, series)) = scan.next_series()? {
                        sorter.push(make_record(&mut summarizer, pos, series))?;
                    }
                    sorter.finish()
                })
            })
            .collect();
        // A worker that fails or panics drops its sorter, and an early
        // return here drops the streams already joined: either way the
        // run files go with them.
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .map_err(|_| Error::invalid("shard worker panicked"))?
            })
            .collect()
    })?;
    MergedStream::new(streams)
}

/// The non-materialized pipeline: the `(key, position)` records of `range`
/// in sorted order, sorted by `shards` workers and merged.
#[allow(clippy::too_many_arguments)]
pub fn sorted_key_pos_sharded(
    dataset: &Dataset,
    range: Range<u64>,
    sax: &SaxConfig,
    memory_bytes: u64,
    tmp_dir: &Path,
    stats: &Arc<IoStats>,
    shards: usize,
) -> Result<MergedStream<SortedStream<KeyPosCodec>>> {
    sharded_sort(
        dataset,
        range,
        *sax,
        memory_bytes,
        tmp_dir,
        stats,
        shards,
        KeyPosCodec,
        |summarizer, pos, series| KeyPos {
            key: summarizer.zkey(series),
            pos,
        },
    )
}

/// The materialized (`-Full`) pipeline: whole `(key, position, series)`
/// records of `range` in sorted order, sorted by `shards` workers and
/// merged. This is the expensive sort the paper attributes most of
/// Coconut-Tree-Full's build time to.
#[allow(clippy::too_many_arguments)]
pub fn sorted_key_series_sharded(
    dataset: &Dataset,
    range: Range<u64>,
    sax: &SaxConfig,
    memory_bytes: u64,
    tmp_dir: &Path,
    stats: &Arc<IoStats>,
    shards: usize,
) -> Result<MergedStream<SortedStream<KeySeriesCodec>>> {
    sharded_sort(
        dataset,
        range,
        *sax,
        memory_bytes,
        tmp_dir,
        stats,
        shards,
        KeySeriesCodec::new(dataset.series_len()),
        |summarizer, pos, series| KeySeries {
            key: summarizer.zkey(series),
            pos,
            series: series.to_vec(),
        },
    )
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
        write_dataset(&path, &mut RandomWalkGen::new(41), n, len, &stats).unwrap();
        (Dataset::open(&path, Arc::clone(&stats)).unwrap(), stats)
    }

    /// The oracle: every series of `range` read on its own, keyed by
    /// `Summarizer::zkey`, and sorted in memory.
    fn in_memory_sort(ds: &Dataset, range: Range<u64>, sax: &SaxConfig) -> Vec<KeySeries> {
        let mut summarizer = Summarizer::new(*sax);
        let mut records: Vec<KeySeries> = range
            .map(|pos| {
                let series = ds.get(pos).unwrap();
                KeySeries {
                    key: summarizer.zkey(&series),
                    pos,
                    series,
                }
            })
            .collect();
        records.sort();
        records
    }

    fn key_pos(records: &[KeySeries]) -> Vec<KeyPos> {
        records
            .iter()
            .map(|r| KeyPos {
                key: r.key,
                pos: r.pos,
            })
            .collect()
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        assert_eq!(shard_ranges(0..10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_ranges(5..8, 1), vec![5..8]);
        // More shards than items: one shard per item, never an empty shard.
        assert_eq!(shard_ranges(2..4, 16), vec![2..3, 3..4]);
        assert!(shard_ranges(7..7, 4).is_empty());
        assert_eq!(shard_ranges(0..10, 0), vec![0..10]);
    }

    #[test]
    fn sharded_key_pos_equals_single_sorter() {
        // The single sorter here is an in-memory sort of the zkey records;
        // every shard count, 1 included, must match it with and without
        // spills.
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 1200, 32);
        let sax = SaxConfig::default_for_len(32);
        let expected = key_pos(&in_memory_sort(&ds, 0..1200, &sax));
        for budget in [1 << 20, 2048] {
            for shards in [1usize, 2, 3, 7, 64] {
                let merged =
                    sorted_key_pos_sharded(&ds, 0..1200, &sax, budget, dir.path(), &stats, shards)
                        .unwrap();
                assert_eq!(merged.report().runs > 0, budget == 2048, "shards={shards}");
                let got = merged.collect_all().unwrap();
                assert_eq!(got, expected, "shards={shards} budget={budget}");
            }
        }
    }

    #[test]
    fn sharded_key_series_equals_single_sorter_with_spills() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 500, 32);
        let sax = SaxConfig::default_for_len(32);
        let expected = in_memory_sort(&ds, 0..500, &sax);
        // A budget small enough that every shard spills, and one that holds
        // everything.
        for budget in [16 << 10, 1 << 20] {
            for shards in [1usize, 4] {
                let merged = sorted_key_series_sharded(
                    &ds,
                    0..500,
                    &sax,
                    budget,
                    dir.path(),
                    &stats,
                    shards,
                )
                .unwrap();
                let runs = merged.report().runs;
                assert!(
                    if budget == 1 << 20 {
                        runs == 0
                    } else {
                        runs >= shards as u64
                    },
                    "shards={shards} budget={budget}: {:?}",
                    merged.report()
                );
                // `KeySeries` equality ignores payloads: compare them too.
                let got = merged.collect_all().unwrap();
                let whole = |r: &KeySeries| (r.key, r.pos, r.series.clone());
                assert_eq!(
                    got.iter().map(whole).collect::<Vec<_>>(),
                    expected.iter().map(whole).collect::<Vec<_>>(),
                    "shards={shards} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn sharded_build_reads_dataset_exactly_once() {
        // The acceptance bar: total raw-file bytes read by a K-shard build
        // equal one full pass, not K passes, for both pipelines.
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 2000, 64);
        let sax = SaxConfig::default_for_len(64);
        for materialized in [false, true] {
            let before = stats.snapshot();
            let n = if materialized {
                sorted_key_series_sharded(&ds, 0..2000, &sax, 1 << 20, dir.path(), &stats, 8)
                    .unwrap()
                    .collect_all()
                    .unwrap()
                    .len()
            } else {
                sorted_key_pos_sharded(&ds, 0..2000, &sax, 1 << 20, dir.path(), &stats, 8)
                    .unwrap()
                    .collect_all()
                    .unwrap()
                    .len()
            };
            assert_eq!(n, 2000);
            let delta = stats.snapshot().since(&before);
            assert_eq!(
                delta.bytes_read,
                ds.payload_bytes(),
                "materialized={materialized}: K shards must read one pass, not K"
            );
        }
    }

    #[test]
    fn sharded_sub_range_respects_bounds() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 300, 32);
        let sax = SaxConfig::default_for_len(32);
        let expected = key_pos(&in_memory_sort(&ds, 60..260, &sax));
        let got = sorted_key_pos_sharded(&ds, 60..260, &sax, 1 << 20, dir.path(), &stats, 5)
            .unwrap()
            .collect_all()
            .unwrap();
        assert_eq!(got, expected);
        assert!(got.iter().all(|kp| (60..260).contains(&kp.pos)));
    }

    #[test]
    fn empty_range_yields_empty_stream() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 10, 32);
        let sax = SaxConfig::default_for_len(32);
        let mut merged =
            sorted_key_pos_sharded(&ds, 0..0, &sax, 1 << 20, dir.path(), &stats, 4).unwrap();
        assert!(merged.next_item().unwrap().is_none());
        assert_eq!(merged.report().items, 0);
    }

    #[test]
    fn shard_spill_io_is_absorbed_into_shared_stats() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 800, 32);
        let sax = SaxConfig::default_for_len(32);
        let before = stats.snapshot();
        // Tiny budget: every shard spills runs, counted in the caller's
        // stats.
        let merged =
            sorted_key_pos_sharded(&ds, 0..800, &sax, 2048, dir.path(), &stats, 4).unwrap();
        assert!(merged.report().runs >= 4);
        let delta = stats.snapshot().since(&before);
        // Spilled run bytes (24 bytes per record, written at least once)
        // are in the shared sink once the workers join.
        assert!(
            delta.bytes_written >= 800 * 24,
            "spill writes not counted: {delta:?}"
        );
        // Draining the merge reads the runs back on this thread, into the
        // same sink.
        let n = merged.collect_all().unwrap().len();
        assert_eq!(n, 800);
        let delta = stats.snapshot().since(&before);
        let raw = ds.payload_bytes();
        assert!(
            delta.bytes_read >= raw + 800 * 24,
            "merge-phase run reads not counted: {delta:?}"
        );
    }

    #[test]
    fn panicking_worker_leaks_no_scratch() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 600, 32);
        let sax = SaxConfig::default_for_len(32);
        let tmp = dir.path().join("tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        // A tiny budget makes every worker spill runs before position 450
        // (inside the last of 4 shards) blows up.
        let result = sharded_sort(
            &ds,
            0..600,
            sax,
            2048,
            &tmp,
            &stats,
            4,
            KeyPosCodec,
            |summarizer, pos, series| {
                assert!(pos != 450, "injected worker panic");
                KeyPos {
                    key: summarizer.zkey(series),
                    pos,
                }
            },
        );
        assert!(result.is_err(), "a panicked worker must surface an error");
        assert!(
            std::fs::read_dir(&tmp).unwrap().next().is_none(),
            "a panicking worker must not leak spill files"
        );
    }

    #[test]
    fn scratch_dirs_are_removed_after_stream_drop() {
        let dir = TempDir::new("shard").unwrap();
        let (ds, stats) = small_dataset(&dir, 400, 32);
        let sax = SaxConfig::default_for_len(32);
        let tmp = dir.path().join("tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let merged = sorted_key_pos_sharded(&ds, 0..400, &sax, 1024, &tmp, &stats, 3).unwrap();
        assert!(
            std::fs::read_dir(&tmp).unwrap().next().is_some(),
            "run files should exist while the stream lives"
        );
        let _ = merged.collect_all().unwrap();
        assert!(
            std::fs::read_dir(&tmp).unwrap().next().is_none(),
            "run files must be removed once the stream is dropped"
        );
    }
}
