//! External sorting of fixed-size binary records under a memory budget.
//!
//! This is the engine behind every bottom-up bulk load in the workspace
//! (Section 3.1 of the paper): the *partitioning* phase fills a buffer of at
//! most `budget` bytes, sorts it in memory and flushes it as a sorted run
//! with large sequential writes; the *merging* phase merge-sorts the runs
//! with one input buffer per run. When everything fits in memory no run is
//! ever written (the common case for non-materialized Coconut indexes, where
//! only summarizations are sorted — "sorting in the non-materialized versions
//! is really fast, since only the summarizations need to be sorted").
//!
//! Records are serialized through a [`Codec`], so the same sorter handles
//! 24-byte `(zkey, position)` pairs and multi-kilobyte
//! `(zkey, raw series)` records (the materialized `-Full` variants).
//!
//! If the number of runs exceeds the merge fan-in that the budget allows,
//! intermediate merge passes are performed (the paper notes a single pass
//! suffices whenever `M > sqrt(N)`; we handle the general case anyway).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::file::CountedFile;
use crate::iostats::IoStats;

/// Serialize/deserialize fixed-size records.
pub trait Codec {
    /// The in-memory record type.
    type Item;

    /// The on-disk size of one record, in bytes (constant per codec instance).
    fn record_size(&self) -> usize;

    /// Encode `item` into `buf` (`buf.len() == record_size()`).
    fn encode(&self, item: &Self::Item, buf: &mut [u8]);

    /// Decode a record from `buf` (`buf.len() == record_size()`).
    fn decode(&self, buf: &[u8]) -> Self::Item;
}

/// How the sorter behaved — reported by experiments alongside I/O stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortReport {
    /// Total records sorted.
    pub items: u64,
    /// Sorted runs spilled to disk (0 means fully in-memory).
    pub runs: u64,
    /// Merge passes over the data (0 when in-memory or single run).
    pub merge_passes: u64,
}

static SORT_ID: AtomicU64 = AtomicU64::new(0);

/// A set of spilled run files, deleted from disk when dropped. Ownership
/// moves from the sorter to the merge stream on a successful `finish`, so
/// whichever side holds the files last cleans them up — a build that errors
/// (or is dropped) between `spill_run` and `finish` leaks nothing.
#[derive(Debug, Default)]
struct RunFiles(Vec<PathBuf>);

impl Drop for RunFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Streaming external sorter. `push` records, then `finish` to obtain the
/// globally sorted stream.
pub struct ExternalSorter<C: Codec> {
    codec: C,
    budget_bytes: usize,
    tmp_dir: PathBuf,
    stats: Arc<IoStats>,
    buffer: Vec<C::Item>,
    buffer_capacity: usize,
    runs: RunFiles,
    report: SortReport,
    /// `sort-{process}-{sorter}`: the prefix of this sorter's run files,
    /// unique across the processes and sorters sharing one `tmp_dir`.
    name: String,
    io_buf_bytes: usize,
}

impl<C: Codec + Clone> ExternalSorter<C>
where
    C::Item: Ord,
{
    /// A sorter that holds at most `budget_bytes` of records in memory and
    /// spills runs into `tmp_dir`.
    ///
    /// **Budget invariant:** `budget_bytes` is *per sorter*, not global.
    /// A caller that runs K sorters concurrently (e.g. the sharded build in
    /// `coconut-core`) must divide its memory budget across them — K
    /// sorters created with the full budget would claim K times the
    /// intended memory.
    pub fn new(
        codec: C,
        budget_bytes: u64,
        tmp_dir: impl Into<PathBuf>,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let record = codec.record_size();
        if record == 0 {
            return Err(Error::invalid("record size must be positive"));
        }
        // The buffer holds items, not encoded records: count what one
        // occupies in memory (a 24-byte `(key, pos)` record is a 32-byte
        // item) so the buffer itself stays inside the budget. Always keep
        // room for at least a handful of records: a budget below one record
        // would otherwise dead-lock the partitioning phase.
        let item_bytes = record.max(std::mem::size_of::<C::Item>());
        let buffer_capacity = ((budget_bytes as usize) / item_bytes).max(4);
        Ok(ExternalSorter {
            codec,
            budget_bytes: budget_bytes as usize,
            tmp_dir: tmp_dir.into(),
            stats,
            buffer: Vec::new(),
            buffer_capacity,
            runs: RunFiles::default(),
            report: SortReport::default(),
            name: format!(
                "sort-{}-{}",
                std::process::id(),
                SORT_ID.fetch_add(1, Ordering::Relaxed)
            ),
            io_buf_bytes: 256 * 1024,
        })
    }

    /// Add one record. The first allocates the whole buffer, so it never
    /// grows by doubling past the budget.
    pub fn push(&mut self, item: C::Item) -> Result<()> {
        if self.buffer.len() >= self.buffer_capacity {
            self.spill_run()?;
        }
        if self.buffer.capacity() == 0 {
            self.buffer.reserve_exact(self.buffer_capacity);
        }
        self.buffer.push(item);
        self.report.items += 1;
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.report.items
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.report.items == 0
    }

    fn spill_run(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        // Fault hook: an injected spill failure surfaces before any file is
        // created; the `RunFiles` guard cleans up earlier runs on drop.
        crate::fault::check("extsort.spill")?;
        self.buffer.sort_unstable();
        let path = self
            .tmp_dir
            .join(format!("{}-run-{}.bin", self.name, self.runs.0.len()));
        // Register the file with the drop-guard *before* writing so a
        // mid-spill I/O error (e.g. disk full) cannot leak a partial run.
        self.runs.0.push(path.clone());
        // Drained out of a taken buffer, which goes back (with its capacity)
        // once the run is on disk.
        let mut buffer = std::mem::take(&mut self.buffer);
        let mut items = buffer.drain(..);
        let written = self.write_run(&path, || Ok(items.next()));
        drop(items);
        self.buffer = buffer;
        written?;
        self.report.runs += 1;
        Ok(())
    }

    /// Encode the records `next` yields into a new run file at `path`, in
    /// appends of `io_buf_bytes`, and sync it.
    fn write_run(
        &self,
        path: &Path,
        mut next: impl FnMut() -> Result<Option<C::Item>>,
    ) -> Result<()> {
        let file = CountedFile::create(path, Arc::clone(&self.stats))?;
        let record = self.codec.record_size();
        let per_flush = (self.io_buf_bytes / record).max(1);
        let mut out = vec![0u8; per_flush * record];
        let mut filled = 0usize;
        while let Some(item) = next()? {
            self.codec
                .encode(&item, &mut out[filled * record..(filled + 1) * record]);
            filled += 1;
            if filled == per_flush {
                file.append(&out)?;
                filled = 0;
            }
        }
        if filled > 0 {
            file.append(&out[..filled * record])?;
        }
        file.sync()
    }

    /// A [`MergedStream`] over the run files at `paths`, one read buffer of
    /// at least 4 KiB per run.
    fn merge_runs(&self, paths: &[PathBuf]) -> Result<MergedStream<RunStream<C>>> {
        let buf_bytes = self.codec.record_size().max(4096);
        let runs = paths
            .iter()
            .map(|p| RunStream::open(p, self.codec.clone(), buf_bytes, Arc::clone(&self.stats)))
            .collect::<Result<Vec<_>>>()?;
        MergedStream::new(runs)
    }

    /// Finish pushing and return the globally sorted stream.
    pub fn finish(mut self) -> Result<SortedStream<C>> {
        if self.runs.0.is_empty() {
            // Fully in-memory: one sort, no I/O at all; the part of the
            // buffer the records did not fill goes back before they stream.
            self.buffer.sort_unstable();
            self.buffer.shrink_to_fit();
            let items = std::mem::take(&mut self.buffer);
            return Ok(SortedStream {
                report: self.report,
                source: Source::Memory(items.into_iter()),
            });
        }
        self.spill_run()?;
        // Shrink the emptied buffer rather than free it whole: glibc raises
        // its mmap threshold to the size of a freed mapped block (up to
        // 32 MiB), and the process's later mid-size allocations then stay
        // on its heap. Freed whole, a server's 16-MiB buffer (1M series
        // ingested under `--memory-mb 16`) left its query window's peak
        // resident set 0.6 MiB higher.
        self.buffer.shrink_to(1);

        // The merge fan-in is limited by the memory budget: one read buffer
        // per run plus slack. Below the limit we merge all runs at once;
        // above it we do intermediate passes.
        let min_read_buf = self.codec.record_size().max(4096);
        let max_fanin = (self.budget_bytes / min_read_buf).clamp(2, 128);
        // Every generation of run files lives inside a `RunFiles` guard, so
        // an error (or drop) at any point deletes whatever is on disk.
        let mut pass_no = 0usize;
        while self.runs.0.len() > max_fanin {
            self.report.merge_passes += 1;
            let mut next = RunFiles::default();
            for (gi, group) in self.runs.0.chunks(max_fanin).enumerate() {
                let out_path = self
                    .tmp_dir
                    .join(format!("{}-pass{pass_no}-{gi}.bin", self.name));
                // Guarded before it is written, like a spilled run.
                next.0.push(out_path.clone());
                let mut merged = self.merge_runs(group)?;
                self.write_run(&out_path, || merged.next_item())?;
            }
            self.runs = next; // dropping the old generation deletes it
            pass_no += 1;
        }
        self.report.merge_passes += 1;
        let merged = self.merge_runs(&self.runs.0)?;
        // Success: run-file ownership moves into the stream, which deletes
        // them once it is dropped.
        Ok(SortedStream {
            report: self.report,
            source: Source::Runs {
                merged,
                _files: std::mem::take(&mut self.runs),
            },
        })
    }
}

/// One sorted run read back from its file, through a buffered sequential
/// reader, as a [`RecordStream`].
struct RunStream<C: Codec> {
    codec: C,
    file: CountedFile,
    record: usize,
    buf: Vec<u8>,
    buf_valid: usize,
    buf_pos: usize,
    file_pos: u64,
    file_len: u64,
}

impl<C: Codec> RunStream<C> {
    fn open(path: &Path, codec: C, buf_bytes: usize, stats: Arc<IoStats>) -> Result<Self> {
        let record = codec.record_size();
        let file = CountedFile::open(path, stats)?;
        let file_len = file.len();
        if file_len % record as u64 != 0 {
            return Err(Error::corrupt(format!(
                "run file {} length {} not a multiple of record size {}",
                path.display(),
                file_len,
                record
            )));
        }
        let records_per_buf = (buf_bytes / record).max(1);
        Ok(RunStream {
            codec,
            file,
            record,
            buf: vec![0u8; records_per_buf * record],
            buf_valid: 0,
            buf_pos: 0,
            file_pos: 0,
            file_len,
        })
    }
}

impl<C: Codec> RecordStream for RunStream<C> {
    type Item = C::Item;

    fn next_item(&mut self) -> Result<Option<C::Item>> {
        if self.buf_pos == self.buf_valid {
            let remaining = (self.file_len - self.file_pos) as usize;
            if remaining == 0 {
                return Ok(None);
            }
            let to_read = remaining.min(self.buf.len());
            self.file
                .read_exact_at(&mut self.buf[..to_read], self.file_pos)?;
            self.file_pos += to_read as u64;
            self.buf_valid = to_read;
            self.buf_pos = 0;
        }
        let start = self.buf_pos;
        self.buf_pos += self.record;
        Ok(Some(self.codec.decode(&self.buf[start..self.buf_pos])))
    }

    fn report(&self) -> SortReport {
        SortReport {
            items: self.file_len / self.record as u64,
            runs: 1,
            merge_passes: 0,
        }
    }
}

/// Heap entry ordered so that `BinaryHeap` (a max-heap) pops the smallest.
struct HeapEntry<T> {
    item: Reverse<T>,
    source: usize,
}

impl<T: Ord> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.item == other.item
    }
}
impl<T: Ord> Eq for HeapEntry<T> {}
impl<T: Ord> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.item.cmp(&other.item)
    }
}

enum Source<C: Codec> {
    /// Everything fitted the budget: the sorted buffer itself.
    Memory(std::vec::IntoIter<C::Item>),
    /// The spilled runs, merged.
    Runs {
        merged: MergedStream<RunStream<C>>,
        /// Owned so the run files are deleted when the stream is dropped.
        _files: RunFiles,
    },
}

/// The output of [`ExternalSorter::finish`]: records in globally sorted order.
pub struct SortedStream<C: Codec> {
    report: SortReport,
    source: Source<C>,
}

/// A stream of records in globally non-decreasing order, with a sort
/// report. Implemented by [`SortedStream`] (one sorter's output) and
/// [`MergedStream`] (K sorted streams merged) so bulk loaders can consume
/// either through one interface.
pub trait RecordStream {
    /// The record type.
    type Item;

    /// The next record, or `None` when exhausted.
    fn next_item(&mut self) -> Result<Option<Self::Item>>;

    /// How the underlying sort(s) behaved.
    fn report(&self) -> SortReport;

    /// Drain the stream into a vector (tests and small sorts).
    fn collect_all(mut self) -> Result<Vec<Self::Item>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(item) = self.next_item()? {
            out.push(item);
        }
        Ok(out)
    }
}

impl<C: Codec> RecordStream for SortedStream<C>
where
    C::Item: Ord,
{
    type Item = C::Item;

    fn next_item(&mut self) -> Result<Option<C::Item>> {
        match &mut self.source {
            Source::Memory(items) => Ok(items.next()),
            Source::Runs { merged, .. } => merged.next_item(),
        }
    }

    /// How the sort behaved (runs, passes).
    fn report(&self) -> SortReport {
        self.report
    }
}

/// A K-way merge over already-sorted [`RecordStream`]s: a small binary heap
/// (one entry per stream) yields the globally sorted order. Because record
/// ordering is total (`(key, pos)` is unique), the merged order is
/// *identical* to what one big sort of all inputs would produce — the
/// property that makes sharded builds bit-identical whatever their shard
/// count, and LSM compactions bit-identical to a from-scratch bulk load.
///
/// The inputs are any [`RecordStream`]s with `Ord` items: a sorter's
/// spilled runs, per-shard [`SortedStream`]s during construction, or the
/// leaf-order entry streams of existing index runs during an LSM
/// compaction.
pub struct MergedStream<S: RecordStream> {
    streams: Vec<S>,
    heap: BinaryHeap<HeapEntry<S::Item>>,
    report: SortReport,
}

impl<S: RecordStream> MergedStream<S>
where
    S::Item: Ord,
{
    /// Merge `streams`; the aggregate report sums items and spilled runs
    /// across shards and takes the worst shard's merge-pass count.
    pub fn new(streams: Vec<S>) -> Result<Self> {
        let mut report = SortReport::default();
        for s in &streams {
            let r = s.report();
            report.items += r.items;
            report.runs += r.runs;
            report.merge_passes = report.merge_passes.max(r.merge_passes);
        }
        let mut merged = MergedStream {
            streams,
            heap: BinaryHeap::new(),
            report,
        };
        for i in 0..merged.streams.len() {
            if let Some(item) = merged.streams[i].next_item()? {
                merged.heap.push(HeapEntry {
                    item: Reverse(item),
                    source: i,
                });
            }
        }
        Ok(merged)
    }
}

impl<S: RecordStream> RecordStream for MergedStream<S>
where
    S::Item: Ord,
{
    type Item = S::Item;

    /// The next record in global order, or `None` when all streams are dry.
    fn next_item(&mut self) -> Result<Option<S::Item>> {
        let Some(mut top) = self.heap.peek_mut() else {
            return Ok(None);
        };
        // The smallest entry's stream refills it in place (one sift-down
        // when `top` drops) or, once dry, it leaves the heap.
        Ok(Some(match self.streams[top.source].next_item()? {
            Some(next) => std::mem::replace(&mut top.item, Reverse(next)).0,
            None => PeekMut::pop(top).item.0,
        }))
    }

    /// The aggregated sort report.
    fn report(&self) -> SortReport {
        self.report
    }
}

/// A ready-made codec for `u64` records (used in tests and simple id sorts).
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Codec;

impl Codec for U64Codec {
    type Item = u64;
    fn record_size(&self) -> usize {
        8
    }
    fn encode(&self, item: &u64, buf: &mut [u8]) {
        buf.copy_from_slice(&item.to_le_bytes());
    }
    fn decode(&self, buf: &[u8]) -> u64 {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(buf);
        u64::from_le_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn sort_values(values: Vec<u64>, budget: u64) -> (Vec<u64>, SortReport) {
        let dir = TempDir::new("extsort").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, budget, dir.path(), stats).unwrap();
        for v in values {
            sorter.push(v).unwrap();
        }
        let stream = sorter.finish().unwrap();
        let report = stream.report();
        (stream.collect_all().unwrap(), report)
    }

    #[test]
    fn in_memory_when_budget_suffices() {
        let values: Vec<u64> = (0..1000).rev().collect();
        let (sorted, report) = sort_values(values, 1 << 20);
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_eq!(report.runs, 0);
        assert_eq!(report.merge_passes, 0);
    }

    #[test]
    fn spills_and_merges_with_tiny_budget() {
        let values: Vec<u64> = (0..10_000)
            .map(|i| (i * 2_654_435_761u64) % 100_000)
            .collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        let (sorted, report) = sort_values(values, 256); // 32 records per run
        assert_eq!(sorted, expected);
        assert!(report.runs > 10, "expected many runs, got {}", report.runs);
        assert!(report.merge_passes >= 1);
    }

    #[test]
    fn budget_smaller_than_one_record_still_works() {
        let values: Vec<u64> = (0..100).rev().collect();
        let (sorted, report) = sort_values(values, 1);
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(report.runs >= 2);
    }

    #[test]
    fn empty_input() {
        let (sorted, report) = sort_values(Vec::new(), 1024);
        assert!(sorted.is_empty());
        assert_eq!(report.items, 0);
    }

    #[test]
    fn duplicates_survive() {
        let values = vec![5u64, 5, 5, 1, 1, 9];
        let (sorted, _) = sort_values(values, 16); // force spills
        assert_eq!(sorted, vec![1, 1, 5, 5, 5, 9]);
    }

    #[test]
    fn sorted_input_stays_sorted() {
        let values: Vec<u64> = (0..5000).collect();
        let (sorted, _) = sort_values(values.clone(), 128);
        assert_eq!(sorted, values);
    }

    #[test]
    fn multi_pass_merge_when_fanin_exceeded() {
        // budget 8 KiB, min read buf 4 KiB -> max_fanin = 2, so >2 runs
        // forces intermediate passes.
        let values: Vec<u64> = (0..40_000).rev().collect();
        let dir = TempDir::new("extsort").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, 8192, dir.path(), stats).unwrap();
        for v in values {
            sorter.push(v).unwrap();
        }
        let stream = sorter.finish().unwrap();
        assert!(stream.report().runs > 2);
        assert!(
            stream.report().merge_passes >= 2,
            "passes: {}",
            stream.report().merge_passes
        );
        let sorted = stream.collect_all().unwrap();
        assert_eq!(sorted, (0..40_000).collect::<Vec<_>>());
    }

    /// A `(key, position)` pair shaped like the builders' records: a
    /// 16-aligned `u128` key makes it 32 bytes in memory, 24 on disk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Pair {
        key: u128,
        pos: u64,
    }

    #[derive(Clone)]
    struct PairCodec;

    impl Codec for PairCodec {
        type Item = Pair;
        fn record_size(&self) -> usize {
            24
        }
        fn encode(&self, item: &Pair, buf: &mut [u8]) {
            buf[..16].copy_from_slice(&item.key.to_le_bytes());
            buf[16..].copy_from_slice(&item.pos.to_le_bytes());
        }
        fn decode(&self, buf: &[u8]) -> Pair {
            Pair {
                key: u128::from_le_bytes(buf[..16].try_into().unwrap()),
                pos: u64::from_le_bytes(buf[16..].try_into().unwrap()),
            }
        }
    }

    #[test]
    fn buffer_is_sized_by_item_bytes_and_never_grows() {
        assert_eq!(std::mem::size_of::<Pair>(), 32);
        let budget = 32_000u64;
        let per_run = (budget / 32) as usize;
        let n = 3_500usize;
        let dir = TempDir::new("extsort").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(PairCodec, budget, dir.path(), stats).unwrap();
        for i in 0..n {
            let key = (i as u128 * 7_919) % n as u128;
            sorter.push(Pair { key, pos: i as u64 }).unwrap();
            // A run spills when the buffer already holds `budget / 32`
            // items, and the buffer is allocated whole by the first push.
            assert_eq!(sorter.report.runs, (i / per_run) as u64, "push {i}");
            assert_eq!(sorter.buffer.capacity(), per_run, "push {i}");
        }
        let stream = sorter.finish().unwrap();
        assert_eq!(stream.report().runs, n.div_ceil(per_run) as u64);
        let sorted = stream.collect_all().unwrap();
        assert_eq!(sorted.len(), n);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    fn run_files_in(dir: &TempDir) -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect()
    }

    #[test]
    fn dropped_sorter_leaves_no_run_files() {
        // A build that errors between `spill_run` and `finish` drops the
        // sorter with spilled runs on disk; they must be cleaned up.
        let dir = TempDir::new("extsort-drop").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, 64, dir.path(), stats).unwrap();
        for v in (0..1000u64).rev() {
            sorter.push(v).unwrap();
        }
        assert!(
            !run_files_in(&dir).is_empty(),
            "test needs spilled runs on disk"
        );
        drop(sorter);
        assert_eq!(run_files_in(&dir), Vec::<std::path::PathBuf>::new());
    }

    #[test]
    fn finished_stream_cleans_runs_on_drop() {
        let dir = TempDir::new("extsort-drop2").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, 64, dir.path(), stats).unwrap();
        for v in (0..1000u64).rev() {
            sorter.push(v).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        assert!(stream.report().runs > 1);
        // Partially consumed, then dropped.
        assert_eq!(stream.next_item().unwrap(), Some(0));
        drop(stream);
        assert_eq!(run_files_in(&dir), Vec::<std::path::PathBuf>::new());
    }

    #[test]
    fn merged_stream_equals_one_big_sort() {
        let dir = TempDir::new("extsort-merge").unwrap();
        let stats = Arc::new(IoStats::new());
        let values: Vec<u64> = (0..9_000).map(|i| (i * 2_654_435_761u64) % 7000).collect();
        // Three shards with different budgets (one stays in memory, two
        // spill), merged.
        let mut streams = Vec::new();
        for (shard, budget) in [(0u64, 1u64 << 20), (1, 128), (2, 256)] {
            let sub = dir.path().join(format!("shard-{shard}"));
            std::fs::create_dir_all(&sub).unwrap();
            let mut sorter =
                ExternalSorter::new(U64Codec, budget, &sub, Arc::clone(&stats)).unwrap();
            for &v in values.iter().skip(shard as usize).step_by(3) {
                sorter.push(v).unwrap();
            }
            streams.push(sorter.finish().unwrap());
        }
        let merged = MergedStream::new(streams).unwrap();
        assert_eq!(merged.report().items, values.len() as u64);
        assert!(merged.report().runs > 1);
        let got = merged.collect_all().unwrap();
        let mut expected = values;
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn merged_stream_of_one_is_identity() {
        let dir = TempDir::new("extsort-merge1").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, 1 << 20, dir.path(), stats).unwrap();
        for v in [5u64, 3, 9, 1] {
            sorter.push(v).unwrap();
        }
        let merged = MergedStream::new(vec![sorter.finish().unwrap()]).unwrap();
        assert_eq!(merged.collect_all().unwrap(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn merged_stream_of_none_is_empty() {
        let merged = MergedStream::<SortedStream<U64Codec>>::new(Vec::new()).unwrap();
        assert_eq!(merged.report(), SortReport::default());
        assert!(merged.collect_all().unwrap().is_empty());
    }

    #[test]
    fn io_is_sequential() {
        // External sorting must be dominated by sequential I/O — that is the
        // whole point of the paper's Section 3.1 comparison. Each run costs
        // exactly one seek (its first read); everything else must stream.
        let dir = TempDir::new("extsort").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter =
            ExternalSorter::new(U64Codec, 64 * 1024, dir.path(), Arc::clone(&stats)).unwrap();
        for v in (0..200_000u64).rev() {
            sorter.push(v).unwrap();
        }
        let stream = sorter.finish().unwrap();
        let runs = stream.report().runs;
        assert!(runs >= 2);
        let _ = stream.collect_all().unwrap();
        let snap = stats.snapshot();
        // Every random op must be accounted for by a run-file open
        // (initial runs plus the smaller set of intermediate merge outputs).
        assert!(
            snap.random_ops() <= 2 * runs,
            "random {} ops for {} runs",
            snap.random_ops(),
            runs
        );
        assert!(
            snap.random_ops() * 10 <= snap.total_ops(),
            "random {} of {} total ops",
            snap.random_ops(),
            snap.total_ops()
        );
    }
}
