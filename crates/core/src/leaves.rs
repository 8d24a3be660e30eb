//! The sorted-leaf index both Coconut indexes are: one contiguous region of
//! leaves holding the dataset's entries in `(key, position)` order, the
//! in-memory [`Summaries`] SIMS scans, and a [`Directory`] that maps a
//! query key to the leaf it would live in.
//!
//! Coconut-Tree and Coconut-Trie differ only in how that directory is
//! carved over the sorted leaves — by median (any boundary between two
//! records) or by key prefix — and therefore in where the bulk loader cuts
//! one leaf from the next. Everything else lives here once: the file and
//! leaf store, persistence, the lazily loaded summaries, the probe, both
//! SIMS fetchers and the single [`SortedLeafIndex::search`] every query
//! runs through:
//!
//! 1. **probe** (Algorithm 4): descend the directory to the query key's
//!    leaf and read it plus `radius` neighbors on each side. Each entry is
//!    lower-bounded from the key stored beside it, entries are visited in
//!    ascending `(bound, position)` order and fetched only while their
//!    bound can still enter the result — the answer is the true best of
//!    those leaves, for a fraction of their raw fetches;
//! 2. unless the query is approximate, the SIMS scan over the summaries,
//!    seeded by step 1 (Algorithm 5, [`crate::sims::sims_scan`]).
//!
//! # The summaries
//!
//! Pointer and materialized indexes keep one layout, in *leaf order*: per
//! leaf its entries' SAX symbols (the z-order keys de-interleaved once, when
//! the summaries are loaded — the key orders the leaves, only its symbols
//! bound a distance), every entry's raw-file position, and one symbol box
//! per leaf. Sorting makes a leaf a contiguous range of the z-order curve, so
//! the prefix its first and last key share is an iSAX word covering all of
//! its entries ([`coconut_summary::zorder::key_range_box`]) — the
//! node-level bound of the top-down indexes, obtained from two keys with
//! nothing stored. The summaries are loaded from the leaves by the first
//! exact query — after a build, a reopen or an insert alike (the leaf
//! range split over the index's threads) — so a build holds none beside
//! its sort buffers, nor a compaction beside the runs it merges.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use parking_lot::RwLock;

use coconut_series::dataset::Dataset;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Error, IoStats, Result};
use coconut_summary::mindist::SymbolDecoder;
use coconut_summary::sax::Summarizer;
use coconut_summary::zorder::key_range_box;
use coconut_summary::{SaxConfig, ZKey};

use crate::builder::BuildReport;
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{
    crc32, read_directory, write_directory, EntryLayout, IndexHeader, LeafMeta, LeafStore,
    ScrubReport, CHECKSUM_VERSION,
};
use crate::query::{first, Kind, Metric, Query};
use crate::records::SortedRecord;
use crate::sims::{
    balanced_chunks, scatter, sims_scan, Collector, Distance, Dtw, Ed, SeriesFetcher, TopK, Within,
    PARALLEL_MIN_KEYS,
};
use crate::split::SplitPolicyKind;

/// What distinguishes one sorted-leaf index flavor from the other: how the
/// sorted records are cut into leaves, and the structure that finds a key's
/// leaf again.
pub trait Directory: Sized {
    /// The header's index-kind byte.
    const KIND: u8;
    /// Display name (`"CTree"`); lowercased it prefixes the index file.
    const NAME: &'static str;

    /// A process-unique id for the next index file of this flavor.
    fn next_file_id() -> u64;

    /// The directory of an index with no leaves yet.
    fn empty(config: &IndexConfig) -> Self;

    /// Sort the records of `index`'s range, pack them into leaves under
    /// this flavor's cutting policy, build the directory over them and
    /// persist the index file.
    fn bulk_load(
        index: &mut SortedLeafIndex<Self>,
        tmp_dir: &Path,
        opts: &BuildOptions,
    ) -> Result<()>;

    /// The leaf `key` would be inserted into (`None` on an empty index).
    fn descend(&self, key: ZKey) -> Option<usize>;

    /// Append the directory's on-disk tail (after the leaf directory) and
    /// return its encoding version for the header.
    fn write_tail(&self, file: &CountedFile) -> Result<u8>;

    /// Rebuild the directory of a reopened index from its leaf directory
    /// and the tail starting at byte `tail`.
    fn read_tail(
        file: &CountedFile,
        header: &IndexHeader,
        tail: u64,
        leaves: &[LeafMeta],
        config: &IndexConfig,
    ) -> Result<Self>;
}

/// The in-memory summarizations SIMS scans, in leaf order (loaded from the
/// leaves by the first exact query, and again after an insert): 16 B of
/// symbols and 8 B of position per entry at the default configuration, plus
/// one symbol box per leaf.
pub struct Summaries {
    decoder: SymbolDecoder,
    /// Per leaf, its entries' SAX symbols segment-major: the symbol of the
    /// leaf's entry `e`, segment `j`, sits at `(start * segments) + j *
    /// count + e`, so one segment of eight consecutive entries is one
    /// 8-byte load.
    symbols: Vec<u8>,
    /// The raw-file position of each scan index.
    pos: Vec<u64>,
    /// First scan index of each leaf, plus the total.
    leaf_starts: Vec<usize>,
    /// Per leaf, `segments` lower then `segments` upper symbol bounds.
    boxes: Vec<u8>,
}

/// One leaf of [`Summaries`].
pub struct LeafSummary<'a> {
    /// Scan index of the leaf's first entry.
    pub start: usize,
    /// The segment-major symbol block of its entries.
    pub symbols: &'a [u8],
    /// Per segment, the smallest symbol any entry can hold.
    pub lo: &'a [u8],
    /// Per segment, the largest symbol any entry can hold.
    pub hi: &'a [u8],
}

impl Summaries {
    /// Summaries over `(key, position)`-sorted `entries` cut into leaves of
    /// `leaf_sizes` entries (the last leaf takes the rest) — what an index
    /// holding exactly those leaves would load.
    pub fn from_sorted(
        sax: &SaxConfig,
        entries: &[(ZKey, u64)],
        leaf_sizes: impl IntoIterator<Item = usize>,
    ) -> Self {
        let w = sax.segments;
        let decoder = SymbolDecoder::new(sax);
        let mut symbols = vec![0; entries.len() * w];
        let mut boxes = Vec::new();
        let mut leaf_starts = vec![0];
        let mut sizes = leaf_sizes.into_iter();
        let mut keys = Vec::new();
        let mut start = 0;
        while start < entries.len() {
            let size = sizes.next().unwrap_or(usize::MAX);
            let end = start + size.clamp(1, entries.len() - start);
            keys.clear();
            keys.extend(entries[start..end].iter().map(|&(key, _)| key));
            let at = boxes.len();
            boxes.resize(at + 2 * w, 0);
            summarize_leaf(
                &decoder,
                &keys,
                &mut symbols[start * w..end * w],
                &mut boxes[at..],
            );
            leaf_starts.push(end);
            start = end;
        }
        Summaries {
            decoder,
            symbols,
            pos: entries.iter().map(|&(_, pos)| pos).collect(),
            leaf_starts,
            boxes,
        }
    }

    fn segments(&self) -> usize {
        self.decoder.config().segments
    }

    /// Entries summarized.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no entry is summarized.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Leaves summarized.
    pub fn leaf_count(&self) -> usize {
        self.leaf_starts.len() - 1
    }

    /// Entries in leaf `leaf`.
    pub fn leaf_len(&self, leaf: usize) -> usize {
        self.leaf_starts[leaf + 1] - self.leaf_starts[leaf]
    }

    /// The symbols and box of leaf `leaf`.
    pub fn leaf(&self, leaf: usize) -> LeafSummary<'_> {
        let w = self.segments();
        let (start, end) = (self.leaf_starts[leaf], self.leaf_starts[leaf + 1]);
        let (lo, hi) = self.boxes[leaf * 2 * w..(leaf + 1) * 2 * w].split_at(w);
        LeafSummary {
            start,
            symbols: &self.symbols[start * w..end * w],
            lo,
            hi,
        }
    }

    /// The raw-file position of scan index `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> u64 {
        self.pos[i]
    }
}

/// The not yet filled tails of the three per-entry / per-leaf arrays of a
/// [`Summaries`] under construction.
struct LeafSlices<'a> {
    symbols: &'a mut [u8],
    pos: &'a mut [u64],
    boxes: &'a mut [u8],
}

impl<'a> LeafSlices<'a> {
    /// Split off the part covering the next `entries` entries in `leaves`
    /// leaves of `w`-segment summaries.
    fn split_front(&mut self, entries: usize, leaves: usize, w: usize) -> LeafSlices<'a> {
        fn front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(rest).split_at_mut(n);
            *rest = tail;
            head
        }
        LeafSlices {
            symbols: front(&mut self.symbols, entries * w),
            pos: front(&mut self.pos, entries),
            boxes: front(&mut self.boxes, leaves * 2 * w),
        }
    }
}

/// De-interleave one leaf's sorted `keys` into its segment-major `symbols`
/// block and its `[lo.., hi..]` symbol box.
fn summarize_leaf(decoder: &SymbolDecoder, keys: &[ZKey], symbols: &mut [u8], lo_hi: &mut [u8]) {
    decoder.decode_into(keys, symbols);
    if let (Some(&first), Some(&last)) = (keys.first(), keys.last()) {
        let sax = decoder.config();
        let (lo, hi) = lo_hi.split_at_mut(sax.segments);
        key_range_box(first, last, sax, lo, hi);
    }
}

/// A Coconut index: sorted contiguous leaves under a [`Directory`] `D`
/// ([`crate::CoconutTree`] and [`crate::CoconutTrie`] are its two
/// instantiations).
pub struct SortedLeafIndex<D> {
    pub(crate) config: IndexConfig,
    pub(crate) materialized: bool,
    threads: usize,
    pub(crate) dataset: Dataset,
    pub(crate) store: LeafStore,
    pub(crate) leaves: Vec<LeafMeta>,
    pub(crate) dir: D,
    pub(crate) summaries: RwLock<Option<Arc<Summaries>>>,
    pub(crate) entry_count: u64,
    pub(crate) next_block: u32,
    /// Positions covered: `range.start..range.end` of the dataset.
    pub(crate) range: Range<u64>,
    pub(crate) build_report: BuildReport,
}

impl<D: Directory> SortedLeafIndex<D> {
    /// Bulk-load an index over all of `dataset` (Algorithms 2 and 3). Files
    /// are created in `dir`; sort scratch goes there too.
    pub fn build(
        dataset: &Dataset,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        Self::build_range(dataset, 0..dataset.len(), config, dir, opts)
    }

    /// Bulk-load an index over the positions `range` of `dataset` (used by
    /// the LSM extension, whose runs cover contiguous position ranges).
    pub fn build_range(
        dataset: &Dataset,
        range: Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
    ) -> Result<Self> {
        let mut index = Self::create(dataset, range, config, dir, &opts)?;
        D::bulk_load(&mut index, dir, &opts)?;
        Ok(index)
    }

    /// Validate inputs and create the (empty) index file in `dir`.
    pub(crate) fn create(
        dataset: &Dataset,
        range: Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: &BuildOptions,
    ) -> Result<Self> {
        config.validate()?;
        if dataset.series_len() != config.sax.series_len {
            return Err(Error::invalid(format!(
                "dataset series length {} != config series length {}",
                dataset.series_len(),
                config.sax.series_len
            )));
        }
        if range.end > dataset.len() || range.start > range.end {
            return Err(Error::invalid("build range out of dataset bounds"));
        }
        let path = dir.join(format!(
            "{}-{}-{}.idx",
            D::NAME.to_ascii_lowercase(),
            D::next_file_id(),
            if opts.materialized { "full" } else { "ptr" }
        ));
        let file = Arc::new(CountedFile::create(
            &path,
            Arc::clone(dataset.file().stats()),
        )?);
        Ok(Self::over(
            file,
            dataset,
            *config,
            opts.materialized,
            opts.threads,
            range,
            D::empty(config),
        ))
    }

    fn over(
        file: Arc<CountedFile>,
        dataset: &Dataset,
        config: IndexConfig,
        materialized: bool,
        threads: usize,
        range: Range<u64>,
        dir: D,
    ) -> Self {
        let entry = EntryLayout {
            series_len: config.sax.series_len,
            materialized,
        };
        SortedLeafIndex {
            config,
            materialized,
            threads: threads.max(1),
            dataset: dataset.clone(),
            store: LeafStore::new(file, entry, config.leaf_capacity),
            leaves: Vec::new(),
            dir,
            summaries: RwLock::new(None),
            entry_count: 0,
            next_block: 0,
            range,
            build_report: BuildReport::default(),
        }
    }

    /// The bottom-up loader loop (Algorithm 3, lines 13–20): pack the
    /// `(key, pos)`-sorted records `next` yields into left-to-right leaves,
    /// cutting leaf `i` after `leaf_sizes[i]` records (and at the end of
    /// the stream).
    pub(crate) fn load<R: SortedRecord>(
        &mut self,
        mut next: impl FnMut() -> Result<Option<R>>,
        mut leaf_sizes: impl Iterator<Item = usize>,
    ) -> Result<()> {
        let n = (self.range.end - self.range.start) as usize;
        let entry = *self.store.entry();
        let mut entry_buf = vec![0u8; entry.entry_bytes()];
        let mut block_buf: Vec<u8> = Vec::new();
        let mut first_key = ZKey::MIN;
        let mut in_leaf = 0usize;
        let mut leaf_size = leaf_sizes.next().unwrap_or(usize::MAX);

        while let Some(rec) = next()? {
            if self.materialized && rec.series().is_none() {
                return Err(Error::invalid(
                    "materialized build fed a stream without payloads",
                ));
            }
            let (key, pos) = (rec.key(), rec.pos());
            if !self.range.contains(&pos) {
                return Err(Error::invalid(format!(
                    "record position {pos} outside build range {:?}",
                    self.range
                )));
            }
            entry.encode(key, pos, rec.series(), &mut entry_buf);
            if in_leaf == 0 {
                first_key = key;
            }
            block_buf.extend_from_slice(&entry_buf);
            in_leaf += 1;
            self.entry_count += 1;
            if in_leaf == leaf_size {
                self.push_leaf(first_key, &mut block_buf)?;
                in_leaf = 0;
                leaf_size = leaf_sizes.next().unwrap_or(usize::MAX);
            }
        }
        if in_leaf > 0 {
            self.push_leaf(first_key, &mut block_buf)?;
        }
        if self.entry_count != n as u64 {
            return Err(Error::corrupt(format!(
                "sorted stream held {} records but the build range {:?} spans {n}",
                self.entry_count, self.range
            )));
        }

        self.build_report.items = self.entry_count;
        self.build_report.leaves = self.leaves.len() as u64;
        // The first exact query loads the summaries from the leaves just
        // written: building them here, beside the sort's buffers (and, in a
        // compaction, beside the summaries of the runs being merged), would
        // set the process's peak memory for a build that may never be
        // queried.
        *self.summaries.write() = None;
        Ok(())
    }

    /// Write the packed entries in `block` as the next leaf at the end of
    /// the leaf region and clear `block`.
    pub(crate) fn push_leaf(&mut self, first_key: ZKey, block: &mut Vec<u8>) -> Result<()> {
        let blocks_used = self.store.write_leaf(self.next_block, block)?;
        self.leaves.push(LeafMeta {
            first_key,
            count: (block.len() / self.store.entry().entry_bytes()) as u32,
            block: self.next_block,
            blocks_used,
            crc: crc32(block),
        });
        self.next_block += blocks_used;
        block.clear();
        Ok(())
    }

    /// Append the leaf directory and the flavor's tail, then write the
    /// header and sync.
    pub(crate) fn persist(&self) -> Result<()> {
        let file = self.store.file();
        let dir_offset = write_directory(file, &self.leaves)?;
        let tail_version = self.dir.write_tail(file)?;
        let header = IndexHeader {
            kind: D::KIND,
            materialized: self.materialized,
            series_len: self.config.sax.series_len as u32,
            segments: self.config.sax.segments as u16,
            card_bits: self.config.sax.card_bits,
            leaf_capacity: self.config.leaf_capacity as u32,
            entry_count: self.entry_count,
            num_blocks: self.next_block as u64,
            dir_offset,
            tail_version,
            split_policy: self.config.split_policy.as_u8(),
            checksums: CHECKSUM_VERSION,
        };
        header.write_to(file)?;
        file.sync()
    }

    /// Open a previously built index file. `dataset` must be the raw file it
    /// was built over.
    pub fn open(path: &Path, dataset: &Dataset, threads: usize) -> Result<Self> {
        Self::open_covering(path, dataset, threads, 0..dataset.len(), false)
    }

    /// Open the index at `path` as covering `range`; with `check_count` the
    /// file's entry count must match the range exactly.
    pub(crate) fn open_covering(
        path: &Path,
        dataset: &Dataset,
        threads: usize,
        range: Range<u64>,
        check_count: bool,
    ) -> Result<Self> {
        if range.start > range.end || range.end > dataset.len() {
            return Err(Error::invalid("open range out of dataset bounds"));
        }
        let stats = Arc::clone(dataset.file().stats());
        let file = Arc::new(CountedFile::open_rw(path, stats)?);
        let header = IndexHeader::read_from(&file)?;
        if header.kind != D::KIND {
            return Err(Error::corrupt(format!("not a {} index file", D::NAME)));
        }
        if header.series_len as usize != dataset.series_len() {
            return Err(Error::corrupt("index/dataset series length mismatch"));
        }
        if check_count && header.entry_count != range.end - range.start {
            return Err(Error::corrupt(format!(
                "index holds {} entries but its recorded range {range:?} spans {}",
                header.entry_count,
                range.end - range.start
            )));
        }
        let config = IndexConfig {
            sax: SaxConfig {
                series_len: header.series_len as usize,
                segments: header.segments as usize,
                card_bits: header.card_bits,
            },
            leaf_capacity: header.leaf_capacity as usize,
            fill_factor: 1.0,
            internal_fanout: 64,
            split_policy: SplitPolicyKind::from_u8(header.split_policy)?,
        };
        config.validate()?;
        let (leaves, tail) = read_directory(&file, header.dir_offset)?;
        let dir = D::read_tail(&file, &header, tail, &leaves, &config)?;
        // The on-disk index does not record its own range; `open` assumes
        // the common whole-dataset case (the LSM manifest tells
        // `open_range`), and `load_summaries` cross-checks every entry's
        // position against it.
        let mut index = Self::over(
            file,
            dataset,
            config,
            header.materialized,
            threads,
            range,
            dir,
        );
        index.leaves = leaves;
        index.entry_count = header.entry_count;
        index.next_block = header.num_blocks as u32;
        Ok(index)
    }

    /// Re-read every leaf block and verify it against its directory CRC
    /// (the `coconut scrub` primitive). Returns on the first corrupt leaf
    /// with a typed [`Error::Corrupt`]; legacy unchecked leaves are counted
    /// but not verifiable.
    pub fn verify(&self) -> Result<ScrubReport> {
        crate::layout::scrub_leaves(&self.store, &self.leaves)
    }

    /// The build report (sort runs / merge passes / leaf count).
    pub fn build_report(&self) -> BuildReport {
        self.build_report
    }

    /// The index configuration (reconstructed from the header on open).
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Entry count of every leaf, in leaf order. Divide by
    /// `config().leaf_capacity` for fill fractions.
    pub fn leaf_entry_counts(&self) -> Vec<usize> {
        self.leaves.iter().map(|l| l.count as usize).collect()
    }

    /// Leaves holding more entries than `leaf_capacity` — only possible
    /// under prefix splitting, when identical keys exceed capacity (median
    /// packing never overfills). Computed from the directory, so it is
    /// correct for reopened indexes too.
    pub fn oversized_leaf_count(&self) -> u64 {
        self.leaves
            .iter()
            .filter(|l| l.count as usize > self.config.leaf_capacity)
            .count() as u64
    }

    /// Whether leaves embed raw series.
    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Entries in the index.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// The position range of the dataset this index covers.
    pub fn covered_range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// Route leaf reads through a shared buffer pool (`file_id` must be
    /// unique per index within the pool). Models "RAM available to queries".
    pub fn attach_cache(&mut self, cache: Arc<coconut_storage::PageCache>, file_id: u32) {
        self.store.attach_cache(cache, file_id);
    }

    /// Mean leaf occupancy relative to the slots of the blocks the leaves
    /// occupy — near the fill factor for median packing, low by
    /// construction for prefix splitting (the paper reports ~10%).
    pub fn avg_fill(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        let slots: u64 = self
            .leaves
            .iter()
            .map(|l| l.blocks_used as u64 * self.config.leaf_capacity as u64)
            .sum();
        self.entry_count as f64 / slots as f64
    }

    /// Shared I/O statistics (same sink as the dataset).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        self.dataset.file().stats()
    }

    /// Path of the index file.
    pub fn index_path(&self) -> &Path {
        self.store.file().path()
    }

    pub(crate) fn query_key(&self, query: &[Value]) -> Result<ZKey> {
        if query.len() != self.config.sax.series_len {
            return Err(Error::invalid(format!(
                "query length {} != series length {}",
                query.len(),
                self.config.sax.series_len
            )));
        }
        Ok(Summarizer::new(self.config.sax).zkey(query))
    }

    /// The probe (Algorithm 4): offer `hits` the best entries of `leaves`.
    /// Every entry is lower-bounded from the key stored beside it, and a
    /// leaf's entries are fetched in ascending `(bound, position)` order
    /// while their bound can still enter `hits` — so `hits` ends up holding
    /// exactly what fetching every entry would have left there. Leaves are
    /// taken nearest `target` first: the likeliest to tighten the cutoff
    /// that spares the others their fetches.
    fn eval_leaves<M: Distance, C: Collector>(
        &self,
        leaves: std::ops::RangeInclusive<usize>,
        target: usize,
        metric: &M,
        hits: &mut C,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let entry = self.store.entry();
        let mut leaf_buf = Vec::new();
        let mut series_buf = vec![0.0 as Value; self.config.sax.series_len];
        let (mut keys, mut bounds) = (Vec::new(), Vec::new());
        let mut order: Vec<(f64, u64, usize)> = Vec::new();
        let mut nearest_first: Vec<usize> = leaves.collect();
        nearest_first.sort_by_key(|&l| (l.abs_diff(target), l));
        for l in nearest_first {
            let leaf = &self.leaves[l];
            self.store.read_leaf(leaf, &mut leaf_buf)?;
            stats.leaves_visited += 1;
            let slots = 0..leaf.count as usize;
            keys.clear();
            keys.extend(
                slots
                    .clone()
                    .map(|slot| entry.key(self.store.entry_slice(&leaf_buf, slot))),
            );
            bounds.resize(keys.len(), 0.0);
            metric.table().mindist_batch_into(&keys, &mut bounds);
            // Only entries under the cutoff so far can ever be fetched.
            let cutoff = hits.cutoff();
            order.clear();
            order.extend(slots.filter(|&slot| bounds[slot] <= cutoff).map(|slot| {
                let pos = entry.pos(self.store.entry_slice(&leaf_buf, slot));
                (bounds[slot], pos, slot)
            }));
            stats.pruned += (keys.len() - order.len()) as u64;
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (fetched, &(bound, pos, slot)) in order.iter().enumerate() {
                if bound > hits.cutoff() {
                    // Sorted by bound and the cutoff only tightens.
                    stats.pruned += (order.len() - fetched) as u64;
                    break;
                }
                if self.materialized {
                    entry.series_into(self.store.entry_slice(&leaf_buf, slot), &mut series_buf);
                } else {
                    self.dataset.read_into(pos, &mut series_buf)?;
                }
                stats.records_fetched += 1;
                if let Some(dist) = metric.eval(&series_buf, hits.cutoff()) {
                    hits.offer(Answer { pos, dist });
                }
            }
        }
        Ok(())
    }

    fn load_summaries(&self) -> Result<Arc<Summaries>> {
        if let Some(s) = self.summaries.read().as_ref() {
            return Ok(Arc::clone(s));
        }
        let mut write = self.summaries.write();
        if let Some(s) = write.as_ref() {
            return Ok(Arc::clone(s));
        }
        // "if SAX sums are not in memory, load them" — read the leaf region
        // back, each worker a contiguous share of the leaves, filling its
        // own disjoint part of the arrays.
        let (n, w) = (self.entry_count as usize, self.config.sax.segments);
        let mut leaf_starts = vec![0];
        leaf_starts.extend(self.leaves.iter().scan(0usize, |end, l| {
            *end += l.count as usize;
            Some(*end)
        }));
        if leaf_starts.last() != Some(&n) {
            return Err(Error::corrupt("leaf directory and entry count disagree"));
        }
        let mut s = Summaries {
            decoder: SymbolDecoder::new(&self.config.sax),
            symbols: vec![0; n * w],
            pos: vec![0; n],
            leaf_starts,
            boxes: vec![0; self.leaves.len() * 2 * w],
        };
        let mut out = LeafSlices {
            symbols: &mut s.symbols,
            pos: &mut s.pos,
            boxes: &mut s.boxes,
        };
        let (decoder, store, range) = (&s.decoder, &self.store, &self.range);
        let fill = |(leaves, mut out): (&[LeafMeta], LeafSlices<'_>)| -> Result<()> {
            let entry = store.entry();
            let (mut leaf_buf, mut keys) = (Vec::new(), Vec::new());
            for leaf in leaves {
                store.read_leaf(leaf, &mut leaf_buf)?;
                let out = out.split_front(leaf.count as usize, 1, w);
                keys.clear();
                for (slot, pos) in out.pos.iter_mut().enumerate() {
                    let e = store.entry_slice(&leaf_buf, slot);
                    *pos = entry.pos(e);
                    if !range.contains(pos) {
                        return Err(Error::corrupt(
                            "index does not cover a contiguous position range",
                        ));
                    }
                    keys.push(entry.key(e));
                }
                summarize_leaf(decoder, &keys, out.symbols, out.boxes);
            }
            Ok(())
        };
        let workers = if n < PARALLEL_MIN_KEYS {
            1
        } else {
            self.threads
        };
        let shares = balanced_chunks(&self.leaves, workers, |l| l.count as usize)
            .into_iter()
            .map(|leaves| {
                let entries = leaves.iter().map(|l| l.count as usize).sum();
                (leaves, out.split_front(entries, leaves.len(), w))
            });
        scatter(shares, fill).into_iter().collect::<Result<()>>()?;
        let s = Arc::new(s);
        *write = Some(Arc::clone(&s));
        Ok(s)
    }

    /// Answer `query` for `series` (z-normalized, of the index's series
    /// length): the one implementation behind every query entry point.
    /// Answers are `(dist, pos)`-sorted; a 1-NN that finds nothing below
    /// `query.bound` returns an empty list.
    pub fn search(&self, series: &[Value], query: &Query) -> Result<(Vec<Answer>, QueryStats)> {
        let key = self.query_key(series)?;
        match query.metric {
            Metric::Ed => self.collect(key, query, &Ed::new(series, &self.config.sax)),
            Metric::Dtw(band) => {
                self.collect(key, query, &Dtw::new(series, band, &self.config.sax))
            }
        }
    }

    fn collect<M: Distance>(
        &self,
        key: ZKey,
        query: &Query,
        metric: &M,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        match query.kind {
            Kind::Knn(0) => Ok((Vec::new(), QueryStats::default())),
            Kind::Nearest | Kind::Approx => self.run(key, query, metric, TopK::new(1, query.bound)),
            Kind::Knn(k) => self.run(key, query, metric, TopK::new(k, query.bound)),
            Kind::Range(eps) => self.run(key, query, metric, Within::new(eps, query.bound)),
        }
    }

    fn run<M: Distance, C: Collector>(
        &self,
        key: ZKey,
        query: &Query,
        metric: &M,
        mut hits: C,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let mut stats = QueryStats::default();
        query.deadline.check()?;
        // A range query's cutoff is fixed: seeds could not tighten it.
        if !matches!(query.kind, Kind::Range(_)) {
            if let Some(leaf) = self.dir.descend(key) {
                let lo = leaf.saturating_sub(query.radius);
                let hi = leaf.saturating_add(query.radius).min(self.leaves.len() - 1);
                self.eval_leaves(lo..=hi, leaf, metric, &mut hits, &mut stats)?;
            }
        }
        if query.kind != Kind::Approx {
            let summaries = self.load_summaries()?;
            let series_len = self.config.sax.series_len;
            let scanned = if self.materialized {
                let mut fetcher = LeafOrderFetcher {
                    store: &self.store,
                    leaves: &self.leaves,
                    summaries: &summaries,
                    cur_leaf: 0,
                    leaf_buf: Vec::new(),
                    loaded: false,
                };
                sims_scan(
                    metric,
                    series_len,
                    &summaries,
                    self.threads,
                    &mut fetcher,
                    &mut hits,
                    query.deadline,
                )?
            } else {
                let mut fetcher = RawFileFetcher {
                    dataset: &self.dataset,
                };
                sims_scan(
                    metric,
                    series_len,
                    &summaries,
                    self.threads,
                    &mut fetcher,
                    &mut hits,
                    query.deadline,
                )?
            };
            stats.add(&scanned);
        }
        Ok((hits.into_answers(), stats))
    }

    /// Approximate search (Algorithm 4): the best entry of the target leaf
    /// plus `radius` leaves on each side.
    pub fn approximate_search(&self, query: &[Value], radius: usize) -> Result<Answer> {
        Ok(self.approximate_search_with_stats(query, radius)?.0)
    }

    /// Approximate search returning its work counters.
    pub fn approximate_search_with_stats(
        &self,
        query: &[Value],
        radius: usize,
    ) -> Result<(Answer, QueryStats)> {
        let approx = Query {
            radius,
            ..Query::approx()
        };
        self.search(query, &approx).map(first)
    }

    /// Exact 1-NN (Algorithm 5) with the default [`Query`].
    pub fn exact_search(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        self.search(query, &Query::nearest()).map(first)
    }

    /// Exact k-nearest-neighbors (extension beyond the paper).
    pub fn exact_knn(&self, query: &[Value], k: usize) -> Result<(Vec<Answer>, QueryStats)> {
        self.search(query, &Query::knn(k))
    }

    /// Exact range query (extension): all series within Euclidean distance
    /// `epsilon` of the query.
    pub fn exact_range(&self, query: &[Value], epsilon: f64) -> Result<(Vec<Answer>, QueryStats)> {
        self.search(query, &Query::range(epsilon))
    }
}

/// SIMS fetcher for non-materialized indexes: candidates arrive in raw-file
/// position order, so fetches walk the raw file forward (skip-sequential).
struct RawFileFetcher<'a> {
    dataset: &'a Dataset,
}

impl SeriesFetcher for RawFileFetcher<'_> {
    const POSITION_ORDER: bool = true;

    fn fetch(&mut self, _i: usize, pos: u64, out: &mut [Value]) -> Result<()> {
        self.dataset.read_into(pos, out)
    }
}

/// SIMS fetcher for materialized indexes: candidates arrive in scan (leaf)
/// order, which is the physical order of the (bulk-loaded) index file;
/// reads each needed leaf block once, forward.
struct LeafOrderFetcher<'a> {
    store: &'a LeafStore,
    leaves: &'a [LeafMeta],
    summaries: &'a Summaries,
    cur_leaf: usize,
    leaf_buf: Vec<u8>,
    loaded: bool,
}

impl SeriesFetcher for LeafOrderFetcher<'_> {
    const POSITION_ORDER: bool = false;

    fn fetch(&mut self, i: usize, _pos: u64, out: &mut [Value]) -> Result<()> {
        let starts = &self.summaries.leaf_starts;
        // Advance to the leaf containing scan index i (indexes arrive in
        // increasing order).
        if !self.loaded || i >= starts[self.cur_leaf + 1] {
            while i >= starts[self.cur_leaf + 1] {
                self.cur_leaf += 1;
            }
            self.store
                .read_leaf(&self.leaves[self.cur_leaf], &mut self.leaf_buf)?;
            self.loaded = true;
        }
        let slot = i - starts[self.cur_leaf];
        let e = self.store.entry_slice(&self.leaf_buf, slot);
        self.store.entry().series_into(e, out);
        Ok(())
    }
}

impl<D: Directory> SeriesIndex for SortedLeafIndex<D> {
    fn name(&self) -> String {
        format!("{}{}", D::NAME, if self.materialized { "Full" } else { "" })
    }

    fn approximate(&self, query: &[Value]) -> Result<Answer> {
        Ok(first(self.search(query, &Query::approx())?).0)
    }

    fn exact(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        self.exact_search(query)
    }

    fn disk_bytes(&self) -> u64 {
        self.store.file().len()
    }

    fn leaf_count(&self) -> u64 {
        self.leaves.len() as u64
    }

    fn avg_leaf_fill(&self) -> f64 {
        self.avg_fill()
    }
}
