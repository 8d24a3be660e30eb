//! The sorted-leaf index both Coconut indexes are: one contiguous region of
//! leaves holding the dataset's entries in `(key, position)` order, the
//! in-memory [`Summaries`] SIMS scans, and a [`Directory`] that maps a
//! query key to the leaf it would live in.
//!
//! Coconut-Tree and Coconut-Trie differ only in how that directory is
//! carved over the sorted leaves — by median (any boundary between two
//! records) or by key prefix — and therefore in where the bulk loader cuts
//! one leaf from the next. Everything else lives here once: the file and
//! leaf store, persistence, the summaries, the probe, the materialized SIMS
//! fetcher and the single search every query runs through —
//! `search_runs`, over one index ([`SortedLeafIndex::search`]) or over
//! the runs of an LSM snapshot ([`crate::Snapshot::search`]) alike, with
//! one query key, one metric table and one collector:
//!
//! 1. **probe** (Algorithm 4): descend each run's directory to the query
//!    key's leaf and take it plus `radius` neighbors on each side. Each
//!    entry is lower-bounded from its symbols, entries are visited in
//!    ascending `(bound, position)` order and fetched only while their
//!    bound can still enter the result — the answer is the true best of
//!    those leaves, for a fraction of their raw fetches;
//! 2. unless the query is approximate, the SIMS scan over the summaries of
//!    every other leaf of every run, seeded by step 1 (Algorithm 5,
//!    [`crate::sims::sims_scan`]): the probe leaves nothing in its own
//!    leaves for the scan to find.
//!
//! # The summaries
//!
//! [`Summaries`] is a directory of verify-once leaf blocks, one shape for
//! pointer and materialized indexes. What an index holds from the moment it
//! is built or opened is read off the leaf directory alone: where
//! each leaf starts in scan order and one symbol box per leaf. Sorting makes
//! a leaf a contiguous range of the z-order curve, so the prefix its first
//! key shares with the next leaf's first key is an iSAX word covering all of
//! its entries ([`coconut_summary::zorder::key_range_box`], derived for
//! every leaf at once through the process-wide `PEXT` decode,
//! [`SymbolDecoder::key_range_boxes`]) — the node-level bound of the
//! top-down indexes, obtained from two directory keys with nothing stored
//! and nothing read.
//!
//! A leaf's [`LeafBlock`] — its entries' SAX symbols, segment-major (the
//! z-order keys de-interleaved: the key orders the leaves, only its symbols
//! bound a distance), and their raw-file positions — is stored on disk as
//! exactly that ([`crate::layout`]), so it is never copied: the first block
//! a query asks for maps the index file read-only, and the first time a
//! query needs a leaf — the probe for its seed leaves, the scan for a leaf
//! whose box survives the cutoff, inside the worker that scans it — its
//! bytes are checked where they lie (CRC, positions), its zone boxes (per
//! [`ZONE`] entries, each segment's extreme symbols) are derived from the
//! checked symbols, and both are borrowed ever after. Only the pages of
//! touched leaves become resident, and they go back with the mapping. Opening an index is therefore O(directory) and a
//! build or a compaction holds no summaries beside its buffers ("if SAX
//! sums are not in memory, load them", Algorithm 5, taken leaf by leaf). A
//! cold query verifies the leaves it cannot prune; a warm one reads none —
//! a pointer index never reads a leaf twice, a materialized one goes back
//! to a leaf only for the payloads it fetches.

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use coconut_series::dataset::Dataset;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Deadline, Error, Mapping, Result};
use coconut_summary::mindist::{zone_boxes, KeyFilter, SymbolDecoder, ZONE};
use coconut_summary::sax::Summarizer;
use coconut_summary::{SaxConfig, ZKey};

use crate::builder::BuildReport;
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{
    crc32, pos_bytes, read_directory, write_directory, IndexHeader, LeafCodec, LeafEntries,
    LeafMeta, LeafStore, Positions, ScrubReport, LEAF_REGION_OFFSET,
};
use crate::query::{first, Kind, Metric, Query};
use crate::records::SortedRecord;
use crate::sims::{self, Collector, Distance, Dtw, Ed, ScanRun, SeriesFetcher, TopK, Within};
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
    /// persist the index file. Only [`SortedLeafIndex::build_range`] can
    /// call it, since nothing outside this crate can make an [`Unbuilt`].
    fn bulk_load(
        index: &mut SortedLeafIndex<Self>,
        tmp_dir: &Path,
        opts: &BuildOptions,
        fresh: Unbuilt,
    ) -> Result<()>;

    /// The leaf whose key range holds `key` (`None` on an empty index).
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

/// Proof that the index [`Directory::bulk_load`] is handed was created
/// empty for it: only this crate makes one, so no caller can load a built
/// index again and rewrite a file that may be mapped.
pub struct Unbuilt(());

/// The in-memory summarizations SIMS scans, in leaf order, at two box
/// levels: per leaf a symbol box (from the directory, always there), and
/// once the first query touches the leaf, its verified [`LeafBlock`] — 16 B
/// of symbols and 3 B of position per entry at the default configuration
/// and a million series — with the block's zone boxes: per [`ZONE`] entries
/// the smallest and the largest symbol of each segment, derived from the
/// checked symbols and kept in memory only (0.5 B per entry at 16 segments,
/// ≈0.5 MiB for a million series once every leaf is touched).
///
/// The blocks are the stored leaves themselves, borrowed from a read-only
/// mapping of the index file made by the first block a query asks for:
/// nothing is copied, only the pages of touched leaves become resident,
/// and they go back with the mapping when the index (an LSM run, say) is
/// dropped.
pub struct Summaries {
    segments: usize,
    /// Bytes per stored position.
    pos_bytes: usize,
    /// First scan index of each leaf, plus the total.
    leaf_starts: Vec<usize>,
    /// The leaf boxes, one box block
    /// ([`KeyFilter::boxes_under`]'s layout): leaf `l`'s lower symbol of
    /// segment `j` at `j * leaves + l`, its upper one at `(segments + j) *
    /// leaves + l`.
    boxes: Vec<u8>,
    /// Per leaf, the zone boxes of its block, set once its stored bytes
    /// passed every check — so a set cell is also what marks the block
    /// verified (`OnceLock` publishes it with the bytes' checks behind it).
    zones: Vec<OnceLock<Box<[u8]>>>,
    /// Per leaf, held while its stored bytes are being checked.
    verifying: Vec<Mutex<()>>,
    blocks: Blocks,
}

/// One leaf as the probe and the scan read it: a view of its stored bytes
/// ([the leaf](crate::layout#the-leaf)) up to the end of its positions.
#[derive(Clone, Copy)]
pub struct LeafBlock<'a> {
    /// The entries' SAX symbols, segment-major: entry `e`'s segment `j`
    /// sits at `j * count + e`, so one segment of eight consecutive entries
    /// is one 8-byte load.
    pub symbols: &'a [u8],
    /// The zone boxes of `symbols` ([`zone_boxes`]): one box per [`ZONE`]
    /// entries.
    pub zones: &'a [u8],
    /// The entries' raw-file positions, little-endian and `pos_bytes` wide:
    /// they start `segments × count` bytes into the leaf, so in general not
    /// aligned.
    positions: Positions<'a>,
}

impl LeafBlock<'_> {
    /// Split the stored bytes of a leaf of `count` entries under `segments`
    /// symbols and `pos_bytes` position bytes per entry (`stored` may run on
    /// past the positions), beside the zone boxes of its symbols.
    fn new<'a>(
        stored: &'a [u8],
        zones: &'a [u8],
        segments: usize,
        pos_bytes: usize,
        count: usize,
    ) -> LeafBlock<'a> {
        let (symbols, rest) = stored.split_at(segments * count);
        LeafBlock {
            symbols,
            zones,
            positions: Positions::new(&rest[..pos_bytes * count], pos_bytes),
        }
    }

    /// Push `(entry, bound)` for each entry whose bound `filter` keeps —
    /// bounding the zones first and only the entries of surviving ones,
    /// unless `zoned` is off — and return the bounds computed.
    pub(crate) fn bounds_under(
        &self,
        filter: &KeyFilter<'_>,
        zoned: bool,
        out: &mut Vec<(usize, f64)>,
    ) -> usize {
        if zoned {
            filter.zoned_bounds_under(self.symbols, self.zones, 0, out)
        } else {
            filter.bounds_under(self.symbols, 0, out);
            self.len()
        }
    }

    /// Entries in the leaf.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the leaf holds no entry.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The raw-file position of entry `entry`.
    #[inline]
    pub fn pos(&self, entry: usize) -> u64 {
        self.positions.get(entry)
    }
}

/// Where the blocks' stored bytes are.
enum Blocks {
    /// Every leaf's stored bytes, back to back in leaf order
    /// ([`Summaries::from_sorted`]), every one of them in place.
    Owned(Vec<u8>),
    /// The leaves of an index file.
    File(LeafFile),
}

/// The leaves of an index file, as [`Summaries`] borrows them.
struct LeafFile {
    store: LeafStore,
    leaves: Vec<LeafMeta>,
    /// Every position must fall in the range the index covers.
    range: Range<u64>,
    /// The whole file, mapped by the first leaf verified.
    mapping: OnceLock<Mapping>,
}

impl LeafFile {
    /// The file's mapping, made now if no leaf made it before.
    fn mapping(&self) -> Result<&Mapping> {
        if let Some(mapping) = self.mapping.get() {
            return Ok(mapping);
        }
        // Racing first leaves may map twice; one mapping is kept.
        let mapped = self.store.file().map()?;
        Ok(self.mapping.get_or_init(|| mapped))
    }

    /// The stored bytes of leaf `leaf` in the mapping: an
    /// [`Error::Corrupt`] if the file ends before them.
    fn stored(&self, leaf: usize) -> Result<&[u8]> {
        let span = self.store.leaf_span(&self.leaves[leaf]);
        let bytes = self.mapping()?.bytes();
        bytes
            .get(span.start as usize..span.end as usize)
            .ok_or_else(|| {
                Error::corrupt(format!(
                    "leaf {leaf} (byte {}) lies past the end of the index file",
                    span.start
                ))
            })
    }

    /// Every check a first use of leaf `leaf` runs, on its bytes in place:
    /// the `leaf.read` fault site, the leaf inside the file, the CRC of its
    /// symbols and positions (counted as a read of them), every position
    /// inside the covered range. Then the whole pages past the positions —
    /// the payloads of a materialized leaf — are handed back, so the
    /// fault-around that mapped them keeps none of them resident.
    fn verify(&self, leaf: usize, segments: usize) -> Result<()> {
        coconut_storage::fault::check("leaf.read")?;
        let meta = &self.leaves[leaf];
        let stored = self.stored(leaf)?;
        let codec = self.store.codec();
        let scanned = codec.scanned(stored);
        self.store
            .file()
            .record_mapped_read(meta.offset, scanned.len() as u64);
        self.store.check_leaf(leaf, meta, scanned)?;
        let (count, pos_bytes) = (meta.count as usize, codec.pos_bytes());
        let positions = &scanned[segments * count..][..pos_bytes * count];
        if !Positions::new(positions, pos_bytes).all_within(&self.range) {
            return Err(Error::corrupt(
                "index does not cover a contiguous position range",
            ));
        }
        let start = meta.offset as usize;
        self.mapping()?
            .drop_pages(start + scanned.len()..start + stored.len());
        Ok(())
    }
}

impl Summaries {
    /// Summaries over `(key, position)`-sorted `entries` cut into leaves of
    /// `leaf_sizes` entries (the last leaf takes the rest) — what an index
    /// holding exactly those leaves would end up with, every block in
    /// place, stored as a pointer index stores them.
    pub fn from_sorted(
        sax: &SaxConfig,
        entries: &[(ZKey, u64)],
        leaf_sizes: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut leaves = Vec::new();
        let mut sizes = leaf_sizes.into_iter();
        let mut start = 0;
        while start < entries.len() {
            let size = sizes.next().unwrap_or(usize::MAX);
            let end = start + size.clamp(1, entries.len() - start);
            leaves.push(&entries[start..end]);
            start = end;
        }
        let largest = entries.iter().map(|&(_, pos)| pos).max().unwrap_or(0);
        let codec = LeafCodec::new(sax, false, pos_bytes(largest));
        let mut stored = Vec::with_capacity(entries.len() * codec.entry_bytes());
        let mut leaf_entries = LeafEntries::default();
        for leaf in &leaves {
            leaf_entries.clear();
            for &(key, pos) in *leaf {
                leaf_entries.push(key, pos, None);
            }
            codec.encode(&leaf_entries, &mut stored);
        }
        let leaves = leaves.iter().map(|leaf| (leaf[0].0, leaf.len()));
        Self::new(sax, codec.pos_bytes(), leaves, Blocks::Owned(stored))
    }

    /// The directory level alone — O(leaves), nothing read: `leaves` yields
    /// each leaf's `(first key, entry count)` in order.
    fn new(
        sax: &SaxConfig,
        pos_bytes: usize,
        leaves: impl Iterator<Item = (ZKey, usize)> + Clone,
        blocks: Blocks,
    ) -> Self {
        let w = sax.segments;
        let mut leaf_starts = vec![0];
        leaf_starts.extend(leaves.clone().scan(0, |end, (_, count)| {
            *end += count;
            Some(*end)
        }));
        // A leaf's keys run from its first key up to the next leaf's (the
        // last leaf's: up to the largest key there is).
        let max_key = ZKey(u128::MAX >> (128 - w * sax.card_bits as usize));
        let mut bounds: Vec<ZKey> = leaves.map(|(first, _)| first).collect();
        bounds.push(max_key);
        let mut boxes = vec![0; (leaf_starts.len() - 1) * 2 * w];
        SymbolDecoder::new(sax).key_range_boxes(&bounds, &mut boxes);
        let zones: Vec<OnceLock<Box<[u8]>>> =
            (1..leaf_starts.len()).map(|_| OnceLock::new()).collect();
        if let Blocks::Owned(stored) = &blocks {
            // Every block is in place: derive every leaf's zones now.
            let entry = w + pos_bytes;
            for (leaf, cell) in zones.iter().enumerate() {
                let (start, end) = (leaf_starts[leaf], leaf_starts[leaf + 1]);
                let symbols = &stored[start * entry..][..(end - start) * w];
                let _ = cell.set(Self::derive_zones(symbols, w));
            }
        }
        Summaries {
            segments: w,
            pos_bytes,
            zones,
            verifying: (1..leaf_starts.len()).map(|_| Mutex::new(())).collect(),
            leaf_starts,
            boxes,
            blocks,
        }
    }

    /// The zone boxes of a block's checked `symbols`.
    fn derive_zones(symbols: &[u8], segments: usize) -> Box<[u8]> {
        let zones = (symbols.len() / segments).div_ceil(ZONE);
        let mut out = vec![0; 2 * segments * zones].into_boxed_slice();
        zone_boxes(symbols, segments, &mut out);
        out
    }

    /// Entries summarized.
    pub fn len(&self) -> usize {
        self.leaf_starts[self.leaf_count()]
    }

    /// True when no entry is summarized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Leaves summarized.
    pub fn leaf_count(&self) -> usize {
        self.leaf_starts.len() - 1
    }

    /// First scan index of each leaf, plus the total.
    pub fn leaf_starts(&self) -> &[usize] {
        &self.leaf_starts
    }

    /// Entries in leaf `leaf`.
    pub fn leaf_len(&self, leaf: usize) -> usize {
        self.leaf_starts[leaf + 1] - self.leaf_starts[leaf]
    }

    /// Per segment, the smallest and the largest symbol an entry of leaf
    /// `leaf` can hold.
    pub fn leaf_box(&self, leaf: usize) -> (Vec<u8>, Vec<u8>) {
        let (w, n) = (self.segments, self.leaf_count());
        let symbol = |row: usize| self.boxes[row * n + leaf];
        (
            (0..w).map(symbol).collect(),
            (w..2 * w).map(symbol).collect(),
        )
    }

    /// Every leaf's box, as one box block in leaf order
    /// ([`KeyFilter::boxes_under`] bounds it).
    pub fn leaf_boxes(&self) -> &[u8] {
        &self.boxes
    }

    /// Leaves whose block a query has verified (all of them for
    /// [`Summaries::from_sorted`]).
    pub fn loaded_blocks(&self) -> usize {
        (0..self.leaf_count())
            .filter(|&l| self.is_loaded(l))
            .count()
    }

    /// Whether leaf `leaf`'s block is verified.
    pub(crate) fn is_loaded(&self, leaf: usize) -> bool {
        self.zones[leaf].get().is_some()
    }

    /// The block of leaf `leaf`: verified in place by the first caller that
    /// asks (a second one waits for it), its zone boxes derived from the
    /// checked symbols, and only borrowed ever after. A failed check leaves
    /// the leaf unverified and without zones, so the next caller fails — or
    /// succeeds — on its own check.
    pub fn block(&self, leaf: usize) -> Result<LeafBlock<'_>> {
        let (w, count) = (self.segments, self.leaf_len(leaf));
        let cell = &self.zones[leaf];
        let stored = match &self.blocks {
            Blocks::Owned(stored) => {
                let entry = w + self.pos_bytes;
                &stored[self.leaf_starts[leaf] * entry..self.leaf_starts[leaf + 1] * entry]
            }
            Blocks::File(file) => {
                if cell.get().is_none() {
                    let verifying = self.verifying[leaf].lock();
                    if cell.get().is_none() {
                        file.verify(leaf, w)?;
                        let symbols = &file.stored(leaf)?[..w * count];
                        let _ = cell.set(Self::derive_zones(symbols, w));
                    }
                    drop(verifying);
                }
                file.stored(leaf)?
            }
        };
        // Set by now — when the summaries were made, or above once the
        // checks passed — so this only reads the cell.
        let zones = cell.get_or_init(|| Self::derive_zones(&stored[..w * count], w));
        Ok(LeafBlock::new(stored, zones, w, self.pos_bytes, count))
    }
}

/// A Coconut index: sorted contiguous leaves under a [`Directory`] `D`
/// ([`crate::CoconutTree`] and [`crate::CoconutTrie`] are its two
/// instantiations).
pub struct SortedLeafIndex<D> {
    pub(crate) config: IndexConfig,
    materialized: bool,
    threads: usize,
    pub(crate) dataset: Dataset,
    pub(crate) store: LeafStore,
    pub(crate) leaves: Vec<LeafMeta>,
    pub(crate) dir: D,
    summaries: Summaries,
    pub(crate) entry_count: u64,
    /// Positions covered: `range.start..range.end` of the dataset.
    pub(crate) range: Range<u64>,
    pub(crate) build_report: BuildReport,
}

impl<D: Directory> SortedLeafIndex<D> {
    /// The header's index-kind byte of this flavor ([`Directory::KIND`]).
    pub const KIND: u8 = D::KIND;

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
        D::bulk_load(&mut index, dir, &opts, Unbuilt(()))?;
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
        // Positions take the fewest bytes that hold the largest one the
        // range covers.
        let pos_bytes = pos_bytes(range.end.saturating_sub(1));
        Ok(Self::over(
            file,
            dataset,
            *config,
            LeafCodec::new(&config.sax, opts.materialized, pos_bytes),
            opts.threads,
            range,
            D::empty(config),
        ))
    }

    fn over(
        file: Arc<CountedFile>,
        dataset: &Dataset,
        config: IndexConfig,
        codec: LeafCodec,
        threads: usize,
        range: Range<u64>,
        dir: D,
    ) -> Self {
        let empty = Summaries::new(
            &config.sax,
            codec.pos_bytes(),
            std::iter::empty(),
            Blocks::Owned(Vec::new()),
        );
        SortedLeafIndex {
            config,
            materialized: codec.is_materialized(),
            threads: threads.max(1),
            dataset: dataset.clone(),
            store: LeafStore::new(file, codec),
            leaves: Vec::new(),
            dir,
            summaries: empty,
            entry_count: 0,
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
        let mut leaf = LeafEntries::default();
        let mut leaf_size = leaf_sizes.next().unwrap_or(usize::MAX);

        while let Some(rec) = next()? {
            self.admit(&mut leaf, &rec)?;
            if leaf.len() == leaf_size {
                self.push_leaf(&leaf)?;
                leaf.clear();
                leaf_size = leaf_sizes.next().unwrap_or(usize::MAX);
            }
        }
        if !leaf.is_empty() {
            self.push_leaf(&leaf)?;
        }
        self.loaded()
    }

    /// Check one sorted record against the build — a payload when
    /// materialized, a position inside the range — and append it to `leaf`.
    pub(crate) fn admit<R: SortedRecord>(&mut self, leaf: &mut LeafEntries, rec: &R) -> Result<()> {
        if self.materialized && rec.series().is_none() {
            return Err(Error::invalid(
                "materialized build fed a stream without payloads",
            ));
        }
        let pos = rec.pos();
        if !self.range.contains(&pos) {
            return Err(Error::invalid(format!(
                "record position {pos} outside build range {:?}",
                self.range
            )));
        }
        leaf.push(rec.key(), pos, rec.series().filter(|_| self.materialized));
        self.entry_count += 1;
        Ok(())
    }

    /// End a load whose every record went through [`Self::admit`] and
    /// whose leaves are written: check it covered the range exactly, then
    /// report it and re-derive the summaries.
    pub(crate) fn loaded(&mut self) -> Result<()> {
        let n = self.range.end - self.range.start;
        if self.entry_count != n {
            return Err(Error::corrupt(format!(
                "sorted stream held {} records but the build range {:?} spans {n}",
                self.entry_count, self.range
            )));
        }

        self.build_report.items = self.entry_count;
        self.build_report.leaves = self.leaves.len() as u64;
        self.leaves_changed();
        Ok(())
    }

    /// Derive the summaries' directory level from `leaves`, once per
    /// index: after a load has written every leaf, or after `open` has read
    /// the directory. O(leaves); no block is verified until a query asks
    /// for it.
    pub(crate) fn leaves_changed(&mut self) {
        let file = LeafFile {
            store: self.store.clone(),
            leaves: self.leaves.clone(),
            range: self.range.clone(),
            mapping: OnceLock::new(),
        };
        let leaves = self.leaves.iter().map(|l| (l.first_key, l.count as usize));
        let pos_bytes = self.store.codec().pos_bytes();
        self.summaries = Summaries::new(&self.config.sax, pos_bytes, leaves, Blocks::File(file));
    }

    /// Write `entries` (not empty) as the next leaf, right where the last
    /// one ends, and record it in the directory.
    pub(crate) fn push_leaf(&mut self, entries: &LeafEntries) -> Result<()> {
        let codec = self.store.codec();
        let mut leaf = Vec::with_capacity(entries.len() * codec.entry_bytes());
        codec.encode(entries, &mut leaf);
        let offset = self
            .leaves
            .last()
            .map_or(LEAF_REGION_OFFSET, |last| self.store.leaf_span(last).end);
        self.store.file().write_all_at(&leaf, offset)?;
        self.leaves.push(LeafMeta {
            first_key: entries.keys()[0],
            count: entries.len() as u32,
            offset,
            crc: crc32(codec.scanned(&leaf)),
        });
        Ok(())
    }

    /// Append the leaf directory and the flavor's tail, then write the
    /// header and sync.
    pub(crate) fn persist(&self) -> Result<()> {
        let file = self.store.file();
        if file.len() < LEAF_REGION_OFFSET {
            // No leaf was written: keep the directory off the header page.
            file.write_all_at(&[0; LEAF_REGION_OFFSET as usize], 0)?;
        }
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
            dir_offset,
            tail_version,
            split_policy: self.config.split_policy.as_u8(),
            pos_bytes: self.store.codec().pos_bytes() as u8,
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
        if leaves.iter().map(|l| l.count as u64).sum::<u64>() != header.entry_count {
            return Err(Error::corrupt("leaf directory and entry count disagree"));
        }
        // The on-disk index does not record its own range; `open` assumes
        // the common whole-dataset case (the LSM manifest tells
        // `open_range`), and every leaf block loaded cross-checks its
        // entries' positions against it.
        let codec = LeafCodec::new(&config.sax, header.materialized, header.pos_bytes as usize);
        let mut index = Self::over(file, dataset, config, codec, threads, range, dir);
        index.leaves = leaves;
        index.entry_count = header.entry_count;
        index.leaves_changed();
        Ok(index)
    }

    /// Re-read every leaf block and verify it against its directory CRC
    /// (the `coconut scrub` primitive). Returns on the first corrupt leaf
    /// with a typed [`Error::Corrupt`].
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

    /// Leaves whose block — symbols and positions — a query has loaded so
    /// far (none right after a build or an open).
    pub fn loaded_blocks(&self) -> usize {
        self.summaries.loaded_blocks()
    }

    /// Mean leaf occupancy relative to the capacity the leaves were cut for
    /// (an oversized leaf counts as many capacities as it needs) — near the
    /// fill factor for median packing, low by construction for prefix
    /// splitting (the paper reports ~10%). Leaves are stored packed, so
    /// this is a property of the cut, not of the file's size.
    pub fn avg_fill(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        let capacity = self.config.leaf_capacity as u64;
        let slots: u64 = self
            .leaves
            .iter()
            .map(|l| (l.count as u64).div_ceil(capacity) * capacity)
            .sum();
        self.entry_count as f64 / slots as f64
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

    /// Answer `query` for `series` (z-normalized, of the index's series
    /// length): the one-run case of the scan a snapshot runs
    /// ([`crate::Snapshot::search`]), the one implementation behind every
    /// query entry point. Answers are `(dist, pos)`-sorted; a 1-NN that
    /// finds nothing below `query.bound` returns an empty list.
    pub fn search(&self, series: &[Value], query: &Query) -> Result<(Vec<Answer>, QueryStats)> {
        search_runs(&[self], series, query, true)
    }

    /// [`SortedLeafIndex::search`] bounding every entry of a leaf it cannot
    /// prune, zones skipped: the reference the search is tested against —
    /// its answers and every [`QueryStats`] field but `lower_bounds` are
    /// the search's own.
    #[doc(hidden)]
    pub fn search_unzoned(
        &self,
        series: &[Value],
        query: &Query,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        search_runs(&[self], series, query, false)
    }

    /// The scan's fetcher for a materialized index.
    pub(crate) fn leaf_fetcher(&self) -> LeafOrderFetcher<'_> {
        LeafOrderFetcher {
            store: &self.store,
            leaves: &self.leaves,
            starts: self.summaries.leaf_starts(),
            leaf: None,
            leaf_buf: Vec::new(),
        }
    }

    /// The in-memory summaries the scan reads.
    #[cfg(test)]
    pub(crate) fn summaries(&self) -> &Summaries {
        &self.summaries
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

/// SIMS fetcher for materialized indexes: candidates arrive in scan (leaf)
/// order within a sweep, which is the physical order of the (bulk-loaded)
/// index file; reads each needed leaf block once, forward, and starts over
/// where the next sweep starts.
pub(crate) struct LeafOrderFetcher<'a> {
    store: &'a LeafStore,
    leaves: &'a [LeafMeta],
    /// First scan index of each leaf, plus the total.
    starts: &'a [usize],
    /// The leaf held in `leaf_buf`.
    leaf: Option<usize>,
    leaf_buf: Vec<u8>,
}

impl SeriesFetcher for LeafOrderFetcher<'_> {
    const POSITION_ORDER: bool = false;

    fn fetch(&mut self, i: u64, out: &mut [Value]) -> Result<u64> {
        let (i, starts) = (i as usize, self.starts);
        let leaf = match self.leaf {
            Some(l) if (starts[l]..starts[l + 1]).contains(&i) => l,
            _ => {
                let l = starts.partition_point(|&s| s <= i) - 1;
                self.leaf = None;
                self.store
                    .read_leaf(l, &self.leaves[l], &mut self.leaf_buf)?;
                self.leaf = Some(l);
                l
            }
        };
        let parts = self.store.codec().parts(&self.leaf_buf);
        parts.series_into(i - starts[leaf], out);
        Ok(parts.pos(i - starts[leaf]))
    }
}

/// An entry of a probe leaf under the cutoff: its bound, its raw-file
/// position, the leaf (an index into the probed group) and its slot there.
/// Ordered so that a max-heap pops the smallest `(bound, position)` first.
#[derive(Clone, Copy)]
struct ProbeEntry {
    bound: f64,
    pos: u64,
    leaf: u32,
    slot: u32,
}

impl Ord for ProbeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .bound
            .total_cmp(&self.bound)
            .then(other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for ProbeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ProbeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ProbeEntry {}

/// Entries of a probe step's first leaf, spread across it, that are
/// bounded exactly while the cutoff is open; the k-th smallest of their
/// bounds is the first limit the step's entries are bounded under.
const PROBE_SAMPLE: usize = 64;

/// The probe's reusable buffers: per leaf of a step, a materialized leaf
/// read back and whether it was (only once a payload of it is wanted); a
/// fetched series; the sampled symbols; the kernel's `(entry, bound)`
/// output; the step's entries taken in.
#[derive(Default)]
struct ProbeBufs {
    leaves: Vec<Vec<u8>>,
    read: Vec<bool>,
    series: Vec<Value>,
    sample: Vec<u8>,
    under: Vec<(usize, f64)>,
    entries: Vec<ProbeEntry>,
}

/// One step of the probe (Algorithm 4): offer `hits` the best entries of
/// the `(run, leaf)` `group`, fetched in one ascending `(bound, position)`
/// order (a heap) while their bound can still enter `hits`. So `hits` ends
/// up holding exactly what fetching every entry would have left there, and
/// the scan passes the group's leaves by.
///
/// An exact bound costs a table sum per entry, so the entries are bounded
/// in at most two rounds, each under one [`KeyFilter`] — zone boxes first
/// (unless `zoned` is off), then the fast-scan prefilter over the entries
/// of surviving zones: those at or under a limit — the cutoff, or while it
/// is open (fewer than the `k` answers the query returns), the k-th
/// smallest bound of a sample of the first leaf — and, if the cutoff is
/// still above that limit once they are spent, those between the limit and
/// the cutoff. Both rounds together take in, and fetch in the same order,
/// what bounding every entry exactly would: a near query bounds the
/// group's entries against a cutoff close to its answer instead of summing
/// the table for each of them.
#[allow(clippy::too_many_arguments)]
fn probe_group<D: Directory, M: Distance, C: Collector>(
    runs: &[&SortedLeafIndex<D>],
    group: &[(usize, usize)],
    k: usize,
    metric: &M,
    zoned: bool,
    hits: &mut C,
    stats: &mut QueryStats,
    bufs: &mut ProbeBufs,
) -> Result<()> {
    let table = metric.table();
    let blocks = group
        .iter()
        .map(|&(r, l)| runs[r].summaries.block(l))
        .collect::<Result<Vec<_>>>()?;
    stats.leaves_visited += blocks.len() as u64;
    let entries: usize = blocks.iter().map(|b| b.len()).sum();
    if bufs.leaves.len() < group.len() {
        bufs.leaves.resize_with(group.len(), Vec::new);
    }
    bufs.read.clear();
    bufs.read.resize(group.len(), false);
    let open = |cutoff: f64| !(cutoff * cutoff).is_finite();
    let mut limit = hits.cutoff();
    if open(limit) {
        if let Some(first) = blocks.first().filter(|b| !b.is_empty()) {
            limit = sample_bound(table, first, k, &mut bufs.sample, &mut bufs.under);
        }
    }
    // Entries bounded at or under `taken` were taken in by the round
    // before; those over `limit` are not in yet.
    let mut taken = f64::NEG_INFINITY;
    let mut fetched = 0;
    let mut round = std::mem::take(&mut bufs.entries);
    round.clear();
    loop {
        let filter = table.key_filter(limit);
        for (g, block) in blocks.iter().enumerate() {
            bufs.under.clear();
            block.bounds_under(&filter, zoned, &mut bufs.under);
            round.extend(bufs.under.iter().filter(|&&(_, bound)| bound > taken).map(
                |&(slot, bound)| ProbeEntry {
                    bound,
                    pos: block.pos(slot),
                    leaf: g as u32,
                    slot: slot as u32,
                },
            ));
        }
        let mut heap = std::collections::BinaryHeap::from(round);
        let mut spent = true;
        while let Some(entry) = heap.pop() {
            if entry.bound > hits.cutoff() {
                // Popped by bound and the cutoff only tightens.
                spent = false;
                break;
            }
            fetch_entry(runs, group, entry, metric, hits, stats, bufs)?;
            fetched += 1;
        }
        round = heap.into_vec();
        if !spent || hits.cutoff() <= limit {
            break;
        }
        (taken, limit) = (limit, hits.cutoff());
    }
    stats.pruned += (entries - fetched) as u64;
    bufs.entries = round;
    Ok(())
}

/// The `k`-th smallest exact bound among [`PROBE_SAMPLE`] entries spread
/// across `block` (not empty), bounded as one block of their symbols in
/// `sample` — infinite when fewer are sampled.
fn sample_bound(
    table: &coconut_summary::QueryDistTable,
    block: &LeafBlock<'_>,
    k: usize,
    sample: &mut Vec<u8>,
    under: &mut Vec<(usize, f64)>,
) -> f64 {
    let count = block.len();
    let picked = PROBE_SAMPLE.min(count);
    let segments = block.symbols.len() / count;
    sample.clear();
    for j in 0..segments {
        let column = &block.symbols[j * count..(j + 1) * count];
        sample.extend((0..picked).map(|i| column[i * count / picked]));
    }
    under.clear();
    table.bounds_under(sample, f64::INFINITY, 0, under);
    let Some(at) = k.checked_sub(1).filter(|&at| at < under.len()) else {
        return f64::INFINITY;
    };
    let (_, &mut (_, nth), _) = under.select_nth_unstable_by(at, |a, b| a.1.total_cmp(&b.1));
    nth
}

/// Fetch the probe entry `entry` of `group` — from the raw file, or from
/// its materialized leaf, read back the first time a payload of it is
/// wanted — and offer it to `hits` at its true distance.
fn fetch_entry<D: Directory, M: Distance, C: Collector>(
    runs: &[&SortedLeafIndex<D>],
    group: &[(usize, usize)],
    entry: ProbeEntry,
    metric: &M,
    hits: &mut C,
    stats: &mut QueryStats,
    bufs: &mut ProbeBufs,
) -> Result<()> {
    let (leaf, slot) = (entry.leaf as usize, entry.slot as usize);
    let (r, l) = group[leaf];
    let (run, series) = (runs[r], &mut bufs.series);
    if run.materialized {
        let stored = &mut bufs.leaves[leaf];
        if !bufs.read[leaf] {
            run.store.read_leaf(l, &run.leaves[l], stored)?;
            bufs.read[leaf] = true;
        }
        run.store.codec().parts(stored).series_into(slot, series);
    } else {
        run.dataset.read_into(entry.pos, series)?;
    }
    stats.records_fetched += 1;
    if let Some(dist) = metric.eval(series, hits.cutoff()) {
        hits.offer(Answer {
            pos: entry.pos,
            dist,
        });
    }
    Ok(())
}

/// Answer `query` for `series` over `runs` — indexes of one configuration
/// and one layout over disjoint position ranges of one dataset, in
/// ascending position order (the runs of an LSM snapshot; one index is one
/// run) — with one scan: one query key, one metric table and one collector
/// for every run.
///
/// 1. **probe** (Algorithm 4): descend each run's directory to the query
///    key's leaf and take it plus `radius` neighbors on each side — every
///    run's target leaf in one step, then each neighbor, nearest first, on
///    its own, every step under the cutoff the ones before left
///    ([`probe_group`]). The answer is the true best of those leaves, for
///    a fraction of their raw fetches. A range query's cutoff is fixed, so
///    it skips the probe;
/// 2. unless the query is approximate, the SIMS scan over the summaries of
///    every other leaf of every run, seeded by step 1 — one best-box-first
///    order across the runs ([`crate::sims::scan_runs`]). A pointer sweep
///    fetches by raw-file position across the runs; a materialized one by
///    run, then scan index, through one leaf cursor per run.
///
/// One run — a static tree or trie, a one-run snapshot — is a probe of its
/// target leaf, then of each neighbor, and one scan.
///
/// Both steps bound a leaf's entries zone by zone; with `zoned` off they
/// bound every entry of the leaf instead — the reference the zoned search
/// equals in everything but `lower_bounds`.
pub(crate) fn search_runs<D: Directory>(
    runs: &[&SortedLeafIndex<D>],
    series: &[Value],
    query: &Query,
    zoned: bool,
) -> Result<(Vec<Answer>, QueryStats)> {
    let Some(first) = runs.first() else {
        return Ok((Vec::new(), QueryStats::default()));
    };
    let sax = &first.config.sax;
    if runs
        .iter()
        .any(|r| r.config.sax != *sax || r.materialized != first.materialized)
    {
        return Err(Error::invalid(
            "the runs of one search must share their SAX configuration and layout",
        ));
    }
    let key = first.query_key(series)?;
    match query.metric {
        Metric::Ed => collect(runs, key, query, &Ed::new(series, sax), zoned),
        Metric::Dtw(band) => collect(runs, key, query, &Dtw::new(series, band, sax), zoned),
    }
}

fn collect<D: Directory, M: Distance>(
    runs: &[&SortedLeafIndex<D>],
    key: ZKey,
    query: &Query,
    metric: &M,
    zoned: bool,
) -> Result<(Vec<Answer>, QueryStats)> {
    let top = |k| run(runs, key, query, metric, zoned, TopK::new(k, query.bound));
    match query.kind {
        Kind::Knn(0) => Ok((Vec::new(), QueryStats::default())),
        Kind::Nearest | Kind::Approx => top(1),
        Kind::Knn(k) => top(k),
        Kind::Range(eps) => run(
            runs,
            key,
            query,
            metric,
            zoned,
            Within::new(eps, query.bound),
        ),
    }
}

fn run<D: Directory, M: Distance, C: Collector>(
    runs: &[&SortedLeafIndex<D>],
    key: ZKey,
    query: &Query,
    metric: &M,
    zoned: bool,
    mut hits: C,
) -> Result<(Vec<Answer>, QueryStats)> {
    let mut stats = QueryStats::default();
    query.deadline.check()?;
    let mut seeds = vec![0..0; runs.len()];
    // A range query's cutoff is fixed: seeds could not tighten it.
    if !matches!(query.kind, Kind::Range(_)) {
        let mut probe = Vec::new();
        for (r, run) in runs.iter().enumerate() {
            if let Some(target) = run.dir.descend(key) {
                let lo = target.saturating_sub(query.radius);
                let hi = target
                    .saturating_add(query.radius)
                    .min(run.leaves.len() - 1);
                probe.extend((lo..=hi).map(|l| (l.abs_diff(target), r, l)));
                seeds[r] = lo..hi + 1;
            }
        }
        probe.sort_unstable();
        let mut bufs = ProbeBufs {
            series: vec![0.0; runs[0].config.sax.series_len],
            ..ProbeBufs::default()
        };
        let k = query.limit().unwrap_or(1);
        // Every run's target leaf in one step (the query's best entries
        // are likeliest among them, and the first one's close the cutoff
        // the others are bounded under), then each neighbor on its own.
        let targets = probe.partition_point(|&(d, _, _)| d == 0);
        let steps = std::iter::once(&probe[..targets])
            .chain(probe[targets..].chunks(1))
            .filter(|step| !step.is_empty());
        let mut group = Vec::with_capacity(targets);
        for step in steps {
            group.clear();
            group.extend(step.iter().map(|&(_, r, l)| (r, l)));
            probe_group(
                runs, &group, k, metric, zoned, &mut hits, &mut stats, &mut bufs,
            )?;
        }
    }
    if query.kind != Kind::Approx {
        stats.add(&scan(
            runs,
            metric,
            zoned,
            &mut hits,
            &seeds,
            query.deadline,
        )?);
    }
    Ok((hits.into_answers(), stats))
}

/// The SIMS scan over every run's summaries but the probe's `seeds`
/// ([`crate::sims::scan_runs`]), fetching from the raw file or,
/// materialized, from each run's leaves.
fn scan<D: Directory, M: Distance, C: Collector>(
    runs: &[&SortedLeafIndex<D>],
    metric: &M,
    zoned: bool,
    hits: &mut C,
    seeds: &[Range<usize>],
    deadline: Deadline,
) -> Result<QueryStats> {
    let scan_runs: Vec<ScanRun<'_>> = runs
        .iter()
        .zip(seeds)
        .map(|(run, seeds)| ScanRun {
            summaries: &run.summaries,
            resolved: seeds.clone(),
        })
        .collect();
    let (len, threads) = (runs[0].config.sax.series_len, runs[0].threads);
    if runs[0].materialized {
        let mut fetcher = RunsLeafFetcher {
            firsts: scan_runs
                .iter()
                .scan(0, |first, r| {
                    let at = *first;
                    *first += r.summaries.len() as u64;
                    Some(at)
                })
                .collect(),
            cursors: runs.iter().map(|r| r.leaf_fetcher()).collect(),
        };
        sims::scan_runs(
            metric,
            zoned,
            len,
            &scan_runs,
            threads,
            &mut fetcher,
            hits,
            deadline,
        )
    } else {
        let mut fetcher = RawFileFetcher { runs };
        sims::scan_runs(
            metric,
            zoned,
            len,
            &scan_runs,
            threads,
            &mut fetcher,
            hits,
            deadline,
        )
    }
}

/// SIMS fetcher for pointer runs: candidates arrive in raw-file position
/// order across the runs, so fetches walk the raw file forward
/// (skip-sequential). Each position is read through the dataset handle of
/// the run covering it: runs opened at different times may hold handles of
/// different lengths on one growing file.
struct RawFileFetcher<'a, D> {
    runs: &'a [&'a SortedLeafIndex<D>],
}

impl<D> SeriesFetcher for RawFileFetcher<'_, D> {
    const POSITION_ORDER: bool = true;

    fn fetch(&mut self, pos: u64, out: &mut [Value]) -> Result<u64> {
        let covering = self.runs.partition_point(|r| r.range.end <= pos);
        let run = self.runs[covering.min(self.runs.len() - 1)];
        run.dataset.read_into(pos, out)?;
        Ok(pos)
    }
}

/// SIMS fetcher for materialized runs: a candidate is known by its scan
/// index in the runs' leaves taken one run after another (run `r`'s from
/// `firsts[r]` on), and each run reads its leaves through its own cursor.
struct RunsLeafFetcher<'a> {
    firsts: Vec<u64>,
    cursors: Vec<LeafOrderFetcher<'a>>,
}

impl SeriesFetcher for RunsLeafFetcher<'_> {
    const POSITION_ORDER: bool = false;

    fn fetch(&mut self, i: u64, out: &mut [Value]) -> Result<u64> {
        let run = self.firsts.partition_point(|&first| first <= i) - 1;
        self.cursors[run].fetch(i - self.firsts[run], out)
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{CoconutTree, CoconutTrie, LsmCoconut};
    use coconut_series::dataset::write_dataset;
    use coconut_series::gen::RandomWalkGen;
    use coconut_storage::{IoStats, TempDir};

    /// The directory of `index` lays its leaves back to back from the end of
    /// the header page: leaf `i + 1` starts at the byte where leaf `i`'s
    /// `count × entry_bytes` end, and the directory starts where the last
    /// leaf ends.
    pub(crate) fn assert_packed<D: Directory>(index: &SortedLeafIndex<D>) {
        let entry_bytes = index.store.codec().entry_bytes() as u64;
        let mut end = LEAF_REGION_OFFSET;
        for (i, leaf) in index.leaves.iter().enumerate() {
            assert_eq!(leaf.offset, end, "leaf {i} of {}", index.leaves.len());
            end += leaf.count as u64 * entry_bytes;
        }
        let header = IndexHeader::read_from(index.store.file()).unwrap();
        assert_eq!(header.dir_offset, end);
    }

    /// The probe as one round would run it: every entry of `group` bounded
    /// exactly, fetched in ascending `(bound, position)` order while the
    /// bound can still enter `hits`.
    fn probe_by_exact_bounds<D: Directory>(
        runs: &[&SortedLeafIndex<D>],
        group: &[(usize, usize)],
        metric: &Ed<'_>,
        hits: &mut TopK,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        let mut all = Vec::new();
        for &(r, l) in group {
            let block = runs[r].summaries.block(l).unwrap();
            let mut under = Vec::new();
            metric
                .table()
                .bounds_under(block.symbols, f64::INFINITY, 0, &mut under);
            all.extend(under.iter().map(|&(e, b)| (b, block.pos(e))));
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut series = vec![0.0; runs[0].config.sax.series_len];
        for &(bound, pos) in &all {
            if bound > hits.cutoff() {
                break;
            }
            runs[0].dataset.read_into(pos, &mut series).unwrap();
            stats.records_fetched += 1;
            if let Some(dist) = metric.eval(&series, hits.cutoff()) {
                hits.offer(Answer { pos, dist });
            }
        }
        stats.leaves_visited = group.len() as u64;
        stats.pruned = all.len() as u64 - stats.records_fetched;
        stats
    }

    #[test]
    fn a_probe_step_fetches_what_exact_bounds_would_in_the_same_order() {
        // Two runs of leaves of 150 entries — more than the sample — so
        // the first round's limit comes from the sample and the second
        // round takes in the rest.
        let dir = TempDir::new("leaves-probe").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(17), 1_200, 64, &stats).unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        let mut config = IndexConfig::default_for_len(64);
        config.leaf_capacity = 150;
        let opts = BuildOptions::default;
        let a = CoconutTree::build_range(&ds, 0..700, &config, dir.path(), opts()).unwrap();
        let b = CoconutTree::build_range(&ds, 700..1_200, &config, dir.path(), opts()).unwrap();
        let runs = [&a, &b];
        let groups: [&[(usize, usize)]; 3] =
            [&[(0, 2)], &[(0, 1), (1, 3)], &[(1, 0), (0, 4), (1, 2)]];
        for seed in 0..6 {
            let mut q =
                coconut_series::gen::Generator::generate(&mut RandomWalkGen::new(500 + seed), 64);
            coconut_series::distance::znormalize(&mut q);
            if seed % 2 == 1 {
                // A near query: a member with a little noise.
                q = ds.get(seed * 97).unwrap();
                q[7] += 0.05;
            }
            let metric = Ed::new(&q, &config.sax);
            for group in groups {
                for (k, zoned) in [1, 3, 200]
                    .into_iter()
                    .flat_map(|k| [(k, true), (k, false)])
                {
                    let mut want = TopK::new(k, f64::INFINITY);
                    let want_stats = probe_by_exact_bounds(&runs, group, &metric, &mut want);
                    let mut got = TopK::new(k, f64::INFINITY);
                    let mut got_stats = QueryStats::default();
                    let mut bufs = ProbeBufs {
                        series: vec![0.0; 64],
                        ..ProbeBufs::default()
                    };
                    probe_group(
                        &runs,
                        group,
                        k,
                        &metric,
                        zoned,
                        &mut got,
                        &mut got_stats,
                        &mut bufs,
                    )
                    .unwrap();
                    let at = format!("seed {seed}, {group:?}, k {k}, zoned {zoned}");
                    assert_eq!(got.into_answers(), want.into_answers(), "{at}");
                    assert_eq!(got_stats, want_stats, "{at}");
                }
            }
        }
    }

    #[test]
    fn every_build_packs_its_leaves_back_to_back() {
        let dir = TempDir::new("leaves").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(31), 1_000, 64, &stats).unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        let mut config = IndexConfig::default_for_len(64);
        config.leaf_capacity = 32;
        let adaptive = config.with_split_policy(SplitPolicyKind::Adaptive);
        let (ptr, full) = (
            BuildOptions::default(),
            BuildOptions::default().materialized(),
        );

        for opts in [ptr.clone(), full] {
            let tree = CoconutTree::build(&ds, &config, dir.path(), opts).unwrap();
            assert_packed(&tree);
            assert_packed(&CoconutTree::open(tree.index_path(), &ds, 1).unwrap());
        }
        for config in [config, adaptive] {
            let trie = CoconutTrie::build(&ds, &config, dir.path(), ptr.clone()).unwrap();
            assert_packed(&trie);
            assert_packed(&CoconutTrie::open(trie.index_path(), &ds, 1).unwrap());
        }

        // A run an LSM merged from four ingested ones.
        let lsm_dir = TempDir::new("leaves-lsm").unwrap();
        let lsm = LsmCoconut::new(config, ptr, lsm_dir.path()).unwrap();
        for upto in [250, 500, 750, 1_000] {
            lsm.ingest_upto(&ds, upto).unwrap();
        }
        lsm.compact().unwrap();
        let snapshot = lsm.snapshot();
        assert_eq!(snapshot.runs().len(), 1);
        assert_packed(&snapshot.runs()[0]);
    }
}
