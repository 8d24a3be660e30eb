//! On-disk layout shared by Coconut-Tree and Coconut-Trie.
//!
//! An index file is:
//!
//! ```text
//! [ header, 4 KiB reserved ]
//! [ leaf 0 ][ leaf 1 ] ...                  <- written bottom-up, in order
//! [ directory: LeafMeta per logical leaf ]
//! [ index-specific tail (e.g. trie nodes) ]
//! ```
//!
//! Leaves are packed back to back: each starts at the byte where the one
//! before it ends and takes exactly `count × entry_bytes`, so a part-full
//! leaf costs no more than its entries. Occupancy is still reported against
//! the capacity a leaf was cut for ([`crate::SortedLeafIndex::avg_fill`]),
//! which is how the paper's Figure 8c compares the indexes. Bulk loading
//! writes leaves strictly left-to-right (sequential I/O), and nothing
//! writes the file after the build.
//!
//! ## The leaf
//!
//! A leaf is stored as the block a query scans ([`LeafCodec`]). Its `count`
//! entries, in `(key, position)` order, are laid out column by column:
//!
//! ```text
//! [ symbols: segments × count ][ positions: pos_bytes × count ]
//! [ payload CRCs: 4 × count ][ payloads ]          <- materialized only
//! ```
//!
//! The symbols are segment-major: entry `e`'s segment `j` sits at
//! `j * count + e`, the layout
//! [`coconut_summary::QueryDistTable::bounds_under`] reads. Positions are
//! little-endian raw-file positions of `pos_bytes` bytes each, the fewest
//! that hold the largest position the index covers ([`pos_bytes`]): 3 at
//! a million series. Materialized (`-Full`) leaves follow them with one
//! [`crc32`] per entry's payload, then the payloads themselves (`series_len`
//! little-endian `f32`s each).
//!
//! A pointer entry is therefore `segments + pos_bytes` bytes: 19 at the
//! default 16 segments and a million series. The z-order key orders the
//! entries but is not stored. The bulk loader de-interleaves each leaf's
//! keys once, when it writes the leaf; each leaf's first key lives in the
//! directory, and the readers that need every key (LSM merges)
//! re-interleave them
//! ([`coconut_summary::mindist::SymbolDecoder::interleave_into`]).
//!
//! ## One version
//!
//! Header byte 48 is the trie tail's version and byte 50 the layout
//! version, [`LAYOUT_VERSION`]. That version covers:
//!
//! - the leaf layout above, with `pos_bytes` in header byte 51;
//! - header byte 52, reserved for a refinement column and 0 until one is
//!   written;
//! - a `DIR3` directory locating each leaf by its byte offset, with one
//!   CRC per leaf and a whole-directory CRC;
//! - the header's own CRC in bytes 60..64.
//!
//! A file of any other layout, directory or tail version is refused at open
//! with an [`Error::Corrupt`] naming the version, never misread. A leaf's
//! directory CRC covers the columns the scan reads (symbols and positions),
//! and is checked before their bytes are used — read
//! ([`LeafStore::read_leaf`]) or borrowed from a mapping of the file
//! ([`LeafStore::check_leaf`]). A payload is used only through
//! [`LeafStore::read_leaf`], which checks every payload CRC of the leaf it
//! reads. Bit rot therefore surfaces as a typed error instead of a wrong
//! answer.

use std::ops::Range;
use std::sync::Arc;

use coconut_series::Value;
use coconut_storage::{crc64, CountedFile, Error, Result};
use coconut_summary::mindist::SymbolDecoder;
use coconut_summary::{SaxConfig, ZKey};

/// Offset of the first leaf (the header page).
pub const LEAF_REGION_OFFSET: u64 = 4096;

const HEADER_MAGIC: &[u8; 8] = b"CCNTIX01";
/// The directory format: per-leaf byte offset and CRC, whole-directory CRC.
const DIR_MAGIC: &[u8; 4] = b"DIR3";

/// The layout version this build writes and reads (header byte 50).
pub const LAYOUT_VERSION: u8 = 3;

/// The 32-bit CRC of leaves, payloads, directories and headers: the low
/// half of the storage layer's CRC-64, which keeps one kernel for every
/// on-disk checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc64(bytes) as u32
}

/// The fewest bytes (1 to 8) that hold `largest`, the largest position an
/// index stores.
pub fn pos_bytes(largest: u64) -> usize {
    ((u64::BITS - largest.leading_zeros()).div_ceil(8) as usize).max(1)
}

/// The entries of one leaf, column by column and in `(key, position)`
/// order: what [`LeafCodec::encode`] writes and [`LeafCodec::decode`] reads
/// back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafEntries {
    keys: Vec<ZKey>,
    pos: Vec<u64>,
    /// The entries' series, back to back as little-endian `f32`s (empty for
    /// pointer leaves).
    payloads: Vec<u8>,
}

impl LeafEntries {
    /// The entries' z-order keys.
    pub fn keys(&self) -> &[ZKey] {
        &self.keys
    }

    /// The entries' raw-file positions.
    pub fn pos(&self) -> &[u64] {
        &self.pos
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drop every entry, keeping the buffers.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.pos.clear();
        self.payloads.clear();
    }

    /// Append an entry; `series` is its payload (`None` for pointer leaves).
    pub fn push(&mut self, key: ZKey, pos: u64, series: Option<&[Value]>) {
        self.keys.push(key);
        self.pos.push(pos);
        if let Some(series) = series {
            for v in series {
                self.payloads.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// The payload bytes of entry `i` (empty for pointer leaves).
    pub fn payload(&self, i: usize) -> &[u8] {
        let stride = self.payloads.len() / self.len().max(1);
        &self.payloads[i * stride..(i + 1) * stride]
    }
}

/// A leaf's stored positions: little-endian integers of one width.
#[derive(Debug, Clone, Copy)]
pub struct Positions<'a> {
    bytes: &'a [u8],
    width: usize,
}

impl<'a> Positions<'a> {
    /// The positions stored in `bytes`, `width` bytes each.
    pub fn new(bytes: &'a [u8], width: usize) -> Self {
        debug_assert!((1..=8).contains(&width) && bytes.len().is_multiple_of(width));
        Positions { bytes, width }
    }

    /// Positions stored.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// True when no position is stored.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Position `i`: one unaligned 8-byte load, masked to the width, for
    /// every position with 8 bytes of the column from its start.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len());
        let at = i * self.width;
        let word = match self.bytes.get(at..at + 8) {
            Some(eight) => crate::le::u64(eight),
            None => {
                let mut eight = [0; 8];
                eight[..self.width].copy_from_slice(&self.bytes[at..at + self.width]);
                u64::from_le_bytes(eight)
            }
        };
        word & (u64::MAX >> (64 - 8 * self.width))
    }

    /// Whether every position lies in `range`: one pass per width, so
    /// each position is a fixed-size load the compiler unrolls, folded
    /// into the smallest and the largest.
    pub fn all_within(&self, range: &Range<u64>) -> bool {
        fn min_max<const W: usize>(bytes: &[u8]) -> (u64, u64) {
            bytes
                .chunks_exact(W)
                .map(|p| {
                    let mut eight = [0; 8];
                    eight[..W].copy_from_slice(p);
                    u64::from_le_bytes(eight)
                })
                .fold((u64::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)))
        }
        if self.is_empty() {
            return true;
        }
        let (lo, hi) = match self.width {
            1 => min_max::<1>(self.bytes),
            2 => min_max::<2>(self.bytes),
            3 => min_max::<3>(self.bytes),
            4 => min_max::<4>(self.bytes),
            5 => min_max::<5>(self.bytes),
            6 => min_max::<6>(self.bytes),
            7 => min_max::<7>(self.bytes),
            _ => min_max::<8>(self.bytes),
        };
        range.contains(&lo) && range.contains(&hi)
    }
}

/// A stored leaf split into its parts ([`LeafCodec::parts`]).
#[derive(Debug, Clone, Copy)]
pub struct LeafParts<'a> {
    /// The entries' SAX symbols, segment-major.
    symbols: &'a [u8],
    /// The entries' positions.
    positions: Positions<'a>,
    /// The [`crc32`] of each entry's payload (empty for pointer leaves).
    payload_crcs: &'a [u8],
    /// The entries' payloads (empty for pointer leaves).
    payloads: &'a [u8],
}

impl LeafParts<'_> {
    /// Entries in the leaf.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the leaf holds no entry.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The raw-file position of entry `slot`.
    #[inline]
    pub fn pos(&self, slot: usize) -> u64 {
        self.positions.get(slot)
    }

    /// Entry `slot`'s payload bytes (materialized leaves only).
    fn payload(&self, slot: usize) -> &[u8] {
        let stride = self.payloads.len() / self.len();
        &self.payloads[stride * slot..stride * (slot + 1)]
    }

    /// Decode entry `slot`'s payload into `out` (materialized leaves only).
    #[inline]
    pub fn series_into(&self, slot: usize, out: &mut [Value]) {
        let bytes = &self.payloads[4 * out.len() * slot..4 * out.len() * (slot + 1)];
        for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = crate::le::f32(chunk);
        }
    }
}

/// How a leaf's entries lie on disk ([the leaf](self#the-leaf)): the one
/// codec every leaf writer and reader goes through.
#[derive(Debug, Clone)]
pub struct LeafCodec {
    symbols: SymbolDecoder,
    pos_bytes: usize,
    payload_bytes: usize,
}

impl LeafCodec {
    /// The codec of leaves under `sax` whose positions take `pos_bytes`
    /// bytes each, with payloads if `materialized`.
    pub fn new(sax: &SaxConfig, materialized: bool, pos_bytes: usize) -> Self {
        debug_assert!((1..=8).contains(&pos_bytes));
        LeafCodec {
            symbols: SymbolDecoder::new(sax),
            pos_bytes,
            payload_bytes: if materialized { 4 * sax.series_len } else { 0 },
        }
    }

    fn segments(&self) -> usize {
        self.symbols.config().segments
    }

    /// Whether leaves carry payloads.
    pub fn is_materialized(&self) -> bool {
        self.payload_bytes > 0
    }

    /// Bytes per stored position.
    pub fn pos_bytes(&self) -> usize {
        self.pos_bytes
    }

    /// Bytes per entry of the columns the scan reads: its symbols and its
    /// position.
    fn scanned_bytes(&self) -> usize {
        self.segments() + self.pos_bytes
    }

    /// The columns the scan reads of `leaf`, the stored bytes of a whole
    /// leaf: its symbols and positions, which its directory CRC covers.
    pub fn scanned<'a>(&self, leaf: &'a [u8]) -> &'a [u8] {
        &leaf[..leaf.len() / self.entry_bytes() * self.scanned_bytes()]
    }

    /// Bytes per entry: its symbols, its position and, materialized, its
    /// payload's CRC and its payload.
    pub fn entry_bytes(&self) -> usize {
        let payload = if self.is_materialized() {
            4 + self.payload_bytes
        } else {
            0
        };
        self.scanned_bytes() + payload
    }

    /// Append the leaf holding `entries` to `out`: their keys
    /// de-interleaved into the symbol block, then their positions and, if
    /// materialized, the payloads' CRCs and the payloads. `entries` must
    /// carry payloads iff the codec is materialized, and every position
    /// must fit the codec's width.
    pub fn encode(&self, entries: &LeafEntries, out: &mut Vec<u8>) {
        debug_assert_eq!(
            entries.payloads.len(),
            entries.len() * self.payload_bytes,
            "payloads must match the codec"
        );
        let start = out.len();
        out.resize(start + entries.len() * self.segments(), 0);
        self.symbols.decode_into(&entries.keys, &mut out[start..]);
        for p in &entries.pos {
            debug_assert!(pos_bytes(*p) <= self.pos_bytes, "position {p} too wide");
            out.extend_from_slice(&p.to_le_bytes()[..self.pos_bytes]);
        }
        if self.is_materialized() {
            for payload in entries.payloads.chunks_exact(self.payload_bytes) {
                out.extend_from_slice(&crc32(payload).to_le_bytes());
            }
            out.extend_from_slice(&entries.payloads);
        }
    }

    /// Split `leaf`, the stored bytes of a whole leaf, into its parts.
    pub fn parts<'a>(&self, leaf: &'a [u8]) -> LeafParts<'a> {
        debug_assert_eq!(leaf.len() % self.entry_bytes(), 0);
        let count = leaf.len() / self.entry_bytes();
        let (symbols, rest) = leaf.split_at(count * self.segments());
        let (positions, rest) = rest.split_at(count * self.pos_bytes);
        let crcs = if self.is_materialized() { 4 * count } else { 0 };
        let (payload_crcs, payloads) = rest.split_at(crcs);
        LeafParts {
            symbols,
            positions: Positions::new(positions, self.pos_bytes),
            payload_crcs,
            payloads,
        }
    }

    /// Decode the stored leaf `leaf` into `out`: the keys re-interleaved
    /// from the symbols, the positions widened and the payloads as they
    /// are.
    pub fn decode(&self, leaf: &[u8], out: &mut LeafEntries) {
        let parts = self.parts(leaf);
        out.keys.clear();
        out.keys.resize(parts.len(), ZKey::MIN);
        self.symbols.interleave_into(parts.symbols, &mut out.keys);
        out.pos.clear();
        out.pos.extend((0..parts.len()).map(|e| parts.pos(e)));
        out.payloads.clear();
        out.payloads.extend_from_slice(parts.payloads);
    }
}

/// Metadata of one logical leaf, in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafMeta {
    /// Smallest key in the leaf.
    pub first_key: ZKey,
    /// Number of entries.
    pub count: u32,
    /// Byte offset of the leaf in the index file; it takes `count ×`
    /// [`LeafCodec::entry_bytes`] from there.
    pub offset: u64,
    /// [`crc32`] over the columns the scan reads: the leaf's symbols and
    /// positions.
    pub crc: u32,
}

const LEAF_META_BYTES: usize = 16 + 4 + 8 + 4;

/// The fixed index-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHeader {
    /// 0 = Coconut-Tree, 1 = Coconut-Trie (distinguishes tails).
    pub kind: u8,
    /// Whether entries embed raw series.
    pub materialized: bool,
    /// Series length in points.
    pub series_len: u32,
    /// SAX segments.
    pub segments: u16,
    /// SAX bits per symbol.
    pub card_bits: u8,
    /// The entries a leaf is cut for; a trie leaf of duplicate keys may
    /// hold more.
    pub leaf_capacity: u32,
    /// Total entries in the index.
    pub entry_count: u64,
    /// Byte offset of the directory.
    pub dir_offset: u64,
    /// Encoding version of the index-specific tail (the trie's; a tree has
    /// no tail and writes 0).
    pub tail_version: u8,
    /// [`crate::split::SplitPolicyKind::as_u8`] of the policy the index was
    /// built under.
    pub split_policy: u8,
    /// Bytes per stored position, 1 to 8 ([`pos_bytes`] of the largest
    /// position the index covers).
    pub pos_bytes: u8,
}

impl IndexHeader {
    fn encode(&self) -> [u8; 64] {
        let mut h = [0u8; 64];
        h[..8].copy_from_slice(HEADER_MAGIC);
        h[8] = self.kind;
        h[9] = self.materialized as u8;
        h[10] = self.card_bits;
        h[12..14].copy_from_slice(&self.segments.to_le_bytes());
        h[16..20].copy_from_slice(&self.series_len.to_le_bytes());
        h[20..24].copy_from_slice(&self.leaf_capacity.to_le_bytes());
        h[24..32].copy_from_slice(&self.entry_count.to_le_bytes());
        h[40..48].copy_from_slice(&self.dir_offset.to_le_bytes());
        h[48] = self.tail_version;
        h[49] = self.split_policy;
        h[50] = LAYOUT_VERSION;
        h[51] = self.pos_bytes;
        let crc = crc32(&h[..60]);
        h[60..64].copy_from_slice(&crc.to_le_bytes());
        h
    }

    fn decode(h: &[u8; 64]) -> Result<Self> {
        if &h[..8] != HEADER_MAGIC {
            return Err(Error::corrupt("bad index magic"));
        }
        if h[50] != LAYOUT_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported index layout version {} (this build reads version {LAYOUT_VERSION})",
                h[50]
            )));
        }
        if crc32(&h[..60]) != crate::le::u32(&h[60..64]) {
            return Err(Error::corrupt("index header checksum mismatch"));
        }
        if !(1..=8).contains(&h[51]) {
            return Err(Error::corrupt(format!(
                "index positions of {} bytes (1 to 8 are stored)",
                h[51]
            )));
        }
        if h[52] != 0 {
            return Err(Error::corrupt(format!(
                "index refinement column of {} bits (this build writes none)",
                h[52]
            )));
        }
        Ok(IndexHeader {
            kind: h[8],
            materialized: h[9] != 0,
            card_bits: h[10],
            segments: crate::le::u16(&h[12..14]),
            series_len: crate::le::u32(&h[16..20]),
            leaf_capacity: crate::le::u32(&h[20..24]),
            entry_count: crate::le::u64(&h[24..32]),
            dir_offset: crate::le::u64(&h[40..48]),
            tail_version: h[48],
            split_policy: h[49],
            pos_bytes: h[51],
        })
    }

    /// Write the header at offset 0.
    pub fn write_to(&self, file: &CountedFile) -> Result<()> {
        file.write_all_at(&self.encode(), 0)
    }

    /// Read and validate the header.
    pub fn read_from(file: &CountedFile) -> Result<Self> {
        let mut h = [0u8; 64];
        read_index(file, &mut h, 0)?;
        Self::decode(&h)
    }
}

/// Read `buf.len()` bytes of the index file at `offset`: every read `open`
/// makes (header, directory, tail) goes through here, the `index.read`
/// fault site ([`coconut_storage::fault`]).
pub(crate) fn read_index(file: &CountedFile, buf: &mut [u8], offset: u64) -> Result<()> {
    coconut_storage::fault::check("index.read")?;
    file.read_exact_at(buf, offset)
}

/// Serialize the leaf directory at the current end of `file`; returns its
/// offset. Each record carries the leaf's CRC, and a whole-directory
/// [`crc32`] follows the records so a torn or bit-rotted directory is
/// detected at open time.
pub fn write_directory(file: &CountedFile, leaves: &[LeafMeta]) -> Result<u64> {
    let mut buf = Vec::with_capacity(12 + leaves.len() * LEAF_META_BYTES + 4);
    buf.extend_from_slice(DIR_MAGIC);
    buf.extend_from_slice(&(leaves.len() as u64).to_le_bytes());
    for l in leaves {
        buf.extend_from_slice(&l.first_key.0.to_le_bytes());
        buf.extend_from_slice(&l.count.to_le_bytes());
        buf.extend_from_slice(&l.offset.to_le_bytes());
        buf.extend_from_slice(&l.crc.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    file.append(&buf)
}

/// Read a directory written by [`write_directory`]; returns the leaves and
/// the offset just past the directory (where the tail starts).
pub fn read_directory(file: &CountedFile, offset: u64) -> Result<(Vec<LeafMeta>, u64)> {
    let mut head = [0u8; 12];
    read_index(file, &mut head, offset)?;
    match &head[..4] {
        m if m == DIR_MAGIC => {}
        m if m.starts_with(b"DIR") => {
            return Err(Error::corrupt(format!(
                "unsupported index directory version {} (this build reads DIR3)",
                String::from_utf8_lossy(m)
            )))
        }
        _ => return Err(Error::corrupt("bad directory magic")),
    }
    let n = crate::le::u64(&head[4..12]);
    // The records, then the CRC of everything before it.
    let bytes = n
        .checked_mul(LEAF_META_BYTES as u64)
        .and_then(|records| records.checked_add(4))
        .filter(|&b| offset.saturating_add(12).saturating_add(b) <= file.len())
        .ok_or_else(|| Error::corrupt(format!("index directory of {n} leaves is truncated")))?;
    let mut buf = head.to_vec();
    buf.resize(12 + bytes as usize, 0);
    read_index(file, &mut buf[12..], offset + 12)?;
    let (payload, stored) = buf.split_at(buf.len() - 4);
    if crc32(payload) != crate::le::u32(stored) {
        return Err(Error::corrupt("index directory checksum mismatch"));
    }
    let leaves = payload[12..]
        .chunks_exact(LEAF_META_BYTES)
        .map(|c| LeafMeta {
            first_key: ZKey(crate::le::u128(&c[..16])),
            count: crate::le::u32(&c[16..20]),
            offset: crate::le::u64(&c[20..28]),
            crc: crate::le::u32(&c[28..32]),
        })
        .collect();
    Ok((leaves, offset + buf.len() as u64))
}

/// Reader of the leaves of an index file.
#[derive(Debug, Clone)]
pub struct LeafStore {
    file: Arc<CountedFile>,
    codec: LeafCodec,
}

impl LeafStore {
    /// A store over `file` whose leaves `codec` lays out.
    pub fn new(file: Arc<CountedFile>, codec: LeafCodec) -> Self {
        LeafStore { file, codec }
    }

    /// The leaf codec.
    pub fn codec(&self) -> &LeafCodec {
        &self.codec
    }

    /// The underlying file.
    pub fn file(&self) -> &Arc<CountedFile> {
        &self.file
    }

    /// Where in the file `leaf` lies.
    pub fn leaf_span(&self, leaf: &LeafMeta) -> Range<u64> {
        let len = leaf.count as u64 * self.codec.entry_bytes() as u64;
        leaf.offset..leaf.offset.saturating_add(len)
    }

    /// Check `scanned`, the symbols and positions of leaf number `index`
    /// ([`LeafCodec::scanned`]), against the leaf's CRC: a mismatch is an
    /// [`Error::Corrupt`] naming the leaf.
    pub fn check_leaf(&self, index: usize, leaf: &LeafMeta, scanned: &[u8]) -> Result<()> {
        if crc32(scanned) != leaf.crc {
            return Err(Error::corrupt(format!(
                "leaf {index} (byte {}, {} entries) failed checksum",
                leaf.offset, leaf.count
            )));
        }
        Ok(())
    }

    /// Read the stored bytes of leaf number `index` into `buf` (resized to
    /// fit) and check them: its symbols and positions against the leaf's
    /// CRC ([`LeafStore::check_leaf`]), then every payload against its own
    /// CRC, a mismatch naming the payload's position. The read is the
    /// `leaf.read` fault site ([`coconut_storage::fault`]).
    pub fn read_leaf(&self, index: usize, leaf: &LeafMeta, buf: &mut Vec<u8>) -> Result<()> {
        coconut_storage::fault::check("leaf.read")?;
        let span = self.leaf_span(leaf);
        buf.resize((span.end - span.start) as usize, 0);
        self.file.read_exact_at(buf, span.start)?;
        self.check_leaf(index, leaf, self.codec.scanned(buf))?;
        let parts = self.codec.parts(buf);
        for (slot, crc) in parts.payload_crcs.chunks_exact(4).enumerate() {
            if crc32(parts.payload(slot)) != crate::le::u32(crc) {
                return Err(Error::corrupt(format!(
                    "payload of position {} (leaf {index}) failed checksum",
                    parts.pos(slot)
                )));
            }
        }
        Ok(())
    }
}

/// What a full-index checksum scan found — the per-run unit of
/// `coconut scrub`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Leaves whose CRC was verified clean.
    pub checked: u64,
}

impl ScrubReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: ScrubReport) {
        self.checked += other.checked;
    }
}

/// Read every leaf once, verifying it against its directory CRC and its
/// payload CRCs. Returns on the first corrupt leaf with the
/// [`Error::Corrupt`] naming it.
pub fn scrub_leaves(store: &LeafStore, leaves: &[LeafMeta]) -> Result<ScrubReport> {
    let mut buf = Vec::new();
    for (index, leaf) in leaves.iter().enumerate() {
        store.read_leaf(index, leaf, &mut buf)?;
    }
    Ok(ScrubReport {
        checked: leaves.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::{IoStats, TempDir};
    use coconut_summary::zorder::interleave;

    fn mk_file(dir: &TempDir) -> Arc<CountedFile> {
        Arc::new(CountedFile::create(dir.path().join("ix.bin"), Arc::new(IoStats::new())).unwrap())
    }

    fn sax(segments: usize, series_len: usize) -> SaxConfig {
        SaxConfig {
            series_len,
            segments,
            card_bits: 8,
        }
    }

    /// `count` sorted entries under `sax`: key `i` interleaves symbols
    /// derived from `i`, positions count down from 10,000, and payloads (if
    /// `materialized`) hold `i` and its negation.
    fn entries(sax: &SaxConfig, count: usize, materialized: bool) -> LeafEntries {
        let mut e = LeafEntries::default();
        let mut rows: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                (0..sax.segments)
                    .map(|j| (i * 7 + j * 31 + i / 3) as u8)
                    .collect()
            })
            .collect();
        rows.sort_by_key(|r| interleave(r, sax.card_bits));
        for (i, row) in rows.iter().enumerate() {
            let series: Vec<Value> = (0..sax.series_len)
                .map(|p| if p % 2 == 0 { i as f32 } else { -(i as f32) })
                .collect();
            let payload = materialized.then_some(series.as_slice());
            e.push(interleave(row, sax.card_bits), 10_000 - i as u64, payload);
        }
        e
    }

    fn header() -> IndexHeader {
        IndexHeader {
            kind: 1,
            materialized: true,
            series_len: 256,
            segments: 16,
            card_bits: 8,
            leaf_capacity: 2000,
            entry_count: 123_456,
            dir_offset: 99_999,
            tail_version: 1,
            split_policy: 1,
            pos_bytes: 3,
        }
    }

    #[test]
    fn entry_layout_roundtrip_nonmaterialized() {
        let s = sax(16, 64);
        let codec = LeafCodec::new(&s, false, 2);
        assert_eq!(codec.entry_bytes(), 18);
        let one = entries(&s, 1, false);
        let mut leaf = Vec::new();
        codec.encode(&one, &mut leaf);
        assert_eq!(leaf.len(), 18);
        let parts = codec.parts(&leaf);
        assert_eq!(parts.pos(0), 10_000);
        let mut back = LeafEntries::default();
        codec.decode(&leaf, &mut back);
        assert_eq!(back, one);
    }

    #[test]
    fn entry_layout_roundtrip_materialized() {
        let s = sax(4, 4);
        let codec = LeafCodec::new(&s, true, 1);
        assert_eq!(codec.entry_bytes(), 4 + 1 + 4 + 16);
        let mut one = LeafEntries::default();
        let series = [1.5f32, -2.0, 0.0, 42.0];
        one.push(interleave(&[1, 2, 3, 4], 8), 3, Some(&series));
        let mut leaf = Vec::new();
        codec.encode(&one, &mut leaf);
        let parts = codec.parts(&leaf);
        assert_eq!(parts.symbols, [1, 2, 3, 4]);
        assert_eq!(parts.pos(0), 3);
        assert_eq!(parts.payload_crcs, crc32(one.payload(0)).to_le_bytes());
        let mut out = [0f32; 4];
        parts.series_into(0, &mut out);
        assert_eq!(out, series);
        let mut back = LeafEntries::default();
        codec.decode(&leaf, &mut back);
        assert_eq!(back, one);
    }

    #[test]
    fn pos_bytes_is_the_narrowest_width() {
        assert_eq!(pos_bytes(0), 1);
        for width in 1..=8usize {
            let largest = u64::MAX >> (64 - 8 * width);
            assert_eq!(pos_bytes(largest), width, "{largest:#x}");
            if width < 8 {
                assert_eq!(pos_bytes(largest + 1), width + 1, "{:#x}", largest + 1);
            }
        }
        // A million series: positions up to 999,999 take 3 bytes.
        assert_eq!(pos_bytes(999_999), 3);
    }

    #[test]
    fn positions_roundtrip_at_every_width_boundary() {
        // For each width, the largest position it holds and the first one
        // that needs the next width, each stored at the width that fits it,
        // in leaves of 1, 2 and 9 entries, so a position is decoded both
        // with 8 bytes of the column ahead of it and without.
        let s = sax(4, 4);
        let key = interleave(&[1, 2, 3, 4], 8);
        for width in 1..=8usize {
            let largest = u64::MAX >> (64 - 8 * width);
            for p in [largest, largest.wrapping_add(1)] {
                if p == 0 {
                    continue; // past u64::MAX
                }
                let codec = LeafCodec::new(&s, false, pos_bytes(p));
                for count in [1usize, 2, 9] {
                    let mut e = LeafEntries::default();
                    for i in 0..count {
                        e.push(key, p - (count - 1 - i) as u64, None);
                    }
                    let mut leaf = Vec::new();
                    codec.encode(&e, &mut leaf);
                    assert_eq!(leaf.len(), count * (4 + pos_bytes(p)));
                    let parts = codec.parts(&leaf);
                    let got: Vec<u64> = (0..count).map(|i| parts.pos(i)).collect();
                    assert_eq!(got, e.pos, "position {p:#x}, {count} entries");
                    let mut back = LeafEntries::default();
                    codec.decode(&leaf, &mut back);
                    assert_eq!(back, e);
                }
            }
        }
    }

    #[test]
    fn all_within_is_the_per_entry_range_check_at_every_width() {
        for width in 1..=8usize {
            let top = u64::MAX >> (64 - 8 * width);
            let values = [0, 1, top / 3, top - 1, top];
            for count in [0usize, 1, 2, 5, 13] {
                let stored: Vec<u64> = (0..count).map(|i| values[i * 7 % 5]).collect();
                let bytes: Vec<u8> = stored
                    .iter()
                    .flat_map(|p| p.to_le_bytes()[..width].to_vec())
                    .collect();
                let positions = Positions::new(&bytes, width);
                for range in [0..top, 1..top, 0..top.saturating_add(1), top / 3..top, 5..5] {
                    let each = (0..count).all(|i| range.contains(&positions.get(i)));
                    assert_eq!(
                        positions.all_within(&range),
                        each,
                        "width {width}, {count} entries, {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_leaf_roundtrips_to_the_decoders_symbols() {
        // Pointer and materialized leaves of 1, 7 and 2,001 entries store
        // `SymbolDecoder`'s block, then the positions, then the payload
        // CRCs and the payloads, and decode back to the entries written.
        let s = sax(16, 8);
        for materialized in [false, true] {
            let codec = LeafCodec::new(&s, materialized, 2);
            for count in [1usize, 7, 2001] {
                let e = entries(&s, count, materialized);
                let mut leaf = vec![0xAB]; // encode appends
                codec.encode(&e, &mut leaf);
                let leaf = &leaf[1..];
                assert_eq!(leaf.len(), count * codec.entry_bytes());
                let parts = codec.parts(leaf);
                let mut symbols = vec![0; count * 16];
                SymbolDecoder::new(&s).decode_into(&e.keys, &mut symbols);
                assert_eq!(parts.symbols, symbols);
                let pos: Vec<u64> = (0..count).map(|i| parts.pos(i)).collect();
                assert_eq!(pos, e.pos);
                assert_eq!(parts.payloads, e.payloads);
                let crcs: Vec<u8> = (0..count)
                    .filter(|_| materialized)
                    .flat_map(|i| crc32(e.payload(i)).to_le_bytes())
                    .collect();
                assert_eq!(parts.payload_crcs, crcs);
                let mut back = LeafEntries::default();
                codec.decode(leaf, &mut back);
                assert_eq!(back, e, "mat={materialized} count={count}");
            }
        }
    }

    #[test]
    fn header_roundtrip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let h = header();
        h.write_to(&f).unwrap();
        assert_eq!(IndexHeader::read_from(&f).unwrap(), h);
    }

    #[test]
    fn checksummed_header_detects_bit_flip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let h = header();
        h.write_to(&f).unwrap();
        // Flip a bit inside the checksummed prefix (entry_count).
        let mut raw = h.encode();
        raw[24] ^= 0x01;
        f.write_all_at(&raw, 0).unwrap();
        let err = IndexHeader::read_from(&f).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");
    }

    /// `header()` with byte `at` set to `value` under a valid header CRC.
    fn rewritten(at: usize, value: u8) -> [u8; 64] {
        let mut raw = header().encode();
        raw[at] = value;
        let crc = crc32(&raw[..60]);
        raw[60..64].copy_from_slice(&crc.to_le_bytes());
        raw
    }

    #[test]
    fn old_header_version_is_refused() {
        // Layout 2 stored 8-byte positions in padded blocks, layout 1
        // interleaved keys, layout 0 no checksums. All are refused by
        // version, checksum or not.
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        for version in [0u8, 1, 2, 4] {
            f.write_all_at(&rewritten(50, version), 0).unwrap();
            match IndexHeader::read_from(&f) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("layout version {version}")), "{msg}")
                }
                other => panic!("version {version}: {other:?}"),
            }
        }
    }

    #[test]
    fn header_refuses_position_widths_and_refinement_it_cannot_read() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        for width in [0u8, 9, 255] {
            f.write_all_at(&rewritten(51, width), 0).unwrap();
            match IndexHeader::read_from(&f) {
                Err(Error::Corrupt(msg)) => {
                    assert!(
                        msg.contains(&format!("positions of {width} bytes")),
                        "{msg}"
                    )
                }
                other => panic!("width {width}: {other:?}"),
            }
        }
        for width in 1..=8u8 {
            f.write_all_at(&rewritten(51, width), 0).unwrap();
            assert_eq!(IndexHeader::read_from(&f).unwrap().pos_bytes, width);
        }
        for bits in [4u8, 8] {
            f.write_all_at(&rewritten(52, bits), 0).unwrap();
            match IndexHeader::read_from(&f) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("column of {bits} bits")), "{msg}")
                }
                other => panic!("refine bits {bits}: {other:?}"),
            }
        }
    }

    #[test]
    fn header_rejects_garbage() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        f.append(&[7u8; 64]).unwrap();
        assert!(IndexHeader::read_from(&f).is_err());
    }

    #[test]
    fn directory_roundtrip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        f.append(&[0u8; 100]).unwrap(); // arbitrary preceding content
        let leaves = vec![
            LeafMeta {
                first_key: ZKey(1),
                count: 10,
                offset: LEAF_REGION_OFFSET,
                crc: 0xDEAD_BEEF,
            },
            LeafMeta {
                first_key: ZKey(500),
                count: 2000,
                offset: LEAF_REGION_OFFSET + 190,
                crc: 7,
            },
            LeafMeta {
                first_key: ZKey(u128::MAX),
                count: 4100,
                offset: u64::MAX - 1,
                crc: 0,
            },
        ];
        let off = write_directory(&f, &leaves).unwrap();
        let (back, end) = read_directory(&f, off).unwrap();
        assert_eq!(back, leaves);
        assert_eq!(end, f.len());
    }

    #[test]
    fn old_directory_version_is_refused() {
        // The pre-checksum `DIR1` encoding (28-byte records, no CRCs) and
        // the block-numbered `DIR2` one.
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        for (magic, record) in [(b"DIR1", 28), (b"DIR2", 32)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(magic);
            buf.extend_from_slice(&1u64.to_le_bytes());
            buf.resize(buf.len() + record + 4, 0);
            let off = f.append(&buf).unwrap();
            let version = String::from_utf8_lossy(magic).into_owned();
            match read_directory(&f, off) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("version {version}")), "{msg}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_directory_is_detected() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let leaves = vec![LeafMeta {
            first_key: ZKey(42),
            count: 3,
            offset: LEAF_REGION_OFFSET,
            crc: 17,
        }];
        let off = write_directory(&f, &leaves).unwrap();
        // Flip one byte inside a directory record.
        let mut raw = [0u8; 1];
        f.read_exact_at(&mut raw, off + 13).unwrap();
        raw[0] ^= 0x40;
        f.write_all_at(&raw, off + 13).unwrap();
        let err = read_directory(&f, off).unwrap_err();
        assert!(err.to_string().contains("directory checksum"), "{err}");
        // A leaf count past the end of the file is truncation, not a huge
        // allocation.
        let mut count = [0u8; 8];
        count.copy_from_slice(&u64::MAX.to_le_bytes());
        f.write_all_at(&count, off + 4).unwrap();
        let err = read_directory(&f, off).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    /// Write entries `range` of `e` as the leaf at `offset` of `store`;
    /// returns its directory record.
    fn write(store: &LeafStore, offset: u64, e: &LeafEntries, range: Range<usize>) -> LeafMeta {
        let stride = e.payloads.len() / e.len();
        let part = LeafEntries {
            keys: e.keys[range.clone()].to_vec(),
            pos: e.pos[range.clone()].to_vec(),
            payloads: e.payloads[range.start * stride..range.end * stride].to_vec(),
        };
        let mut leaf = Vec::new();
        store.codec().encode(&part, &mut leaf);
        store.file().write_all_at(&leaf, offset).unwrap();
        LeafMeta {
            first_key: e.keys[range.start],
            count: range.len() as u32,
            offset,
            crc: crc32(store.codec().scanned(&leaf)),
        }
    }

    #[test]
    fn leafstore_write_read_roundtrip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let s = sax(16, 16);
        let store = LeafStore::new(f, LeafCodec::new(&s, false, 2));
        // Leaf 0 holds two entries, leaf 1 three, right after it.
        let e = entries(&s, 5, false);
        let leaf0 = write(&store, LEAF_REGION_OFFSET, &e, 0..2);
        let leaf1 = write(&store, store.leaf_span(&leaf0).end, &e, 2..5);
        assert_eq!(leaf1.offset, LEAF_REGION_OFFSET + 2 * 18);
        let mut buf = Vec::new();
        let mut back = LeafEntries::default();
        for (i, (leaf, range)) in [(leaf0, 0..2), (leaf1, 2..5)].into_iter().enumerate() {
            store.read_leaf(i, &leaf, &mut buf).unwrap();
            assert_eq!(buf.len(), range.len() * 18);
            store.codec().decode(&buf, &mut back);
            assert_eq!(back.keys, e.keys[range.clone()]);
            assert_eq!(back.pos, e.pos[range]);
        }
    }

    #[test]
    fn leaf_crc_mismatch_is_corrupt_not_wrong() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let s = sax(16, 16);
        let store = LeafStore::new(f.clone(), LeafCodec::new(&s, false, 2));
        let leaf = write(&store, LEAF_REGION_OFFSET, &entries(&s, 1, false), 0..1);
        // Reads verify fine, then a bit flips on disk (in the position).
        let mut buf = Vec::new();
        store.read_leaf(3, &leaf, &mut buf).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact_at(&mut byte, LEAF_REGION_OFFSET + 16).unwrap();
        byte[0] ^= 0x80;
        f.write_all_at(&byte, LEAF_REGION_OFFSET + 16).unwrap();
        let err = store.read_leaf(3, &leaf, &mut buf).unwrap_err();
        assert!(err.to_string().contains("leaf 3 "), "{err}");
        assert!(err.to_string().contains("failed checksum"), "{err}");
        // A CRC of 0 is a checksum like any other, not a pass.
        let zero = LeafMeta { crc: 0, ..leaf };
        assert!(store.read_leaf(3, &zero, &mut buf).is_err());
    }

    #[test]
    fn a_flipped_payload_names_its_position() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let s = sax(4, 4);
        let store = LeafStore::new(f.clone(), LeafCodec::new(&s, true, 2));
        let e = entries(&s, 5, true);
        let leaf = write(&store, LEAF_REGION_OFFSET, &e, 0..5);
        let mut buf = Vec::new();
        store.read_leaf(0, &leaf, &mut buf).unwrap();
        // Entry 3's payload CRC, then its payload: each flip fails the read
        // naming position 9,997, and the leaf CRC does not see it.
        let crcs = LEAF_REGION_OFFSET + 5 * (4 + 2);
        for at in [crcs + 3 * 4 + 1, crcs + 5 * 4 + 3 * 16 + 7] {
            let mut byte = [0u8; 1];
            f.read_exact_at(&mut byte, at).unwrap();
            f.write_all_at(&[byte[0] ^ 0x04], at).unwrap();
            match store.read_leaf(0, &leaf, &mut buf) {
                Err(Error::Corrupt(msg)) => {
                    assert!(msg.contains("payload of position 9997"), "{msg}")
                }
                other => panic!("{other:?}"),
            }
            let scanned = store.codec().scanned(&buf);
            assert!(store.check_leaf(0, &leaf, scanned).is_ok());
            f.write_all_at(&byte, at).unwrap();
        }
        store.read_leaf(0, &leaf, &mut buf).unwrap();
    }

    #[test]
    fn oversized_leaf_is_one_leaf() {
        // A leaf of more entries than any capacity is stored like any
        // other: `count × entry_bytes` from its offset, and the next leaf
        // right after it.
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let s = sax(16, 16);
        for materialized in [false, true] {
            let store = LeafStore::new(f.clone(), LeafCodec::new(&s, materialized, 2));
            let e = entries(&s, 6, materialized);
            let big = write(&store, LEAF_REGION_OFFSET, &e, 0..5);
            let next = write(&store, store.leaf_span(&big).end, &e, 5..6);
            let mut buf = Vec::new();
            let mut back = LeafEntries::default();
            store.read_leaf(0, &big, &mut buf).unwrap();
            assert_eq!(buf.len(), 5 * store.codec().entry_bytes());
            store.codec().decode(&buf, &mut back);
            assert_eq!(back.keys, e.keys[..5]);
            assert_eq!(back.pos, e.pos[..5]);
            assert_eq!(back.payloads, e.payloads[..e.payloads.len() * 5 / 6]);
            store.read_leaf(1, &next, &mut buf).unwrap();
            assert_eq!(store.codec().parts(&buf).pos(0), e.pos[5]);
        }
    }
}
