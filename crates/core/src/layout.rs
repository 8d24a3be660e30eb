//! On-disk layout shared by Coconut-Tree and Coconut-Trie.
//!
//! An index file is:
//!
//! ```text
//! [ header, 4 KiB reserved ]
//! [ leaf block 0 ][ leaf block 1 ] ...      <- written bottom-up, in order
//! [ directory: LeafMeta per logical leaf ]
//! [ index-specific tail (e.g. trie nodes) ]
//! ```
//!
//! Leaf blocks are fixed-size (`leaf_capacity * entry_bytes`), so occupancy
//! below capacity shows up as on-disk slack — exactly how the paper's
//! Figure 8c space-overhead comparison works. Bulk loading writes blocks
//! strictly left-to-right (sequential I/O); only post-build inserts can
//! append out-of-order blocks and break contiguity.
//!
//! Entries are `key (16B) | position (8B) [| series payload]`, the payload
//! being present in materialized (`-Full`) indexes.
//!
//! ## Checksums (layout checksum version 1)
//!
//! Current writers emit a `DIR2` directory carrying one CRC per leaf (over
//! that leaf's packed entry bytes) plus a whole-directory CRC, and a header
//! whose byte 50 records the checksum version with a header CRC in bytes
//! 60..64. [`LeafStore::read_leaf`] verifies a leaf's CRC on every read, so
//! bit rot surfaces as a typed [`Error::Corrupt`] instead of a wrong
//! answer. Legacy files (`DIR1`, header byte 50 zero) still decode — their
//! leaves carry CRC 0, meaning *unchecked*, and answer exactly as before.

use std::sync::Arc;

use coconut_series::Value;
use coconut_storage::{crc64, CountedFile, Error, Result};
use coconut_summary::ZKey;

/// Offset of the first leaf block (the header page).
pub const LEAF_REGION_OFFSET: u64 = 4096;

const HEADER_MAGIC: &[u8; 8] = b"CCNTIX01";
/// Legacy directory format: 28-byte records, no checksums.
const DIR_MAGIC_V1: &[u8; 4] = b"DIR1";
/// Checksummed directory format: per-leaf CRC + whole-directory CRC.
const DIR_MAGIC_V2: &[u8; 4] = b"DIR2";

/// The layout checksum version current writers emit (header byte 50).
pub const CHECKSUM_VERSION: u8 = 1;

/// The 32-bit CRC used for leaf blocks, directories, and headers: the
/// low half of the storage layer's CRC-64, which keeps one table for all
/// on-disk checksums. `0` is reserved to mean *unchecked* (legacy data);
/// a computed zero is mapped to 1, costing one in 2^32 checksums one bit
/// of strength.
pub fn crc32(bytes: &[u8]) -> u32 {
    match crc64(bytes) as u32 {
        0 => 1,
        c => c,
    }
}

/// Entry encoding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLayout {
    /// Points per series (payload length when materialized).
    pub series_len: usize,
    /// Whether entries embed the raw series.
    pub materialized: bool,
}

impl EntryLayout {
    /// Bytes per entry.
    pub fn entry_bytes(&self) -> usize {
        if self.materialized {
            24 + 4 * self.series_len
        } else {
            24
        }
    }

    /// Encode an entry into `buf` (sized `entry_bytes`). `series` must be
    /// `Some` iff the layout is materialized.
    pub fn encode(&self, key: ZKey, pos: u64, series: Option<&[Value]>, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.entry_bytes());
        buf[..16].copy_from_slice(&key.0.to_le_bytes());
        buf[16..24].copy_from_slice(&pos.to_le_bytes());
        if self.materialized {
            // API invariant, not input data: every materialized write site
            // passes a payload, so this can only panic on a caller bug.
            #[allow(clippy::expect_used)]
            let series = series.expect("materialized entry needs a payload");
            debug_assert_eq!(series.len(), self.series_len);
            for (i, &v) in series.iter().enumerate() {
                buf[24 + 4 * i..28 + 4 * i].copy_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// The key of an encoded entry.
    #[inline]
    pub fn key(&self, entry: &[u8]) -> ZKey {
        ZKey(crate::le::u128(&entry[..16]))
    }

    /// The raw-file position of an encoded entry.
    #[inline]
    pub fn pos(&self, entry: &[u8]) -> u64 {
        crate::le::u64(&entry[16..24])
    }

    /// Decode the embedded series into `out` (materialized layouts only).
    #[inline]
    pub fn series_into(&self, entry: &[u8], out: &mut [Value]) {
        debug_assert!(self.materialized);
        debug_assert_eq!(out.len(), self.series_len);
        for (i, chunk) in entry[24..24 + 4 * self.series_len]
            .chunks_exact(4)
            .enumerate()
        {
            out[i] = crate::le::f32(chunk);
        }
    }
}

/// Metadata of one logical leaf, in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafMeta {
    /// Smallest key in the leaf.
    pub first_key: ZKey,
    /// Number of entries.
    pub count: u32,
    /// First physical block number.
    pub block: u32,
    /// Consecutive physical blocks occupied (1 except for oversized trie
    /// leaves holding more duplicates than one block fits).
    pub blocks_used: u32,
    /// [`crc32`] over the leaf's packed entry bytes (`count` entries,
    /// padding excluded); 0 means unchecked (legacy `DIR1` directories).
    pub crc: u32,
}

const LEAF_META_BYTES_V1: usize = 16 + 4 + 4 + 4;
const LEAF_META_BYTES_V2: usize = LEAF_META_BYTES_V1 + 4;

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
    /// Max entries per leaf block.
    pub leaf_capacity: u32,
    /// Total entries in the index.
    pub entry_count: u64,
    /// Physical leaf blocks written.
    pub num_blocks: u64,
    /// Byte offset of the directory.
    pub dir_offset: u64,
    /// Encoding version of the index-specific tail. `0` is the original
    /// encoding (Coconut-Tree tail; binary trie node triples); `1` adds the
    /// variable-fanout trie node record. Pre-versioning files read as `0`
    /// because the header byte was reserved-zero.
    pub tail_version: u8,
    /// [`crate::split::SplitPolicyKind::as_u8`] of the policy the index was
    /// built under (reserved-zero = fixed on pre-versioning files).
    pub split_policy: u8,
    /// Layout checksum version (header byte 50): 0 = legacy, nothing
    /// checksummed; [`CHECKSUM_VERSION`] = header CRC in bytes 60..64 plus
    /// a `DIR2` directory with per-leaf CRCs. Readers accept both.
    pub checksums: u8,
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
        h[32..40].copy_from_slice(&self.num_blocks.to_le_bytes());
        h[40..48].copy_from_slice(&self.dir_offset.to_le_bytes());
        h[48] = self.tail_version;
        h[49] = self.split_policy;
        h[50] = self.checksums;
        if self.checksums != 0 {
            let crc = crc32(&h[..60]);
            h[60..64].copy_from_slice(&crc.to_le_bytes());
        }
        h
    }

    fn decode(h: &[u8; 64]) -> Result<Self> {
        if &h[..8] != HEADER_MAGIC {
            return Err(Error::corrupt("bad index magic"));
        }
        if h[50] != 0 {
            let stored = crate::le::u32(&h[60..64]);
            if crc32(&h[..60]) != stored {
                return Err(Error::corrupt("index header checksum mismatch"));
            }
        }
        Ok(IndexHeader {
            kind: h[8],
            materialized: h[9] != 0,
            card_bits: h[10],
            segments: crate::le::u16(&h[12..14]),
            series_len: crate::le::u32(&h[16..20]),
            leaf_capacity: crate::le::u32(&h[20..24]),
            entry_count: crate::le::u64(&h[24..32]),
            num_blocks: crate::le::u64(&h[32..40]),
            dir_offset: crate::le::u64(&h[40..48]),
            tail_version: h[48],
            split_policy: h[49],
            checksums: h[50],
        })
    }

    /// Write the header at offset 0.
    pub fn write_to(&self, file: &CountedFile) -> Result<()> {
        file.write_all_at(&self.encode(), 0)
    }

    /// Read and validate the header.
    pub fn read_from(file: &CountedFile) -> Result<Self> {
        let mut h = [0u8; 64];
        file.read_exact_at(&mut h, 0)?;
        Self::decode(&h)
    }
}

/// Serialize the leaf directory at the current end of `file`; returns its
/// offset. Emits the checksummed `DIR2` format: each record carries the
/// leaf's CRC, and a whole-directory [`crc32`] follows the records so a
/// torn or bit-rotted directory is detected at open time.
pub fn write_directory(file: &CountedFile, leaves: &[LeafMeta]) -> Result<u64> {
    let mut buf = Vec::with_capacity(12 + leaves.len() * LEAF_META_BYTES_V2 + 4);
    buf.extend_from_slice(DIR_MAGIC_V2);
    buf.extend_from_slice(&(leaves.len() as u64).to_le_bytes());
    for l in leaves {
        buf.extend_from_slice(&l.first_key.0.to_le_bytes());
        buf.extend_from_slice(&l.count.to_le_bytes());
        buf.extend_from_slice(&l.block.to_le_bytes());
        buf.extend_from_slice(&l.blocks_used.to_le_bytes());
        buf.extend_from_slice(&l.crc.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    file.append(&buf)
}

/// Read a directory written by [`write_directory`] (either `DIR2` or the
/// legacy `DIR1` format, whose leaves read back with CRC 0 = unchecked).
pub fn read_directory(file: &CountedFile, offset: u64) -> Result<(Vec<LeafMeta>, u64)> {
    let mut head = [0u8; 12];
    file.read_exact_at(&mut head, offset)?;
    let checksummed = match &head[..4] {
        m if m == DIR_MAGIC_V2 => true,
        m if m == DIR_MAGIC_V1 => false,
        _ => return Err(Error::corrupt("bad directory magic")),
    };
    let n = crate::le::u64(&head[4..12]) as usize;
    let meta_bytes = if checksummed {
        LEAF_META_BYTES_V2
    } else {
        LEAF_META_BYTES_V1
    };
    let mut buf = vec![0u8; n * meta_bytes];
    file.read_exact_at(&mut buf, offset + 12)?;
    let mut end = offset + 12 + (n * meta_bytes) as u64;
    if checksummed {
        let mut stored = [0u8; 4];
        file.read_exact_at(&mut stored, end)?;
        end += 4;
        let mut payload = Vec::with_capacity(12 + buf.len());
        payload.extend_from_slice(&head);
        payload.extend_from_slice(&buf);
        if crc32(&payload) != u32::from_le_bytes(stored) {
            return Err(Error::corrupt("index directory checksum mismatch"));
        }
    }
    let mut leaves = Vec::with_capacity(n);
    for c in buf.chunks_exact(meta_bytes) {
        leaves.push(LeafMeta {
            first_key: ZKey(crate::le::u128(&c[..16])),
            count: crate::le::u32(&c[16..20]),
            block: crate::le::u32(&c[20..24]),
            blocks_used: crate::le::u32(&c[24..28]),
            crc: if checksummed {
                crate::le::u32(&c[28..32])
            } else {
                0
            },
        });
    }
    Ok((leaves, end))
}

/// Reader/writer for fixed-size leaf blocks.
#[derive(Debug, Clone)]
pub struct LeafStore {
    file: Arc<CountedFile>,
    entry: EntryLayout,
    capacity: usize,
}

impl LeafStore {
    /// A store over `file` with the given entry layout and leaf capacity.
    pub fn new(file: Arc<CountedFile>, entry: EntryLayout, capacity: usize) -> Self {
        LeafStore {
            file,
            entry,
            capacity,
        }
    }

    /// The entry layout.
    pub fn entry(&self) -> &EntryLayout {
        &self.entry
    }

    /// Leaf capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes per physical block.
    pub fn block_bytes(&self) -> usize {
        self.capacity * self.entry.entry_bytes()
    }

    /// The underlying file.
    pub fn file(&self) -> &Arc<CountedFile> {
        &self.file
    }

    fn block_offset(&self, block: u32) -> u64 {
        LEAF_REGION_OFFSET + block as u64 * self.block_bytes() as u64
    }

    /// Read the entries of `leaf` into `buf` (resized to fit); afterwards
    /// `buf` holds `leaf.count` packed entries. When the leaf carries a CRC
    /// (checksummed `DIR2` directories) the packed bytes are verified and a
    /// mismatch surfaces as [`Error::Corrupt`] naming the block. The
    /// read is the `leaf.read` fault site ([`coconut_storage::fault`]).
    pub fn read_leaf(&self, leaf: &LeafMeta, buf: &mut Vec<u8>) -> Result<()> {
        coconut_storage::fault::check("leaf.read")?;
        let bytes = leaf.count as usize * self.entry.entry_bytes();
        debug_assert!(bytes <= leaf.blocks_used as usize * self.block_bytes());
        buf.resize(bytes, 0);
        self.file
            .read_exact_at(buf, self.block_offset(leaf.block))?;
        if leaf.crc != 0 && crc32(buf) != leaf.crc {
            return Err(Error::corrupt(format!(
                "leaf block {} failed checksum ({} entries)",
                leaf.block, leaf.count
            )));
        }
        Ok(())
    }

    /// Write `entries` (packed) as leaf `block`, zero-padding to the block
    /// boundary. `entries` may span multiple blocks for oversized leaves.
    pub fn write_leaf(&self, block: u32, entries: &[u8]) -> Result<u32> {
        debug_assert_eq!(entries.len() % self.entry.entry_bytes(), 0);
        let blocks_used = entries.len().div_ceil(self.block_bytes()).max(1) as u32;
        let mut padded = vec![0u8; blocks_used as usize * self.block_bytes()];
        padded[..entries.len()].copy_from_slice(entries);
        self.file.write_all_at(&padded, self.block_offset(block))?;
        Ok(blocks_used)
    }

    /// Slice entry `slot` out of a leaf buffer from [`LeafStore::read_leaf`].
    #[inline]
    pub fn entry_slice<'a>(&self, buf: &'a [u8], slot: usize) -> &'a [u8] {
        let eb = self.entry.entry_bytes();
        &buf[slot * eb..(slot + 1) * eb]
    }
}

/// What a full-index checksum scan found — the per-run unit of
/// `coconut scrub`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Leaves whose CRC was verified clean.
    pub checked: u64,
    /// Leaves carrying CRC 0 (legacy, nothing to verify against).
    pub unchecked: u64,
}

impl ScrubReport {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: ScrubReport) {
        self.checked += other.checked;
        self.unchecked += other.unchecked;
    }
}

/// Read every leaf once, verifying checksummed leaves against their
/// directory CRC. Returns on the first corrupt leaf with the
/// [`Error::Corrupt`] naming its block.
pub fn scrub_leaves(store: &LeafStore, leaves: &[LeafMeta]) -> Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let mut buf = Vec::new();
    for leaf in leaves {
        store.read_leaf(leaf, &mut buf)?;
        if leaf.crc == 0 {
            report.unchecked += 1;
        } else {
            report.checked += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::{IoStats, TempDir};

    fn mk_file(dir: &TempDir) -> Arc<CountedFile> {
        Arc::new(CountedFile::create(dir.path().join("ix.bin"), Arc::new(IoStats::new())).unwrap())
    }

    #[test]
    fn entry_layout_roundtrip_nonmaterialized() {
        let e = EntryLayout {
            series_len: 8,
            materialized: false,
        };
        assert_eq!(e.entry_bytes(), 24);
        let mut buf = vec![0u8; 24];
        e.encode(ZKey(999), 77, None, &mut buf);
        assert_eq!(e.key(&buf), ZKey(999));
        assert_eq!(e.pos(&buf), 77);
    }

    #[test]
    fn entry_layout_roundtrip_materialized() {
        let e = EntryLayout {
            series_len: 4,
            materialized: true,
        };
        assert_eq!(e.entry_bytes(), 40);
        let series = [1.5f32, -2.0, 0.0, 42.0];
        let mut buf = vec![0u8; 40];
        e.encode(ZKey(5), 3, Some(&series), &mut buf);
        assert_eq!(e.key(&buf), ZKey(5));
        assert_eq!(e.pos(&buf), 3);
        let mut out = [0f32; 4];
        e.series_into(&buf, &mut out);
        assert_eq!(out, series);
    }

    #[test]
    fn header_roundtrip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let h = IndexHeader {
            kind: 1,
            materialized: true,
            series_len: 256,
            segments: 16,
            card_bits: 8,
            leaf_capacity: 2000,
            entry_count: 123_456,
            num_blocks: 62,
            dir_offset: 99_999,
            tail_version: 1,
            split_policy: 1,
            checksums: CHECKSUM_VERSION,
        };
        h.write_to(&f).unwrap();
        assert_eq!(IndexHeader::read_from(&f).unwrap(), h);
    }

    #[test]
    fn checksummed_header_detects_bit_flip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let h = IndexHeader {
            kind: 0,
            materialized: false,
            series_len: 64,
            segments: 16,
            card_bits: 4,
            leaf_capacity: 100,
            entry_count: 9,
            num_blocks: 1,
            dir_offset: 4096,
            tail_version: 1,
            split_policy: 0,
            checksums: CHECKSUM_VERSION,
        };
        h.write_to(&f).unwrap();
        // Flip a bit inside the checksummed prefix (entry_count).
        let mut raw = h.encode();
        raw[24] ^= 0x01;
        f.write_all_at(&raw, 0).unwrap();
        let err = IndexHeader::read_from(&f).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");
    }

    #[test]
    fn reserved_zero_header_bytes_decode_as_fixed_legacy() {
        // Pre-versioning writers left bytes 48/49 zero; they must read back
        // as tail version 0 under the fixed policy.
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let h = IndexHeader {
            kind: 0,
            materialized: false,
            series_len: 64,
            segments: 16,
            card_bits: 4,
            leaf_capacity: 100,
            entry_count: 1,
            num_blocks: 1,
            dir_offset: 4096,
            tail_version: 0,
            split_policy: 0,
            checksums: 0,
        };
        h.write_to(&f).unwrap();
        let back = IndexHeader::read_from(&f).unwrap();
        assert_eq!(back.tail_version, 0);
        assert_eq!(back.split_policy, 0);
        assert_eq!(back.checksums, 0);
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
                block: 0,
                blocks_used: 1,
                crc: 0xDEAD_BEEF,
            },
            LeafMeta {
                first_key: ZKey(500),
                count: 2000,
                block: 1,
                blocks_used: 1,
                crc: 7,
            },
            LeafMeta {
                first_key: ZKey(u128::MAX),
                count: 4100,
                block: 2,
                blocks_used: 3,
                crc: 0,
            },
        ];
        let off = write_directory(&f, &leaves).unwrap();
        let (back, end) = read_directory(&f, off).unwrap();
        assert_eq!(back, leaves);
        assert_eq!(end, f.len());
    }

    #[test]
    fn legacy_dir1_directory_reads_unchecked() {
        // Hand-build the pre-checksum DIR1 encoding (28-byte records, no
        // trailing CRC) and confirm it decodes with crc = 0 on every leaf.
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let mut buf = Vec::new();
        buf.extend_from_slice(DIR_MAGIC_V1);
        buf.extend_from_slice(&2u64.to_le_bytes());
        for (key, count, block, used) in [(3u128, 5u32, 0u32, 1u32), (900, 7, 1, 2)] {
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
            buf.extend_from_slice(&block.to_le_bytes());
            buf.extend_from_slice(&used.to_le_bytes());
        }
        let off = f.append(&buf).unwrap();
        let (back, end) = read_directory(&f, off).unwrap();
        assert_eq!(end, f.len());
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].first_key, ZKey(3));
        assert_eq!(back[1].blocks_used, 2);
        assert!(back.iter().all(|l| l.crc == 0), "legacy leaves unchecked");
    }

    #[test]
    fn corrupted_directory_is_detected() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let leaves = vec![LeafMeta {
            first_key: ZKey(42),
            count: 3,
            block: 0,
            blocks_used: 1,
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
    }

    #[test]
    fn leafstore_write_read_roundtrip() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let layout = EntryLayout {
            series_len: 4,
            materialized: false,
        };
        let store = LeafStore::new(f, layout, 3); // 3 entries per block
        assert_eq!(store.block_bytes(), 72);

        // Leaf 0: two entries (partially full block).
        let mut entries = vec![0u8; 48];
        let mut e0 = vec![0u8; 24];
        layout.encode(ZKey(10), 100, None, &mut e0);
        let mut e1 = vec![0u8; 24];
        layout.encode(ZKey(20), 200, None, &mut e1);
        entries[..24].copy_from_slice(&e0);
        entries[24..].copy_from_slice(&e1);
        let used = store.write_leaf(0, &entries).unwrap();
        assert_eq!(used, 1);

        let leaf = LeafMeta {
            first_key: ZKey(10),
            count: 2,
            block: 0,
            blocks_used: 1,
            crc: crc32(&entries),
        };
        let mut buf = Vec::new();
        store.read_leaf(&leaf, &mut buf).unwrap();
        assert_eq!(buf.len(), 48);
        assert_eq!(layout.key(store.entry_slice(&buf, 0)), ZKey(10));
        assert_eq!(layout.pos(store.entry_slice(&buf, 1)), 200);
    }

    #[test]
    fn leaf_crc_mismatch_is_corrupt_not_wrong() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let layout = EntryLayout {
            series_len: 4,
            materialized: false,
        };
        let store = LeafStore::new(f.clone(), layout, 3);
        let mut entries = vec![0u8; 24];
        layout.encode(ZKey(1), 1, None, &mut entries);
        store.write_leaf(0, &entries).unwrap();
        let leaf = LeafMeta {
            first_key: ZKey(1),
            count: 1,
            block: 0,
            blocks_used: 1,
            crc: crc32(&entries),
        };
        // Reads verify fine, then a bit flips on disk.
        let mut buf = Vec::new();
        store.read_leaf(&leaf, &mut buf).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact_at(&mut byte, LEAF_REGION_OFFSET + 16).unwrap();
        byte[0] ^= 0x80;
        f.write_all_at(&byte, LEAF_REGION_OFFSET + 16).unwrap();
        let err = store.read_leaf(&leaf, &mut buf).unwrap_err();
        assert!(err.to_string().contains("failed checksum"), "{err}");
        // An unchecked (legacy) leaf with crc 0 still reads the raw bytes.
        let legacy = LeafMeta { crc: 0, ..leaf };
        store.read_leaf(&legacy, &mut buf).unwrap();
    }

    #[test]
    fn oversized_leaf_spans_blocks() {
        let dir = TempDir::new("layout").unwrap();
        let f = mk_file(&dir);
        let layout = EntryLayout {
            series_len: 4,
            materialized: false,
        };
        let store = LeafStore::new(f, layout, 2); // 2 entries per block
                                                  // 5 entries -> 3 blocks.
        let mut entries = vec![0u8; 5 * 24];
        for i in 0..5 {
            let mut e = vec![0u8; 24];
            layout.encode(ZKey(i as u128), i, None, &mut e);
            entries[i as usize * 24..(i as usize + 1) * 24].copy_from_slice(&e);
        }
        let used = store.write_leaf(0, &entries).unwrap();
        assert_eq!(used, 3);
        let leaf = LeafMeta {
            first_key: ZKey(0),
            count: 5,
            block: 0,
            blocks_used: 3,
            crc: crc32(&entries),
        };
        let mut buf = Vec::new();
        store.read_leaf(&leaf, &mut buf).unwrap();
        for i in 0..5 {
            assert_eq!(layout.pos(store.entry_slice(&buf, i)), i as u64);
        }
    }
}
