//! The raw dataset file format.
//!
//! The paper's indexes are built over a single large binary file of
//! fixed-length series ("the raw file"); non-materialized indexes keep
//! offsets into it and fetch raw series on demand. Our format is:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CCNTDS01"
//! 8       4     series length (points, u32 LE)
//! 12      4     flags (bit 0: series are z-normalized)
//! 16      8     series count (u64 LE)
//! 24      8     reserved (zero)
//! 32      ...   count * series_len * 4 bytes of f32 LE values
//! ```
//!
//! All access goes through [`coconut_storage::CountedFile`] so experiments
//! can attribute raw-file I/O (sequential build scans vs random query
//! fetches) in the disk access model.

use std::path::Path;
use std::sync::Arc;

use coconut_storage::{CountedFile, Error, IoStats, Result};

use crate::gen::Generator;
use crate::Value;

const MAGIC: &[u8; 8] = b"CCNTDS01";
/// Size of the fixed file header in bytes.
pub const HEADER_LEN: u64 = 32;
/// Flag bit: the stored series are z-normalized.
pub const FLAG_ZNORMALIZED: u32 = 1;

fn encode_header(series_len: u32, flags: u32, count: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&series_len.to_le_bytes());
    h[12..16].copy_from_slice(&flags.to_le_bytes());
    h[16..24].copy_from_slice(&count.to_le_bytes());
    h
}

/// Streaming writer for dataset files.
///
/// Appended series are buffered and flushed with large sequential writes;
/// `finish` patches the header with the final count.
pub struct DatasetWriter {
    file: CountedFile,
    series_len: usize,
    flags: u32,
    count: u64,
    buf: Vec<u8>,
}

/// Write buffer size: large enough that header-patching and data writes do
/// not interleave into random I/O noise.
const WRITE_BUF: usize = 1 << 20;

impl DatasetWriter {
    /// Create a dataset file at `path` holding series of `series_len` points.
    pub fn create(
        path: impl AsRef<Path>,
        series_len: usize,
        znormalized: bool,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        if series_len == 0 {
            return Err(Error::invalid("series length must be positive"));
        }
        if series_len > u32::MAX as usize {
            return Err(Error::invalid("series length exceeds u32"));
        }
        let file = CountedFile::create(path, stats)?;
        let flags = if znormalized { FLAG_ZNORMALIZED } else { 0 };
        // Provisional header; count patched in `finish`.
        file.append(&encode_header(series_len as u32, flags, 0))?;
        Ok(DatasetWriter {
            file,
            series_len,
            flags,
            count: 0,
            buf: Vec::with_capacity(WRITE_BUF),
        })
    }

    /// Append one series (must have exactly the configured length).
    pub fn append(&mut self, series: &[Value]) -> Result<u64> {
        if series.len() != self.series_len {
            return Err(Error::invalid(format!(
                "series length {} != dataset series length {}",
                series.len(),
                self.series_len
            )));
        }
        for &v in series {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        if self.buf.len() >= WRITE_BUF {
            self.file.append(&self.buf)?;
            self.buf.clear();
        }
        let pos = self.count;
        self.count += 1;
        Ok(pos)
    }

    /// Flush buffers, patch the header, and return the number of series
    /// written.
    pub fn finish(mut self) -> Result<u64> {
        if !self.buf.is_empty() {
            self.file.append(&self.buf)?;
            self.buf.clear();
        }
        self.file.write_all_at(
            &encode_header(self.series_len as u32, self.flags, self.count),
            0,
        )?;
        self.file.sync()?;
        Ok(self.count)
    }
}

/// A read-only view of a dataset file.
///
/// Random access (`read_into`) is how non-materialized indexes fetch raw
/// series during queries; [`Dataset::scan`] provides the large sequential
/// reads used by index construction. Cloning is cheap (the file handle is
/// shared), so indexes hold their own copy.
#[derive(Clone)]
pub struct Dataset {
    file: Arc<CountedFile>,
    series_len: usize,
    count: u64,
    znormalized: bool,
}

impl Dataset {
    /// Open a dataset file, validating its header.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        let file = CountedFile::open(path.as_ref(), stats)?;
        if file.len() < HEADER_LEN {
            return Err(Error::corrupt("dataset file shorter than header"));
        }
        let mut h = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut h, 0)?;
        if &h[0..8] != MAGIC {
            return Err(Error::corrupt("bad dataset magic"));
        }
        let series_len = le_u32(&h[8..12]) as usize;
        let flags = le_u32(&h[12..16]);
        let count = le_u64(&h[16..24]);
        if series_len == 0 {
            return Err(Error::corrupt("dataset header: zero series length"));
        }
        let fits = count
            .checked_mul(series_len as u64 * 4)
            .and_then(|payload| payload.checked_add(HEADER_LEN))
            .is_some_and(|expected| expected <= file.len());
        if !fits {
            return Err(Error::corrupt(format!(
                "dataset truncated: header promises {count} series of {series_len} points, \
                 file has {} bytes",
                file.len()
            )));
        }
        Ok(Dataset {
            file: Arc::new(file),
            series_len,
            count,
            znormalized: flags & FLAG_ZNORMALIZED != 0,
        })
    }

    /// Number of series.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the dataset holds no series.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Points per series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Whether series were z-normalized before writing.
    pub fn znormalized(&self) -> bool {
        self.znormalized
    }

    /// Bytes of one series on disk.
    pub fn series_bytes(&self) -> usize {
        self.series_len * 4
    }

    /// Total payload size in bytes (excluding the header) — the paper's
    /// "raw data size" axis.
    pub fn payload_bytes(&self) -> u64 {
        self.count * self.series_bytes() as u64
    }

    /// The underlying counted file (for sharing I/O stats).
    pub fn file(&self) -> &Arc<CountedFile> {
        &self.file
    }

    /// Byte offset of series `pos` in the file.
    pub fn offset_of(&self, pos: u64) -> u64 {
        HEADER_LEN + pos * self.series_bytes() as u64
    }

    /// Read series `pos` into `out` (`out.len()` must equal `series_len`).
    /// The read is the `dataset.read` fault site
    /// ([`coconut_storage::fault`]).
    pub fn read_into(&self, pos: u64, out: &mut [Value]) -> Result<()> {
        coconut_storage::fault::check("dataset.read")?;
        if pos >= self.count {
            return Err(Error::invalid(format!(
                "series {pos} out of range ({})",
                self.count
            )));
        }
        if out.len() != self.series_len {
            return Err(Error::invalid("output buffer length != series length"));
        }
        self.read_values_at(self.offset_of(pos), out)
    }

    /// Fill `out` from the file bytes at `offset`: read straight into the
    /// values, then decode them from little-endian in place. The one raw
    /// read behind both the point read and the scan.
    fn read_values_at(&self, offset: u64, out: &mut [Value]) -> Result<()> {
        // SAFETY: the byte view covers exactly `out`'s storage and is the
        // only borrow of it while it lives; `u8` has alignment 1, and every
        // bit pattern of four bytes is a valid `f32`, so whatever the read
        // leaves there is a valid `Value`.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                out.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(out),
            )
        };
        self.file.read_exact_at(bytes, offset)?;
        // The identity on little-endian hosts, where it compiles away.
        for v in out.iter_mut() {
            *v = Value::from_bits(u32::from_le(v.to_bits()));
        }
        Ok(())
    }

    /// Read series `pos` into a fresh vector.
    pub fn get(&self, pos: u64) -> Result<Vec<Value>> {
        let mut out = vec![0.0; self.series_len];
        self.read_into(pos, &mut out)?;
        Ok(out)
    }

    /// A sequential scanner over all series, reading in large chunks.
    pub fn scan(&self) -> DatasetScan<'_> {
        DatasetScan::new(self, 0..self.count, 1 << 20)
    }

    /// A sequential scanner over exactly the positions in `range` (clamped
    /// to the dataset bounds). Reads never extend past `range.end`, so
    /// partitioned builds scanning disjoint ranges together read each byte
    /// of the file exactly once.
    pub fn scan_range(&self, range: std::ops::Range<u64>) -> DatasetScan<'_> {
        DatasetScan::new(self, range, 1 << 20)
    }

    /// A sequential scanner with a custom chunk size in bytes (tests).
    pub fn scan_with_chunk(&self, chunk_bytes: usize) -> DatasetScan<'_> {
        DatasetScan::new(self, 0..self.count, chunk_bytes)
    }
}

/// Sequential reader yielding `(position, &[Value])` pairs over a
/// contiguous position range (the whole dataset for [`Dataset::scan`]).
pub struct DatasetScan<'a> {
    ds: &'a Dataset,
    next_pos: u64,
    end_pos: u64,
    buf_values: Vec<Value>,
    buf_first_pos: u64,
    buf_count: usize,
    series_per_chunk: usize,
}

impl<'a> DatasetScan<'a> {
    fn new(ds: &'a Dataset, range: std::ops::Range<u64>, chunk_bytes: usize) -> Self {
        let series_per_chunk = (chunk_bytes / ds.series_bytes()).max(1);
        let end_pos = range.end.min(ds.count);
        let next_pos = range.start.min(end_pos);
        DatasetScan {
            ds,
            next_pos,
            end_pos,
            buf_values: Vec::new(),
            buf_first_pos: next_pos,
            buf_count: 0,
            series_per_chunk,
        }
    }

    /// The next `(position, series)` pair, or `None` at the end.
    pub fn next_series(&mut self) -> Result<Option<(u64, &[Value])>> {
        if self.next_pos >= self.end_pos {
            return Ok(None);
        }
        let in_buf = (self.next_pos - self.buf_first_pos) as usize;
        if self.buf_count == 0 || in_buf >= self.buf_count {
            // Refill; never read past the scan's end position.
            let remaining = (self.end_pos - self.next_pos) as usize;
            let n = remaining.min(self.series_per_chunk);
            self.buf_values.resize(n * self.ds.series_len, 0.0);
            self.ds
                .read_values_at(self.ds.offset_of(self.next_pos), &mut self.buf_values)?;
            self.buf_first_pos = self.next_pos;
            self.buf_count = n;
        }
        let in_buf = (self.next_pos - self.buf_first_pos) as usize;
        let start = in_buf * self.ds.series_len;
        let pos = self.next_pos;
        self.next_pos += 1;
        Ok(Some((
            pos,
            &self.buf_values[start..start + self.ds.series_len],
        )))
    }
}

/// Generate `count` series of length `series_len` from `generator`,
/// z-normalize each, and write them to `path`. Returns the series count.
///
/// This is the standard way experiments materialize their input: the paper
/// z-normalizes all datasets before indexing.
pub fn write_dataset(
    path: impl AsRef<Path>,
    generator: &mut dyn Generator,
    count: u64,
    series_len: usize,
    stats: &Arc<IoStats>,
) -> Result<u64> {
    let mut writer = DatasetWriter::create(path, series_len, true, Arc::clone(stats))?;
    for _ in 0..count {
        let mut s = generator.generate(series_len);
        crate::distance::znormalize(&mut s);
        writer.append(&s)?;
    }
    writer.finish()
}

/// Fixed-width little-endian decodes for header and payload fields whose
/// slice width is pinned by the caller's indexing. `copy_from_slice`
/// panics with a clear length message on a caller bug, without putting
/// `unwrap` on the hot decode path.
fn le_u32(b: &[u8]) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(b);
    u32::from_le_bytes(bytes)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(b);
    u64::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    fn stats() -> Arc<IoStats> {
        Arc::new(IoStats::new())
    }

    fn write_simple(dir: &TempDir, n: u64, len: usize) -> std::path::PathBuf {
        let path = dir.path().join("data.bin");
        let mut w = DatasetWriter::create(&path, len, false, stats()).unwrap();
        for i in 0..n {
            let s: Vec<Value> = (0..len).map(|j| (i * 1000 + j as u64) as Value).collect();
            assert_eq!(w.append(&s).unwrap(), i);
        }
        assert_eq!(w.finish().unwrap(), n);
        path
    }

    #[test]
    fn roundtrip_random_access() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 100, 16);
        let ds = Dataset::open(&path, stats()).unwrap();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.series_len(), 16);
        assert!(!ds.znormalized());
        let s = ds.get(42).unwrap();
        assert_eq!(s[0], 42_000.0);
        assert_eq!(s[15], 42_015.0);
        let s = ds.get(0).unwrap();
        assert_eq!(s[3], 3.0);
    }

    #[test]
    fn scan_visits_everything_in_order() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 257, 8); // does not divide chunk evenly
        let ds = Dataset::open(&path, stats()).unwrap();
        let mut scan = ds.scan_with_chunk(100); // 3 series per chunk
        let mut seen = 0u64;
        while let Some((pos, s)) = scan.next_series().unwrap() {
            assert_eq!(pos, seen);
            assert_eq!(s[0], (pos * 1000) as Value);
            seen += 1;
        }
        assert_eq!(seen, 257);
    }

    #[test]
    fn scan_is_sequential_io() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 1000, 64);
        let st = stats();
        let ds = Dataset::open(&path, Arc::clone(&st)).unwrap();
        let before = st.snapshot();
        let mut scan = ds.scan_with_chunk(4096);
        while scan.next_series().unwrap().is_some() {}
        let after = st.snapshot().since(&before);
        // First chunk read follows the header read, so at most one seek.
        assert!(after.rand_reads <= 1, "rand reads: {}", after.rand_reads);
        assert!(after.seq_reads > 10);
    }

    #[test]
    fn scan_range_reads_only_the_range() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 1000, 64);
        let st = stats();
        let ds = Dataset::open(&path, Arc::clone(&st)).unwrap();
        let before = st.snapshot();
        let mut scan = ds.scan_range(900..950);
        let mut n = 0u64;
        while let Some((pos, _)) = scan.next_series().unwrap() {
            assert!((900..950).contains(&pos));
            n += 1;
        }
        assert_eq!(n, 50);
        // A tail scan must cost I/O proportional to the range, not the file:
        // exactly 50 series of 256 bytes each, regardless of chunking.
        let delta = st.snapshot().since(&before);
        assert_eq!(delta.bytes_read, 50 * 64 * 4, "tail scan over-read");
        // A range reaching past the end stops at the last series, and one
        // starting at or past the end is an empty scan, not an error.
        let mut tail = ds.scan_range(990..u64::MAX);
        let mut seen = Vec::new();
        while let Some((pos, s)) = tail.next_series().unwrap() {
            assert_eq!(s[0], (pos * 1000) as Value);
            seen.push(pos);
        }
        assert_eq!(seen, (990..1000).collect::<Vec<_>>());
        assert!(ds.scan_range(1000..2000).next_series().unwrap().is_none());
        assert!(ds
            .scan_range(u64::MAX..u64::MAX)
            .next_series()
            .unwrap()
            .is_none());
    }

    #[test]
    fn disjoint_scan_ranges_cover_one_pass() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 257, 16);
        let st = stats();
        let ds = Dataset::open(&path, Arc::clone(&st)).unwrap();
        let before = st.snapshot();
        let mut positions = Vec::new();
        for range in [0..100, 100..200, 200..257] {
            let mut scan = ds.scan_range(range);
            while let Some((pos, _)) = scan.next_series().unwrap() {
                positions.push(pos);
            }
        }
        assert_eq!(positions, (0..257).collect::<Vec<_>>());
        let delta = st.snapshot().since(&before);
        assert_eq!(delta.bytes_read, 257 * 16 * 4, "shards must not re-read");
    }

    #[test]
    fn reads_return_every_bit_pattern_unchanged() {
        // Values a decode could disturb: signed zero, NaN payloads (quiet
        // and signalling), subnormals, infinities and the extremes.
        let patterns: Vec<Value> = [
            0x8000_0000u32, // -0.0
            0x7fc0_1234,    // quiet NaN with a payload
            0xff80_0001,    // signalling NaN, sign set
            0x0000_0001,    // smallest subnormal
            0x807f_ffff,    // largest negative subnormal
            0x7f80_0000,    // +inf
            0xff80_0000,    // -inf
            0x7f7f_ffff,    // f32::MAX
            0xff7f_ffff,    // f32::MIN
            0x3f80_0001,    // one ulp above 1.0
        ]
        .into_iter()
        .map(Value::from_bits)
        .collect();
        let (n, len) = (11u64, 4usize);
        let series = |i: u64| -> Vec<Value> {
            (0..len)
                .map(|j| patterns[(i as usize * len + j) % patterns.len()])
                .collect()
        };
        let bits = |s: &[Value]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let dir = TempDir::new("dataset").unwrap();
        let path = dir.path().join("bits.bin");
        let mut w = DatasetWriter::create(&path, len, false, stats()).unwrap();
        for i in 0..n {
            w.append(&series(i)).unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&path, stats()).unwrap();
        let got: Vec<Vec<u32>> = (0..n).map(|i| bits(&ds.get(i).unwrap())).collect();
        for i in 0..n {
            assert_eq!(got[i as usize], bits(&series(i)), "get({i})");
        }
        // 1, 3 and 100 series per chunk: 11 is no multiple of 3, and 100
        // holds all 11 in one short chunk.
        for per_chunk in [1usize, 3, 100] {
            let mut scan = ds.scan_with_chunk(per_chunk * ds.series_bytes());
            let mut seen = 0u64;
            while let Some((pos, s)) = scan.next_series().unwrap() {
                assert_eq!(pos, seen);
                assert_eq!(bits(s), got[pos as usize], "chunk {per_chunk} pos {pos}");
                seen += 1;
            }
            assert_eq!(seen, n, "chunk {per_chunk}");
        }
    }

    #[test]
    fn wrong_length_append_rejected() {
        let dir = TempDir::new("dataset").unwrap();
        let mut w = DatasetWriter::create(dir.path().join("d.bin"), 8, false, stats()).unwrap();
        assert!(w.append(&[1.0; 7]).is_err());
        assert!(w.append(&[1.0; 8]).is_ok());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = TempDir::new("dataset").unwrap();
        let path = dir.path().join("bad.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(
            Dataset::open(&path, stats()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 10, 8);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(
            Dataset::open(&path, stats()),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn header_promising_more_than_the_file_is_corrupt() {
        // A 32-byte file whose header claims 2^62 series of one point: the
        // promised size overflows u64, and must read as truncation.
        let dir = TempDir::new("dataset").unwrap();
        let path = dir.path().join("huge.bin");
        std::fs::write(&path, encode_header(1, 0, 1 << 62)).unwrap();
        match Dataset::open(&path, stats()) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("dataset truncated"), "{msg}"),
            Err(other) => panic!("{other}"),
            Ok(ds) => panic!("opened with {} series", ds.len()),
        }
    }

    #[test]
    fn out_of_range_read_rejected() {
        let dir = TempDir::new("dataset").unwrap();
        let path = write_simple(&dir, 5, 8);
        let ds = Dataset::open(&path, stats()).unwrap();
        assert!(ds.get(5).is_err());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let dir = TempDir::new("dataset").unwrap();
        let path = dir.path().join("empty.bin");
        let w = DatasetWriter::create(&path, 8, true, stats()).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let ds = Dataset::open(&path, stats()).unwrap();
        assert!(ds.is_empty());
        assert!(ds.znormalized());
        let mut scan = ds.scan();
        assert!(scan.next_series().unwrap().is_none());
    }

    #[test]
    fn write_dataset_znormalizes() {
        use crate::gen::RandomWalkGen;
        let dir = TempDir::new("dataset").unwrap();
        let path = dir.path().join("z.bin");
        let mut g = RandomWalkGen::new(7);
        write_dataset(&path, &mut g, 20, 64, &stats()).unwrap();
        let ds = Dataset::open(&path, stats()).unwrap();
        assert!(ds.znormalized());
        for i in 0..20 {
            let s = ds.get(i).unwrap();
            assert!(crate::distance::mean(&s).abs() < 1e-4);
            let sd = crate::distance::std_dev(&s);
            assert!((sd - 1.0).abs() < 1e-3, "std {sd}");
        }
    }
}
