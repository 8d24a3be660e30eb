//! A positioned file handle that feeds [`IoStats`].
//!
//! [`CountedFile`] wraps a [`std::fs::File`] and classifies every access as
//! sequential (it begins exactly where the previous access on this handle
//! ended) or random. All index and dataset files in the workspace are
//! accessed through this type so that experiments can report disk-access
//! model costs.
//!
//! [`Mapping`] is a read-only view of a whole file through `mmap`, for
//! readers that verify bytes where the page cache holds them instead of
//! copying them out; [`CountedFile::record_mapped_read`] counts what such a
//! reader consumed as the read it replaces.

use std::ffi::c_void;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::iostats::IoStats;

// std links libc already; these are its declarations (off_t is 64-bit on
// every target this workspace builds for).
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
}

const PROT_READ: i32 = 1;
const MAP_SHARED: i32 = 1;
const MADV_DONTNEED: i32 = 4;
/// The page [`Mapping::drop_pages`] rounds to, the smallest there is. On
/// larger pages `madvise` refuses or widens the range, which changes what
/// is resident and never a byte.
const PAGE: usize = 4096;

/// A file whose reads and writes are recorded in a shared [`IoStats`].
///
/// All operations are positioned (`pread`/`pwrite`), so a `CountedFile` can
/// be shared across threads without any seek-pointer races; the sequential /
/// random classification uses an atomic "expected next offset".
#[derive(Debug)]
pub struct CountedFile {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    /// Offset one past the end of the last access; used to classify locality.
    next_offset: AtomicU64,
    /// Current logical length (maintained on append).
    len: AtomicU64,
}

impl CountedFile {
    /// Create (truncating) a new file at `path`.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(CountedFile {
            file,
            path,
            stats,
            next_offset: AtomicU64::new(0),
            len: AtomicU64::new(0),
        })
    }

    /// Open an existing file read-only.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(CountedFile {
            file,
            path,
            stats,
            next_offset: AtomicU64::new(u64::MAX), // first access counts as random
            len: AtomicU64::new(len),
        })
    }

    /// Open an existing file for reading and writing.
    pub fn open_rw(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(CountedFile {
            file,
            path,
            stats,
            next_offset: AtomicU64::new(u64::MAX),
            len: AtomicU64::new(len),
        })
    }

    /// The path this file was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared statistics sink.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn classify(&self, offset: u64, len: u64) -> bool {
        // swap: record where this access ends; sequential iff it starts where
        // the last one ended.
        let prev = self.next_offset.swap(offset + len, Ordering::AcqRel);
        prev == offset
    }

    /// Read exactly `buf.len()` bytes starting at `offset`.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let sequential = self.classify(offset, buf.len() as u64);
        self.file.read_exact_at(buf, offset)?;
        self.stats.record_read(buf.len() as u64, sequential);
        Ok(())
    }

    /// Write all of `buf` starting at `offset`, extending the file if needed.
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        let sequential = self.classify(offset, buf.len() as u64);
        self.file.write_all_at(buf, offset)?;
        self.stats.record_write(buf.len() as u64, sequential);
        let end = offset + buf.len() as u64;
        self.len.fetch_max(end, Ordering::AcqRel);
        Ok(())
    }

    /// Append `buf` at the current end of file; returns the offset it was
    /// written at.
    pub fn append(&self, buf: &[u8]) -> Result<u64> {
        let offset = self.len.fetch_add(buf.len() as u64, Ordering::AcqRel);
        let sequential = self.classify(offset, buf.len() as u64);
        self.file.write_all_at(buf, offset)?;
        self.stats.record_write(buf.len() as u64, sequential);
        Ok(offset)
    }

    /// Flush file contents to the OS.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Map the whole file, as long as it is on disk now, read-only.
    pub fn map(&self) -> Result<Mapping> {
        let len = usize::try_from(self.file.metadata()?.len())
            .map_err(|_| Error::invalid("file too large to map"))?;
        Mapping::new(&self.file, len)
    }

    /// Count `len` bytes at `offset` that a reader took from a [`Mapping`]
    /// of this file: the same record, sequential or random, as
    /// [`CountedFile::read_exact_at`] of those bytes would leave.
    pub fn record_mapped_read(&self, offset: u64, len: u64) {
        let sequential = self.classify(offset, len);
        self.stats.record_read(len, sequential);
    }
}

/// A `PROT_READ`, `MAP_SHARED` mapping of a whole file
/// ([`CountedFile::map`]), unmapped on drop. Its bytes are the page cache's:
/// nothing is copied, and only the pages a reader touches become resident.
///
/// Two limits come with borrowing bytes from a file rather than reading
/// them. The file must not be truncated or rewritten while it is mapped;
/// nothing in this workspace does either to an index file: every write to
/// one happens inside its build, before the index is returned, and a built
/// index has no method that writes. And a device error while the kernel
/// faults a page in raises `SIGBUS` in the reading thread instead of
/// returning [`Error::Io`].
#[derive(Debug)]
pub struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is read-only and owned by this value alone; its
// bytes never change while it lives (see the type docs), so sharing or
// sending it is sharing or sending a `&[u8]`.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`: `&Mapping` hands out only shared byte slices and
// `drop_pages`, which changes residency, not contents.
unsafe impl Sync for Mapping {}

impl Mapping {
    fn new(file: &File, len: usize) -> Result<Self> {
        if len == 0 {
            // mmap refuses an empty range; an empty file maps to no bytes.
            return Ok(Mapping {
                ptr: NonNull::dangling(),
                len,
            });
        }
        // SAFETY: a fresh read-only mapping at an address the kernel picks,
        // of a file descriptor that is open for reading for the whole call;
        // it aliases no memory of this process. Known limit: a device error
        // while a page of it faults in later raises SIGBUS, not `Error::Io`.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is `(void *) -1`.
        if ptr as usize == usize::MAX {
            return Err(std::io::Error::last_os_error().into());
        }
        let ptr = NonNull::new(ptr.cast()).ok_or_else(|| Error::invalid("mmap returned null"))?;
        Ok(Mapping { ptr, len })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is the start of a live mapping of `len` readable
        // bytes (or dangling with `len == 0`), unmapped only when `self`
        // drops. The bytes do not change while the slice lives: every write
        // to an index file happens inside its build, before the index is
        // returned and so before anything can map it, and a built index has
        // no method that writes.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Hand back the whole pages inside `range` (bytes of the file): they
    /// leave this process's resident set, and a later read faults the same
    /// bytes back in from the page cache.
    pub fn drop_pages(&self, range: Range<usize>) {
        let start = range.start.next_multiple_of(PAGE);
        let end = range.end.min(self.len) / PAGE * PAGE;
        if start < end {
            // SAFETY: `start..end` lies inside the mapping and `ptr` is
            // page-aligned, so the range is whole pages of it. On a shared
            // file mapping MADV_DONTNEED only drops page-table entries: the
            // contents stay the file's, so no slice `bytes` handed out sees
            // a byte change. A failure leaves the pages resident, which
            // costs memory and nothing else, so it is ignored.
            unsafe {
                madvise(
                    self.ptr.as_ptr().add(start).cast(),
                    end - start,
                    MADV_DONTNEED,
                )
            };
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: the mapping `new` made, unmapped once; every slice of
            // it borrowed `self`, so none outlives this.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn setup() -> (TempDir, Arc<IoStats>) {
        (
            TempDir::new("countedfile").unwrap(),
            Arc::new(IoStats::new()),
        )
    }

    #[test]
    fn roundtrip_and_len() {
        let (dir, stats) = setup();
        let f = CountedFile::create(dir.path().join("a.bin"), stats).unwrap();
        assert!(f.is_empty());
        let off = f.append(b"hello").unwrap();
        assert_eq!(off, 0);
        let off = f.append(b" world").unwrap();
        assert_eq!(off, 5);
        assert_eq!(f.len(), 11);
        let mut buf = [0u8; 11];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn sequential_vs_random_classification() {
        let (dir, stats) = setup();
        let f = CountedFile::create(dir.path().join("a.bin"), Arc::clone(&stats)).unwrap();
        f.append(&[0u8; 4096]).unwrap(); // first access: offset 0 == initial next_offset 0 -> sequential
        f.append(&[0u8; 4096]).unwrap(); // sequential
        let snap = stats.snapshot();
        assert_eq!(snap.seq_writes, 2);
        assert_eq!(snap.rand_writes, 0);

        let mut buf = [0u8; 16];
        f.read_exact_at(&mut buf, 100).unwrap(); // random: last end was 8192
        f.read_exact_at(&mut buf, 116).unwrap(); // sequential continuation
        f.read_exact_at(&mut buf, 0).unwrap(); // random again
        let snap = stats.snapshot();
        assert_eq!(snap.seq_reads, 1);
        assert_eq!(snap.rand_reads, 2);
    }

    #[test]
    fn reopen_sees_data_and_first_read_is_random() {
        let (dir, stats) = setup();
        let path = dir.path().join("a.bin");
        {
            let f = CountedFile::create(&path, Arc::clone(&stats)).unwrap();
            f.append(b"abcd").unwrap();
            f.sync().unwrap();
        }
        let f = CountedFile::open(&path, Arc::clone(&stats)).unwrap();
        assert_eq!(f.len(), 4);
        let mut buf = [0u8; 4];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"abcd");
        assert_eq!(stats.snapshot().rand_reads, 1);
    }

    #[test]
    fn write_all_at_extends_len() {
        let (dir, stats) = setup();
        let f = CountedFile::create(dir.path().join("a.bin"), stats).unwrap();
        f.write_all_at(b"xy", 100).unwrap();
        assert_eq!(f.len(), 102);
        // Writing inside the file must not shrink it.
        f.write_all_at(b"z", 3).unwrap();
        assert_eq!(f.len(), 102);
    }

    #[test]
    fn a_mapping_reads_the_file_and_counts_like_a_read() {
        let (dir, stats) = setup();
        let f = CountedFile::create(dir.path().join("a.bin"), Arc::clone(&stats)).unwrap();
        assert!(f.map().unwrap().bytes().is_empty());
        let data: Vec<u8> = (0..3 * PAGE + 100).map(|i| (i * 7) as u8).collect();
        f.append(&data).unwrap();
        let m = f.map().unwrap();
        assert_eq!(m.bytes(), data);
        // Dropped pages read back as the file's bytes; a range past the
        // end is clipped.
        m.drop_pages(10..2 * PAGE + 1);
        m.drop_pages(PAGE..10 * PAGE);
        assert_eq!(m.bytes(), data);

        let before = stats.snapshot();
        f.record_mapped_read(100, 16); // random: the last access ended at the end
        f.record_mapped_read(116, 16); // sequential continuation
        let read = stats.snapshot().since(&before);
        assert_eq!(
            (read.bytes_read, read.seq_reads, read.rand_reads),
            (32, 1, 1)
        );
    }

    #[test]
    fn short_read_is_an_error() {
        let (dir, stats) = setup();
        let f = CountedFile::create(dir.path().join("a.bin"), stats).unwrap();
        f.append(b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert!(f.read_exact_at(&mut buf, 0).is_err());
    }
}
