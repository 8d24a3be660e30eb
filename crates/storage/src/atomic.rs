//! Atomic file replacement and payload checksumming.
//!
//! Crash-safe metadata (the LSM manifest in `coconut-core`, and any future
//! catalog file) follows the classic recipe this module packages:
//!
//! 1. write the full new contents to a *sibling* temporary file,
//! 2. `fsync` the temporary file so its bytes are durable,
//! 3. `rename` it over the final path (atomic on POSIX filesystems),
//! 4. `fsync` the parent directory so the rename itself is durable.
//!
//! A crash at any point leaves either the old file or the new file intact —
//! never a torn mixture. Readers additionally verify a [`crc64`] checksum
//! over the payload, so a torn *temporary* file (or bit rot) is detected
//! rather than parsed.
//!
//! Every step is also a [`crate::fault`] hook: an installed fault plan can
//! fail the temp write (`atomic.write`, including `short` torn writes),
//! the fsyncs (`atomic.fsync`), or the rename (`atomic.rename`) — the
//! deterministic crash schedule the chaos test recovers from.
//!
//! # The checksum
//!
//! [`crc64`] is CRC-64/XZ, and it sits under more than the manifest: every
//! leaf block, directory and header of an index file stores its low half,
//! so it runs over every byte a build writes and every leaf a query loads.
//! Three kernels compute it, bit for bit the same: [`crc64_reference`] (one
//! bit at a time — the definition, kept for the tests), [`crc64_slicing8`]
//! (eight table lookups per eight bytes, portable) and [`crc64_folding`]
//! (two carry-less multiplies per sixteen bytes on CPUs with PCLMULQDQ,
//! its constants derived from the polynomial at compile time). [`crc64`]
//! folds where it can and `COCONUT_FORCE_SCALAR=1` is not set; `repro
//! bench_distance` records all three (≈0.4 / 1.6 / 25 GB/s on the
//! reference sandbox).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::error::{Error, Result};
use crate::fault::{self, FaultAction};

/// The CRC-64/XZ polynomial (ECMA-182), reflected.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Multiply a residue by `x` modulo the polynomial. Residues are kept
/// reflected — bit 63 is the coefficient of `x^0` — which is the form the
/// CRC register itself has.
const fn times_x(r: u64) -> u64 {
    if r & 1 != 0 {
        (r >> 1) ^ CRC64_POLY
    } else {
        r >> 1
    }
}

/// `TABLES[0][b]` advances the register over byte `b`; `TABLES[k][b]` over
/// `b` followed by `k` zero bytes, so eight lookups advance it over eight
/// message bytes at once.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// Advance the (pre-inverted) register `crc` over `bytes`, eight bytes a
/// step (slicing-by-8), the rest one at a time.
fn update_slicing8(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let v = crc ^ u64::from_le_bytes(le);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u64) & 0xFF) as usize];
    }
    crc
}

/// The definition every kernel is tested against: CRC-64/XZ one bit at a
/// time, no tables.
pub fn crc64_reference(bytes: &[u8]) -> u64 {
    let mut crc = u64::MAX;
    for &b in bytes {
        crc ^= b as u64;
        for _ in 0..8 {
            crc = times_x(crc);
        }
    }
    !crc
}

/// [`crc64`] on the portable kernel (slicing-by-8), whatever the CPU.
pub fn crc64_slicing8(bytes: &[u8]) -> u64 {
    !update_slicing8(u64::MAX, bytes)
}

/// [`crc64`] on the carry-less-multiply folding kernel; `None` where the
/// CPU lacks PCLMULQDQ.
pub fn crc64_folding(bytes: &[u8]) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU feature `update` is compiled for was detected on
        // the line above.
        return Some(!unsafe { clmul::update(u64::MAX, bytes) });
    }
    let _ = bytes;
    None
}

/// Whether [`crc64`] takes the folding kernel: the CPU has PCLMULQDQ and
/// `COCONUT_FORCE_SCALAR=1` does not pin the portable path (the same switch
/// as the distance kernels'). Read once per process.
fn folding_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        let forced = std::env::var("COCONUT_FORCE_SCALAR")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
        !forced && crc64_folding(&[]).is_some()
    })
}

/// CRC-64/XZ (ECMA-182 reflected, `crc64(b"123456789") ==
/// 0x995DC9BBDF1939FA`) of `bytes`: the checksum of manifest payloads and,
/// through its low half, of every leaf block, directory and header. Not a
/// cryptographic hash. Runs the folding kernel where the CPU has
/// PCLMULQDQ, slicing-by-8 otherwise; both are bit-identical to
/// [`crc64_reference`].
pub fn crc64(bytes: &[u8]) -> u64 {
    if bytes.len() >= 64 && folding_enabled() {
        if let Some(crc) = crc64_folding(bytes) {
            return crc;
        }
    }
    crc64_slicing8(bytes)
}

/// The PCLMULQDQ kernel: the message is a polynomial over GF(2), and a
/// 128-bit accumulator `X` followed by `d` more message bits is congruent
/// to `X.hi * (x^(d+64) mod P) + X.lo * (x^d mod P)` plus those bits — two
/// carry-less multiplies per 16 bytes instead of sixteen table lookups
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel 2009).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{times_x, update_slicing8};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64,
        _mm_xor_si128,
    };

    /// `x^n mod P`, reflected.
    const fn x_pow(n: u32) -> u64 {
        let mut r = 1u64 << 63;
        let mut i = 0;
        while i < n {
            r = times_x(r);
            i += 1;
        }
        r
    }

    /// The multipliers that move an accumulator `bits` message bits ahead,
    /// as `(for the low qword, for the high qword)`. With bits reflected the
    /// low qword holds the higher powers, and a carry-less product of two
    /// reflected qwords comes out one position low — a factor `x` the
    /// exponents leave out.
    const fn fold_by(bits: u32) -> (u64, u64) {
        (x_pow(bits + 64 - 1), x_pow(bits - 1))
    }

    const FOLD_16: (u64, u64) = fold_by(128);
    const FOLD_64: (u64, u64) = fold_by(512);

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn vector((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// The first 16 bytes of `bytes`, the first byte lowest.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(bytes: &[u8]) -> __m128i {
        let qword = |at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(le)
        };
        vector((qword(0), qword(8)))
    }

    /// `acc` moved ahead by the distance of `k`, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the (pre-inverted) register `crc` over `bytes`: 64 bytes a
    /// step on four independent accumulators (which hides the multiplier's
    /// latency), then 16 at a time, the last few on the table kernel.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u64, bytes: &[u8]) -> u64 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(head) = blocks.next() else {
            return update_slicing8(crc, bytes);
        };
        let (k64, k16) = (vector(FOLD_64), vector(FOLD_16));
        // The register enters as a mask over the first eight message bytes.
        let mut acc = [
            _mm_xor_si128(load(head), vector((crc, 0))),
            load(&head[16..]),
            load(&head[32..]),
            load(&head[48..]),
        ];
        for block in &mut blocks {
            for (lane, acc) in acc.iter_mut().enumerate() {
                *acc = fold(*acc, k64, load(&block[16 * lane..]));
            }
        }
        let mut x = acc[0];
        for &lane in &acc[1..] {
            x = fold(x, k16, lane);
        }
        let mut rest = blocks.remainder().chunks_exact(16);
        for block in &mut rest {
            x = fold(x, k16, load(block));
        }
        // `x` is congruent to the message so far, so running its 16 bytes
        // through the table kernel from a zero register — times x^64,
        // reduced — leaves the register that message leaves.
        let (lo, hi) = (
            _mm_cvtsi128_si64(x) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64,
        );
        let mut crc = update_slicing8(0, &lo.to_le_bytes());
        crc = update_slicing8(crc, &hi.to_le_bytes());
        update_slicing8(crc, rest.remainder())
    }
}

/// The sibling temporary path used by [`atomic_write`] for `path`
/// (`<name>.tmp` in the same directory, so the rename never crosses a
/// filesystem boundary).
pub fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// `fsync` a directory so the entries created (or renamed) inside it are
/// durable. Needed whenever a durable file in `dir` is the *point* of an
/// operation — fsyncing the file alone does not persist its directory
/// entry.
pub fn sync_dir(dir: &Path) -> Result<()> {
    fault::check("atomic.fsync")?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn sync_parent_dir(path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        // An empty parent means "the current directory".
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        sync_dir(parent)?;
    }
    Ok(())
}

/// Atomically replace the contents of `path` with `bytes`
/// (write-temp + fsync + rename + fsync-dir). On return the new contents
/// are durable; on a crash at any point the previous contents (or absence)
/// of `path` survive intact.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_path(path);
    write_temp(&tmp, bytes, bytes.len())?;
    fault::check("atomic.rename")?;
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Write `prefix_len` bytes of `bytes` to the temporary sibling of `path`
/// **without renaming it into place** — the crash-injection half of
/// [`atomic_write`], used by kill-point tests to simulate a process dying
/// mid-write. Returns the temporary path it wrote.
pub fn atomic_write_torn(
    path: &Path,
    bytes: &[u8],
    prefix_len: usize,
) -> Result<std::path::PathBuf> {
    let tmp = temp_path(path);
    write_temp(&tmp, bytes, prefix_len.min(bytes.len()))?;
    Ok(tmp)
}

fn write_temp(tmp: &Path, bytes: &[u8], len: usize) -> Result<()> {
    // Injected faults: `err` fails before any byte lands, `short` leaves a
    // torn prefix behind (the temp file is never renamed, so readers see
    // either the old contents or detect the torn temp during recovery).
    let len = match fault::fires("atomic.write") {
        None => len,
        Some(FaultAction::ShortWrite) => {
            let torn = len / 2;
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(tmp)?;
            file.write_all(&bytes[..torn])?;
            return Err(fault::injected_error("atomic.write"));
        }
        Some(_) => return Err(fault::injected_error("atomic.write")),
    };
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    file.write_all(&bytes[..len])?;
    fault::check("atomic.fsync")?;
    file.sync_all()?;
    Ok(())
}

/// Read the full contents of `path`, mapping a missing file to
/// [`Error::Corrupt`] with the given context string.
pub fn read_all(path: &Path, what: &str) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            Error::corrupt(format!("{what} not found at {}", path.display()))
        } else {
            Error::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn crc64_known_values() {
        // The CRC-64/XZ check value, on every kernel.
        const CHECK: u64 = 0x995D_C9BB_DF19_39FA;
        assert_eq!(crc64_reference(b"123456789"), CHECK);
        assert_eq!(crc64_slicing8(b"123456789"), CHECK);
        assert_eq!(crc64(b"123456789"), CHECK);
        assert_eq!(crc64(b""), 0);
        // Past the folding kernel's 64-byte threshold (every length and
        // alignment is `tests/prop_storage.rs`'s property).
        let long = [0xA5u8; 64 * 3 + 16 + 5];
        assert_eq!(crc64(&long), crc64_reference(&long));
    }

    #[test]
    fn atomic_write_replaces_and_removes_temp() {
        let dir = TempDir::new("atomic").unwrap();
        let path = dir.path().join("MANIFEST");
        atomic_write(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        atomic_write(&path, b"version-two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version-two");
        assert!(!temp_path(&path).exists(), "temp must be renamed away");
    }

    #[test]
    fn torn_write_leaves_old_contents_intact() {
        let dir = TempDir::new("atomic").unwrap();
        let path = dir.path().join("MANIFEST");
        atomic_write(&path, b"old").unwrap();
        let tmp = atomic_write_torn(&path, b"new-contents", 5).unwrap();
        // The final file still holds the old version; the torn temp holds
        // only the prefix.
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(std::fs::read(&tmp).unwrap(), b"new-c");
    }

    #[test]
    fn read_all_maps_missing_to_corrupt() {
        let dir = TempDir::new("atomic").unwrap();
        let err = read_all(&dir.path().join("nope"), "manifest").unwrap_err();
        assert!(err.to_string().contains("manifest not found"));
    }
}
