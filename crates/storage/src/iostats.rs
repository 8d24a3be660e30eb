//! I/O accounting in the disk access model.
//!
//! The paper analyzes every algorithm in the disk access model of Aggarwal &
//! Vitter (Section 3, Table 1): cost is the number of blocks transferred
//! between memory and secondary storage, and *random* transfers are far more
//! expensive than *sequential* ones on spinning disks (the paper's testbed is
//! a 5×2TB SATA RAID). Since a reproduction cannot assume the same hardware,
//! every experiment in this workspace reports the modeled I/O alongside wall
//! clock: an access is classified as sequential when it starts exactly where
//! the previous access on the same handle ended, and random otherwise.
//!
//! [`IoStats`] is shared (via `Arc`) between all files that belong to one
//! logical experiment so that a single snapshot captures the full cost of an
//! index build or a query batch.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe I/O counters, classified by direction and locality.
#[derive(Debug, Default)]
pub struct IoStats {
    seq_reads: AtomicU64,
    rand_reads: AtomicU64,
    seq_writes: AtomicU64,
    rand_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of [`IoStats`], suitable for diffing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Read operations that continued from the previous file offset.
    pub seq_reads: u64,
    /// Read operations that required a seek.
    pub rand_reads: u64,
    /// Write operations that continued from the previous file offset.
    pub seq_writes: u64,
    /// Write operations that required a seek.
    pub rand_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

/// A simple disk model used to convert an [`IoSnapshot`] into estimated
/// seconds, so experiments can report "modeled time on the paper's hardware
/// class" independent of the machine they actually ran on.
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Cost of one random access (seek + rotational latency), in seconds.
    pub seek_s: f64,
    /// Sequential throughput in bytes per second.
    pub seq_bytes_per_s: f64,
}

impl Default for DiskProfile {
    /// A 7200 RPM SATA drive similar to the paper's testbed: ~8.5 ms per
    /// random access, ~160 MB/s sequential.
    fn default() -> Self {
        DiskProfile {
            seek_s: 8.5e-3,
            seq_bytes_per_s: 160.0 * 1024.0 * 1024.0,
        }
    }
}

impl IoStats {
    /// New, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one read of `bytes` bytes; `sequential` is the caller's
    /// locality classification.
    #[inline]
    pub fn record_read(&self, bytes: u64, sequential: bool) {
        if sequential {
            self.seq_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rand_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one write of `bytes` bytes.
    #[inline]
    pub fn record_write(&self, bytes: u64, sequential: bool) {
        if sequential {
            self.seq_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rand_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            seq_writes: self.seq_writes.load(Ordering::Relaxed),
            rand_writes: self.rand_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.seq_reads.store(0, Ordering::Relaxed);
        self.rand_reads.store(0, Ordering::Relaxed);
        self.seq_writes.store(0, Ordering::Relaxed);
        self.rand_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

impl IoSnapshot {
    /// Counters accumulated since `earlier` (which must be from the same
    /// [`IoStats`]; counters are monotonic so saturating subtraction is safe).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads.saturating_sub(earlier.seq_reads),
            rand_reads: self.rand_reads.saturating_sub(earlier.rand_reads),
            seq_writes: self.seq_writes.saturating_sub(earlier.seq_writes),
            rand_writes: self.rand_writes.saturating_sub(earlier.rand_writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }

    /// Total operations, regardless of class.
    pub fn total_ops(&self) -> u64 {
        self.seq_reads + self.rand_reads + self.seq_writes + self.rand_writes
    }

    /// Random operations (the expensive kind on the paper's hardware).
    pub fn random_ops(&self) -> u64 {
        self.rand_reads + self.rand_writes
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Estimated seconds under a [`DiskProfile`]: every random op pays one
    /// seek, and all bytes stream at the sequential rate.
    pub fn modeled_seconds(&self, profile: &DiskProfile) -> f64 {
        self.random_ops() as f64 * profile.seek_s
            + self.total_bytes() as f64 / profile.seq_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_classifies() {
        let s = IoStats::new();
        s.record_read(100, true);
        s.record_read(50, false);
        s.record_write(10, true);
        s.record_write(10, false);
        let snap = s.snapshot();
        assert_eq!(snap.seq_reads, 1);
        assert_eq!(snap.rand_reads, 1);
        assert_eq!(snap.seq_writes, 1);
        assert_eq!(snap.rand_writes, 1);
        assert_eq!(snap.bytes_read, 150);
        assert_eq!(snap.bytes_written, 20);
        assert_eq!(snap.total_ops(), 4);
        assert_eq!(snap.random_ops(), 2);
        assert_eq!(snap.total_bytes(), 170);
    }

    #[test]
    fn since_diffs_counters() {
        let s = IoStats::new();
        s.record_read(100, true);
        let a = s.snapshot();
        s.record_read(100, false);
        s.record_write(7, true);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.seq_reads, 0);
        assert_eq!(d.rand_reads, 1);
        assert_eq!(d.seq_writes, 1);
        assert_eq!(d.bytes_read, 100);
        assert_eq!(d.bytes_written, 7);
    }

    #[test]
    fn modeled_seconds_penalizes_random() {
        let profile = DiskProfile::default();
        let sequential = IoSnapshot {
            seq_reads: 1000,
            bytes_read: 8_192_000,
            ..Default::default()
        };
        let random = IoSnapshot {
            rand_reads: 1000,
            bytes_read: 8_192_000,
            ..Default::default()
        };
        assert!(random.modeled_seconds(&profile) > 10.0 * sequential.modeled_seconds(&profile));
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_read(1, true);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_read(1, true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().seq_reads, 4000);
        assert_eq!(s.snapshot().bytes_read, 4000);
    }
}
