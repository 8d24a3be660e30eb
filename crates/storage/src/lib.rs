//! Storage substrate for the Coconut data series indexing library.
//!
//! This crate provides the pieces of the paper's experimental platform that
//! sit *below* any particular index:
//!
//! * [`IoStats`] — I/O accounting in the disk access model of Aggarwal &
//!   Vitter (the cost model used throughout the paper's analysis, Section 3).
//!   Every read and write is classified as *sequential* or *random* so that
//!   experiments can report modeled I/O cost alongside wall-clock time.
//! * [`CountedFile`] — a positioned file handle whose accesses feed
//!   [`IoStats`], and [`Mapping`], a read-only `mmap` of one.
//! * [`ExternalSorter`] — bottom-up bulk loading's workhorse: run
//!   generation under a memory budget followed by k-way merge
//!   (the "partitioning" and "merging" phases of Section 3.1).
//! * [`atomic`] — crash-safe file replacement (write-temp + fsync + rename)
//!   and the CRC-64 kernels (carry-less-multiply folding, slicing-by-8)
//!   under the LSM manifest and every index block of `coconut-core`.
//! * [`fault`] — deterministic, seeded fault injection ([`FaultPlan`]):
//!   injectable I/O errors, short writes, fsync failures, stalls, and
//!   connection drops, hooked through the atomic-write path, the external
//!   sorter's spill path, and the server/client socket layer.
//! * [`metrics`] — lock-free counters, gauges, histograms, and rate meters
//!   with Prometheus text rendering: the aggregation layer the query
//!   server's observability is built on.
//! * [`Deadline`] — a copyable per-operation deadline checked at the query
//!   path's early-abandon checkpoints, backing the server's per-request
//!   latency budgets.
//!
//! Nothing in this crate knows about data series; it works on fixed-size
//! binary records and raw pages.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod atomic;
pub mod deadline;
pub mod error;
pub mod extsort;
pub mod fault;
pub mod file;
pub mod iostats;
pub mod metrics;
pub mod tempdir;

pub use atomic::{atomic_write, crc64};
pub use deadline::Deadline;
pub use error::{Error, Result};
pub use extsort::{Codec, ExternalSorter, MergedStream, RecordStream, SortReport, SortedStream};
pub use fault::{FaultAction, FaultPlan, Trigger};
pub use file::{CountedFile, Mapping};
pub use iostats::{DiskProfile, IoSnapshot, IoStats};
pub use tempdir::TempDir;
