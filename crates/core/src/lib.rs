//! Coconut-Tree and Coconut-Trie: the paper's contribution.
//!
//! Both indexes organize data series by their **sortable summarization**
//! (the z-order key of [`coconut_summary::zorder`]), which lets them be
//! bulk-loaded *bottom-up* from an externally sorted stream — eliminating
//! the random I/O, non-contiguous leaves and sparse nodes of top-down
//! insertion (paper Section 3):
//!
//! * [`trie::CoconutTrie`] (Algorithm 2) splits nodes by SAX *prefixes* like
//!   the state of the art, but builds bottom-up from sorted keys and
//!   compacts sibling leaves, so leaves are contiguous on disk.
//! * [`tree::CoconutTree`] (Algorithm 3) drops the common-prefix constraint
//!   entirely: a balanced B+-tree bulk-loaded with *median-based* splits
//!   (UB-tree style), densely packed to a configurable fill factor.
//!
//! Both are one [`leaves::SortedLeafIndex`] — sorted contiguous leaves plus
//! the in-memory summarizations — under a different [`leaves::Directory`].
//! Both come in non-materialized (leaves hold `(key, position)` pointers
//! into the raw file) and materialized / `-Full` (leaves hold the raw
//! series) flavors, and both answer every [`query::Query`] through one
//! `search`:
//!
//! * the **approximate** step (Algorithm 4) — visit the leaf where the query
//!   would live, plus `radius` neighboring leaves (contiguous on disk);
//! * the **exact** step (Algorithm 5, *CoconutTreeSIMS*) — a skip-sequential
//!   scan over in-memory summarizations ([`sims::sims_scan`]), pruned by
//!   the approximate answers, with lower bounds computed by parallel
//!   threads.
//!
//! [`lsm::LsmCoconut`] grows the paper's future-work suggestion into a
//! streaming subsystem: batches bulk-load into LSM runs, a
//! [`compaction::CompactionPolicy`] merges them on a worker thread (K-way
//! merges of sorted leaf streams, never re-sorts), and a crash-safe
//! [`manifest::Manifest`] makes the run set durable across process
//! restarts. Readers pin an immutable [`lsm::Snapshot`] and query it
//! lock-free under an optional cooperative [`Deadline`] — the concurrency
//! model the query server (`coconut-server`) is built on.
//!
//! [`shard`] parallelizes construction: the scan→summarize→sort phase runs
//! on K worker threads over disjoint key-range shards, and the per-shard
//! sorted streams are K-way merged into the same bulk loaders, producing
//! bit-identical indexes (enable via [`BuildOptions::shards`]).
//!
//! [`backend`] promotes a shard to a deployment boundary: a
//! [`backend::ShardBackend`] is one key-range slice's query surface, and a
//! [`backend::ShardSet`] owns the partition map and scatter-gathers exact
//! answers across shards with pruning-bound sharing — the in-process
//! [`backend::LocalShard`] is the correctness oracle for the remote fabric
//! in `coconut-server`.

#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
// Everything in this crate is reachable from the query server, where a
// stray panic kills a worker thread: unwrap/expect are denied outside
// tests, with explicit per-site `allow`s where an invariant makes the
// panic unreachable (see [`le`] for the decode helpers).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod builder;
pub mod compaction;
pub mod config;
pub mod layout;
mod le;
pub mod leaves;
pub mod lsm;
pub mod manifest;
pub mod query;
pub mod records;
pub mod shard;
pub mod sims;
pub mod split;
pub mod tree;
pub mod trie;

pub use backend::{LocalShard, Partial, ShardBackend, ShardInfo, ShardSet};
pub use coconut_storage::{Deadline, Error, Result};
pub use compaction::{CompactionPolicy, CompactionPolicyKind, TieredPolicy};
pub use config::{BuildOptions, IndexConfig};
pub use layout::ScrubReport;
pub use leaves::{Directory, SortedLeafIndex};
pub use lsm::{IngestWriter, LsmCoconut, RunScrub, Snapshot, WriteStats, QUARANTINE_DIR};
pub use query::{Kind, Metric, Query};
pub use split::{AdaptivePolicy, FixedBinaryPolicy, SplitPolicy, SplitPolicyKind};
pub use tree::CoconutTree;
pub use trie::CoconutTrie;
