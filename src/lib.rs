//! # Coconut — scalable bottom-up data series indexes
//!
//! This crate is the facade of a workspace that reproduces
//! *"Coconut: A Scalable Bottom-Up Approach for Building Data Series
//! Indexes"* (Kondylakis, Dayan, Zoumpatianos, Palpanas — VLDB 2018).
//!
//! It re-exports the member crates:
//!
//! * [`series`] — data series model, distances, dataset files, generators.
//! * [`summary`] — PAA / SAX / iSAX summarizations and the paper's sortable
//!   (bit-interleaved, z-ordered) summarization.
//! * [`storage`] — disk-access-model I/O accounting, checksums, external
//!   sort.
//! * [`index`] — Coconut-Tree and Coconut-Trie (the paper's contribution).
//! * [`baselines`] — iSAX 2.0, ADS+/ADSFull, STR R-tree, DSTree, Vertical
//!   and serial scan.
//!
//! ## Quick start
//!
//! ```
//! use coconut::prelude::*;
//!
//! # fn main() -> coconut::storage::Result<()> {
//! // 1. Generate a dataset of 2k random-walk series of length 64 (small so
//! //    this doctest runs under `cargo test`; scale the numbers freely).
//! let dir = TempDir::new("quickstart")?;
//! let stats = std::sync::Arc::new(IoStats::new());
//! let data_path = dir.path().join("data.bin");
//! write_dataset(&data_path, &mut RandomWalkGen::new(1), 2_000, 64, &stats)?;
//!
//! // 2. Bulk-load a Coconut-Tree (non-materialized) over it.
//! let dataset = Dataset::open(&data_path, std::sync::Arc::clone(&stats))?;
//! let config = IndexConfig::default_for_len(64);
//! let tree = CoconutTree::build(&dataset, &config, dir.path(), BuildOptions::default())?;
//!
//! // 3. Ask for the nearest neighbor of a fresh query: every kind of query
//! //    is one `Query` handed to `search`, answers sorted by (dist, pos).
//! let query = RandomWalkGen::new(42).generate(64);
//! let (approx, _stats) = tree.search(&query, &Query::approx())?;
//! let (exact, _stats) = tree.search(&query, &Query::nearest())?;
//! assert!(exact[0].dist <= approx[0].dist);
//! let (top5, _stats) = tree.search(&query, &Query::knn(5))?;
//! assert_eq!(top5[0], exact[0]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Streaming ingest
//!
//! The same example as the README's "Streaming ingest" section: batches of
//! a growing dataset bulk-load into LSM runs, a simulated crash loses only
//! the un-acknowledged batch, and [`index::LsmCoconut::open`] recovers the
//! committed state.
//!
//! ```
//! use coconut::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> coconut::storage::Result<()> {
//! let dir = TempDir::new("streaming")?;
//! let stats = Arc::new(IoStats::new());
//! let data_path = dir.path().join("data.bin");
//! write_dataset(&data_path, &mut RandomWalkGen::new(1), 1_000, 64, &stats)?;
//! let dataset = Dataset::open(&data_path, Arc::clone(&stats))?;
//!
//! // Ingest the "stream" in batches; each batch becomes a bulk-loaded run.
//! let idx_dir = dir.path().join("lsm");
//! let mut lsm = LsmCoconut::new(IndexConfig::default_for_len(64),
//!                               BuildOptions::default(), &idx_dir)?;
//! lsm.ingest_upto(&dataset, 400)?;          // committed & durable on return
//! lsm.wait_for_compactions()?;
//!
//! // Simulate a crash halfway through the next commit's manifest write...
//! let torn = coconut::storage::FaultPlan::parse("manifest.torn=err@1", 0)?;
//! lsm.set_fault_plan(Some(Arc::new(torn)));
//! assert!(lsm.ingest_upto(&dataset, 1_000).is_err());
//! drop(lsm);                                // the "dead process"
//!
//! // ...and recover: the committed prefix survives, the torn write does not.
//! let mut lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default())?;
//! assert_eq!(lsm.covered_end(), 400);
//! lsm.ingest(&dataset)?;                    // re-ingest the lost tail
//! let (nearest, _stats) = lsm.search(&RandomWalkGen::new(9).generate(64), &Query::nearest())?;
//! assert!(!nearest.is_empty());
//! lsm.compact()?;                           // optional: merge to a single run
//! assert_eq!(lsm.run_count(), 1);
//! # Ok(())
//! # }
//! ```

pub use coconut_baselines as baselines;
pub use coconut_core as index;
pub use coconut_series as series;
pub use coconut_storage as storage;
pub use coconut_summary as summary;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use crate::baselines::{
        AdsIndex, AdsVariant, DsTree, Isax2Index, RTreeIndex, SerialScan, VerticalIndex,
    };
    pub use crate::index::{
        BuildOptions, CoconutTree, CoconutTrie, CompactionPolicyKind, IndexConfig, Kind,
        LeveledPolicy, LsmCoconut, Metric, Query, Snapshot, TieredPolicy,
    };
    pub use crate::series::dataset::{write_dataset, Dataset, DatasetWriter};
    pub use crate::series::gen::{AstronomyGen, Generator, RandomWalkGen, SeismicGen};
    pub use crate::series::index::{Answer, QueryStats, SeriesIndex};
    pub use crate::storage::{Deadline, IoStats, MemoryBudget, TempDir};
    pub use crate::summary::config::SaxConfig;
}
