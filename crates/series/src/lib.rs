//! Data series model for the Coconut workspace.
//!
//! A *data series* (Definition 1 of the paper) is an ordered sequence of
//! values. This crate provides:
//!
//! * [`distance`] — z-normalization and Euclidean distance (the paper's
//!   metric, Definition 2), including the early-abandoning variant used by
//!   every exact-search inner loop.
//! * [`dataset`] — the raw binary dataset file format (a header followed by
//!   packed little-endian `f32` values), with sequential and random access
//!   through the I/O-accounted [`coconut_storage::CountedFile`].
//! * [`gen`] — synthetic data generators: the paper's random-walk generator
//!   and behaviour-preserving stand-ins for its seismic and astronomy
//!   datasets (see DESIGN.md §5 for the substitution rationale).
//! * [`index`] — the `SeriesIndex` trait implemented by every index in the
//!   workspace, plus the shared [`index::Answer`]/[`index::QueryStats`]
//!   types, so the experiment harness can drive all indexes uniformly.
//! * [`simd`] — the runtime-dispatched vector kernels (AVX2 with a
//!   bit-identical scalar mirror) behind the distance and summarization
//!   hot paths; `COCONUT_FORCE_SCALAR=1` pins the scalar path.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod dataset;
pub mod distance;
pub mod dtw;
pub mod gen;
pub mod index;
pub mod simd;

pub use coconut_storage::{Error, Result};

/// The value type of all series in this workspace (the paper stores raw
/// series as 4-byte floats; 256-point series are 1 KiB each).
pub type Value = f32;
