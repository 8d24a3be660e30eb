//! Data series summarizations, including the paper's sortable summarization.
//!
//! The pipeline (paper Figures 1, 2 and 4):
//!
//! 1. [`paa`] — Piecewise Aggregate Approximation: the series is cut into
//!    `w` equal segments and each segment is replaced by its mean.
//! 2. [`sax`] — Symbolic Aggregate approXimation: each PAA value is
//!    quantized into one of `2^b` regions whose boundaries ([`breakpoints`])
//!    are standard-normal quantiles, giving a `w`-symbol word.
//! 3. [`zorder`] — **the paper's contribution**: the bits of the `w` symbols
//!    are interleaved so that all most-significant bits precede all
//!    less-significant bits (Algorithm 1). The result is a single integer
//!    key; sorting by it arranges series along a z-order space-filling
//!    curve, keeping similar series adjacent — which is what enables
//!    bottom-up bulk loading.
//! 4. [`mindist`] — lower-bounding distances between a query and SAX words
//!    or iSAX node prefixes; pruning power is unchanged by the bit
//!    inversion because the transform is a bijection.
//!
//! [`isax`] provides the multi-resolution iSAX masks used by the trie-style
//! indexes, and [`haar`] the Discrete Haar Wavelet Transform used by the
//! Vertical baseline.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod breakpoints;
pub mod config;
pub mod haar;
pub mod isax;
pub mod mindist;
pub mod paa;
pub mod sax;
pub mod zorder;

pub use coconut_storage::{Error, Result};
pub use config::SaxConfig;
pub use mindist::QueryDistTable;
pub use zorder::ZKey;
