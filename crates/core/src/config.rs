//! Index configuration and build options.

use coconut_storage::{Error, Result};
use coconut_summary::SaxConfig;

use crate::split::SplitPolicyKind;

/// Structural parameters of a Coconut index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Summarization parameters (series length, segments, cardinality).
    pub sax: SaxConfig,
    /// Maximum entries per leaf node. The paper uses 2000 records for every
    /// index it evaluates.
    pub leaf_capacity: usize,
    /// Bulk-loading target occupancy in (0, 1]: Coconut-Tree packs
    /// `floor(leaf_capacity * fill_factor)` entries per leaf ("a fill-factor
    /// that can be controlled by the user", Section 4.3).
    pub fill_factor: f64,
    /// Fan-out of the in-memory internal B+-tree levels.
    pub internal_fanout: usize,
    /// How Coconut-Trie nodes split the sorted key range (see
    /// [`crate::split`]). Irrelevant to Coconut-Tree's median-based packing
    /// but recorded uniformly so LSM recovery can reject conflicting flags.
    pub split_policy: SplitPolicyKind,
}

impl IndexConfig {
    /// The paper's defaults for a given series length: 16×256 SAX,
    /// 2000-record leaves, full fill, fan-out 64.
    pub fn default_for_len(series_len: usize) -> Self {
        IndexConfig {
            sax: SaxConfig::default_for_len(series_len),
            leaf_capacity: 2000,
            fill_factor: 1.0,
            internal_fanout: 64,
            split_policy: SplitPolicyKind::Fixed,
        }
    }

    /// Same config under a different split policy.
    pub fn with_split_policy(mut self, policy: SplitPolicyKind) -> Self {
        self.split_policy = policy;
        self
    }

    /// Validate all parameters.
    pub fn validate(&self) -> Result<()> {
        self.sax.validate()?;
        if self.leaf_capacity == 0 {
            return Err(Error::invalid("leaf_capacity must be positive"));
        }
        if !(self.fill_factor > 0.0 && self.fill_factor <= 1.0) {
            return Err(Error::invalid("fill_factor must be in (0, 1]"));
        }
        if self.internal_fanout < 2 {
            return Err(Error::invalid("internal_fanout must be at least 2"));
        }
        Ok(())
    }

    /// Entries per leaf targeted by bulk loading (at least 1).
    pub fn bulk_leaf_entries(&self) -> usize {
        ((self.leaf_capacity as f64 * self.fill_factor) as usize).max(1)
    }
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self::default_for_len(256)
    }
}

/// Options controlling one build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Memory available to the build (external-sort buffers). This is the
    /// `M` of the paper's cost model and the x-axis of Figures 8a/8b.
    pub memory_bytes: u64,
    /// Store raw series inside the leaves (the `-Full` variants).
    pub materialized: bool,
    /// Threads used by the parallel SIMS lower-bound scan.
    pub threads: usize,
    /// Key-range shards for the build's scan→summarize→sort phase: each
    /// shard runs on its own worker thread with `memory_bytes / shards` of
    /// sort budget, and the per-shard sorted streams are K-way merged into
    /// the bulk loader. `0` is read as `1`; any shard count produces a
    /// bit-identical index (see `crate::shard`).
    pub shards: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            memory_bytes: 256 << 20,
            materialized: false,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            shards: 1,
        }
    }
}

impl BuildOptions {
    /// Same options but materialized.
    pub fn materialized(mut self) -> Self {
        self.materialized = true;
        self
    }

    /// Same options with `shards` build shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = IndexConfig::default();
        c.validate().unwrap();
        assert_eq!(c.leaf_capacity, 2000);
        assert_eq!(c.sax.segments, 16);
        assert_eq!(c.bulk_leaf_entries(), 2000);
        assert_eq!(c.split_policy, SplitPolicyKind::Fixed);
        let c = c.with_split_policy(SplitPolicyKind::Adaptive);
        c.validate().unwrap();
        assert_eq!(c.split_policy, SplitPolicyKind::Adaptive);
    }

    #[test]
    fn fill_factor_scales_bulk_entries() {
        let mut c = IndexConfig {
            fill_factor: 0.5,
            ..IndexConfig::default()
        };
        assert_eq!(c.bulk_leaf_entries(), 1000);
        c.fill_factor = 0.0004; // floor would be 0 -> clamped to 1
        assert_eq!(c.bulk_leaf_entries(), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = IndexConfig {
            leaf_capacity: 0,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
        let c = IndexConfig {
            fill_factor: 0.0,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
        let c = IndexConfig {
            fill_factor: 1.5,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
        let c = IndexConfig {
            internal_fanout: 1,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn build_options_builders() {
        let o = BuildOptions::default().materialized().with_shards(4);
        assert!(o.materialized);
        assert!(o.threads >= 1);
        assert_eq!(o.shards, 4);
        assert_eq!(BuildOptions::default().shards, 1);
    }
}
