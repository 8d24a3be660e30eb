//! The interface shared by every data series index in the workspace.
//!
//! The paper benchmarks eight index families under the same protocol: build
//! over a raw file, then answer approximate and exact nearest-neighbor
//! queries. [`SeriesIndex`] captures exactly that protocol so the experiment
//! harness (and the integration tests) can drive Coconut and every baseline
//! through one code path.

use crate::Value;
use coconut_storage::Result;

/// The result of a nearest-neighbor query: the position of the answer in the
/// raw dataset and its Euclidean distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Position (series index) in the raw dataset file.
    pub pos: u64,
    /// Euclidean distance between the query and this series.
    pub dist: f64,
}

impl Answer {
    /// A sentinel used before any candidate has been evaluated.
    pub fn none() -> Self {
        Answer {
            pos: u64::MAX,
            dist: f64::INFINITY,
        }
    }

    /// Whether this answer holds a real candidate.
    pub fn is_some(&self) -> bool {
        self.pos != u64::MAX
    }

    /// Keep the better (smaller-distance) of two answers.
    pub fn merge(&mut self, other: Answer) {
        if other.dist < self.dist {
            *self = other;
        }
    }
}

/// Work counters accumulated while answering one query — the paper's
/// Figure 9f reports `records_fetched` ("visited records") directly.
///
/// For the Coconut indexes the counters are exact and repeat run to run,
/// whatever the thread count. The probe accounts for the records of its
/// seed leaves and the exact scan for every other one, so an exact query
/// over an index (or snapshot, or shard set) of `N` records has
/// `pruned + records_fetched == N`, while `lower_bounds <= N + leaves +
/// zones` (a zone being 64 entries of a leaf): a leaf whose box bound
/// already exceeds the cutoff is skipped without bounding its zones, and a
/// zone whose box bound does without bounding its keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Leaf nodes (or equivalent disk units) read: for the Coconut indexes,
    /// the leaf blocks the probe reads (the scan works from the in-memory
    /// summaries).
    pub leaves_visited: u64,
    /// Raw series fetched and compared with the true distance, by the
    /// probe and the scan together.
    pub records_fetched: u64,
    /// Records skipped unfetched because a lower bound exceeded the
    /// cutoff: every entry of a leaf pruned by its box, every key filtered
    /// inside a surviving leaf, every candidate dropped when the cutoff
    /// tightened before its turn — and the seed-leaf entries the probe
    /// passed over.
    pub pruned: u64,
    /// Lower bounds computed by the exact scan: one per leaf box, one per
    /// zone box of a surviving leaf, and one per key inside a surviving
    /// zone. (The probe's bounds over its few seed leaves are not counted.)
    pub lower_bounds: u64,
}

impl QueryStats {
    /// Element-wise sum (for averaging across a query batch).
    pub fn add(&mut self, other: &QueryStats) {
        self.leaves_visited += other.leaves_visited;
        self.records_fetched += other.records_fetched;
        self.pruned += other.pruned;
        self.lower_bounds += other.lower_bounds;
    }
}

/// A built data series index that can answer nearest-neighbor queries.
///
/// `query` must already be z-normalized and have the index's series length.
pub trait SeriesIndex {
    /// A short display name ("CTree", "ADSFull", ...).
    fn name(&self) -> String;

    /// Approximate 1-NN: visit the most promising leaf (or leaves) only.
    fn approximate(&self, query: &[Value]) -> Result<Answer>;

    /// Exact 1-NN with work counters.
    fn exact(&self, query: &[Value]) -> Result<(Answer, QueryStats)>;

    /// Bytes this index occupies on disk (the paper's Figure 8c).
    fn disk_bytes(&self) -> u64;

    /// Number of leaf nodes (the paper's occupancy discussion).
    fn leaf_count(&self) -> u64;

    /// Average leaf fill factor in [0, 1] (entries / capacity).
    fn avg_leaf_fill(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_merge_keeps_minimum() {
        let mut a = Answer::none();
        assert!(!a.is_some());
        a.merge(Answer { pos: 3, dist: 5.0 });
        assert_eq!(a.pos, 3);
        a.merge(Answer { pos: 9, dist: 7.0 });
        assert_eq!(a.pos, 3);
        a.merge(Answer { pos: 1, dist: 0.5 });
        assert_eq!(a.pos, 1);
        assert!(a.is_some());
    }

    #[test]
    fn query_stats_accumulate() {
        let mut a = QueryStats {
            leaves_visited: 1,
            records_fetched: 2,
            pruned: 3,
            lower_bounds: 4,
        };
        let b = QueryStats {
            leaves_visited: 10,
            records_fetched: 20,
            pruned: 30,
            lower_bounds: 40,
        };
        a.add(&b);
        assert_eq!(a.leaves_visited, 11);
        assert_eq!(a.records_fetched, 22);
        assert_eq!(a.pruned, 33);
        assert_eq!(a.lower_bounds, 44);
    }
}
