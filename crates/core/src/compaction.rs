//! Compaction policy for the LSM index: *when* to merge runs, and *which*
//! adjacent runs to merge.
//!
//! [`crate::lsm::LsmCoconut`] keeps its runs in raw-file position order
//! (which, because batches only ever append, is also arrival order — the
//! newest run covers the highest positions). A policy only ever proposes
//! merging an **adjacent window** of that sequence, so the merged run again
//! covers one contiguous range and the manifest invariant is preserved.
//!
//! The policy decides *what* to merge; the mechanics — a K-way
//! [`coconut_storage::MergedStream`] over the runs' sorted leaf streams,
//! bulk-loaded into a fresh run on the index's one compaction thread — live
//! in [`crate::lsm`]. The one policy is size-tiered ([`TieredPolicy`]): its
//! runs are the temporally bounded partitions a streaming index's windows
//! are cut from.
//!
//! Compaction is also independent of the node-splitting policy
//! ([`crate::split::SplitPolicy`]): runs are median-packed trees whose
//! leaves are cut by position, so the configured policy does not change
//! merged-run bytes. The manifest still records it (v3's policy byte) so
//! recovery rebuilds an [`crate::IndexConfig`] equal to the one the index
//! was created with.

use std::ops::Range;

use coconut_storage::{Error, Result};

/// Which compaction policy family an LSM index runs under. The manifest
/// keeps one byte for it (format v4): size-tiered, byte 0, is the only
/// family. Byte 1 named the leveled family, which was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicyKind {
    /// Size-tiered merging ([`TieredPolicy`]): low write amplification,
    /// read amplification bounded by the run-count cap.
    #[default]
    Tiered,
}

impl CompactionPolicyKind {
    /// Stable one-byte encoding for the manifest.
    pub fn as_u8(self) -> u8 {
        match self {
            CompactionPolicyKind::Tiered => 0,
        }
    }

    /// Decode [`CompactionPolicyKind::as_u8`]. Byte 1 (an index grown under
    /// leveled compaction) is refused with a typed error naming the
    /// removal; any other unknown byte is corruption.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(CompactionPolicyKind::Tiered),
            1 => Err(Error::invalid(
                "this index was grown under leveled compaction, which was \
                 removed; rebuild it (size-tiered is the one compaction policy)",
            )),
            other => Err(Error::corrupt(format!(
                "unknown compaction-policy byte {other} (expected 0=tiered)"
            ))),
        }
    }

    /// The policy implementation for this kind, with default parameters.
    pub fn policy(self) -> Box<dyn CompactionPolicy> {
        match self {
            CompactionPolicyKind::Tiered => Box::new(TieredPolicy::default()),
        }
    }
}

/// Decides which adjacent runs of an LSM index to merge next.
///
/// `plan` is called on the compaction thread with the live runs' entry
/// counts in position order after every run addition and after every
/// completed compaction; it runs until no more work is proposed, so a
/// policy can cascade (merge, then merge the result again). Each call sees
/// the whole run list, so a global rule such as [`TieredPolicy`]'s run cap
/// holds after every merge.
pub trait CompactionPolicy: Send {
    /// A short display name ("tiered", ...).
    fn name(&self) -> &'static str;

    /// The family this policy belongs to.
    fn kind(&self) -> CompactionPolicyKind;

    /// Given the live runs' entry counts (position order), return the index
    /// window of adjacent runs to merge next, or `None` when the shape is
    /// acceptable. Windows of fewer than two runs are ignored.
    fn plan(&self, run_entries: &[u64]) -> Option<Range<usize>>;
}

/// Size-tiered compaction (the classic LSM default, cf. Cassandra/RocksDB
/// "universal"): runs are bucketed into size *tiers* — tier `t` holds runs
/// with `size_ratio^t <= entries < size_ratio^(t+1)` — and whenever
/// `tier_runs` adjacent runs fall into the same tier, they are merged into
/// one run of (roughly) the next tier. Merges cascade: ingesting
/// equal-sized batches yields the familiar logarithmic run ladder, and
/// write amplification stays `O(log_ratio(N))` per record.
///
/// `max_runs` is a hard cap on read amplification: if the ladder still
/// exceeds it (e.g. wildly mixed batch sizes never line up in one tier),
/// the two adjacent runs with the smallest combined size are merged until
/// the count is back under the cap.
#[derive(Debug, Clone)]
pub struct TieredPolicy {
    /// Size ratio between consecutive tiers (≥ 2).
    pub size_ratio: u64,
    /// Adjacent same-tier runs that trigger a merge (≥ 2).
    pub tier_runs: usize,
    /// Hard cap on the total run count (≥ 1).
    pub max_runs: usize,
}

impl Default for TieredPolicy {
    fn default() -> Self {
        TieredPolicy {
            size_ratio: 4,
            tier_runs: 4,
            max_runs: 12,
        }
    }
}

impl TieredPolicy {
    /// A policy that keeps at most `max_runs` runs, merging eagerly enough
    /// (tier width = cap) that the cap rule rarely fires.
    pub fn with_max_runs(max_runs: usize) -> Self {
        let max_runs = max_runs.max(1);
        TieredPolicy {
            size_ratio: 4,
            tier_runs: max_runs.clamp(2, 4),
            max_runs,
        }
    }

    /// The tier of a run with `entries` records.
    fn tier(&self, entries: u64) -> u32 {
        let ratio = self.size_ratio.max(2);
        let mut v = entries.max(1);
        let mut t = 0;
        while v >= ratio {
            v /= ratio;
            t += 1;
        }
        t
    }
}

impl CompactionPolicy for TieredPolicy {
    fn name(&self) -> &'static str {
        "tiered"
    }

    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::Tiered
    }

    fn plan(&self, run_entries: &[u64]) -> Option<Range<usize>> {
        let tier_runs = self.tier_runs.max(2);
        // Rule 1: `tier_runs` adjacent runs in one tier merge into the next
        // tier. Prefer the lowest (smallest) qualifying tier so cheap merges
        // happen first and cascade upward.
        let tiers: Vec<u32> = run_entries.iter().map(|&e| self.tier(e)).collect();
        let mut best: Option<(u32, Range<usize>)> = None;
        let mut start = 0;
        for i in 1..=tiers.len() {
            if i == tiers.len() || tiers[i] != tiers[start] {
                if i - start >= tier_runs {
                    let window = start..start + tier_runs;
                    match &best {
                        Some((t, _)) if *t <= tiers[start] => {}
                        _ => best = Some((tiers[start], window)),
                    }
                }
                start = i;
            }
        }
        if let Some((_, window)) = best {
            return Some(window);
        }
        // Rule 2: hard cap on read amplification — merge the cheapest
        // adjacent pair until the count is back under `max_runs`.
        if run_entries.len() > self.max_runs.max(1) {
            let pair = run_entries
                .windows(2)
                .enumerate()
                .min_by_key(|(_, w)| w[0] + w[1])
                .map(|(i, _)| i)?;
            return Some(pair..pair + 2);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codec_roundtrips_and_rejects_unknown() {
        let kind = CompactionPolicyKind::Tiered;
        assert_eq!(CompactionPolicyKind::from_u8(kind.as_u8()).unwrap(), kind);
        assert_eq!(kind.policy().kind(), kind);
        // The removed leveled byte names the removal; other bytes are
        // corruption.
        match CompactionPolicyKind::from_u8(1) {
            Err(Error::InvalidArg(msg)) => assert!(msg.contains("removed"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            CompactionPolicyKind::from_u8(7),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn tiers_follow_the_size_ratio() {
        let p = TieredPolicy::default(); // ratio 4
        assert_eq!(p.tier(0), 0);
        assert_eq!(p.tier(3), 0);
        assert_eq!(p.tier(4), 1);
        assert_eq!(p.tier(15), 1);
        assert_eq!(p.tier(16), 2);
        assert_eq!(p.tier(64), 3);
    }

    #[test]
    fn equal_runs_merge_once_tier_width_reached() {
        let p = TieredPolicy {
            size_ratio: 4,
            tier_runs: 4,
            max_runs: 12,
        };
        assert_eq!(p.plan(&[100, 100, 100]), None);
        assert_eq!(p.plan(&[100, 100, 100, 100]), Some(0..4));
        // The merged run (tier above) plus fresh small runs: no merge until
        // four small ones line up again.
        assert_eq!(p.plan(&[400, 100, 100, 100]), None);
        assert_eq!(p.plan(&[400, 100, 100, 100, 100]), Some(1..5));
    }

    #[test]
    fn lowest_tier_merges_first_and_cascades() {
        let p = TieredPolicy {
            size_ratio: 4,
            tier_runs: 2,
            max_runs: 12,
        };
        // Both the two 400s (tier 4) and the two 10s (tier 1) qualify; the
        // smaller tier wins.
        assert_eq!(p.plan(&[400, 400, 10, 10]), Some(2..4));
        // After that merge the 20-run joins tier 2; the 400s merge next.
        assert_eq!(p.plan(&[400, 400, 20]), Some(0..2));
    }

    #[test]
    fn cap_rule_merges_cheapest_adjacent_pair() {
        let p = TieredPolicy {
            size_ratio: 4,
            tier_runs: 4,
            max_runs: 3,
        };
        // No tier has 4 adjacent members, but the cap (3) is exceeded:
        // merge the cheapest adjacent pair (70 + 5).
        assert_eq!(p.plan(&[1000, 70, 5, 300]), Some(1..3));
        assert_eq!(p.plan(&[1000, 75, 300]), None);
    }

    #[test]
    fn with_max_runs_bounds_the_ladder() {
        let p = TieredPolicy::with_max_runs(2);
        assert_eq!(p.tier_runs, 2);
        assert_eq!(p.max_runs, 2);
        // Two equal runs merge immediately (tier rule), keeping the count
        // at the cap without ever invoking the cap rule.
        assert_eq!(p.plan(&[100, 100]), Some(0..2));
        assert_eq!(p.plan(&[400, 100]), None);
        assert_eq!(p.plan(&[400, 100, 90]), Some(1..3));
    }

    #[test]
    fn empty_and_single_run_never_merge() {
        let p = TieredPolicy::default();
        assert_eq!(p.plan(&[]), None);
        assert_eq!(p.plan(&[1_000_000]), None);
    }
}
