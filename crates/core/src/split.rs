//! Node-splitting policies for the bottom-up Coconut-Trie builder.
//!
//! The original builder hardcoded binary prefix recursion: every internal
//! node consumes exactly one interleaved key bit. That is faithful to the
//! paper's Coconut-Trie (and is kept, bit-identically, as
//! [`FixedBinaryPolicy`]), but on skewed key distributions it produces the
//! occupancy pathology Figure 8c measures — long one-child chains and
//! near-empty leaves next to dense regions.
//!
//! [`AdaptivePolicy`] is the Dumpy-style fix (arXiv:2304.08264): at every
//! subtree it *measures* how the entries would distribute across fanouts
//! `2, 4, .., 2^max_bits` and picks the fanout whose children — after
//! greedily merging undersized consecutive siblings into shared leaves —
//! pack entries closest to `leaf_capacity`. A wider fanout is only chosen
//! when its occupancy score beats the binary split by more than a
//! confidence margin, so near-ties resolve to the shallow, conservative
//! split instead of an overconfident deep one.
//!
//! **Answer invariance:** a split policy only changes how the sorted key
//! range is *partitioned into leaves* (and therefore the trie skeleton used
//! to seed approximate search). Exact, kNN and range answers are produced
//! by the SIMS scan over the full sorted key array with MINDIST pruning
//! ([`crate::sims`]), which is seed-independent — so any two policies yield
//! bit-identical exact answers over the same data. The `prop_split`
//! integration suite enforces this.

use std::fmt;
use std::str::FromStr;

use coconut_storage::{Error, Result};
use coconut_summary::ZKey;

/// Which split policy a trie is (or will be) built with. Recorded in the
/// index-file header and the LSM manifest so reopening needs no
/// out-of-band configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicyKind {
    /// The paper's binary prefix split: one interleaved bit per node.
    /// Byte-identical index files to pre-policy builds.
    #[default]
    Fixed,
    /// Dumpy-style variable fanout driven by measured child occupancy.
    Adaptive,
}

impl SplitPolicyKind {
    /// Every valid kind, in CLI/display order.
    pub const ALL: [SplitPolicyKind; 2] = [SplitPolicyKind::Fixed, SplitPolicyKind::Adaptive];

    /// Stable one-byte encoding for headers and manifests.
    pub fn as_u8(self) -> u8 {
        match self {
            SplitPolicyKind::Fixed => 0,
            SplitPolicyKind::Adaptive => 1,
        }
    }

    /// Decode [`SplitPolicyKind::as_u8`]; unknown bytes are corruption.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(SplitPolicyKind::Fixed),
            1 => Ok(SplitPolicyKind::Adaptive),
            other => Err(Error::corrupt(format!(
                "unknown split-policy byte {other} (expected 0=fixed or 1=adaptive)"
            ))),
        }
    }

    /// The policy implementation for this kind, with default parameters.
    pub fn policy(self) -> Box<dyn SplitPolicy> {
        match self {
            SplitPolicyKind::Fixed => Box::new(FixedBinaryPolicy),
            SplitPolicyKind::Adaptive => Box::new(AdaptivePolicy::default()),
        }
    }
}

impl fmt::Display for SplitPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SplitPolicyKind::Fixed => "fixed",
            SplitPolicyKind::Adaptive => "adaptive",
        })
    }
}

impl FromStr for SplitPolicyKind {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "fixed" => Ok(SplitPolicyKind::Fixed),
            "adaptive" => Ok(SplitPolicyKind::Adaptive),
            other => Err(Error::invalid(format!(
                "unknown split policy '{other}' (valid options: fixed, adaptive)"
            ))),
        }
    }
}

/// How one subtree of the sorted key range should be split.
///
/// The builder consults the policy only when a subtree does **not** fit one
/// leaf and key bits remain; the returned bit count `b` means "consume `b`
/// interleaved bits here" — fanout `2^b`. Implementations must be
/// deterministic functions of their inputs so that sharded and single-
/// sorter builds stay bit-identical.
pub trait SplitPolicy: Send + Sync {
    /// The serializable kind of this policy.
    fn kind(&self) -> SplitPolicyKind;

    /// Bits to consume at this node. `keys` is the subtree's sorted key
    /// slice (`len > leaf_capacity`), `depth` the first unconsumed bit,
    /// `total_bits` the key width. Must return a value in
    /// `1..=(total_bits - depth)`.
    fn choose_bits(
        &self,
        keys: &[ZKey],
        depth: usize,
        total_bits: usize,
        leaf_capacity: usize,
    ) -> usize;
}

/// The paper's split rule: always one bit. Builds produced under this
/// policy are byte-identical to the pre-policy builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedBinaryPolicy;

impl SplitPolicy for FixedBinaryPolicy {
    fn kind(&self) -> SplitPolicyKind {
        SplitPolicyKind::Fixed
    }

    fn choose_bits(&self, _: &[ZKey], _: usize, _: usize, _: usize) -> usize {
        1
    }
}

/// Dumpy-style density-driven fanout choice.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Widest split considered (fanout `2^max_bits`).
    pub max_bits: usize,
    /// A wider-than-binary fanout must beat the best narrower candidate's
    /// occupancy score by this margin — the guard against "overconfident
    /// splits" on distributions where the extra depth buys nothing.
    pub confidence: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        // Fanout up to 16 resolves four binary levels at once; 0.02 keeps
        // near-ties at the conservative shallow split.
        AdaptivePolicy {
            max_bits: 4,
            confidence: 0.02,
        }
    }
}

impl SplitPolicy for AdaptivePolicy {
    fn kind(&self) -> SplitPolicyKind {
        SplitPolicyKind::Adaptive
    }

    fn choose_bits(
        &self,
        keys: &[ZKey],
        depth: usize,
        total_bits: usize,
        leaf_capacity: usize,
    ) -> usize {
        let max_b = self.max_bits.max(1).min(total_bits - depth);
        let mut best_b = 1;
        let mut best_score = occupancy_score(
            &child_counts(keys, depth, 1, total_bits),
            keys.len(),
            leaf_capacity,
        );
        for b in 2..=max_b {
            let score = occupancy_score(
                &child_counts(keys, depth, b, total_bits),
                keys.len(),
                leaf_capacity,
            );
            // Strictly-greater-plus-margin: ties and near-ties keep the
            // narrower (cheaper, safer) fanout.
            if score > best_score + self.confidence {
                best_score = score;
                best_b = b;
            }
        }
        best_b
    }
}

/// Entry counts of the `2^width` children a split at `depth` consuming
/// `width` bits would produce. `keys` must be sorted; each boundary is a
/// binary search, so the whole histogram costs `O(2^width * log n)`.
pub fn child_counts(keys: &[ZKey], depth: usize, width: usize, total_bits: usize) -> Vec<usize> {
    let fanout = 1usize << width;
    let mut counts = vec![0usize; fanout];
    let mut start = 0usize;
    for (slot, count) in counts.iter_mut().enumerate().take(fanout - 1) {
        let end = start
            + keys[start..].partition_point(|k| k.bits(depth, width, total_bits) <= slot as u32);
        *count = end - start;
        start = end;
    }
    counts[fanout - 1] = keys.len() - start;
    counts
}

/// One greedily merged group of consecutive child slots: slots
/// `slots.start..slots.end` holding `entries` entries together. Groups with
/// `entries <= leaf_capacity` become one shared leaf; a group over capacity
/// is always a single slot and recurses deeper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotGroup {
    /// The covered child-slot range.
    pub slots: std::ops::Range<usize>,
    /// Total entries across the covered slots.
    pub entries: usize,
}

/// Greedily merge consecutive child slots so undersized siblings share a
/// leaf: walk the slots left to right, extending the current group while
/// its total stays within `leaf_capacity`; a slot that alone exceeds
/// capacity becomes its own group (it will recurse). Empty slots never
/// start a standalone group — they extend whichever group is open so every
/// slot belongs to exactly one group and descent stays total.
pub fn merge_slots(counts: &[usize], leaf_capacity: usize) -> Vec<SlotGroup> {
    let mut groups: Vec<SlotGroup> = Vec::new();
    let mut start = 0usize;
    let mut total = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > leaf_capacity {
            if i > start {
                groups.push(SlotGroup {
                    slots: start..i,
                    entries: total,
                });
            }
            groups.push(SlotGroup {
                slots: i..i + 1,
                entries: c,
            });
            start = i + 1;
            total = 0;
        } else if total + c > leaf_capacity {
            groups.push(SlotGroup {
                slots: start..i,
                entries: total,
            });
            start = i;
            total = c;
        } else {
            total += c;
        }
    }
    if start < counts.len() {
        groups.push(SlotGroup {
            slots: start..counts.len(),
            entries: total,
        });
    }
    groups
}

/// Score a candidate fanout: the fraction of entries that would settle into
/// within-capacity leaves right here, weighted by how full those leaves
/// would be. Oversized children (which must recurse) and empty slots both
/// pull the score down, so the maximizing fanout is the one that resolves
/// the most entries into the fullest leaves.
pub fn occupancy_score(counts: &[usize], n: usize, leaf_capacity: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut settled = 0usize;
    let mut leaf_groups = 0usize;
    for g in merge_slots(counts, leaf_capacity) {
        if g.entries > 0 && g.entries <= leaf_capacity {
            settled += g.entries;
            leaf_groups += 1;
        }
    }
    if leaf_groups == 0 {
        return 0.0;
    }
    let settled_frac = settled as f64 / n as f64;
    let avg_fill = settled as f64 / (leaf_groups * leaf_capacity) as f64;
    settled_frac * avg_fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_summary::zorder::interleave;

    #[test]
    fn kind_roundtrips_and_parses() {
        for kind in SplitPolicyKind::ALL {
            assert_eq!(SplitPolicyKind::from_u8(kind.as_u8()).unwrap(), kind);
            assert_eq!(kind.to_string().parse::<SplitPolicyKind>().unwrap(), kind);
            assert_eq!(kind.policy().kind(), kind);
        }
        assert_eq!(SplitPolicyKind::default(), SplitPolicyKind::Fixed);
        assert!(SplitPolicyKind::from_u8(9).is_err());
        let err = "median".parse::<SplitPolicyKind>().unwrap_err().to_string();
        assert!(err.contains("fixed") && err.contains("adaptive"), "{err}");
    }

    #[test]
    fn child_counts_partition_sorted_keys() {
        // 4-bit keys 0..16, three copies each, sorted.
        let mut keys: Vec<ZKey> = Vec::new();
        for v in 0..16u128 {
            for _ in 0..3 {
                keys.push(ZKey(v));
            }
        }
        let c = child_counts(&keys, 0, 2, 4);
        assert_eq!(c, vec![12, 12, 12, 12]);
        let c = child_counts(&keys, 2, 2, 4);
        // At depth 2 the slice is not partitioned by the low bits uniformly,
        // but counts must still sum to n.
        assert_eq!(c.iter().sum::<usize>(), keys.len());
        let c = child_counts(&keys, 0, 4, 4);
        assert_eq!(c, vec![3; 16]);
    }

    #[test]
    fn merge_slots_packs_and_isolates() {
        // capacity 10: [3,3,3,12,0,4] -> [0..3)=9, [3..4)=12 (oversized),
        // [4..6)=4 (empty slot riding along).
        let groups = merge_slots(&[3, 3, 3, 12, 0, 4], 10);
        assert_eq!(
            groups,
            vec![
                SlotGroup {
                    slots: 0..3,
                    entries: 9
                },
                SlotGroup {
                    slots: 3..4,
                    entries: 12
                },
                SlotGroup {
                    slots: 4..6,
                    entries: 4
                },
            ]
        );
        // Every slot is covered exactly once.
        let covered: usize = groups.iter().map(|g| g.slots.len()).sum();
        assert_eq!(covered, 6);
        // Leading empty slots join the first real group.
        let groups = merge_slots(&[0, 0, 7], 10);
        assert_eq!(
            groups,
            vec![SlotGroup {
                slots: 0..3,
                entries: 7
            }]
        );
    }

    #[test]
    fn occupancy_score_prefers_full_leaves() {
        // Perfect packing scores 1.0; half-empty leaves score lower;
        // everything-oversized scores 0.
        assert_eq!(occupancy_score(&[10, 10], 20, 10), 1.0);
        assert!(occupancy_score(&[5, 5], 10, 10) > occupancy_score(&[5, 0], 5, 10));
        assert_eq!(occupancy_score(&[40], 40, 10), 0.0);
        assert_eq!(occupancy_score(&[], 0, 10), 0.0);
    }

    #[test]
    fn adaptive_widens_on_uniform_dense_subtrees() {
        // 256 uniform 8-bit keys, capacity 16: a binary split leaves both
        // children oversized (score 0) while a 4-bit fanout packs each of
        // the 16 children to capacity exactly.
        let keys: Vec<ZKey> = (0..256u128).map(ZKey).collect();
        let p = AdaptivePolicy::default();
        assert_eq!(p.choose_bits(&keys, 0, 8, 16), 4);
        // Binary stays optimal when one bit already separates two full
        // leaves.
        let two: Vec<ZKey> = (0..32u128).map(ZKey).collect();
        assert_eq!(p.choose_bits(&two, 0, 5, 16), 1);
    }

    #[test]
    fn adaptive_respects_remaining_bits() {
        let keys: Vec<ZKey> = (0..8u128)
            .flat_map(|v| std::iter::repeat_n(ZKey(v), 4))
            .collect();
        let p = AdaptivePolicy::default();
        // Only 2 bits remain: never ask for more.
        for depth in [1usize, 2] {
            let b = p.choose_bits(&keys, depth, 3, 4);
            assert!(b >= 1 && b <= 3 - depth, "depth={depth} b={b}");
        }
    }

    #[test]
    fn policies_are_deterministic() {
        let keys: Vec<ZKey> = (0..200u8)
            .map(|i| interleave(&[i, i.wrapping_mul(31)], 8))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        let p = AdaptivePolicy::default();
        let a = p.choose_bits(&sorted, 0, 16, 8);
        let b = p.choose_bits(&sorted, 0, 16, 8);
        assert_eq!(a, b);
    }
}
