//! Sortable summarizations: the paper's Algorithm 1.
//!
//! Existing summarizations lay segment symbols out one after another, so
//! sorting them lexicographically orders series by their *first* segment
//! only (paper Figure 2). `interleave` instead emits, for each bit level
//! from most to least significant, the bit of every segment in series order
//! — all significant bits precede all less significant bits. The resulting
//! integer positions the series on a z-order (Morton) space-filling curve
//! (paper Figure 4): sorting the keys keeps similar series adjacent.
//!
//! The transform is a bijection on the symbol vector, so it "contains the
//! same amount of information as the original summarization" — pruning
//! power is untouched, and [`deinterleave`] recovers the SAX word for
//! lower-bound computations.
//!
//! With the paper's default of 16 segments × 8 bits, a key is exactly one
//! `u128`; any configuration with `segments * card_bits <= 128` is
//! supported. Keys are kept in the **low** `segments * card_bits` bits, so
//! all keys of one index (same configuration) order consistently.

use crate::config::SaxConfig;

/// A sortable summarization: the bit-interleaved SAX word.
///
/// `Ord` on `ZKey` is the z-order curve ordering — the ordering that makes
/// bottom-up bulk loading possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ZKey(pub u128);

impl ZKey {
    /// The smallest key.
    pub const MIN: ZKey = ZKey(0);
    /// The largest possible key (for any configuration).
    pub const MAX: ZKey = ZKey(u128::MAX);

    /// Bit `level` of the key counting from the *top* of a
    /// `total_bits`-wide key: level 0 is the most significant interleaved
    /// bit (segment 0's top bit). Used by trie descent.
    #[inline]
    pub fn bit(&self, level: usize, total_bits: usize) -> u8 {
        debug_assert!(level < total_bits);
        ((self.0 >> (total_bits - 1 - level)) & 1) as u8
    }

    /// The value of the `width` bits starting at bit `level` from the top
    /// of a `total_bits`-wide key — the child slot a variable-fanout trie
    /// node of fanout `2^width` routes this key to. `bits(l, 1, t)` equals
    /// [`ZKey::bit`]`(l, t)`.
    #[inline]
    pub fn bits(&self, level: usize, width: usize, total_bits: usize) -> u32 {
        debug_assert!((1..=32).contains(&width));
        debug_assert!(level + width <= total_bits);
        let shift = total_bits - level - width;
        let mask = if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        };
        ((self.0 >> shift) & mask) as u32
    }

    /// The key truncated to its first `depth` (most significant) bits, with
    /// the rest zeroed — the smallest key in the node covering this prefix.
    #[inline]
    pub fn prefix(&self, depth: usize, total_bits: usize) -> ZKey {
        debug_assert!(depth <= total_bits);
        if depth == 0 {
            return ZKey(0);
        }
        let keep = u128::MAX << (total_bits - depth).min(127);
        let keep = if total_bits - depth >= 128 { 0 } else { keep };
        // Mask relative to the used width.
        let width_mask = if total_bits >= 128 {
            u128::MAX
        } else {
            (1u128 << total_bits) - 1
        };
        ZKey(self.0 & keep & width_mask)
    }
}

/// Interleave `symbols` (one per segment, each holding `card_bits`
/// significant bits) into a z-order key — Algorithm 1 (`invertSum`).
#[inline]
pub fn interleave(symbols: &[u8], card_bits: u8) -> ZKey {
    let w = symbols.len();
    debug_assert!(w * card_bits as usize <= 128);
    let mut key: u128 = 0;
    // "for each bit i of a segment (most significant first): for each
    //  segment j: append bit i of segment j"
    for i in (0..card_bits).rev() {
        for &s in symbols {
            key = (key << 1) | ((s >> i) & 1) as u128;
        }
    }
    ZKey(key)
}

/// Recover the SAX symbols from a z-order key (the inverse of
/// [`interleave`]).
#[inline]
pub fn deinterleave_into(key: ZKey, segments: usize, card_bits: u8, out: &mut [u8]) {
    debug_assert_eq!(out.len(), segments);
    out[..segments].fill(0);
    let total = segments * card_bits as usize;
    let mut pos = 0usize;
    for i in (0..card_bits).rev() {
        for symbol in out.iter_mut().take(segments) {
            let bit = ((key.0 >> (total - 1 - pos)) & 1) as u8;
            *symbol |= bit << i;
            pos += 1;
        }
    }
}

/// Recover the SAX symbols from a z-order key into a fresh vector.
pub fn deinterleave(key: ZKey, segments: usize, card_bits: u8) -> Vec<u8> {
    let mut out = vec![0u8; segments];
    deinterleave_into(key, segments, card_bits, &mut out);
    out
}

/// The *unsortable* ordering used as an ablation: symbols packed
/// segment-after-segment (plain lexicographic SAX order, paper Figure 2).
pub fn lexicographic_key(symbols: &[u8], card_bits: u8) -> ZKey {
    let w = symbols.len();
    debug_assert!(w * card_bits as usize <= 128);
    let mut key: u128 = 0;
    for &s in symbols {
        key = (key << card_bits) | (s as u128 & ((1u128 << card_bits) - 1));
    }
    ZKey(key)
}

/// Per-segment prefix lengths of a z-order trie node at `depth`: segment `j`
/// has `(depth + w - 1 - j) / w` assigned bits. A z-order prefix is exactly
/// an iSAX node whose per-segment cardinalities differ by at most one bit —
/// the paper's Coconut-Trie node shape.
pub fn prefix_bits_at_depth(depth: usize, config: &SaxConfig) -> Vec<u8> {
    let w = config.segments;
    (0..w).map(|j| ((depth + w - 1 - j) / w) as u8).collect()
}

/// The SAX-space box of every key in the sorted range `[first, last]`: the
/// keys share the z-order prefix `first` and `last` have in common, which
/// fixes the top [`prefix_bits_at_depth`] bits of each segment's symbol and
/// leaves the rest free, so segment `j`'s symbols lie in `lo[j]..=hi[j]`.
/// A sorted leaf is such a range, which makes this its iSAX node word —
/// read off two keys, with nothing stored.
pub fn key_range_box(first: ZKey, last: ZKey, config: &SaxConfig, lo: &mut [u8], hi: &mut [u8]) {
    deinterleave_into(first, config.segments, config.card_bits, lo);
    widen_to_range(first, last, config, lo, hi);
}

/// The second half of [`key_range_box`]: with `lo` holding `first`'s
/// symbols, free the bits below the prefix `first` and `last` share —
/// clear them in `lo`, set them in `hi`.
pub(crate) fn widen_to_range(
    first: ZKey,
    last: ZKey,
    config: &SaxConfig,
    lo: &mut [u8],
    hi: &mut [u8],
) {
    debug_assert!(first <= last);
    let (w, bits) = (config.segments, config.card_bits as usize);
    let diff = first.0 ^ last.0;
    let common = (w * bits).saturating_sub(128 - diff.leading_zeros() as usize);
    for j in 0..w {
        let free = bits - (common + w - 1 - j) / w;
        let span = ((1u16 << free) - 1) as u8;
        lo[j] &= !span;
        hi[j] = lo[j] | span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_box_holds_exactly_the_common_prefix() {
        let cfg = SaxConfig {
            series_len: 64,
            segments: 4,
            card_bits: 3,
        };
        let (mut lo, mut hi) = ([0u8; 4], [0u8; 4]);
        // One key: a point.
        let k = interleave(&[5, 2, 7, 0], 3);
        key_range_box(k, k, &cfg, &mut lo, &mut hi);
        assert_eq!((lo, hi), ([5, 2, 7, 0], [5, 2, 7, 0]));
        // Keys that differ in the very first bit: the whole space.
        key_range_box(ZKey::MIN, interleave(&[7; 4], 3), &cfg, &mut lo, &mut hi);
        assert_eq!((lo, hi), ([0; 4], [7; 4]));
        // First difference at interleaved bit 5 (segment 1, second bit):
        // segment 0 keeps two bits, the others one.
        let a = interleave(&[0b101, 0b100, 0b011, 0b110], 3);
        let b = interleave(&[0b100, 0b110, 0b000, 0b100], 3);
        key_range_box(a, b, &cfg, &mut lo, &mut hi);
        assert_eq!(lo, [0b100, 0b100, 0b000, 0b100]);
        assert_eq!(hi, [0b101, 0b111, 0b011, 0b111]);
        // Every key between the two lies inside the box.
        for k in a.0..=b.0 {
            let s = deinterleave(ZKey(k), 4, 3);
            assert!((0..4).all(|j| lo[j] <= s[j] && s[j] <= hi[j]), "{k:b}");
        }
    }

    #[test]
    fn paper_figure4_example() {
        // S1=ec=(100,010), S2=ee=(100,100), S3=fc=(101,010), S4=ge=(110,100)
        // with 3-bit symbols. Sorted by z-order the similar pairs are
        // adjacent: S1,S3 then S2,S4 — unlike lexicographic order.
        let s1 = interleave(&[0b100, 0b010], 3);
        let s2 = interleave(&[0b100, 0b100], 3);
        let s3 = interleave(&[0b101, 0b010], 3);
        let s4 = interleave(&[0b110, 0b100], 3);
        assert_eq!(s1.0, 0b100100);
        assert_eq!(s2.0, 0b110000);
        assert_eq!(s3.0, 0b100110);
        assert_eq!(s4.0, 0b111000);
        let mut order = [("S1", s1), ("S2", s2), ("S3", s3), ("S4", s4)];
        order.sort_by_key(|&(_, k)| k);
        let names: Vec<&str> = order.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["S1", "S3", "S2", "S4"]);

        // Lexicographic order shows the pathology: S1,S2 adjacent instead.
        let mut lex = [
            ("S1", lexicographic_key(&[0b100, 0b010], 3)),
            ("S2", lexicographic_key(&[0b100, 0b100], 3)),
            ("S3", lexicographic_key(&[0b101, 0b010], 3)),
            ("S4", lexicographic_key(&[0b110, 0b100], 3)),
        ];
        lex.sort_by_key(|&(_, k)| k);
        let names: Vec<&str> = lex.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["S1", "S2", "S3", "S4"]);
    }

    #[test]
    fn roundtrip_all_widths() {
        for (w, bits) in [
            (1usize, 8u8),
            (2, 4),
            (4, 8),
            (16, 8),
            (32, 4),
            (16, 1),
            (3, 5),
        ] {
            let symbols: Vec<u8> = (0..w)
                .map(|j| ((j * 37 + 11) % (1 << bits)) as u8)
                .collect();
            let key = interleave(&symbols, bits);
            assert_eq!(deinterleave(key, w, bits), symbols, "w={w} bits={bits}");
        }
    }

    #[test]
    fn full_128_bit_key_roundtrip() {
        let symbols: Vec<u8> = (0..16).map(|j| (j * 17) as u8).collect();
        let key = interleave(&symbols, 8);
        assert_eq!(deinterleave(key, 16, 8), symbols);
        // All-ones uses all 128 bits.
        let ones = vec![0xffu8; 16];
        assert_eq!(interleave(&ones, 8).0, u128::MAX);
    }

    #[test]
    fn bit_accessor_walks_msb_first() {
        let key = interleave(&[0b10, 0b01], 2); // bits: 1,0 (level0) 0,1 (level1)
        let total = 4;
        assert_eq!(key.bit(0, total), 1);
        assert_eq!(key.bit(1, total), 0);
        assert_eq!(key.bit(2, total), 0);
        assert_eq!(key.bit(3, total), 1);
    }

    #[test]
    fn bits_accessor_matches_single_bit_walk() {
        let key = interleave(&[0b101, 0b011], 3); // 6-bit key
        let total = 6;
        // Width 1 agrees with bit() at every level.
        for level in 0..total {
            assert_eq!(key.bits(level, 1, total), key.bit(level, total) as u32);
        }
        // Wider windows are the concatenation of the single bits.
        for level in 0..total {
            for width in 1..=(total - level) {
                let mut want = 0u32;
                for l in level..level + width {
                    want = (want << 1) | key.bit(l, total) as u32;
                }
                assert_eq!(key.bits(level, width, total), want, "l={level} w={width}");
            }
        }
    }

    #[test]
    fn bits_accessor_full_width_key() {
        let key = ZKey(u128::MAX);
        assert_eq!(key.bits(0, 32, 128), u32::MAX);
        assert_eq!(key.bits(96, 32, 128), u32::MAX);
        let key = ZKey(1);
        assert_eq!(key.bits(96, 32, 128), 1);
        assert_eq!(key.bits(0, 32, 128), 0);
    }

    #[test]
    fn prefix_masks_low_bits() {
        let key = ZKey(0b101101);
        let total = 6;
        assert_eq!(key.prefix(0, total).0, 0);
        assert_eq!(key.prefix(2, total).0, 0b100000);
        assert_eq!(key.prefix(5, total).0, 0b101100);
        assert_eq!(key.prefix(6, total).0, 0b101101);
    }

    #[test]
    fn prefix_works_at_128_bits() {
        let key = ZKey(u128::MAX);
        assert_eq!(key.prefix(0, 128).0, 0);
        assert_eq!(key.prefix(1, 128).0, 1u128 << 127);
        assert_eq!(key.prefix(128, 128).0, u128::MAX);
    }

    #[test]
    fn more_significant_bits_dominate_ordering() {
        // Changing a high bit of any segment must move the key more than
        // changing any lower bit of any segment.
        let base = [0b1000u8, 0b1000, 0b1000, 0b1000];
        let base_key = interleave(&base, 4);
        let mut high = base;
        high[3] ^= 0b1000; // top bit of last segment
        let mut low = base;
        low[0] ^= 0b0001; // bottom bit of first segment
        let dh = interleave(&high, 4).0.abs_diff(base_key.0);
        let dl = interleave(&low, 4).0.abs_diff(base_key.0);
        assert!(dh > dl);
    }

    #[test]
    fn prefix_bits_at_depth_shape() {
        let cfg = SaxConfig {
            series_len: 64,
            segments: 4,
            card_bits: 2,
        };
        assert_eq!(prefix_bits_at_depth(0, &cfg), vec![0, 0, 0, 0]);
        assert_eq!(prefix_bits_at_depth(1, &cfg), vec![1, 0, 0, 0]);
        assert_eq!(prefix_bits_at_depth(4, &cfg), vec![1, 1, 1, 1]);
        assert_eq!(prefix_bits_at_depth(6, &cfg), vec![2, 2, 1, 1]);
        assert_eq!(prefix_bits_at_depth(8, &cfg), vec![2, 2, 2, 2]);
    }

    #[test]
    fn zkey_ordering_is_total_and_consistent() {
        let keys: Vec<ZKey> = (0..100u8)
            .map(|i| interleave(&[i, 100 - i, i / 2, 3], 8))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }
}
