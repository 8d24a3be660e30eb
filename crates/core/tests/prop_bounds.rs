//! Property tests for the bounds the SIMS scan prunes with: over random
//! sorted leaves — one-entry leaves, runs of identical keys cut across leaf
//! boundaries, every key identical, leaves far larger than their
//! neighbors (what prefix splitting leaves behind when duplicates overflow
//! a leaf) — and for both metrics,
//!
//! ```text
//! leaf box bound  <=  zone box bound  <=  bound of every key in the zone  <=  true distance
//! ```
//!
//! so skipping a leaf by its box, a zone by its box, or a record by its key,
//! never drops an answer; and the bound the block kernel reports for an
//! entry is, bit for bit, the bound of its z-order key.

use coconut_core::leaves::Summaries;
use coconut_core::sims::{Distance, Dtw, Ed};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::dtw::dtw;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::Value;
use coconut_summary::mindist::ZONE;
use coconut_summary::sax::Summarizer;
use coconut_summary::{SaxConfig, ZKey};
use proptest::prelude::*;

const LEN: usize = 64;

/// `(query, series, band) -> distance`.
type TrueDistance = fn(&[Value], &[Value], usize) -> f64;

fn walk(seed: u64) -> Vec<Value> {
    let mut s = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut s);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn box_bound_le_key_bounds_le_true_distance(
        n in 1usize..300,
        seed in 0u64..1_000_000,
        // Each distinct series appears `copies` times in a row: above one,
        // identical keys straddle leaf cuts; at `n` and beyond, every key
        // is the same.
        copies in 1usize..150,
        // Leaf sizes, cycled: lone entries next to oversized leaves.
        cuts in proptest::collection::vec(1usize..150, 1..6),
        band in 0usize..9,
    ) {
        let config = SaxConfig::default_for_len(LEN);
        let data: Vec<Vec<Value>> = (0..n).map(|i| walk(seed + (i / copies) as u64)).collect();
        let mut summarizer = Summarizer::new(config);
        let mut entries: Vec<(ZKey, u64)> =
            data.iter().map(|s| summarizer.zkey(s)).zip(0..).collect();
        entries.sort_unstable();
        let summaries = Summaries::from_sorted(&config, &entries, cuts.iter().copied().cycle());
        prop_assert_eq!(summaries.len(), n);

        let q = walk(seed ^ 0x5EED);
        let (ed, dt) = (Ed::new(&q, &config), Dtw::new(&q, band, &config));
        let true_distance: [TrueDistance; 2] = [|q, s, _| euclidean(q, s), dtw];
        let metrics: [&dyn Distance; 2] = [&ed, &dt];
        for (metric, distance) in metrics.into_iter().zip(true_distance) {
            let table = metric.table();
            let mut seen = 0;
            for l in 0..summaries.leaf_count() {
                let start = summaries.leaf_starts()[l];
                prop_assert_eq!(start, seen);
                let (lo, hi) = summaries.leaf_box(l);
                let box_bound = table.box_bound(&lo, &hi);
                let block = summaries.block(l).unwrap();
                let mut zones = Vec::new();
                table.key_filter(f64::MAX).boxes_under(block.zones, 0, &mut zones);
                prop_assert_eq!(zones.len(), summaries.leaf_len(l).div_ceil(ZONE));
                let mut bounds = Vec::new();
                table.bounds_under(block.symbols, f64::MAX, start, &mut bounds);
                prop_assert_eq!(bounds.len(), summaries.leaf_len(l));
                for (i, bound) in bounds {
                    prop_assert_eq!(i, seen);
                    let (key, pos) = entries[i];
                    prop_assert_eq!(block.pos(i - start), pos);
                    prop_assert_eq!(bound.to_bits(), table.mindist_zkey(key).to_bits());
                    let zone = zones[(i - start) / ZONE].1;
                    prop_assert!(box_bound <= zone, "leaf {l}: box {box_bound} > zone {zone}");
                    prop_assert!(zone <= bound, "leaf {l}: zone {zone} > key {bound}");
                    let true_dist = distance(&q, &data[pos as usize], band);
                    prop_assert!(
                        bound <= true_dist + 1e-6,
                        "entry {i}: bound {bound} > distance {true_dist}"
                    );
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, n);
        }
    }
}
