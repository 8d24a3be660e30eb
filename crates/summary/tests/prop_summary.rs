//! Property-based tests for the summarization pipeline.
//!
//! These check the invariants the paper's correctness rests on, over
//! arbitrary inputs:
//!
//! 1. interleave/deinterleave is a bijection (sortable summarizations lose
//!    no information — Section 4.1);
//! 2. MINDIST lower-bounds the true Euclidean distance for every
//!    granularity (word, node mask, z-order key);
//! 3. refining an iSAX mask never loosens the bound;
//! 4. z-ordering preserves the prefix structure (a key's trie node always
//!    contains the key).

use coconut_series::distance::{euclidean, znormalize};
use coconut_series::Value;
use coconut_summary::breakpoints::{breakpoints, symbol_for};
use coconut_summary::config::SaxConfig;
use coconut_summary::isax::IsaxMask;
use coconut_summary::mindist::{mindist_paa_isax, mindist_paa_sax, mindist_paa_zkey};
use coconut_summary::paa::paa;
use coconut_summary::sax::sax_word;
use coconut_summary::zorder::{deinterleave, interleave, lexicographic_key};
use proptest::prelude::*;

fn series_strategy(len: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(-1000.0f32..1000.0f32, len)
}

fn znormed(len: usize) -> impl Strategy<Value = Vec<Value>> {
    series_strategy(len).prop_map(|mut s| {
        znormalize(&mut s);
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn interleave_roundtrips(symbols in proptest::collection::vec(any::<u8>(), 1..=16)) {
        let key = interleave(&symbols, 8);
        prop_assert_eq!(deinterleave(key, symbols.len(), 8), symbols);
    }

    #[test]
    fn interleave_roundtrips_small_cardinality(
        symbols in proptest::collection::vec(0u8..16, 1..=32),
    ) {
        let key = interleave(&symbols, 4);
        prop_assert_eq!(deinterleave(key, symbols.len(), 4), symbols);
    }

    #[test]
    fn interleave_is_injective(
        a in proptest::collection::vec(any::<u8>(), 16),
        b in proptest::collection::vec(any::<u8>(), 16),
    ) {
        let ka = interleave(&a, 8);
        let kb = interleave(&b, 8);
        prop_assert_eq!(ka == kb, a == b);
    }

    #[test]
    fn mindist_word_lower_bounds_euclidean(
        q in znormed(64),
        s in znormed(64),
    ) {
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let qp = paa(&q, cfg.segments);
        let word = sax_word(&s, &cfg);
        let md = mindist_paa_sax(&qp, word.symbols(), &cfg);
        let ed = euclidean(&q, &s);
        prop_assert!(md <= ed + 1e-4, "mindist {} > euclidean {}", md, ed);
    }

    #[test]
    fn mindist_zkey_agrees_with_word(
        q in znormed(64),
        s in znormed(64),
    ) {
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let qp = paa(&q, cfg.segments);
        let word = sax_word(&s, &cfg);
        let key = interleave(word.symbols(), cfg.card_bits);
        let a = mindist_paa_sax(&qp, word.symbols(), &cfg);
        let b = mindist_paa_zkey(&qp, key, &cfg);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn mask_refinement_is_monotone(
        q in znormed(64),
        s in znormed(64),
        depth_a in 0usize..=64,
        depth_b in 0usize..=64,
    ) {
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let (lo, hi) = if depth_a <= depth_b { (depth_a, depth_b) } else { (depth_b, depth_a) };
        let qp = paa(&q, cfg.segments);
        let word = sax_word(&s, &cfg);
        let key = interleave(word.symbols(), cfg.card_bits);
        let coarse = mindist_paa_isax(&qp, &IsaxMask::from_zorder_prefix(key, lo, &cfg), &cfg);
        let fine = mindist_paa_isax(&qp, &IsaxMask::from_zorder_prefix(key, hi, &cfg), &cfg);
        prop_assert!(coarse <= fine + 1e-9);
        let ed = euclidean(&q, &s);
        prop_assert!(fine <= ed + 1e-4);
    }

    #[test]
    fn node_mask_contains_its_key(
        s in znormed(64),
        depth in 0usize..=64,
    ) {
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let word = sax_word(&s, &cfg);
        let key = interleave(word.symbols(), cfg.card_bits);
        let mask = IsaxMask::from_zorder_prefix(key, depth, &cfg);
        prop_assert!(mask.matches(word.symbols(), cfg.card_bits));
    }

    #[test]
    fn symbol_prefix_property_holds_for_all_values(v in -50.0f64..50.0) {
        let fine = symbol_for(8, v);
        for bits in 1..=8u8 {
            prop_assert_eq!(fine >> (8 - bits), symbol_for(bits, v));
        }
    }

    #[test]
    fn shared_zorder_prefix_implies_shared_sax_prefixes(
        a in proptest::collection::vec(any::<u8>(), 8),
        b in proptest::collection::vec(any::<u8>(), 8),
    ) {
        // If two keys agree on their first d interleaved bits, then for
        // every segment the symbols agree on their first (d assigned) bits.
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let ka = interleave(&a, 8);
        let kb = interleave(&b, 8);
        let total = cfg.word_bits();
        let mut common = 0usize;
        while common < total && ka.bit(common, total) == kb.bit(common, total) {
            common += 1;
        }
        let mask_a = IsaxMask::from_zorder_prefix(ka, common, &cfg);
        prop_assert!(mask_a.matches(&b, 8),
            "b must fall under a's node at the common depth {}", common);
    }

    #[test]
    fn lexicographic_key_sorts_by_first_segment(
        a in proptest::collection::vec(any::<u8>(), 4),
        b in proptest::collection::vec(any::<u8>(), 4),
    ) {
        // Sanity for the ablation: lexicographic keys compare first by
        // segment 0, ignoring all other segments unless tied.
        if a[0] != b[0] {
            let ka = lexicographic_key(&a, 8);
            let kb = lexicographic_key(&b, 8);
            prop_assert_eq!(ka < kb, a[0] < b[0]);
        }
    }

    #[test]
    fn batched_mindist_is_dispatch_invariant(
        q in znormed(64),
        words in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 8), 1..40),
    ) {
        // The batched kernel (block decode + table gather) must produce
        // bit-identical bounds to the one-key-at-a-time path on every
        // dispatch, for any key count (incl. non-multiple-of-8 remainders).
        use coconut_series::simd::Dispatch;
        use coconut_summary::mindist::QueryDistTable;
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let qp = paa(&q, cfg.segments);
        let keys: Vec<_> = words.iter().map(|w| interleave(w, cfg.card_bits)).collect();
        let table = QueryDistTable::new(&qp, &cfg);
        let expect: Vec<f64> =
            keys.iter().map(|&k| mindist_paa_zkey(&qp, k, &cfg)).collect();
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            let mut out = vec![0.0f64; keys.len()];
            table.mindist_batch_into_with(dispatch, &keys, &mut out);
            for (got, want) in out.iter().zip(expect.iter()) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn symbol_block_bounds_are_dispatch_invariant(
        q in znormed(64),
        words in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 8), 1..70),
        keep in 0usize..70,
    ) {
        // The fused bound-and-filter over a decoded leaf block must keep
        // exactly the entries whose per-key bound is at or under the cutoff,
        // with bit-identical bounds, on every dispatch and for any leaf
        // size (incl. tails shorter than the 8-lane block) — early
        // abandoning included.
        use coconut_series::simd::Dispatch;
        use coconut_summary::mindist::{QueryDistTable, SymbolDecoder};
        let cfg = SaxConfig { series_len: 64, segments: 8, card_bits: 8 };
        let table = QueryDistTable::new(&paa(&q, cfg.segments), &cfg);
        let mut keys: Vec<_> = words.iter().map(|w| interleave(w, cfg.card_bits)).collect();
        keys.sort();
        let mut block = vec![0u8; keys.len() * cfg.segments];
        SymbolDecoder::new(&cfg).decode_into(&keys, &mut block);
        let bounds: Vec<f64> = keys.iter().map(|&k| mindist_paa_zkey(&paa(&q, 8), k, &cfg)).collect();
        // A cutoff that is itself one of the bounds (ties at the boundary
        // survive), or none.
        let cutoff = bounds.get(keep).copied().unwrap_or(f64::MAX);
        let want: Vec<(usize, u64)> = bounds
            .iter()
            .enumerate()
            .filter(|(_, &b)| b <= cutoff)
            .map(|(e, b)| (7 + e, b.to_bits()))
            .collect();
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            let mut got = Vec::new();
            table.bounds_under_with(dispatch, &block, cutoff, 7, &mut got);
            let got: Vec<(usize, u64)> = got.iter().map(|&(e, b)| (e, b.to_bits())).collect();
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn fast_scan_bounds_equal_the_exact_kernel(
        q in znormed(128),
        shape in (0usize..3, 0usize..3),
        count in 1usize..300,
        seed in any::<u64>(),
        keep in 0usize..330,
        band in 0usize..6,
    ) {
        // The 4-bit prefilter may only skip the exact sum of entries the
        // exact kernel rejects: the same `(entry, bound)` list, bit for bit,
        // on every dispatch, for ED and DTW tables, any block size (full
        // 32-entry batches and tails) and a cutoff at an entry's bound, just
        // under it, or none.
        use coconut_series::dtw::Envelope;
        use coconut_series::simd::Dispatch;
        use coconut_summary::mindist::{envelope_segment_bounds, QueryDistTable};
        let cfg = SaxConfig {
            series_len: 128,
            segments: [4, 8, 16][shape.0],
            card_bits: [4, 6, 8][shape.1],
        };
        let table = if band == 0 {
            QueryDistTable::new(&paa(&q, cfg.segments), &cfg)
        } else {
            let env = Envelope::new(&q, band);
            let (lo, hi) = envelope_segment_bounds(&env.lower, &env.upper, cfg.segments);
            QueryDistTable::for_envelope(&lo, &hi, &cfg)
        };
        let mut x = seed | 1;
        let block: Vec<u8> = (0..count * cfg.segments)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % cfg.cardinality() as u64) as u8
            })
            .collect();
        let mut all = Vec::new();
        table.key_filter(f64::INFINITY).exact_bounds_under_with(Dispatch::Scalar, &block, 0, &mut all);
        let mut bounds: Vec<f64> = all.iter().map(|&(_, b)| b).collect();
        bounds.sort_by(f64::total_cmp);
        let cutoff = match bounds.get(keep % (count + 10)) {
            Some(&b) if keep % 2 == 0 => b,
            Some(&b) => b.next_down(),
            None => f64::INFINITY,
        };
        let filter = table.key_filter(cutoff);
        let mut want = Vec::new();
        filter.exact_bounds_under_with(Dispatch::Scalar, &block, 5, &mut want);
        let want: Vec<(usize, u64)> = want.iter().map(|&(e, b)| (e, b.to_bits())).collect();
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            let mut got = Vec::new();
            filter.bounds_under_with(dispatch, &block, 5, &mut got);
            let got: Vec<(usize, u64)> = got.iter().map(|&(e, b)| (e, b.to_bits())).collect();
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn batched_mindist_handles_wide_configs(
        q in znormed(120),
        words in proptest::collection::vec(proptest::collection::vec(0u8..16, 30), 1..20),
    ) {
        // 30 segments × 4 bits = 120-bit keys: exercises the high-word half
        // of the pext decode plan and the widest stack scratch.
        use coconut_series::simd::Dispatch;
        use coconut_summary::mindist::QueryDistTable;
        let cfg = SaxConfig { series_len: 120, segments: 30, card_bits: 4 };
        let qp = paa(&q, cfg.segments);
        let keys: Vec<_> = words.iter().map(|w| interleave(w, cfg.card_bits)).collect();
        let table = QueryDistTable::new(&qp, &cfg);
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            let mut out = vec![0.0f64; keys.len()];
            table.mindist_batch_into_with(dispatch, &keys, &mut out);
            for (&got, &k) in out.iter().zip(keys.iter()) {
                prop_assert_eq!(got.to_bits(), mindist_paa_zkey(&qp, k, &cfg).to_bits());
            }
        }
    }
}

/// The symbol a binary search over the breakpoints gives: the reference
/// the table lookup of [`symbol_for`] must equal bit for bit.
fn searched_symbol(bits: u8, v: f64) -> u8 {
    breakpoints(bits).partition_point(|&b| b <= v) as u8
}

fn assert_symbols_match(values: impl IntoIterator<Item = f64>) {
    for v in values {
        for bits in 1..=8u8 {
            assert_eq!(
                symbol_for(bits, v),
                searched_symbol(bits, v),
                "bits={bits} v={v:e} ({:#018x})",
                v.to_bits()
            );
        }
    }
}

#[test]
fn table_symbols_match_the_search_at_every_breakpoint() {
    // Each breakpoint of every cardinality (all of them are card-256
    // breakpoints) and its neighbours one ulp either side.
    for bits in 1..=8u8 {
        assert_symbols_match(
            breakpoints(bits)
                .iter()
                .flat_map(|&b| [b.next_down(), b, b.next_up()]),
        );
    }
}

#[test]
fn table_symbols_match_the_search_at_every_cell_edge() {
    // The lookup's cells start every 1/512 over [-4, 4): an edge that
    // rounds into the wrong cell must still come out right.
    assert_symbols_match((0..=4096).flat_map(|c| {
        let edge = c as f64 / 512.0 - 4.0;
        [edge.next_down(), edge, edge.next_up()]
    }));
}

#[test]
fn table_symbols_match_the_search_on_special_values() {
    assert_symbols_match([
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        -4.0,
        (-4.0f64).next_down(),
        4.0,
        (4.0f64).next_down(),
        -4.5,
        4.5,
        -1e9,
        1e9,
        f32::MAX as f64,
        f32::MIN as f64,
    ]);
    for nan in [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_dead_beef),
        f64::from_bits(0x7ff0_0000_0000_0001),
    ] {
        for bits in 1..=8u8 {
            assert_eq!(symbol_for(bits, nan), 0, "bits={bits}");
            assert_eq!(searched_symbol(bits, nan), 0, "bits={bits}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn table_symbols_match_the_search(v in -10.0f64..10.0) {
        for bits in 1..=8u8 {
            prop_assert_eq!(symbol_for(bits, v), searched_symbol(bits, v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn summarizer_zkey_equals_interleaved_sax_word(
        seed in any::<u64>(),
        shape in 0usize..4,
        normalize in any::<bool>(),
    ) {
        // The summarizer's table symbols and interleave must give the key
        // of the plain composition: PAA, a binary search per segment, and
        // the bit-at-a-time interleave. Raw random walks wander past ±4.
        use coconut_series::gen::{Generator, RandomWalkGen};
        use coconut_series::simd::Dispatch;
        use coconut_summary::sax::Summarizer;
        let cfg = [
            SaxConfig { series_len: 256, segments: 16, card_bits: 8 },
            SaxConfig { series_len: 100, segments: 8, card_bits: 5 },
            SaxConfig { series_len: 120, segments: 30, card_bits: 4 },
            SaxConfig { series_len: 64, segments: 3, card_bits: 1 },
        ][shape];
        let mut gen = RandomWalkGen::new(seed);
        let mut summarizer = Summarizer::new(cfg);
        for _ in 0..8 {
            let mut s = gen.generate(cfg.series_len);
            if normalize {
                znormalize(&mut s);
            }
            let searched: Vec<u8> = paa(&s, cfg.segments)
                .iter()
                .map(|&v| searched_symbol(cfg.card_bits, v))
                .collect();
            prop_assert_eq!(sax_word(&s, &cfg).symbols(), &searched[..]);
            let want = interleave(&searched, cfg.card_bits);
            for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
                prop_assert_eq!(summarizer.zkey_with(dispatch, &s), want);
            }
            prop_assert_eq!(summarizer.zkey(&s), want);
        }
    }
}

/// A segment-major block of `count` entries of `cfg`'s symbols: for odd
/// `seed`s each segment walks in small steps, as the symbols of a sorted
/// leaf cluster (so zone boxes are tight and prune); otherwise uniform.
fn symbol_block(cfg: &SaxConfig, count: usize, seed: u64) -> Vec<u8> {
    let card = cfg.cardinality() as u64;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut block = vec![0u8; count * cfg.segments];
    for row in block.chunks_exact_mut(count) {
        let mut s = next() % card;
        for sym in row.iter_mut() {
            s = if seed % 2 == 1 {
                (s + card + next() % 5 - 2).min(2 * card - 1) % card
            } else {
                next() % card
            };
            *sym = s as u8;
        }
    }
    block
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn zone_boxes_survive_wherever_an_entry_does(
        q in znormed(128),
        card_bits in 1u8..=8,
        width in 0usize..17,
        leaf in 0usize..5,
        seed in any::<u64>(),
        cut in 0usize..5,
        band in 0usize..3,
    ) {
        // Zones prune only entries the key filter drops anyway: every zone
        // holding an entry at or under the cutoff survives, AVX2 and the
        // scalar mirror keep the same zones at the same bounds (each box's
        // `box_bound`, bit for bit), the zone boxes are each zone's
        // per-segment extremes on every dispatch, and the zoned key pass
        // keeps exactly what the unzoned one does — for segments 1–16 and
        // 32, every cardinality, leaves with and without a short last zone,
        // cutoffs of zero, tiny (no prefilter), typical and none.
        use coconut_series::dtw::Envelope;
        use coconut_series::simd::Dispatch;
        use coconut_summary::mindist::{
            envelope_segment_bounds, zone_boxes_with, QueryDistTable, ZONE,
        };
        let count = [1usize, 37, 64, 65, 2000][leaf];
        let segments = if width == 16 { 32 } else { width + 1 };
        // 32 segments take 4 bits each at most: the key holds 128.
        let card_bits = if segments == 32 { card_bits.min(4) } else { card_bits };
        let cfg = SaxConfig { series_len: 128, segments, card_bits };
        let table = if band == 0 {
            QueryDistTable::new(&paa(&q, segments), &cfg)
        } else {
            let env = Envelope::new(&q, 3 * band);
            let (lo, hi) = envelope_segment_bounds(&env.lower, &env.upper, segments);
            QueryDistTable::for_envelope(&lo, &hi, &cfg)
        };
        let block = symbol_block(&cfg, count, seed);
        let zones = count.div_ceil(ZONE);

        // The zone boxes: each zone's extremes, on every dispatch.
        let mut want = vec![0u8; 2 * segments * zones];
        for (j, row) in block.chunks_exact(count).enumerate() {
            for (z, zone) in row.chunks(ZONE).enumerate() {
                want[j * zones + z] = *zone.iter().min().unwrap();
                want[(segments + j) * zones + z] = *zone.iter().max().unwrap();
            }
        }
        let mut boxes = vec![0u8; want.len()];
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            zone_boxes_with(dispatch, &block, segments, &mut boxes);
            prop_assert_eq!(&boxes, &want);
        }

        let mut exact = Vec::new();
        table.key_filter(f64::INFINITY).exact_bounds_under_with(Dispatch::Scalar, &block, 0, &mut exact);
        let mut sorted: Vec<f64> = exact.iter().map(|&(_, b)| b).collect();
        sorted.sort_by(f64::total_cmp);
        let typical = sorted[count * 3 / 100];
        let cutoff = [0.0, 1e-160, typical, typical.next_down(), f64::INFINITY][cut];
        let filter = table.key_filter(cutoff);

        // Every zone box bounded, by both dispatches alike.
        let mut kept = Vec::new();
        filter.boxes_under_with(Dispatch::Scalar, &boxes, 0, &mut kept);
        let mut simd = Vec::new();
        filter.boxes_under_with(Dispatch::Avx2, &boxes, 0, &mut simd);
        let bits = |v: &[(usize, f64)]| v.iter().map(|&(i, b)| (i, b.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&kept), bits(&simd));
        let zone_box = |z: usize| -> (Vec<u8>, Vec<u8>) {
            let lo = (0..segments).map(|j| boxes[j * zones + z]).collect();
            let hi = (0..segments).map(|j| boxes[(segments + j) * zones + z]).collect();
            (lo, hi)
        };
        for &(z, bound) in &kept {
            let (lo, hi) = zone_box(z);
            prop_assert_eq!(bound.to_bits(), table.box_bound(&lo, &hi).to_bits());
        }
        // A zone with an entry at or under the cutoff survives.
        for &(e, bound) in &exact {
            if bound <= cutoff {
                prop_assert!(kept.iter().any(|&(z, _)| z == e / ZONE), "entry {} at {}", e, bound);
            }
        }

        // The zoned key pass keeps what the unzoned one does, and counts
        // each zone and each entry of a surviving zone.
        let mut unzoned = Vec::new();
        filter.bounds_under_with(Dispatch::Scalar, &block, 9, &mut unzoned);
        let surviving: usize = kept.iter().map(|&(z, _)| (count - z * ZONE).min(ZONE)).sum();
        for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
            let mut zoned = Vec::new();
            let bounded = filter.zoned_bounds_under_with(dispatch, &block, &boxes, 9, &mut zoned);
            prop_assert_eq!(bits(&zoned), bits(&unzoned));
            prop_assert_eq!(bounded, zones + surviving);
        }
    }
}
