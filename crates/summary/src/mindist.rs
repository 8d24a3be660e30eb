//! Lower-bounding distances (MINDIST) between queries and summarizations.
//!
//! The pruning power of a SAX index rests on one invariant: for any query
//! `q` and any series `s`,
//!
//! ```text
//! mindist(PAA(q), SAX(s))  <=  euclidean(q, s)
//! ```
//!
//! so a node (or record) whose mindist exceeds the best-so-far can be
//! skipped without inspecting raw data. The sortable summarization inherits
//! the same bound because interleaving is a bijection (paper Section 4.1:
//! "we therefore do not lose anything in terms of the ability to prune").
//!
//! Three granularities are provided: full-cardinality SAX words (records),
//! iSAX masks (index nodes), and z-order keys (records in Coconut indexes,
//! decoded on the fly without allocation).
//!
//! The exact search works from one per-query [`QueryDistTable`] — for
//! Euclidean distance ([`QueryDistTable::new`]) and for the DTW envelope
//! bound ([`QueryDistTable::for_envelope`]) alike — over segment-major
//! symbol blocks, the z-order keys a [`SymbolDecoder`] de-interleaved once,
//! when their leaf was written: [`QueryDistTable::box_bound`] lower-bounds
//! a box of symbols — a whole leaf, or a zone of [`ZONE`] of its entries
//! ([`zone_boxes`]) — and [`KeyFilter::boxes_under`] a block of boxes at
//! once; [`QueryDistTable::bounds_under`] bounds a block's entries, keeping
//! only those at or under a cutoff, and [`KeyFilter::zoned_bounds_under`]
//! the entries of its surviving zones alone.
//!
//! # The fast-scan prefilter
//!
//! Near a good cutoff almost every entry of a surviving leaf is rejected, so
//! [`KeyFilter`] rejects most of them without the `f64` table sum. Per
//! segment it keeps 16 bytes: for each 4-bit symbol prefix, the smallest
//! table entry over the symbols sharing it, scaled and quantised against the
//! cutoff. SAX breakpoints nest — the regions of the symbols under one
//! prefix tile the prefix's region — so that minimum lower-bounds the entry
//! of every full symbol. Quantisation floors, against a scale whose 255 lies
//! a margin past the squared cutoff, so an entry whose byte sum saturates
//! provably has an exact bound over the cutoff, whatever the rounding. 16
//! bytes is one `PSHUFB` table, and 4 bits is what `PSHUFB` indexes: an AVX2
//! pass looks up and saturating-adds 32 entries per segment in a handful of
//! instructions, where the exact kernel gathers 4 `f64`s at a time. Only the
//! survivors (a few percent near a tight cutoff) get the exact sum, so the
//! `(entry, bound)` output is bit-identical to the exact kernel's. A box is
//! bounded by the same pass, as the symbol vector of its nearest symbols to
//! the query: per segment the query's nearest symbol clamped into the box.

use crate::breakpoints::{region, region_table};
use crate::config::{SaxConfig, MAX_SEGMENTS};
use crate::isax::IsaxMask;
use crate::zorder::ZKey;
use coconut_series::simd::Dispatch;
use std::ops::Range;
use std::sync::OnceLock;

/// Squared distance from `value` to the interval `[lo, hi)`; zero inside.
#[inline]
fn dist_to_region_sq(value: f64, lo: f64, hi: f64) -> f64 {
    if value < lo {
        let d = lo - value;
        d * d
    } else if value > hi {
        let d = value - hi;
        d * d
    } else {
        0.0
    }
}

/// MINDIST between a query's PAA and a full-cardinality SAX word
/// (squared, unscaled). Multiply by `series_len / segments` and take the
/// square root via [`finish`] to obtain the distance bound.
#[inline]
pub fn mindist_sq_raw(query_paa: &[f64], symbols: &[u8], card_bits: u8) -> f64 {
    debug_assert_eq!(query_paa.len(), symbols.len());
    let rt = region_table(card_bits);
    let (lo, hi) = (rt.lo(), rt.hi());
    let mut acc = 0.0f64;
    for (&p, &s) in query_paa.iter().zip(symbols.iter()) {
        acc += dist_to_region_sq(p, lo[s as usize], hi[s as usize]);
    }
    acc
}

/// Scale a raw squared mindist into a distance: `sqrt(len/w * raw)`.
#[inline]
pub fn finish(raw_sq: f64, config: &SaxConfig) -> f64 {
    (config.series_len as f64 / config.segments as f64 * raw_sq).sqrt()
}

/// MINDIST between a query's PAA and a SAX word, as a distance.
pub fn mindist_paa_sax(query_paa: &[f64], symbols: &[u8], config: &SaxConfig) -> f64 {
    finish(mindist_sq_raw(query_paa, symbols, config.card_bits), config)
}

/// MINDIST between a query's PAA and an iSAX node mask: segments with zero
/// prefix bits contribute nothing (their region is unbounded).
pub fn mindist_paa_isax(query_paa: &[f64], mask: &IsaxMask, config: &SaxConfig) -> f64 {
    debug_assert_eq!(query_paa.len(), mask.segments());
    let mut acc = 0.0f64;
    for ((&p, &b), &prefix) in query_paa.iter().zip(mask.bits()).zip(mask.prefix()) {
        if b == 0 {
            continue;
        }
        let (lo, hi) = region(b, prefix);
        acc += dist_to_region_sq(p, lo, hi);
    }
    finish(acc, config)
}

/// MINDIST between a query's PAA and a z-order key (allocation-free: the
/// key is decoded into a stack buffer). This is the inner loop of the SIMS
/// exact-search scan.
#[inline]
pub fn mindist_paa_zkey(query_paa: &[f64], key: ZKey, config: &SaxConfig) -> f64 {
    let mut symbols = [0u8; MAX_SEGMENTS];
    crate::zorder::deinterleave_into(
        key,
        config.segments,
        config.card_bits,
        &mut symbols[..config.segments],
    );
    finish(
        mindist_sq_raw(query_paa, &symbols[..config.segments], config.card_bits),
        config,
    )
}

/// Squared distance between two intervals (0 when they overlap).
#[inline]
fn interval_dist_sq(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    if a_hi < b_lo {
        let d = b_lo - a_hi;
        d * d
    } else if b_hi < a_lo {
        let d = a_lo - b_hi;
        d * d
    } else {
        0.0
    }
}

/// DTW index bound: distance between the query envelope's per-segment
/// bounds (`env_lo[j] = min` of the lower envelope over segment `j`,
/// `env_hi[j] = max` of the upper envelope) and a SAX word's regions.
///
/// The chain `mindist_env <= LB_Keogh <= DTW` holds because (a) widening
/// the envelope to per-segment min/max intervals only lowers LB_Keogh,
/// (b) the per-point sum dominates `len_j * d(segment mean, interval)^2`
/// by convexity, and (c) the segment mean lies inside the SAX region.
pub fn mindist_env_sax(env_lo: &[f64], env_hi: &[f64], symbols: &[u8], config: &SaxConfig) -> f64 {
    debug_assert_eq!(env_lo.len(), symbols.len());
    let rt = region_table(config.card_bits);
    let mut acc = 0.0f64;
    for ((&lo, &hi), &s) in env_lo.iter().zip(env_hi.iter()).zip(symbols.iter()) {
        let (r_lo, r_hi) = rt.bounds(s);
        acc += interval_dist_sq(lo, hi, r_lo, r_hi);
    }
    finish(acc, config)
}

/// Per-segment (min of lower, max of upper) bounds of a DTW query
/// envelope — the index-level companion of `coconut_series::dtw::Envelope`.
pub fn envelope_segment_bounds(
    env_lower: &[coconut_series::Value],
    env_upper: &[coconut_series::Value],
    segments: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = env_lower.len();
    debug_assert_eq!(n, env_upper.len());
    let mut lo = vec![f64::INFINITY; segments];
    let mut hi = vec![f64::NEG_INFINITY; segments];
    // Per-segment point ranges mirror the PAA segmentation (fractional
    // boundary points belong to both neighbors, keeping the bound valid).
    let seg = n as f64 / segments as f64;
    for j in 0..segments {
        let start = (j as f64 * seg).floor() as usize;
        let end = (((j + 1) as f64 * seg).ceil() as usize).min(n);
        for i in start..end {
            lo[j] = lo[j].min(env_lower[i] as f64);
            hi[j] = hi[j].max(env_upper[i] as f64);
        }
    }
    (lo, hi)
}

/// Keys per block of the batched MINDIST kernel (one AVX2 gather pair).
pub const MINDIST_BATCH: usize = 8;

/// Entries per segment row of a [`QueryDistTable`]: one per possible `u8`
/// symbol whatever the cardinality (rows of smaller alphabets are padded
/// with infinity), so no symbol byte can index out of the table.
const TABLE_ROW: usize = 256;

/// Segments a block kernel sums between two early-abandon checks.
const ABANDON_STRIDE: usize = 4;

/// Entries of a segment's fast-scan table: one per 4-bit symbol prefix.
const NIBBLES: usize = 16;

/// Entries per fast-scan block: one AVX2 register of symbol bytes.
const FAST_SCAN_BATCH: usize = 32;

/// Fast-scan survivors whose exact sums are computed side by side.
const REFINE_GROUP: usize = 8;

/// How far past the squared cutoff a saturated fast-scan sum lies. Far more
/// than the relative rounding of the scaling, the quantisation and a
/// 32-term `f64` sum (under 50 ulps together), far less than one step of
/// the 255-step scale.
const FAST_SCAN_MARGIN: f64 = 1.0 / (1u64 << 32) as f64;

/// Per-segment `pext` masks recovering SAX symbols from a z-order key in
/// two `PEXT` instructions per segment instead of `card_bits` shift/mask
/// steps per *bit*. Symbol `j`'s bits sit at key positions
/// `total-1-(card_bits-1-i)*segments-j` (LSB `i` first, matching
/// [`crate::zorder::interleave`]); `pext` packs them LSB-to-MSB, which is
/// exactly ascending `i`, so the extracted word *is* the symbol.
#[derive(Debug, Clone, Copy)]
struct PextMask {
    lo: u64,
    hi: u64,
    shift: u32,
}

fn pext_masks(segments: usize, card_bits: u8) -> Vec<PextMask> {
    let total = segments * card_bits as usize;
    (0..segments)
        .map(|j| {
            let (mut lo, mut hi) = (0u64, 0u64);
            for i in 0..card_bits as usize {
                let p = total - 1 - (card_bits as usize - 1 - i) * segments - j;
                if p < 64 {
                    lo |= 1u64 << p;
                } else {
                    hi |= 1u64 << (p - 64);
                }
            }
            PextMask {
                lo,
                hi,
                shift: lo.count_ones(),
            }
        })
        .collect()
}

/// The masks of one configuration, built once per process, so a decoder
/// costs nothing to make (a query makes one, and so does every
/// [`crate::sax::Summarizer`]).
fn masks_for(segments: usize, card_bits: u8) -> &'static [PextMask] {
    static MASKS: [[OnceLock<Box<[PextMask]>>; 8]; MAX_SEGMENTS] =
        [const { [const { OnceLock::new() }; 8] }; MAX_SEGMENTS];
    MASKS[segments - 1][card_bits as usize - 1]
        .get_or_init(|| pext_masks(segments, card_bits).into_boxed_slice())
}

/// De-interleaves z-order keys back into SAX symbols, a block at a time and
/// segment-major: BMI2 `PEXT` where the process-wide dispatch allows it, the
/// portable [`crate::zorder::deinterleave_into`] otherwise (bit-exact equal)
/// — and re-interleaves such a block into its keys
/// ([`SymbolDecoder::interleave_into`], `PDEP`).
#[derive(Debug, Clone, Copy)]
pub struct SymbolDecoder {
    config: SaxConfig,
    masks: &'static [PextMask],
}

impl SymbolDecoder {
    /// A decoder for keys built under `config`; its masks are shared by
    /// every decoder of that configuration in the process.
    pub fn new(config: &SaxConfig) -> Self {
        SymbolDecoder {
            config: *config,
            masks: masks_for(config.segments, config.card_bits),
        }
    }

    /// The configuration of the keys this decoder reads.
    pub fn config(&self) -> &SaxConfig {
        &self.config
    }

    /// Whether `self` and `other` read the same process-wide masks.
    #[cfg(test)]
    pub(crate) fn shares_masks(&self, other: &SymbolDecoder) -> bool {
        std::ptr::eq(self.masks, other.masks)
    }

    /// Decode `keys` into the segment-major block `out`
    /// (`keys.len() * segments` bytes): the symbol of key `e`, segment `j`,
    /// lands at `j * keys.len() + e` — the layout
    /// [`QueryDistTable::bounds_under`] scans.
    pub fn decode_into(&self, keys: &[ZKey], out: &mut [u8]) {
        self.decode_into_with(coconut_series::simd::active(), keys, out);
    }

    /// [`SymbolDecoder::decode_into`] with an explicit dispatch (exposed so
    /// tests and benchmarks can force either path).
    pub fn decode_into_with(&self, dispatch: Dispatch, keys: &[ZKey], out: &mut [u8]) {
        assert_eq!(out.len(), keys.len() * self.config.segments);
        self.decode_strided(dispatch, keys, out, keys.len());
    }

    /// Re-interleave the segment-major block `block` (`keys.len()` entries,
    /// the layout [`SymbolDecoder::decode_into`] writes) into `keys` — the
    /// exact inverse of the decode: BMI2 `PDEP` where the process-wide
    /// dispatch allows it, [`crate::zorder::interleave`] otherwise
    /// (bit-exact equal).
    pub fn interleave_into(&self, block: &[u8], keys: &mut [ZKey]) {
        self.interleave_into_with(coconut_series::simd::active(), block, keys);
    }

    /// [`SymbolDecoder::interleave_into`] with an explicit dispatch.
    pub fn interleave_into_with(&self, dispatch: Dispatch, block: &[u8], keys: &mut [ZKey]) {
        let (w, count) = (self.config.segments, keys.len());
        assert_eq!(block.len(), count * w);
        #[cfg(target_arch = "x86_64")]
        if dispatch == Dispatch::Avx2 && std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: BMI2 support verified above.
            unsafe { x86::interleave_pdep(self.masks, block, keys) };
            return;
        }
        let _ = dispatch;
        let mut row = [0u8; MAX_SEGMENTS];
        for (e, key) in keys.iter_mut().enumerate() {
            for (j, s) in row[..w].iter_mut().enumerate() {
                *s = block[j * count + e];
            }
            *key = crate::zorder::interleave(&row[..w], self.config.card_bits);
        }
    }

    /// The symbol boxes of consecutive sorted key ranges: range `i` holds
    /// the keys from `bounds[i]` up to `bounds[i + 1]`, and its box —
    /// [`crate::zorder::key_range_box`] of the pair, bit for bit — is box
    /// `i` of the box block `out` ([the layout](KeyFilter::boxes_under)
    /// the box kernel reads). The range starts are decoded a block at a
    /// time ([`SymbolDecoder::decode_into`]) rather than bit by bit.
    pub fn key_range_boxes(&self, bounds: &[ZKey], out: &mut [u8]) {
        self.key_range_boxes_with(coconut_series::simd::active(), bounds, out);
    }

    /// [`SymbolDecoder::key_range_boxes`] with an explicit dispatch.
    pub fn key_range_boxes_with(&self, dispatch: Dispatch, bounds: &[ZKey], out: &mut [u8]) {
        let w = self.config.segments;
        let starts = &bounds[..bounds.len().saturating_sub(1)];
        let n = starts.len();
        assert_eq!(out.len(), n * 2 * w);
        // The decoded starts are the lower symbols; widening each range
        // lowers some of them and sets the upper ones.
        let (lower, upper) = out.split_at_mut(n * w);
        self.decode_into_with(dispatch, starts, lower);
        let (mut lo, mut hi) = ([0u8; MAX_SEGMENTS], [0u8; MAX_SEGMENTS]);
        let (lo, hi) = (&mut lo[..w], &mut hi[..w]);
        for (i, pair) in bounds.windows(2).enumerate() {
            for (j, s) in lo.iter_mut().enumerate() {
                *s = lower[j * n + i];
            }
            crate::zorder::widen_to_range(pair[0], pair[1], &self.config, lo, hi);
            for (j, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
                lower[j * n + i] = l;
                upper[j * n + i] = h;
            }
        }
    }

    /// Decode `keys` so that key `b`'s segment-`j` symbol lands at
    /// `sym[j * stride + b]`.
    fn decode_strided(&self, dispatch: Dispatch, keys: &[ZKey], sym: &mut [u8], stride: usize) {
        debug_assert!(keys.len() <= stride);
        debug_assert!(keys.is_empty() || sym.len() >= (self.masks.len() - 1) * stride + keys.len());
        #[cfg(target_arch = "x86_64")]
        if dispatch == Dispatch::Avx2 && std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: BMI2 support verified above.
            unsafe { x86::decode_pext(self.masks, keys, sym, stride) };
            return;
        }
        let _ = dispatch;
        let w = self.config.segments;
        let mut row = [0u8; MAX_SEGMENTS];
        for (b, &k) in keys.iter().enumerate() {
            crate::zorder::deinterleave_into(k, w, self.config.card_bits, &mut row[..w]);
            for (j, &s) in row[..w].iter().enumerate() {
                sym[j * stride + b] = s;
            }
        }
    }
}

/// A query's precomputed squared distances to every SAX region: entry
/// `j * TABLE_ROW + s` is the squared distance from the query's segment
/// `j` — its PAA value, or for DTW its envelope interval — to region `s`.
/// With it, a record's raw bound is a pure sum of `segments` table loads —
/// no breakpoint lookups, no branches — which is what the batched kernels
/// vectorize with AVX2 gathers. Built once per query (Algorithm 5 computes
/// millions of bounds per query against one table).
///
/// All paths — single-key, scalar batch, AVX2 batch, over keys or over
/// decoded symbol blocks — add the same table entries in the same segment
/// order, so their results are bit-identical.
#[derive(Debug, Clone)]
pub struct QueryDistTable {
    config: SaxConfig,
    scale: f64,
    table: Vec<f64>,
    /// Per segment, the symbol whose region is nearest the query (distance
    /// zero). A row only grows moving away from it, so the minimum over a
    /// symbol interval sits at the interval's end nearer this symbol.
    nearest: Vec<u8>,
    /// Per segment, for each 4-bit symbol prefix, the smallest table entry
    /// of the symbols under it ([`KeyFilter`]'s lookup tables, unscaled).
    prefix_min: Vec<f64>,
    decoder: SymbolDecoder,
}

/// What a table's rows measure from, per segment: the query's PAA value
/// (Euclidean) or its envelope interval (DTW).
#[derive(Clone, Copy)]
enum RowSource<'a> {
    Point(&'a [f64]),
    Interval(&'a [f64], &'a [f64]),
}

impl QueryDistTable {
    /// The Euclidean table: distances from `query_paa` to every region.
    pub fn new(query_paa: &[f64], config: &SaxConfig) -> Self {
        debug_assert_eq!(query_paa.len(), config.segments);
        Self::tabulate(config, RowSource::Point(query_paa))
    }

    /// The DTW table: distances from the query envelope's per-segment
    /// intervals ([`envelope_segment_bounds`]) to every region, so a table
    /// sum is [`mindist_env_sax`].
    pub fn for_envelope(env_lo: &[f64], env_hi: &[f64], config: &SaxConfig) -> Self {
        debug_assert_eq!(env_lo.len(), config.segments);
        debug_assert_eq!(env_hi.len(), config.segments);
        Self::tabulate(config, RowSource::Interval(env_lo, env_hi))
    }

    /// Fill the table row by row, straight from the region bounds: the
    /// entries, then each 4-bit prefix's minimum over its run of symbols,
    /// then the row's nearest symbol.
    fn tabulate(config: &SaxConfig, source: RowSource<'_>) -> Self {
        let card = config.cardinality();
        let rt = region_table(config.card_bits);
        let (lo, hi) = (&rt.lo()[..card], &rt.hi()[..card]);
        // Symbols sharing a 4-bit prefix are consecutive.
        let span = 1usize << nibble_shift(config.card_bits);
        let mut table = vec![f64::INFINITY; config.segments * TABLE_ROW];
        let mut nearest = Vec::with_capacity(config.segments);
        let mut prefix_min = vec![f64::INFINITY; config.segments * NIBBLES];
        let rows = table
            .chunks_exact_mut(TABLE_ROW)
            .zip(prefix_min.chunks_exact_mut(NIBBLES));
        for (j, (row, mins)) in rows.enumerate() {
            let row = &mut row[..card];
            match source {
                RowSource::Point(paa) => {
                    let value = paa[j];
                    for ((entry, &lo), &hi) in row.iter_mut().zip(lo).zip(hi) {
                        *entry = dist_to_region_sq(value, lo, hi);
                    }
                }
                RowSource::Interval(env_lo, env_hi) => {
                    let (a_lo, a_hi) = (env_lo[j], env_hi[j]);
                    for ((entry, &lo), &hi) in row.iter_mut().zip(lo).zip(hi) {
                        *entry = interval_dist_sq(a_lo, a_hi, lo, hi);
                    }
                }
            }
            for (min, run) in mins.iter_mut().zip(row.chunks(span)) {
                *min = smallest(run);
            }
            // The first minimum of the row lies in the first run holding it.
            let runs = &mins[..card / span];
            let least = smallest(runs);
            let run = runs.iter().position(|&m| m == least).unwrap_or(0);
            let at = row[run * span..].iter().position(|&e| e == least);
            nearest.push((run * span + at.unwrap_or(0)) as u8);
        }
        QueryDistTable {
            config: *config,
            scale: config.series_len as f64 / config.segments as f64,
            table,
            nearest,
            prefix_min,
            decoder: SymbolDecoder::new(config),
        }
    }

    /// The configuration the table was built for.
    pub fn config(&self) -> &SaxConfig {
        &self.config
    }

    /// Raw squared MINDIST of a full-cardinality symbol vector.
    #[inline]
    pub fn mindist_sq_raw(&self, symbols: &[u8]) -> f64 {
        debug_assert_eq!(symbols.len(), self.config.segments);
        let mut acc = 0.0f64;
        for (j, &s) in symbols.iter().enumerate() {
            acc += self.table[j * TABLE_ROW + s as usize];
        }
        acc
    }

    /// MINDIST of one z-order key, as a distance (decode + table sum).
    #[inline]
    pub fn mindist_zkey(&self, key: ZKey) -> f64 {
        let mut symbols = [0u8; MAX_SEGMENTS];
        let w = self.config.segments;
        crate::zorder::deinterleave_into(key, w, self.config.card_bits, &mut symbols[..w]);
        (self.scale * self.mindist_sq_raw(&symbols[..w])).sqrt()
    }

    /// A lower bound on the bound of every symbol vector inside the box
    /// `lo[j]..=hi[j]` ([`crate::zorder::key_range_box`]): per segment the
    /// smallest table entry of the interval — zero when the query's own
    /// symbol lies inside, else the entry at the nearer end, the nearest
    /// symbol clamped into the box, `min(max(nearest, lo), hi)` — summed in
    /// segment order, so it never exceeds the bound of a vector in the box.
    /// The one-box reference of [`KeyFilter::boxes_under`].
    pub fn box_bound(&self, lo: &[u8], hi: &[u8]) -> f64 {
        debug_assert_eq!(lo.len(), self.config.segments);
        debug_assert_eq!(hi.len(), self.config.segments);
        let mut acc = 0.0f64;
        for (j, (&lo, &hi)) in lo.iter().zip(hi).enumerate() {
            let at = self.nearest[j].max(lo).min(hi);
            acc += self.table[j * TABLE_ROW + at as usize];
        }
        (self.scale * acc).sqrt()
    }

    /// Bound every entry of a segment-major symbol block
    /// ([`SymbolDecoder::decode_into`]; `block.len() / segments` entries)
    /// and push `(first + e, bound)` for each entry `e` whose bound does
    /// not exceed `cutoff` — the fused bound-and-filter of the SIMS key
    /// pass, fast-scan prefilter included ([`KeyFilter::bounds_under`]).
    /// Bounds are bit-identical to [`QueryDistTable::mindist_zkey`] of the
    /// encoded keys on every dispatch.
    pub fn bounds_under(
        &self,
        block: &[u8],
        cutoff: f64,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        self.key_filter(cutoff).bounds_under(block, first, out);
    }

    /// [`QueryDistTable::bounds_under`] with an explicit dispatch (exposed
    /// so tests can force either path).
    pub fn bounds_under_with(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        cutoff: f64,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        self.key_filter(cutoff)
            .bounds_under_with(dispatch, block, first, out);
    }

    /// `cutoff` prepared for the key pass: the squared limit and the
    /// fast-scan tables quantised against it — built once and shared by
    /// every block bounded under that cutoff. The prefilter is skipped when
    /// there is nothing to quantise against (an infinite cutoff, or one so
    /// small that 255 steps of it overflow).
    pub fn key_filter(&self, cutoff: f64) -> KeyFilter<'_> {
        // Filter in squared space first, so the square root is only paid
        // by the few entries near the cutoff: a scaled sum above `limit`
        // has a (correctly rounded) root above `cutoff`, because `limit`
        // is padded past the square of the next float up.
        let limit = cutoff * cutoff * (1.0 + 4.0 * f64::EPSILON);
        // Scaled terms in steps of `limit * (1 + margin) / 255`; a limit of
        // zero makes every positive term a full 255.
        let inv = 255.0 / (limit * (1.0 + FAST_SCAN_MARGIN));
        let lut = (limit.is_finite() && (limit == 0.0 || inv.is_finite())).then(|| {
            let mut lut = [0u8; MAX_SEGMENTS * NIBBLES];
            for (q, &min) in lut.iter_mut().zip(&self.prefix_min) {
                let steps = self.scale * min * inv;
                // Flooring keeps `q` at or under the term; NaN (an unused
                // prefix's `inf * 0`) becomes 0, which rejects nothing.
                *q = if steps >= 255.0 {
                    255
                } else if steps > 0.0 {
                    steps as u8
                } else {
                    0
                };
            }
            lut
        });
        KeyFilter {
            table: self,
            cutoff,
            limit,
            lut,
        }
    }

    /// MINDIST of every key into `out` (`out.len() == keys.len()`), using
    /// the process-wide dispatch: blocks of [`MINDIST_BATCH`] keys are
    /// decoded into a segment-major scratch buffer and summed 8 lanes at a
    /// time; the remainder runs per key. Results are bit-identical to
    /// [`QueryDistTable::mindist_zkey`] on every dispatch.
    pub fn mindist_batch_into(&self, keys: &[ZKey], out: &mut [f64]) {
        self.mindist_batch_into_with(coconut_series::simd::active(), keys, out);
    }

    /// [`QueryDistTable::mindist_batch_into`] with an explicit dispatch
    /// (exposed so tests and benchmarks can force either path).
    pub fn mindist_batch_into_with(&self, dispatch: Dispatch, keys: &[ZKey], out: &mut [f64]) {
        assert_eq!(keys.len(), out.len());
        let w = self.config.segments;
        // Segment-major scratch: symbol of key `b`, segment `j`, lives at
        // `j * MINDIST_BATCH + b`, so each segment's 8 symbols are one
        // contiguous 8-byte lane load.
        let mut sym = [0u8; MAX_SEGMENTS * MINDIST_BATCH];
        let sym = &mut sym[..w * MINDIST_BATCH];
        let n8 = keys.len() - keys.len() % MINDIST_BATCH;
        let use_avx2 = use_avx2(dispatch);
        let mut raw = [0.0f64; MINDIST_BATCH];
        for (block, out) in keys[..n8]
            .chunks_exact(MINDIST_BATCH)
            .zip(out.chunks_exact_mut(MINDIST_BATCH))
        {
            self.decoder
                .decode_strided(dispatch, block, sym, MINDIST_BATCH);
            self.accumulate_block(use_avx2, sym, MINDIST_BATCH, f64::INFINITY, &mut raw);
            for (o, &r) in out.iter_mut().zip(raw.iter()) {
                *o = (self.scale * r).sqrt();
            }
        }
        for (o, &k) in out[n8..].iter_mut().zip(keys[n8..].iter()) {
            *o = self.mindist_zkey(k);
        }
    }

    /// Sum the table entries of the [`MINDIST_BATCH`] entries whose
    /// segment-`j` symbols sit at `sym[j * stride..][..MINDIST_BATCH]` into
    /// `out`. Returns `false`, leaving `out` unspecified, as soon as every
    /// entry's scaled partial sum exceeds `limit` (checked every
    /// [`ABANDON_STRIDE`] segments): sums only grow, so none of the eight
    /// can end at or under it. `f64::INFINITY` never abandons.
    #[inline]
    fn accumulate_block(
        &self,
        use_avx2: bool,
        sym: &[u8],
        stride: usize,
        limit: f64,
        out: &mut [f64; MINDIST_BATCH],
    ) -> bool {
        let w = self.config.segments;
        assert!(sym.len() >= (w - 1) * stride + MINDIST_BATCH);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: AVX2 support verified by `use_avx2`; the assertion
            // above keeps every 8-byte lane load inside `sym`, and the
            // table holds `TABLE_ROW` entries per segment, so any `u8`
            // symbol gathers in bounds.
            return unsafe {
                x86::accumulate_block_avx2(&self.table, w, sym, stride, self.scale, limit, out)
            };
        }
        let _ = use_avx2;
        accumulate_block_scalar(&self.table, w, sym, stride, self.scale, limit, out)
    }

    /// The raw bound of entry `e` of a segment-major block of `count`
    /// entries: its table entries summed in segment order, as every kernel
    /// sums them.
    #[inline]
    fn entry_raw(&self, block: &[u8], count: usize, e: usize) -> f64 {
        let mut acc = 0.0f64;
        for j in 0..self.config.segments {
            acc += self.table[j * TABLE_ROW + block[j * count + e] as usize];
        }
        acc
    }
}

/// A [`QueryDistTable`] and a cutoff, ready to bound symbol blocks and box
/// blocks under it ([`QueryDistTable::key_filter`]): the SIMS scan builds
/// one for its leaf order and one per batch, the probe one per round.
pub struct KeyFilter<'a> {
    table: &'a QueryDistTable,
    cutoff: f64,
    /// The squared cutoff, padded: a scaled raw bound above it is over.
    limit: f64,
    /// Per segment, [`NIBBLES`] quantised lower bounds of the scaled terms
    /// (`None`: no prefilter).
    lut: Option<[u8; MAX_SEGMENTS * NIBBLES]>,
}

impl KeyFilter<'_> {
    /// Push `(first + e, bound)` for each entry `e` of `block` whose bound
    /// does not exceed the cutoff ([`QueryDistTable::bounds_under`]), in
    /// entry order.
    pub fn bounds_under(&self, block: &[u8], first: usize, out: &mut Vec<(usize, f64)>) {
        self.bounds_under_with(coconut_series::simd::active(), block, first, out);
    }

    /// [`KeyFilter::bounds_under`] with an explicit dispatch. On AVX2 the
    /// fast-scan pass runs first, 32 entries at a time (`PSHUFB` and
    /// saturating adds; the scalar mirror takes the tail), and only its
    /// survivors get the exact sum. The scalar dispatch runs the exact
    /// kernel alone: byte-wise table lookups cost more there than the `f64`
    /// sums they would spare. The output is the same either way.
    pub fn bounds_under_with(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let count = self.entries(block);
        self.ranges_under(dispatch, block, std::iter::once(0..count), first, out);
    }

    /// [`KeyFilter::bounds_under`] over the entries of `block` whose zone
    /// survives: `zones` holds the block's zone boxes ([`zone_boxes`]),
    /// each is bounded by [`KeyFilter::boxes_under`], and only the entries
    /// of zones at or under the cutoff are bounded. A zone's bound never
    /// exceeds the bound of an entry in it, so the output is exactly
    /// [`KeyFilter::bounds_under`]'s. Returns the bounds computed: one per
    /// zone, one per entry of a surviving zone.
    pub fn zoned_bounds_under(
        &self,
        block: &[u8],
        zones: &[u8],
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) -> usize {
        self.zoned_bounds_under_with(coconut_series::simd::active(), block, zones, first, out)
    }

    /// [`KeyFilter::zoned_bounds_under`] with an explicit dispatch.
    pub fn zoned_bounds_under_with(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        zones: &[u8],
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) -> usize {
        let count = self.entries(block);
        let zone_count = count.div_ceil(ZONE);
        assert_eq!(zones.len(), 2 * self.table.config.segments * zone_count);
        let use_avx2 = use_avx2(dispatch);
        let mut bounded = zone_count;
        let (mut next, mut batch, mut survivors) = (0, 0, 0u32);
        let mut bounds = [0.0; FAST_SCAN_BATCH];
        let ranges = std::iter::from_fn(|| loop {
            if survivors != 0 {
                let z = batch + survivors.trailing_zeros() as usize;
                survivors &= survivors - 1;
                let range = z * ZONE..(z * ZONE + ZONE).min(count);
                bounded += range.len();
                return Some(range);
            }
            if next == zone_count {
                return None;
            }
            let n = (zone_count - next).min(FAST_SCAN_BATCH);
            survivors = self.box_batch(use_avx2, zones, zone_count, next, n, &mut bounds);
            (batch, next) = (next, next + n);
        });
        self.ranges_under(dispatch, block, ranges, first, out);
        bounded
    }

    /// Push `(first + b, bound)` for each box `b` of the box block `boxes`
    /// whose bound does not exceed the cutoff, in box order. A box block of
    /// `n` boxes is `2 * segments * n` bytes, segment-major: box `b`'s
    /// lower symbol of segment `j` at `j * n + b`, its upper one at
    /// `(segments + j) * n + b` — the layout of the leaf boxes
    /// ([`SymbolDecoder::key_range_boxes`]) and of the zone boxes
    /// ([`zone_boxes`]). Bounds are [`QueryDistTable::box_bound`]'s, bit for
    /// bit.
    pub fn boxes_under(&self, boxes: &[u8], first: usize, out: &mut Vec<(usize, f64)>) {
        self.boxes_under_with(coconut_series::simd::active(), boxes, first, out);
    }

    /// [`KeyFilter::boxes_under`] with an explicit dispatch. Each box is
    /// bounded as the symbol vector of its nearest symbols to the query
    /// (the query's nearest symbol clamped into it, 32 boxes per AVX2
    /// step): through the fast-scan pass on AVX2, and exactly for its
    /// survivors — the scalar dispatch sums every box exactly. The output
    /// is the same either way.
    pub fn boxes_under_with(
        &self,
        dispatch: Dispatch,
        boxes: &[u8],
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let w = self.table.config.segments;
        assert_eq!(boxes.len() % (2 * w), 0);
        let count = boxes.len() / (2 * w);
        let use_avx2 = use_avx2(dispatch);
        let mut bounds = [0.0; FAST_SCAN_BATCH];
        for b in (0..count).step_by(FAST_SCAN_BATCH) {
            let n = (count - b).min(FAST_SCAN_BATCH);
            let mut kept = self.box_batch(use_avx2, boxes, count, b, n, &mut bounds);
            while kept != 0 {
                let i = kept.trailing_zeros() as usize;
                kept &= kept - 1;
                out.push((first + b + i, bounds[i]));
            }
        }
    }

    /// Bound the `n <= 32` boxes from `b` of a box block of `count` boxes:
    /// returns those at or under the cutoff as a bit mask (bit `i` = box
    /// `b + i`), their bounds in `bounds[i]`.
    fn box_batch(
        &self,
        use_avx2: bool,
        boxes: &[u8],
        count: usize,
        b: usize,
        n: usize,
        bounds: &mut [f64; FAST_SCAN_BATCH],
    ) -> u32 {
        let table = self.table;
        let w = table.config.segments;
        assert!(n <= FAST_SCAN_BATCH && b + n <= count && boxes.len() == 2 * w * count);
        // The boxes' nearest symbols, segment-major, 32 to a segment.
        let mut nearest = [0u8; MAX_SEGMENTS * FAST_SCAN_BATCH];
        let nearest = &mut nearest[..w * FAST_SCAN_BATCH];
        clamp_into_boxes(use_avx2, &table.nearest, boxes, count, b, n, nearest);
        let mut survivors = match &self.lut {
            Some(lut) if use_avx2 => {
                let shift = nibble_shift(table.config.card_bits);
                fast_scan(
                    true,
                    &lut[..w * NIBBLES],
                    shift,
                    nearest,
                    FAST_SCAN_BATCH,
                    0,
                    n,
                )
            }
            _ => u32::MAX >> (FAST_SCAN_BATCH - n),
        };
        let mut kept = 0;
        while survivors != 0 {
            let i = survivors.trailing_zeros() as usize;
            survivors &= survivors - 1;
            let raw = table.entry_raw(nearest, FAST_SCAN_BATCH, i);
            if let Some(bound) = self.within(raw) {
                bounds[i] = bound;
                kept |= 1 << i;
            }
        }
        kept
    }

    /// Entries in the segment-major block `block`.
    fn entries(&self, block: &[u8]) -> usize {
        let w = self.table.config.segments;
        assert_eq!(block.len() % w, 0);
        block.len() / w
    }

    /// The entries of `block` in `ranges` (ascending, disjoint) at or under
    /// the cutoff, through the fast scan where the dispatch and the cutoff
    /// allow it, else the exact kernel.
    fn ranges_under(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        ranges: impl Iterator<Item = Range<usize>>,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        match &self.lut {
            Some(lut) if use_avx2(dispatch) => {
                self.fast_scan_under(true, lut, block, ranges, first, out)
            }
            _ => {
                for range in ranges {
                    self.exact_range_under(dispatch, block, range, first, out);
                }
            }
        }
    }

    /// The fast-scan pass under `lut` over the entries of `block` in
    /// `ranges` — AVX2 on full batches if `use_avx2`, the scalar mirror
    /// everywhere else — then the exact sum of its survivors.
    fn fast_scan_under(
        &self,
        use_avx2: bool,
        lut: &[u8; MAX_SEGMENTS * NIBBLES],
        block: &[u8],
        ranges: impl Iterator<Item = Range<usize>>,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let w = self.table.config.segments;
        let count = self.entries(block);
        let lut = &lut[..w * NIBBLES];
        let shift = nibble_shift(self.table.config.card_bits);
        // Survivors wait in groups, so their exact sums run side by side.
        let mut group = [0usize; REFINE_GROUP];
        let mut waiting = 0;
        for range in ranges {
            for e in range.clone().step_by(FAST_SCAN_BATCH) {
                let n = (range.end - e).min(FAST_SCAN_BATCH);
                let mut survivors = fast_scan(use_avx2, lut, shift, block, count, e, n);
                while survivors != 0 {
                    group[waiting] = e + survivors.trailing_zeros() as usize;
                    survivors &= survivors - 1;
                    waiting += 1;
                    if waiting == REFINE_GROUP {
                        self.refine(&group, block, count, first, out);
                        waiting = 0;
                    }
                }
            }
        }
        self.refine(&group[..waiting], block, count, first, out);
    }

    /// Keep those of `entries` (at most [`REFINE_GROUP`], ascending) whose
    /// exact bound is at or under the cutoff: one accumulator per entry,
    /// each summing its table entries in segment order — the additions of
    /// every other kernel, in their order, so the bounds are bit-identical;
    /// the independent sums only let the processor overlap them.
    fn refine(
        &self,
        entries: &[usize],
        block: &[u8],
        count: usize,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        if entries.is_empty() {
            return;
        }
        let mut acc = [0.0f64; REFINE_GROUP];
        for (row, symbols) in self
            .table
            .table
            .chunks_exact(TABLE_ROW)
            .zip(block.chunks_exact(count))
        {
            for (a, &e) in acc.iter_mut().zip(entries) {
                *a += row[symbols[e] as usize];
            }
        }
        for (&a, &e) in acc.iter().zip(entries) {
            self.keep(first + e, a, out);
        }
    }

    /// [`KeyFilter::bounds_under_with`] without the prefilter: the exact
    /// `f64` sum of every entry, eight at a time (AVX2 gathers or their
    /// scalar mirror) — the reference the prefiltered pass equals.
    pub fn exact_bounds_under_with(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let count = self.entries(block);
        self.exact_range_under(dispatch, block, 0..count, first, out);
    }

    /// The exact kernel over the entries of `block` in `range`.
    fn exact_range_under(
        &self,
        dispatch: Dispatch,
        block: &[u8],
        range: Range<usize>,
        first: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let table = self.table;
        let count = self.entries(block);
        let use_avx2 = use_avx2(dispatch);
        let n8 = range.end - range.len() % MINDIST_BATCH;
        let mut raw = [0.0f64; MINDIST_BATCH];
        for e in (range.start..n8).step_by(MINDIST_BATCH) {
            if table.accumulate_block(use_avx2, &block[e..], count, self.limit, &mut raw) {
                for (b, &r) in raw.iter().enumerate() {
                    self.keep(first + e + b, r, out);
                }
            }
        }
        for e in n8..range.end {
            self.keep(first + e, table.entry_raw(block, count, e), out);
        }
    }

    /// Push `(at, bound)` if the raw bound `raw` is at or under the cutoff.
    #[inline]
    fn keep(&self, at: usize, raw: f64, out: &mut Vec<(usize, f64)>) {
        if let Some(bound) = self.within(raw) {
            out.push((at, bound));
        }
    }

    /// The bound of the raw bound `raw`, if it is at or under the cutoff.
    #[inline]
    fn within(&self, raw: f64) -> Option<f64> {
        let scaled = self.table.scale * raw;
        if scaled > self.limit {
            return None;
        }
        let bound = scaled.sqrt();
        (bound <= self.cutoff).then_some(bound)
    }
}

/// Clamp each segment's `nearest` symbol into the `n <= 32` boxes from `b`
/// of a box block of `count` boxes, `min(max(nearest, lo), hi)`: box
/// `b + i`'s segment-`j` symbol lands at `out[j * 32 + i]`. Full batches
/// take the AVX2 path where `use_avx2` allows, everything else the scalar
/// mirror; both write the same bytes.
fn clamp_into_boxes(
    use_avx2: bool,
    nearest: &[u8],
    boxes: &[u8],
    count: usize,
    b: usize,
    n: usize,
    out: &mut [u8],
) {
    let w = nearest.len();
    assert!(b + n <= count && boxes.len() == 2 * w * count && out.len() == w * FAST_SCAN_BATCH);
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && n == FAST_SCAN_BATCH {
        // SAFETY: AVX2 support verified by `use_avx2`; the assertion above
        // keeps the 32 bytes read at `j * count + b` and `(w + j) * count +
        // b` inside `boxes`, and the 32 written at `j * 32` inside `out`,
        // for every segment `j < w`.
        unsafe { x86::clamp_into_boxes_avx2(nearest, boxes, count, b, out) };
        return;
    }
    let _ = use_avx2;
    let (lower, upper) = boxes.split_at(w * count);
    for (j, &near) in nearest.iter().enumerate() {
        let (lo, hi) = (&lower[j * count + b..][..n], &upper[j * count + b..][..n]);
        let row = &mut out[j * FAST_SCAN_BATCH..][..n];
        for ((s, &lo), &hi) in row.iter_mut().zip(lo).zip(hi) {
            *s = near.max(lo).min(hi);
        }
    }
}

/// Entries per zone: the unit inside a leaf that [`zone_boxes`] boxes and
/// [`KeyFilter::zoned_bounds_under`] skips whole. Two fast-scan batches, so
/// a surviving zone is scanned in two steps. Chosen by measurement on a
/// million series in leaves of 2,000 (ARCHITECTURE, "The query path").
pub const ZONE: usize = 64;

/// The zone boxes of the segment-major symbol block `block` (`segments`
/// rows of equal length, one symbol per entry): for each [`ZONE`] entries
/// (the last zone takes the rest) and each segment, the smallest and the
/// largest symbol, as a box block of `entries.div_ceil(ZONE)` boxes in
/// `out` ([the layout](KeyFilter::boxes_under)).
pub fn zone_boxes(block: &[u8], segments: usize, out: &mut [u8]) {
    zone_boxes_with(coconut_series::simd::active(), block, segments, out);
}

/// [`zone_boxes`] with an explicit dispatch: on AVX2, each full zone's 64
/// symbols are folded to 32 with byte-wise `min`/`max` and eight zones'
/// folds reduced together by interleaving (a zone at the end of a row of
/// 64 entries or more is read as the row's last 64 bytes with the bytes
/// before it masked out); rows under 64 entries and the scalar dispatch
/// run the per-zone scalar loop. Both write the same bytes.
pub fn zone_boxes_with(dispatch: Dispatch, block: &[u8], segments: usize, out: &mut [u8]) {
    assert!(segments > 0 && block.len().is_multiple_of(segments));
    let count = block.len() / segments;
    let zones = count.div_ceil(ZONE);
    assert_eq!(out.len(), 2 * segments * zones);
    if count == 0 {
        return;
    }
    let (lower, upper) = out.split_at_mut(segments * zones);
    let rows = block
        .chunks_exact(count)
        .zip(lower.chunks_exact_mut(zones))
        .zip(upper.chunks_exact_mut(zones));
    for ((row, lo), hi) in rows {
        #[cfg(target_arch = "x86_64")]
        if use_avx2(dispatch) && count >= ZONE {
            // SAFETY: AVX2 support verified by `use_avx2`; the row holds at
            // least one full zone, and `lo` and `hi` one byte per zone of it.
            unsafe { x86::zone_row_avx2(row, lo, hi) };
            continue;
        }
        let _ = dispatch;
        for ((zone, lo), hi) in row.chunks(ZONE).zip(lo).zip(hi) {
            *lo = zone.iter().fold(u8::MAX, |m, &s| m.min(s));
            *hi = zone.iter().fold(0, |m, &s| m.max(s));
        }
    }
}

/// How far a symbol of `card_bits` bits shifts right to leave its 4-bit
/// prefix (none for alphabets of 16 symbols or fewer: the symbol is its own
/// prefix).
fn nibble_shift(card_bits: u8) -> u32 {
    card_bits.saturating_sub(4) as u32
}

/// The smallest of table entries `entries`, found four at a time. Table
/// entries are squares or zero, never NaN or `-0.0`, so the smallest is one
/// value whatever order finds it: the entry a left-to-right `f64::min`
/// fold returns, and — compared by `==` — the one `min_by(total_cmp)`
/// would.
fn smallest(entries: &[f64]) -> f64 {
    let mut least = [f64::INFINITY; 4];
    let mut quads = entries.chunks_exact(4);
    for quad in &mut quads {
        for (m, &e) in least.iter_mut().zip(quad) {
            *m = if e < *m { e } else { *m };
        }
    }
    for &e in quads.remainder() {
        least[0] = if e < least[0] { e } else { least[0] };
    }
    least
        .into_iter()
        .fold(f64::INFINITY, |m, e| if e < m { e } else { m })
}

/// The fast-scan pass over the `n <= 32` entries from `e` of a segment-major
/// block of `count` entries, under `lut` (one 16-byte table per segment):
/// per entry, the saturating `u8` sum of its segments' table bytes. Returns
/// the survivors — entries whose sum did not saturate — as a bit mask (bit
/// `b` = entry `e + b`). Full batches take the AVX2 path where `use_avx2`
/// allows, everything else the scalar mirror; both return the same mask.
#[inline]
fn fast_scan(
    use_avx2: bool,
    lut: &[u8],
    shift: u32,
    block: &[u8],
    count: usize,
    e: usize,
    n: usize,
) -> u32 {
    let segments = lut.len() / NIBBLES;
    assert!(n <= FAST_SCAN_BATCH && block.len() >= (segments - 1) * count + e + n);
    #[cfg(target_arch = "x86_64")]
    if use_avx2 && n == FAST_SCAN_BATCH {
        // SAFETY: AVX2 support verified by `use_avx2`; `lut` holds
        // `NIBBLES` bytes per segment, and the assertion above keeps the
        // 32 bytes read at `j * count + e` inside `block` for every segment.
        return unsafe { x86::fast_scan_avx2(lut, segments, shift, block, count, e) };
    }
    let _ = use_avx2;
    fast_scan_scalar(lut, segments, shift, &block[e..], count, n)
}

/// Scalar mirror of [`x86::fast_scan_avx2`] over the first `n` entries of
/// the segment-major `block` (rows `count` bytes apart).
fn fast_scan_scalar(
    lut: &[u8],
    segments: usize,
    shift: u32,
    block: &[u8],
    count: usize,
    n: usize,
) -> u32 {
    let mut acc = [0u8; FAST_SCAN_BATCH];
    for j in 0..segments {
        let row = &lut[j * NIBBLES..(j + 1) * NIBBLES];
        let lane = &block[j * count..j * count + n];
        for (a, &s) in acc.iter_mut().zip(lane) {
            *a = a.saturating_add(row[((s >> shift) & 0x0F) as usize]);
        }
    }
    acc[..n]
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a < u8::MAX)
        .fold(0, |mask, (b, _)| mask | 1 << b)
}

/// Whether `dispatch` selects the AVX2 kernels on this machine.
fn use_avx2(dispatch: Dispatch) -> bool {
    #[cfg(target_arch = "x86_64")]
    return dispatch == Dispatch::Avx2 && std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = dispatch;
        false
    }
}

/// Scalar mirror of the AVX2 gather kernel: 8 independent per-key
/// accumulators, segments added in ascending order — the same additions in
/// the same order as both the vector path and the single-key path — and
/// the same early-abandon checks.
fn accumulate_block_scalar(
    table: &[f64],
    segments: usize,
    sym: &[u8],
    stride: usize,
    scale: f64,
    limit: f64,
    out: &mut [f64; MINDIST_BATCH],
) -> bool {
    let mut acc = [0.0f64; MINDIST_BATCH];
    for j in 0..segments {
        let row = &table[j * TABLE_ROW..(j + 1) * TABLE_ROW];
        let lane = &sym[j * stride..j * stride + MINDIST_BATCH];
        for (a, &s) in acc.iter_mut().zip(lane.iter()) {
            *a += row[s as usize];
        }
        if (j + 1) % ABANDON_STRIDE == 0 && acc.iter().all(|&a| scale * a > limit) {
            return false;
        }
    }
    *out = acc;
    true
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        PextMask, ZKey, ABANDON_STRIDE, FAST_SCAN_BATCH, MINDIST_BATCH, NIBBLES, TABLE_ROW, ZONE,
    };
    use std::arch::x86_64::*;

    /// Decode keys via BMI2 `PEXT`: two extracts per segment instead of one
    /// shift/mask step per bit. Bit-exact equal to
    /// [`crate::zorder::deinterleave_into`]; key `b`'s segment-`j` symbol
    /// lands at `sym[j * stride + b]`.
    ///
    /// # Safety
    /// Caller must verify BMI2 support.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn decode_pext(masks: &[PextMask], keys: &[ZKey], sym: &mut [u8], stride: usize) {
        for (b, &k) in keys.iter().enumerate() {
            let klo = k.0 as u64;
            let khi = (k.0 >> 64) as u64;
            for (j, m) in masks.iter().enumerate() {
                let s = _pext_u64(klo, m.lo) | (_pext_u64(khi, m.hi) << m.shift);
                sym[j * stride + b] = s as u8;
            }
        }
    }

    /// Re-interleave a segment-major block via BMI2 `PDEP`: each symbol's
    /// bits are deposited at exactly the key positions [`decode_pext`]
    /// extracts them from, so this is its inverse and bit-exact equal to
    /// [`crate::zorder::interleave`]. Entry `e`'s segment-`j` symbol is
    /// `block[j * keys.len() + e]`.
    ///
    /// # Safety
    /// Caller must verify BMI2 support.
    #[target_feature(enable = "bmi2")]
    pub unsafe fn interleave_pdep(masks: &[PextMask], block: &[u8], keys: &mut [ZKey]) {
        let count = keys.len();
        for (e, key) in keys.iter_mut().enumerate() {
            let (mut lo, mut hi) = (0u64, 0u64);
            for (j, m) in masks.iter().enumerate() {
                let s = block[j * count + e] as u64;
                lo |= _pdep_u64(s, m.lo);
                hi |= _pdep_u64(s >> m.shift, m.hi);
            }
            *key = ZKey((hi as u128) << 64 | lo as u128);
        }
    }

    /// Sum the per-segment table entries of 8 keys at once: zero-extend
    /// each segment's 8 symbols to i32 lane indices, gather 2×4 `f64`
    /// distances, and add into two 4-lane accumulators; every
    /// [`ABANDON_STRIDE`] segments, return `false` if all eight scaled
    /// partial sums already exceed `limit`.
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `table` must hold
    /// `segments * TABLE_ROW` entries and `sym` 8 bytes at `j * stride`
    /// for every segment `j`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_block_avx2(
        table: &[f64],
        segments: usize,
        sym: &[u8],
        stride: usize,
        scale: f64,
        limit: f64,
        out: &mut [f64; MINDIST_BATCH],
    ) -> bool {
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let (scale, limit) = (_mm256_set1_pd(scale), _mm256_set1_pd(limit));
        let base = table.as_ptr();
        for j in 0..segments {
            let bytes = _mm_loadl_epi64(sym.as_ptr().add(j * stride) as *const __m128i);
            let idx = _mm256_cvtepu8_epi32(bytes);
            let idx = _mm256_add_epi32(idx, _mm256_set1_epi32((j * TABLE_ROW) as i32));
            let idx_lo = _mm256_castsi256_si128(idx);
            let idx_hi = _mm256_extracti128_si256::<1>(idx);
            acc_lo = _mm256_add_pd(acc_lo, _mm256_i32gather_pd::<8>(base, idx_lo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_i32gather_pd::<8>(base, idx_hi));
            if (j + 1) % ABANDON_STRIDE == 0 {
                let over_lo = _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_mul_pd(scale, acc_lo), limit);
                let over_hi = _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_mul_pd(scale, acc_hi), limit);
                if _mm256_movemask_pd(_mm256_and_pd(over_lo, over_hi)) == 0xF {
                    return false;
                }
            }
        }
        _mm256_storeu_pd(out.as_mut_ptr(), acc_lo);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), acc_hi);
        true
    }

    /// The fast-scan pass over 32 entries: per segment, load the entries'
    /// 32 symbol bytes, shift each down to its 4-bit prefix, look the
    /// prefixes up in the segment's 16-byte table (`PSHUFB`, the table
    /// broadcast to both lanes) and add with unsigned saturation. Returns
    /// the entries whose sum stayed under 255 as a bit mask.
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `lut` must hold `segments * 16`
    /// bytes and `block` 32 bytes at `j * count + e` for every segment `j`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fast_scan_avx2(
        lut: &[u8],
        segments: usize,
        shift: u32,
        block: &[u8],
        count: usize,
        e: usize,
    ) -> u32 {
        let low_nibble = _mm256_set1_epi8(0x0F);
        let shift = _mm_cvtsi32_si128(shift as i32);
        let mut acc = _mm256_setzero_si256();
        for j in 0..segments {
            let symbols = _mm256_loadu_si256(block.as_ptr().add(j * count + e) as *const __m256i);
            // 16-bit shifts: with `shift <= 4` a byte's low 4 result bits
            // all come from the byte itself.
            let prefix = _mm256_and_si256(_mm256_srl_epi16(symbols, shift), low_nibble);
            let row = _mm_loadu_si128(lut.as_ptr().add(j * NIBBLES) as *const __m128i);
            let terms = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(row), prefix);
            acc = _mm256_adds_epu8(acc, terms);
        }
        let saturated = _mm256_cmpeq_epi8(acc, _mm256_set1_epi8(-1));
        !(_mm256_movemask_epi8(saturated) as u32)
    }

    /// Clamp each segment's nearest symbol into 32 boxes at once: per
    /// segment `j`, the broadcast symbol, `max` with the boxes' 32 lower
    /// symbols at `j * count + b`, `min` with their upper ones at
    /// `(w + j) * count + b`, stored at `out[j * 32..]`.
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `boxes` must hold 32 bytes at both
    /// offsets and `out` 32 at `j * 32` for every segment `j <
    /// nearest.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn clamp_into_boxes_avx2(
        nearest: &[u8],
        boxes: &[u8],
        count: usize,
        b: usize,
        out: &mut [u8],
    ) {
        let w = nearest.len();
        for (j, &near) in nearest.iter().enumerate() {
            let lo = _mm256_loadu_si256(boxes.as_ptr().add(j * count + b) as *const __m256i);
            let hi = _mm256_loadu_si256(boxes.as_ptr().add((w + j) * count + b) as *const __m256i);
            let near = _mm256_set1_epi8(near as i8);
            let clamped = _mm256_min_epu8(_mm256_max_epu8(near, lo), hi);
            _mm256_storeu_si256(
                out.as_mut_ptr().add(j * FAST_SCAN_BATCH) as *mut __m256i,
                clamped,
            );
        }
    }

    /// `0x00` then `0xFF` bytes: the 64 bytes from offset `n` keep the
    /// last `n` bytes of a 64-byte window.
    static KEEP_LAST: [u8; 2 * ZONE] = {
        let mut keep = [0u8; 2 * ZONE];
        let mut i = ZONE;
        while i < 2 * ZONE {
            keep[i] = 0xFF;
            i += 1;
        }
        keep
    };

    /// The smallest and the largest symbol of each zone of one segment's
    /// row into `lo` and `hi`: each zone's two 32-byte halves folded into
    /// one by `min` and `max` ([`fold_zone`]), the folds of eight zones
    /// reduced together ([`reduce8`]).
    ///
    /// # Safety
    /// Caller must verify AVX2 support; `row` must hold at least [`ZONE`]
    /// bytes, and `lo` and `hi` one byte per zone of it.
    #[target_feature(enable = "avx2")]
    pub unsafe fn zone_row_avx2(row: &[u8], lo: &mut [u8], hi: &mut [u8]) {
        let zones = lo.len();
        debug_assert!(row.len() >= ZONE && zones == row.len().div_ceil(ZONE));
        debug_assert_eq!(hi.len(), zones);
        let mut z = 0;
        while z < zones {
            let n = (zones - z).min(8);
            let mut mins = [_mm256_setzero_si256(); 8];
            let mut maxs = [_mm256_setzero_si256(); 8];
            for i in 0..8 {
                // A short group repeats its last zone.
                (mins[i], maxs[i]) = fold_zone(row, z + i.min(n - 1));
            }
            let (min, max) = (reduce8::<true>(&mins), reduce8::<false>(&maxs));
            if n == 8 {
                _mm_storel_epi64(lo.as_mut_ptr().add(z) as *mut __m128i, min);
                _mm_storel_epi64(hi.as_mut_ptr().add(z) as *mut __m128i, max);
            } else {
                let mut bytes = [0u8; 8];
                _mm_storel_epi64(bytes.as_mut_ptr() as *mut __m128i, min);
                lo[z..z + n].copy_from_slice(&bytes[..n]);
                _mm_storel_epi64(bytes.as_mut_ptr() as *mut __m128i, max);
                hi[z..z + n].copy_from_slice(&bytes[..n]);
            }
            z += n;
        }
    }

    /// Zone `z` of `row` (at least [`ZONE`] bytes) as 32 bytes holding its
    /// smallest and 32 holding its largest symbol: the `min` and the `max`
    /// of its two halves — or, for a last zone shorter than 64, of the
    /// row's last 64 bytes with those before the zone replaced by the
    /// identity of the fold (`0xFF` for `min`, `0` for `max`).
    ///
    /// # Safety
    /// Caller must verify AVX2 support; zone `z` must start inside `row`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_zone(row: &[u8], z: usize) -> (__m256i, __m256i) {
        let (count, start) = (row.len(), z * ZONE);
        let at = start.min(count - ZONE);
        let a = _mm256_loadu_si256(row.as_ptr().add(at) as *const __m256i);
        let b = _mm256_loadu_si256(row.as_ptr().add(at + 32) as *const __m256i);
        if start + ZONE <= count {
            return (_mm256_min_epu8(a, b), _mm256_max_epu8(a, b));
        }
        let keep = KEEP_LAST.as_ptr().add(count - start);
        let keep_a = _mm256_loadu_si256(keep as *const __m256i);
        let keep_b = _mm256_loadu_si256(keep.add(32) as *const __m256i);
        let ones = _mm256_set1_epi8(-1);
        let min = _mm256_min_epu8(
            _mm256_or_si256(a, _mm256_andnot_si256(keep_a, ones)),
            _mm256_or_si256(b, _mm256_andnot_si256(keep_b, ones)),
        );
        let max = _mm256_max_epu8(_mm256_and_si256(a, keep_a), _mm256_and_si256(b, keep_b));
        (min, max)
    }

    /// Byte `i` of the low 8 bytes: the `min` (`MIN`) or the `max` of the
    /// 32 bytes of `v[i]` — three rounds that interleave pairs of vectors
    /// 8, then 16, then 32 bits at a time within each 128-bit lane and
    /// fold the two results, then a fold of each lane's halves and one of
    /// the two lanes.
    ///
    /// # Safety
    /// Caller must verify AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce8<const MIN: bool>(v: &[__m256i; 8]) -> __m128i {
        let t = [
            pick::<MIN>(
                _mm256_unpacklo_epi8(v[0], v[1]),
                _mm256_unpackhi_epi8(v[0], v[1]),
            ),
            pick::<MIN>(
                _mm256_unpacklo_epi8(v[2], v[3]),
                _mm256_unpackhi_epi8(v[2], v[3]),
            ),
            pick::<MIN>(
                _mm256_unpacklo_epi8(v[4], v[5]),
                _mm256_unpackhi_epi8(v[4], v[5]),
            ),
            pick::<MIN>(
                _mm256_unpacklo_epi8(v[6], v[7]),
                _mm256_unpackhi_epi8(v[6], v[7]),
            ),
        ];
        let u = [
            pick::<MIN>(
                _mm256_unpacklo_epi16(t[0], t[1]),
                _mm256_unpackhi_epi16(t[0], t[1]),
            ),
            pick::<MIN>(
                _mm256_unpacklo_epi16(t[2], t[3]),
                _mm256_unpackhi_epi16(t[2], t[3]),
            ),
        ];
        let x = pick::<MIN>(
            _mm256_unpacklo_epi32(u[0], u[1]),
            _mm256_unpackhi_epi32(u[0], u[1]),
        );
        let y = pick::<MIN>(x, _mm256_srli_si256::<8>(x));
        let (lane0, lane1) = (_mm256_castsi256_si128(y), _mm256_extracti128_si256::<1>(y));
        if MIN {
            _mm_min_epu8(lane0, lane1)
        } else {
            _mm_max_epu8(lane0, lane1)
        }
    }

    /// Byte-wise unsigned `min` (`MIN`) or `max`.
    ///
    /// # Safety
    /// Caller must verify AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pick<const MIN: bool>(a: __m256i, b: __m256i) -> __m256i {
        if MIN {
            _mm256_min_epu8(a, b)
        } else {
            _mm256_max_epu8(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paa::paa;
    use crate::sax::sax_word;
    use crate::zorder::interleave;
    use coconut_series::distance::euclidean;
    use coconut_series::simd::Dispatch;
    use coconut_series::Value;

    fn cfg() -> SaxConfig {
        SaxConfig {
            series_len: 64,
            segments: 8,
            card_bits: 8,
        }
    }

    fn wavy(seed: u32, len: usize) -> Vec<Value> {
        let mut s: Vec<Value> = (0..len)
            .map(|i| ((i as f32 * 0.17 + seed as f32) * 1.3).sin() * (1.0 + (seed % 5) as f32))
            .collect();
        coconut_series::distance::znormalize(&mut s);
        s
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        let c = cfg();
        for qa in 0..10u32 {
            let q = wavy(qa, c.series_len);
            let qp = paa(&q, c.segments);
            for sb in 10..30u32 {
                let s = wavy(sb, c.series_len);
                let word = sax_word(&s, &c);
                let md = mindist_paa_sax(&qp, word.symbols(), &c);
                let ed = euclidean(&q, &s);
                assert!(md <= ed + 1e-6, "mindist {md} > ed {ed} (q={qa} s={sb})");
            }
        }
    }

    #[test]
    fn zkey_mindist_equals_sax_mindist() {
        let c = cfg();
        let q = wavy(3, c.series_len);
        let qp = paa(&q, c.segments);
        for sb in 0..20u32 {
            let s = wavy(sb + 50, c.series_len);
            let word = sax_word(&s, &c);
            let key = interleave(word.symbols(), c.card_bits);
            let via_sax = mindist_paa_sax(&qp, word.symbols(), &c);
            let via_key = mindist_paa_zkey(&qp, key, &c);
            assert!((via_sax - via_key).abs() < 1e-12);
        }
    }

    #[test]
    fn isax_mindist_is_monotone_in_refinement() {
        // More prefix bits -> tighter (larger) bound, never looser, and the
        // full mask equals the SAX mindist.
        let c = cfg();
        let q = wavy(7, c.series_len);
        let qp = paa(&q, c.segments);
        let s = wavy(77, c.series_len);
        let word = sax_word(&s, &c);
        let key = interleave(word.symbols(), c.card_bits);
        let mut prev = -1.0f64;
        for depth in 0..=c.word_bits() {
            let mask = IsaxMask::from_zorder_prefix(key, depth, &c);
            let md = mindist_paa_isax(&qp, &mask, &c);
            assert!(md >= prev - 1e-12, "depth {depth}: {md} < {prev}");
            prev = md;
        }
        let full = mindist_paa_sax(&qp, word.symbols(), &c);
        assert!((prev - full).abs() < 1e-12);
    }

    #[test]
    fn node_mindist_lower_bounds_member_distance() {
        let c = cfg();
        let q = wavy(1, c.series_len);
        let qp = paa(&q, c.segments);
        for sb in 0..10u32 {
            let s = wavy(sb + 20, c.series_len);
            let word = sax_word(&s, &c);
            let key = interleave(word.symbols(), c.card_bits);
            let ed = euclidean(&q, &s);
            for depth in [0usize, 3, 8, 16, 64] {
                let mask = IsaxMask::from_zorder_prefix(key, depth, &c);
                let md = mindist_paa_isax(&qp, &mask, &c);
                assert!(md <= ed + 1e-6, "depth {depth}: {md} > {ed}");
            }
        }
    }

    #[test]
    fn mindist_zero_when_query_matches_regions() {
        let c = cfg();
        let s = wavy(9, c.series_len);
        let sp = paa(&s, c.segments);
        let word = sax_word(&s, &c);
        // A query with the same PAA is inside every region: mindist 0.
        let md = mindist_paa_sax(&sp, word.symbols(), &c);
        assert_eq!(md, 0.0);
    }

    #[test]
    fn root_mask_mindist_is_zero() {
        let c = cfg();
        let q = wavy(4, c.series_len);
        let qp = paa(&q, c.segments);
        let root = IsaxMask::root(c.segments);
        assert_eq!(mindist_paa_isax(&qp, &root, &c), 0.0);
    }

    #[test]
    fn envelope_mindist_lower_bounds_dtw() {
        use coconut_series::dtw::{dtw, Envelope};
        let c = cfg();
        for seed in 0..15u32 {
            let q = wavy(seed, c.series_len);
            let s = wavy(seed + 40, c.series_len);
            for band in [1usize, 4, 10] {
                let env = Envelope::new(&q, band);
                let (lo, hi) = envelope_segment_bounds(&env.lower, &env.upper, c.segments);
                let word = sax_word(&s, &c);
                let md = mindist_env_sax(&lo, &hi, word.symbols(), &c);
                let d = dtw(&q, &s, band);
                assert!(md <= d + 1e-5, "seed {seed} band {band}: {md} > {d}");
            }
        }
    }

    #[test]
    fn envelope_mindist_never_exceeds_ed_mindist() {
        // Band 0 envelope equals the query; the interval bound is at most
        // as tight as the point bound.
        use coconut_series::dtw::Envelope;
        let c = cfg();
        let q = wavy(3, c.series_len);
        let qp = paa(&q, c.segments);
        let env = Envelope::new(&q, 0);
        let (lo, hi) = envelope_segment_bounds(&env.lower, &env.upper, c.segments);
        for seed in 0..10u32 {
            let s = wavy(seed + 60, c.series_len);
            let word = sax_word(&s, &c);
            let env_md = mindist_env_sax(&lo, &hi, word.symbols(), &c);
            let ed_md = mindist_paa_sax(&qp, word.symbols(), &c);
            assert!(env_md <= ed_md + 1e-9);
        }
    }

    #[test]
    fn query_dist_table_matches_per_key_mindist() {
        let c = cfg();
        let q = wavy(11, c.series_len);
        let qp = paa(&q, c.segments);
        let table = QueryDistTable::new(&qp, &c);
        for sb in 0..40u32 {
            let s = wavy(sb + 100, c.series_len);
            let word = sax_word(&s, &c);
            let key = interleave(word.symbols(), c.card_bits);
            let direct = mindist_paa_zkey(&qp, key, &c);
            let via_table = table.mindist_zkey(key);
            assert_eq!(direct.to_bits(), via_table.to_bits(), "seed {sb}");
        }
    }

    #[test]
    fn batch_mindist_matches_single_key_on_every_dispatch() {
        use coconut_series::simd::Dispatch;
        // Cover non-multiple-of-8 remainders and >64-bit keys.
        for (series_len, segments, card_bits, n) in [
            (64usize, 8usize, 8u8, 37usize),
            (256, 16, 8, 64),
            (60, 20, 3, 9),
        ] {
            let c = SaxConfig {
                series_len,
                segments,
                card_bits,
            };
            let q = wavy(5, series_len);
            let qp = paa(&q, segments);
            let table = QueryDistTable::new(&qp, &c);
            let keys: Vec<_> = (0..n as u32)
                .map(|i| {
                    let s = wavy(i + 200, series_len);
                    interleave(sax_word(&s, &c).symbols(), card_bits)
                })
                .collect();
            let expect: Vec<f64> = keys.iter().map(|&k| mindist_paa_zkey(&qp, k, &c)).collect();
            for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
                let mut out = vec![0.0f64; n];
                table.mindist_batch_into_with(dispatch, &keys, &mut out);
                for (i, (&got, &want)) in out.iter().zip(expect.iter()).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{dispatch:?} w={segments} b={card_bits} key {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_range_boxes_are_key_range_box_bit_for_bit() {
        use crate::zorder::key_range_box;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for card_bits in 1..=8u8 {
            for segments in [1usize, 3, 8, 16] {
                let config = SaxConfig {
                    series_len: 64,
                    segments,
                    card_bits,
                };
                let width = segments * card_bits as usize;
                let top = u128::MAX >> (128 - width);
                // Sorted random keys, some repeated and some sharing long
                // prefixes, ending at the largest key there is.
                let mut bounds: Vec<ZKey> = (0..41)
                    .map(|i| {
                        let k = (((next() as u128) << 64) | next() as u128) & top;
                        ZKey(if i % 7 == 3 { k & !0xF } else { k })
                    })
                    .collect();
                bounds.push(ZKey(top));
                bounds.sort_unstable();
                for dispatch in [Dispatch::Scalar, coconut_series::simd::detect()] {
                    let mut out = vec![0u8; (bounds.len() - 1) * 2 * segments];
                    SymbolDecoder::new(&config).key_range_boxes_with(dispatch, &bounds, &mut out);
                    let (mut lo, mut hi) = (vec![0; segments], vec![0; segments]);
                    let n = bounds.len() - 1;
                    for (i, pair) in bounds.windows(2).enumerate() {
                        key_range_box(pair[0], pair[1], &config, &mut lo, &mut hi);
                        // Box `i` of the box block: segment-major, lower
                        // symbols then upper ones.
                        let got: Vec<u8> = (0..2 * segments).map(|r| out[r * n + i]).collect();
                        assert_eq!(
                            got,
                            [lo.as_slice(), hi.as_slice()].concat(),
                            "{config:?}, range {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pext_masks_recover_symbols() {
        // The pext plan must describe exactly the interleave layout; check
        // by re-extracting bits with portable shifts.
        for (segments, bits) in [(16usize, 8u8), (8, 8), (20, 3), (32, 4), (1, 8), (3, 5)] {
            let symbols: Vec<u8> = (0..segments)
                .map(|j| ((j * 41 + 13) % (1usize << bits)) as u8)
                .collect();
            let key = interleave(&symbols, bits);
            let masks = pext_masks(segments, bits);
            let (klo, khi) = (key.0 as u64, (key.0 >> 64) as u64);
            for (j, m) in masks.iter().enumerate() {
                // Portable pext.
                let extract = |word: u64, mask: u64| -> u64 {
                    let mut out = 0u64;
                    let mut pos = 0;
                    for p in 0..64 {
                        if mask & (1u64 << p) != 0 {
                            out |= ((word >> p) & 1) << pos;
                            pos += 1;
                        }
                    }
                    out
                };
                let s = extract(klo, m.lo) | (extract(khi, m.hi) << m.shift);
                assert_eq!(s as u8, symbols[j], "w={segments} b={bits} j={j}");
            }
        }
    }

    #[test]
    fn interleave_into_inverts_decode_on_every_dispatch() {
        // Every valid card_bits for each width, a tail of 5 past the
        // 8-entry blocks, and pseudo-random symbols of every bit pattern.
        for segments in [1usize, 4, 8, 16, 32] {
            for card_bits in (1..=8u8).filter(|&b| segments * b as usize <= 128) {
                let c = SaxConfig {
                    series_len: 64,
                    segments,
                    card_bits,
                };
                let count = 37;
                let mut x = (segments * 131 + card_bits as usize) as u64 | 1;
                let rows: Vec<Vec<u8>> = (0..count)
                    .map(|_| {
                        (0..segments)
                            .map(|_| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                (x % (1u64 << card_bits)) as u8
                            })
                            .collect()
                    })
                    .collect();
                let want: Vec<ZKey> = rows.iter().map(|r| interleave(r, card_bits)).collect();
                let mut block = vec![0u8; count * segments];
                for (e, row) in rows.iter().enumerate() {
                    for (j, &s) in row.iter().enumerate() {
                        block[j * count + e] = s;
                    }
                }
                let codec = SymbolDecoder::new(&c);
                for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
                    let mut keys = vec![ZKey::MIN; count];
                    codec.interleave_into_with(dispatch, &block, &mut keys);
                    assert_eq!(keys, want, "{dispatch:?} w={segments} b={card_bits}");
                    let mut back = vec![0u8; count * segments];
                    codec.decode_into_with(dispatch, &keys, &mut back);
                    assert_eq!(back, block, "{dispatch:?} w={segments} b={card_bits}");
                }
            }
        }
    }

    #[test]
    fn envelope_table_agrees_with_sax() {
        use coconut_series::dtw::Envelope;
        let c = cfg();
        let q = wavy(8, c.series_len);
        let env = Envelope::new(&q, 5);
        let (lo, hi) = envelope_segment_bounds(&env.lower, &env.upper, c.segments);
        let table = QueryDistTable::for_envelope(&lo, &hi, &c);
        for seed in 90..110 {
            let word = sax_word(&wavy(seed, c.series_len), &c);
            let key = interleave(word.symbols(), c.card_bits);
            let a = mindist_env_sax(&lo, &hi, word.symbols(), &c);
            assert_eq!(a.to_bits(), table.mindist_zkey(key).to_bits());
        }
    }

    /// Sorted keys of `n` wavy series under `c`.
    fn sorted_keys(c: &SaxConfig, n: u32) -> Vec<ZKey> {
        let mut keys: Vec<ZKey> = (0..n)
            .map(|i| {
                interleave(
                    sax_word(&wavy(i + 300, c.series_len), c).symbols(),
                    c.card_bits,
                )
            })
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn symbol_block_bounds_match_key_bounds_on_every_dispatch() {
        use coconut_series::simd::Dispatch;
        // Leaf sizes around the 8-lane block: tails of 0..7, a lone entry,
        // and a key wider than 64 bits.
        for (series_len, segments, card_bits) in [(64usize, 8usize, 8u8), (256, 16, 8), (60, 20, 3)]
        {
            let c = SaxConfig {
                series_len,
                segments,
                card_bits,
            };
            let table = QueryDistTable::new(&paa(&wavy(5, series_len), segments), &c);
            let decoder = SymbolDecoder::new(&c);
            for n in [1u32, 7, 8, 9, 16, 37] {
                let keys = sorted_keys(&c, n);
                let mut block = vec![0u8; keys.len() * segments];
                decoder.decode_into(&keys, &mut block);
                let expect: Vec<f64> = keys.iter().map(|&k| table.mindist_zkey(k)).collect();
                let mut sorted = expect.clone();
                sorted.sort_by(f64::total_cmp);
                for cutoff in [f64::MAX, sorted[keys.len() / 2], -1.0] {
                    let want: Vec<(usize, u64)> = expect
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b <= cutoff)
                        .map(|(e, b)| (100 + e, b.to_bits()))
                        .collect();
                    for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
                        let mut got = Vec::new();
                        table.bounds_under_with(dispatch, &block, cutoff, 100, &mut got);
                        let got: Vec<(usize, u64)> =
                            got.iter().map(|&(e, b)| (e, b.to_bits())).collect();
                        assert_eq!(got, want, "{dispatch:?} w={segments} n={n} cutoff={cutoff}");
                    }
                }
            }
        }
    }

    /// How a test bounds a block.
    #[derive(Debug, Clone, Copy)]
    enum Pass {
        /// The exact kernel alone, on a dispatch.
        Exact(Dispatch),
        /// The fast scan, on AVX2 (where the CPU has it) or the scalar
        /// mirror throughout.
        Fast { avx2: bool },
    }

    const PASSES: [Pass; 4] = [
        Pass::Exact(Dispatch::Scalar),
        Pass::Exact(Dispatch::Avx2),
        Pass::Fast { avx2: false },
        Pass::Fast { avx2: true },
    ];

    /// The `(entry, bound bits)` list `filter` keeps of `block` by `pass`
    /// (the fast scan falls back to the exact kernel with no cutoff, as
    /// `bounds_under_with` does).
    fn kept(filter: &KeyFilter<'_>, pass: Pass, block: &[u8]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let entries = std::iter::once(0..block.len() / filter.table.config.segments);
        match (pass, &filter.lut) {
            (Pass::Fast { avx2 }, Some(lut)) => {
                let avx2 = avx2 && use_avx2(Dispatch::Avx2);
                filter.fast_scan_under(avx2, lut, block, entries, 3, &mut out)
            }
            (Pass::Exact(dispatch), _) => {
                filter.exact_bounds_under_with(dispatch, block, 3, &mut out)
            }
            (Pass::Fast { .. }, None) => {
                filter.exact_bounds_under_with(Dispatch::Scalar, block, 3, &mut out)
            }
        }
        out.iter().map(|&(e, b)| (e, b.to_bits())).collect()
    }

    /// A segment-major block of `count` pseudo-random symbols under `c`
    /// whose first entry holds the table's nearest symbols (bound zero).
    fn random_block(table: &QueryDistTable, count: usize, seed: u64) -> Vec<u8> {
        let c = table.config();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut block = vec![0u8; count * c.segments];
        for (j, row) in block.chunks_exact_mut(count).enumerate() {
            for s in row.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mostly near the query's own symbol, as a sorted leaf is.
                let near = table.nearest[j] as i64 + (x % 41) as i64 - 20;
                *s = near.clamp(0, c.cardinality() as i64 - 1) as u8;
            }
            row[0] = table.nearest[j];
        }
        block
    }

    #[test]
    fn fast_scan_keeps_what_the_exact_kernel_keeps() {
        use coconut_series::dtw::Envelope;
        for segments in [4usize, 8, 16] {
            for card_bits in [4u8, 6, 8] {
                let c = SaxConfig {
                    series_len: 128,
                    segments,
                    card_bits,
                };
                let q = wavy(segments as u32 + card_bits as u32, c.series_len);
                let env = Envelope::new(&q, 6);
                let (env_lo, env_hi) = envelope_segment_bounds(&env.lower, &env.upper, segments);
                let tables = [
                    QueryDistTable::new(&paa(&q, segments), &c),
                    QueryDistTable::for_envelope(&env_lo, &env_hi, &c),
                ];
                for (t, table) in tables.iter().enumerate() {
                    for count in [1usize, 31, 32, 33, 63, 2000] {
                        let block = random_block(table, count, (count * 7 + t) as u64);
                        let mut bounds: Vec<f64> = (0..count)
                            .map(|e| (table.scale * table.entry_raw(&block, count, e)).sqrt())
                            .collect();
                        bounds.sort_by(f64::total_cmp);
                        // About 3% pass; the tie itself and just under it;
                        // zero (only the planted entry); none.
                        let tie = bounds[count * 3 / 100];
                        for cutoff in [tie, tie.next_down(), 0.0, bounds[count / 2], f64::INFINITY]
                        {
                            let filter = table.key_filter(cutoff);
                            assert_eq!(filter.lut.is_none(), cutoff.is_infinite());
                            let want = kept(&filter, Pass::Exact(Dispatch::Scalar), &block);
                            for pass in PASSES {
                                assert_eq!(
                                    kept(&filter, pass, &block),
                                    want,
                                    "{pass:?} w={segments} b={card_bits} table {t} \
                                     n={count} cutoff={cutoff}"
                                );
                            }
                            assert!(cutoff < tie || !want.is_empty());
                            // The mirror rejects what the vector pass does.
                            let Some(lut) = &filter.lut else { continue };
                            let (lut, shift) =
                                (&lut[..segments * NIBBLES], nibble_shift(card_bits));
                            for e in (0..count.saturating_sub(31)).step_by(FAST_SCAN_BATCH) {
                                assert_eq!(
                                    fast_scan(true, lut, shift, &block, count, e, FAST_SCAN_BATCH),
                                    fast_scan(false, lut, shift, &block, count, e, FAST_SCAN_BATCH)
                                );
                            }
                        }
                    }
                    // An empty block keeps nothing, on every pass.
                    for pass in PASSES {
                        assert!(kept(&table.key_filter(1.0), pass, &[]).is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn fast_scan_is_exact_where_scaled_terms_land_on_integers() {
        // Five segments sit 0.5 below symbol 192's region (the first of its
        // 4-bit prefix, so the prefix minimum is its own entry `t`) and three
        // inside their symbol's (0). Where 255 steps span `5t`, each of the
        // five terms is 51 steps exactly: sweep cutoffs ulps around that
        // point and the tie itself.
        let c = SaxConfig {
            series_len: 64,
            segments: 8,
            card_bits: 8,
        };
        let lo = region_table(8).lo()[192];
        let qp = [
            lo - 0.5,
            lo - 0.5,
            lo - 0.5,
            lo - 0.5,
            lo - 0.5,
            0.1,
            0.1,
            0.1,
        ];
        let table = QueryDistTable::new(&qp, &c);
        let home = crate::breakpoints::symbol_for(8, 0.1);
        let count = 40; // a full AVX2 batch and a scalar tail
        let mut block = vec![192u8; count * 8];
        block[5 * count..].fill(home);
        let t = table.table[192];
        assert_eq!(table.prefix_min[192 >> 4], t);
        let raw = table.entry_raw(&block, count, 0);
        let tie = (table.scale * raw).sqrt();
        let at =
            (table.scale * 5.0 * t / (1.0 + FAST_SCAN_MARGIN) / (1.0 + 4.0 * f64::EPSILON)).sqrt();
        let mut on_boundary = 0;
        for cutoff in (-64..=64)
            .map(|k| at * (1.0 + k as f64 * f64::EPSILON))
            .chain([tie, tie.next_down(), tie.next_up()])
        {
            let filter = table.key_filter(cutoff);
            let lut = filter.lut.expect("a finite cutoff quantises");
            on_boundary += usize::from(lut[192 >> 4] == 51);
            let want = kept(&filter, Pass::Exact(Dispatch::Scalar), &block);
            for pass in PASSES {
                assert_eq!(
                    kept(&filter, pass, &block),
                    want,
                    "{pass:?} cutoff {cutoff}"
                );
            }
            assert_eq!(want.len(), if cutoff >= tie { count } else { 0 });
        }
        assert!(on_boundary > 0, "no cutoff put a term on 51 steps");
    }

    /// The table as it was first filled — a closure call per cell, the
    /// prefix minima folded in cell by cell, `nearest` by `min_by` — kept as
    /// the reference [`QueryDistTable::tabulate`] must equal bit for bit.
    fn tabulate_by_closure(
        config: &SaxConfig,
        dist_sq: impl Fn(usize, f64, f64) -> f64,
    ) -> (Vec<f64>, Vec<u8>, Vec<f64>) {
        let card = config.cardinality();
        let rt = region_table(config.card_bits);
        let mut table = vec![f64::INFINITY; config.segments * TABLE_ROW];
        let mut nearest = Vec::with_capacity(config.segments);
        let mut prefix_min = vec![f64::INFINITY; config.segments * NIBBLES];
        for (j, row) in table.chunks_exact_mut(TABLE_ROW).enumerate() {
            for (s, entry) in row[..card].iter_mut().enumerate() {
                *entry = dist_sq(j, rt.lo()[s], rt.hi()[s]);
                let nibble = ((s as u8 >> nibble_shift(config.card_bits)) & 0x0F) as usize;
                let min = &mut prefix_min[j * NIBBLES + nibble];
                *min = min.min(*entry);
            }
            let at = (0..card).min_by(|&a, &b| row[a].total_cmp(&row[b]));
            nearest.push(at.unwrap_or(0) as u8);
        }
        (table, nearest, prefix_min)
    }

    #[test]
    fn tables_are_the_closure_tabulation_bit_for_bit() {
        use coconut_series::dtw::Envelope;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for card_bits in 1..=8u8 {
            let rt = region_table(card_bits);
            // Breakpoints themselves (a value on a boundary touches two
            // regions), values between and far out, infinities and NaN.
            let mut values: Vec<f64> = rt.hi()[..rt.hi().len() - 1].to_vec();
            values.extend([0.0, -0.0, 0.3, -1.7, 9.0, -9.0, f64::INFINITY]);
            values.extend([f64::NEG_INFINITY, f64::NAN, 1e-300, -1e-300]);
            for segments in [1usize, 3, 8, 16] {
                let c = SaxConfig {
                    series_len: 64,
                    segments,
                    card_bits,
                };
                for (v, paa) in values.chunks(segments).enumerate() {
                    let mut paa = paa.to_vec();
                    paa.resize(segments, 0.25);
                    let table = QueryDistTable::new(&paa, &c);
                    let want =
                        tabulate_by_closure(&c, |j, lo, hi| dist_to_region_sq(paa[j], lo, hi));
                    let at = format!("ED b={card_bits} w={segments} values {v}");
                    assert_eq!(bits(&table.table), bits(&want.0), "{at}");
                    assert_eq!(table.nearest, want.1, "{at}");
                    assert_eq!(bits(&table.prefix_min), bits(&want.2), "{at}");
                }
                // Envelopes of walks, intervals on a breakpoint or
                // inverted (no region reaches them: no row holds a zero).
                let q = wavy(card_bits as u32 + segments as u32, c.series_len);
                let env = Envelope::new(&q, 5);
                let (mut env_lo, mut env_hi) =
                    envelope_segment_bounds(&env.lower, &env.upper, segments);
                let edge = rt.hi()[0];
                env_lo[0] = edge;
                env_hi[segments / 2] = env_lo[segments / 2] - 0.75;
                if segments > 2 {
                    env_hi[1] = edge;
                    env_lo[1] = edge;
                }
                let table = QueryDistTable::for_envelope(&env_lo, &env_hi, &c);
                let want = tabulate_by_closure(&c, |j, lo, hi| {
                    interval_dist_sq(env_lo[j], env_hi[j], lo, hi)
                });
                let at = format!("DTW b={card_bits} w={segments}");
                assert_eq!(bits(&table.table), bits(&want.0), "{at}");
                assert_eq!(table.nearest, want.1, "{at}");
                assert_eq!(bits(&table.prefix_min), bits(&want.2), "{at}");
            }
        }
    }

    #[test]
    fn zone_boxes_hold_each_zones_extremes_on_every_dispatch() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for segments in [1usize, 3, 16] {
            for count in [1usize, 37, 63, 64, 65, 127, 128, 129, 513, 2000] {
                let block: Vec<u8> = (0..count * segments)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                let zones = count.div_ceil(ZONE);
                let mut want = vec![0u8; 2 * segments * zones];
                for j in 0..segments {
                    for z in 0..zones {
                        let zone = &block[j * count..][z * ZONE..count.min((z + 1) * ZONE)];
                        want[j * zones + z] = *zone.iter().min().unwrap();
                        want[(segments + j) * zones + z] = *zone.iter().max().unwrap();
                    }
                }
                for dispatch in [Dispatch::Scalar, Dispatch::Avx2] {
                    let mut got = vec![0u8; want.len()];
                    zone_boxes_with(dispatch, &block, segments, &mut got);
                    assert_eq!(got, want, "{dispatch:?} w={segments} n={count}");
                }
            }
        }
    }

    #[test]
    fn box_bound_never_exceeds_a_member_bound() {
        use crate::zorder::key_range_box;
        use coconut_series::dtw::Envelope;
        let c = cfg();
        let keys = sorted_keys(&c, 64);
        let q = wavy(2, c.series_len);
        let env = Envelope::new(&q, 4);
        let (env_lo, env_hi) = envelope_segment_bounds(&env.lower, &env.upper, c.segments);
        let tables = [
            QueryDistTable::new(&paa(&q, c.segments), &c),
            QueryDistTable::for_envelope(&env_lo, &env_hi, &c),
        ];
        let (mut lo, mut hi) = (vec![0u8; c.segments], vec![0u8; c.segments]);
        for table in &tables {
            // Every contiguous run of the sorted keys is a possible leaf.
            for a in 0..keys.len() {
                for b in a..keys.len() {
                    key_range_box(keys[a], keys[b], &c, &mut lo, &mut hi);
                    let bound = table.box_bound(&lo, &hi);
                    for &k in &keys[a..=b] {
                        assert!(bound <= table.mindist_zkey(k), "leaf {a}..={b}");
                    }
                }
            }
            // A one-key leaf's box is the key itself.
            key_range_box(keys[3], keys[3], &c, &mut lo, &mut hi);
            assert_eq!(
                table.box_bound(&lo, &hi).to_bits(),
                table.mindist_zkey(keys[3]).to_bits()
            );
        }
    }
}
