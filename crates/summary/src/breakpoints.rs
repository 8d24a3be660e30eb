//! Standard-normal quantile breakpoints for SAX.
//!
//! SAX discretizes the value axis into regions that are equiprobable under
//! N(0,1) — "more regions corresponding to values close to 0, and less
//! regions for the more extreme values" (paper Figure 1). The boundaries are
//! quantiles of the standard normal, computed with Acklam's rational
//! approximation of the inverse CDF (|relative error| < 1.2e-9, far below
//! the f32 precision of the data).
//!
//! Breakpoint tables are nested across cardinalities: the card-`2^k` table
//! is exactly every `2^(8-k)`-th entry of the card-256 table, because
//! `i/2^k == (i * 2^(8-k)) / 256` holds exactly in binary floating point.
//! This is what makes iSAX's multi-resolution prefixes consistent: the top
//! `k` bits of a card-256 symbol *are* the card-`2^k` symbol.
//!
//! Summarizing a value is a table lookup plus a fix-up ([`symbol_for`]): a
//! 4,096-cell table over `[-4, 4)`, built once per process, gives a start
//! symbol, and one step each way along the card-256 breakpoints restores
//! `bp[s-1] <= v < bp[s]` — the answer a binary search over the
//! breakpoints gives, bit for bit, for every input. Nesting makes the
//! card-`2^k` symbol that answer's top `k` bits, so one table serves every
//! cardinality.

use std::sync::OnceLock;

/// Inverse CDF (quantile function) of the standard normal distribution,
/// valid for `0 < p < 1` (Acklam's algorithm).
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile argument must be in (0,1), got {p}"
    );

    // Coefficients for the rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

fn tables() -> &'static [Vec<f64>; 9] {
    static TABLES: OnceLock<[Vec<f64>; 9]> = OnceLock::new();
    TABLES.get_or_init(|| {
        std::array::from_fn(|bits| {
            if bits == 0 {
                return Vec::new();
            }
            let card = 1usize << bits;
            (1..card)
                .map(|i| inv_norm_cdf(i as f64 / card as f64))
                .collect()
        })
    })
}

/// The `2^bits - 1` breakpoints for cardinality `2^bits` (`1 <= bits <= 8`),
/// in increasing order.
pub fn breakpoints(bits: u8) -> &'static [f64] {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8, got {bits}");
    &tables()[bits as usize]
}

/// Cells of the [`SymbolTable`] lookup, spread evenly over `[-4, 4)`.
const LOOKUP_CELLS: usize = 4096;

/// Cells per unit of value: 4,096 cells over a width of 8.
const CELLS_PER_UNIT: f64 = LOOKUP_CELLS as f64 / 8.0;

/// The card-256 symbol lookup behind [`symbol_for`]: for each cell of
/// `[-4, 4)`, the symbol of the cell's lower edge. The card-256
/// breakpoints lie at least 0.0098 apart and a cell is 0.00195 wide, so a
/// value's own symbol is at most one step from its cell's — the
/// construction asserts that spacing, which is what makes one step each
/// way exact.
#[derive(Debug)]
pub(crate) struct SymbolTable {
    /// The card-256 breakpoints with a floor below and a NaN ceiling
    /// above: symbol `s` is `[bounds[s], bounds[s + 1])`, and no value is
    /// at or above the NaN, not even `+inf`.
    bounds: [f64; 257],
    start: [u8; LOOKUP_CELLS],
}

impl SymbolTable {
    fn new() -> Self {
        let bp = breakpoints(8);
        let cell = 1.0 / CELLS_PER_UNIT;
        assert!(
            bp.windows(2).all(|w| w[1] - w[0] > 2.0 * cell)
                && bp[0] > -4.0 + cell
                && bp[bp.len() - 1] < 4.0 - cell,
            "no cell of the symbol lookup may hold more than one breakpoint"
        );
        let mut bounds = [f64::NAN; 257];
        bounds[0] = f64::NEG_INFINITY;
        bounds[1..256].copy_from_slice(bp);
        let mut start = [0u8; LOOKUP_CELLS];
        // One walk up the breakpoints: `s` counts those at or under the
        // cell's lower edge.
        let mut s = 0usize;
        for (c, out) in start.iter_mut().enumerate() {
            let edge = c as f64 * cell - 4.0;
            while s < bp.len() && bp[s] <= edge {
                s += 1;
            }
            *out = s as u8;
        }
        SymbolTable { bounds, start }
    }

    /// The symbol of `value` at cardinality `2^bits` (`1 <= bits <= 8`):
    /// the top `bits` bits of its card-256 symbol, the number of card-256
    /// breakpoints ≤ `value`. A value rounding into a neighbouring cell, or
    /// clamped into an end cell, is still within one step of its cell's
    /// symbol, and a NaN casts to cell 0 and stays at symbol 0.
    #[inline]
    pub(crate) fn symbol(&self, bits: u8, value: f64) -> u8 {
        debug_assert!((1..=8).contains(&bits));
        let cell = ((value + 4.0) * CELLS_PER_UNIT) as isize;
        let cell = cell.clamp(0, LOOKUP_CELLS as isize - 1) as usize;
        // Branch-free fix-up: up a step when the next breakpoint is at or
        // under the value, down one when the floor is above it (never
        // both: the bounds increase).
        let s = self.start[cell] as usize;
        let up = (self.bounds[s + 1] <= value) as usize;
        let down = (value < self.bounds[s]) as usize;
        ((s + up - down) >> (8 - bits)) as u8
    }
}

/// The process-wide [`SymbolTable`], built on first use.
pub(crate) fn symbol_table() -> &'static SymbolTable {
    static TABLE: OnceLock<SymbolTable> = OnceLock::new();
    TABLE.get_or_init(SymbolTable::new)
}

/// The SAX symbol of `value` at cardinality `2^bits`: the number of
/// breakpoints ≤ `value` (a value equal to a breakpoint belongs to the
/// region above it; a NaN is symbol 0). A lookup in a process-wide table
/// plus a fix-up, equal to a binary search over [`breakpoints`] for every
/// input.
#[inline]
pub fn symbol_for(bits: u8, value: f64) -> u8 {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8, got {bits}");
    symbol_table().symbol(bits, value)
}

/// Precomputed `[lo, hi)` bounds of every symbol at one cardinality, laid
/// out as two contiguous `f64` arrays (struct-of-arrays, ready to feed
/// vector lanes). Computing [`region`] inside a MINDIST inner loop costs a
/// table access plus bound branches per segment; this table removes both.
#[derive(Debug)]
pub struct RegionTable {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl RegionTable {
    fn new(bits: u8) -> Self {
        let bp = breakpoints(bits);
        let card = 1usize << bits;
        let lo = (0..card)
            .map(|s| if s == 0 { f64::NEG_INFINITY } else { bp[s - 1] })
            .collect();
        let hi = (0..card)
            .map(|s| if s == card - 1 { f64::INFINITY } else { bp[s] })
            .collect();
        RegionTable { lo, hi }
    }

    /// Lower bounds, indexed by symbol (`2^bits` entries).
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds, indexed by symbol (`2^bits` entries).
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// The `[lo, hi)` interval of `symbol`.
    #[inline]
    pub fn bounds(&self, symbol: u8) -> (f64, f64) {
        (self.lo[symbol as usize], self.hi[symbol as usize])
    }
}

/// The per-cardinality region lookup table (`1 <= bits <= 8`), built once
/// per process.
pub fn region_table(bits: u8) -> &'static RegionTable {
    static TABLES: OnceLock<[RegionTable; 9]> = OnceLock::new();
    assert!((1..=8).contains(&bits), "bits must be in 1..=8, got {bits}");
    &TABLES.get_or_init(|| std::array::from_fn(|b| RegionTable::new(b.max(1) as u8)))[bits as usize]
}

/// The value interval `[lo, hi)` covered by `symbol` at cardinality
/// `2^bits`; the extremes are unbounded.
#[inline]
pub fn region(bits: u8, symbol: u8) -> (f64, f64) {
    let t = region_table(bits);
    let card = 1usize << bits;
    let s = symbol as usize;
    assert!(s < card, "symbol {s} out of range for cardinality {card}");
    (t.lo[s], t.hi[s])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cdf_known_values() {
        // Reference values from standard normal tables.
        assert!((inv_norm_cdf(0.5) - 0.0).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959963985).abs() < 1e-6);
        assert!((inv_norm_cdf(0.025) + 1.959963985).abs() < 1e-6);
        assert!((inv_norm_cdf(0.84134474) - 1.0).abs() < 1e-6);
        assert!((inv_norm_cdf(0.99865010) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn inverse_cdf_is_antisymmetric_and_monotone() {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((inv_norm_cdf(p) + inv_norm_cdf(1.0 - p)).abs() < 1e-9);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let v = inv_norm_cdf(i as f64 / 1000.0);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn card4_breakpoints_match_literature() {
        // The classic SAX alphabet-4 breakpoints: -0.6745, 0, 0.6745.
        let bp = breakpoints(2);
        assert_eq!(bp.len(), 3);
        assert!((bp[0] + 0.6744897).abs() < 1e-6);
        assert!(bp[1].abs() < 1e-9);
        assert!((bp[2] - 0.6744897).abs() < 1e-6);
    }

    #[test]
    fn tables_are_nested() {
        // Every coarse table is a stride of the card-256 table — required
        // for iSAX prefix consistency.
        let fine = breakpoints(8);
        for bits in 1..8u8 {
            let coarse = breakpoints(bits);
            let stride = 1usize << (8 - bits);
            for (i, &b) in coarse.iter().enumerate() {
                assert_eq!(b, fine[(i + 1) * stride - 1], "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn symbol_prefix_property() {
        // Top-k bits of the fine symbol == the coarse symbol, for any value.
        for i in -100..=100 {
            let v = i as f64 / 20.0;
            let fine = symbol_for(8, v);
            for bits in 1..=8u8 {
                let coarse = symbol_for(bits, v);
                assert_eq!(fine >> (8 - bits), coarse, "v={v} bits={bits}");
            }
        }
    }

    #[test]
    fn symbols_cover_all_regions() {
        assert_eq!(symbol_for(2, -10.0), 0);
        assert_eq!(symbol_for(2, -0.5), 1);
        assert_eq!(symbol_for(2, 0.5), 2);
        assert_eq!(symbol_for(2, 10.0), 3);
        // Boundary: exactly at a breakpoint goes up.
        assert_eq!(symbol_for(2, 0.0), 2);
    }

    #[test]
    fn region_roundtrip() {
        for bits in 1..=8u8 {
            let card = 1u16 << bits;
            for s in 0..card {
                let (lo, hi) = region(bits, s as u8);
                assert!(lo < hi);
                // A value strictly inside the region maps back to the symbol.
                let v = if lo.is_infinite() {
                    hi - 1.0
                } else if hi.is_infinite() {
                    lo + 1.0
                } else {
                    0.5 * (lo + hi)
                };
                assert_eq!(symbol_for(bits, v), s as u8, "bits={bits} s={s}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_bits_panics() {
        breakpoints(0);
    }
}
