//! SAX words: quantized PAA summarizations.
//!
//! A SAX word stores one symbol (at full cardinality, up to 256) per
//! segment. Words are stored symbol-per-byte; the sortable form lives in
//! [`crate::zorder`].

use coconut_series::simd::Dispatch;
use coconut_series::Value;

use crate::breakpoints::{symbol_for, symbol_table, SymbolTable};
use crate::config::{SaxConfig, MAX_SEGMENTS};
use crate::mindist::SymbolDecoder;
use crate::paa::{paa_into, paa_into_with};
use crate::zorder::ZKey;

/// A full-cardinality SAX word (one `u8` symbol per segment).
///
/// Comparison (`Ord`) is lexicographic over the segment symbols — exactly
/// the "unsortable" ordering the paper's Section 3 shows places similar
/// series far apart. Use [`crate::zorder::ZKey`] for the sortable ordering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SaxWord {
    symbols: Box<[u8]>,
}

impl SaxWord {
    /// Build a word directly from symbols.
    pub fn from_symbols(symbols: impl Into<Box<[u8]>>) -> Self {
        SaxWord {
            symbols: symbols.into(),
        }
    }

    /// The symbols, one per segment.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.symbols.len()
    }
}

/// Quantize a PAA vector into symbols at `card_bits` cardinality.
pub fn sax_from_paa_into(paa_values: &[f64], card_bits: u8, out: &mut [u8]) {
    debug_assert_eq!(paa_values.len(), out.len());
    for (o, &v) in out.iter_mut().zip(paa_values.iter()) {
        *o = symbol_for(card_bits, v);
    }
}

/// Summarize a raw series into a [`SaxWord`] under `config`.
pub fn sax_word(series: &[Value], config: &SaxConfig) -> SaxWord {
    debug_assert_eq!(series.len(), config.series_len);
    let mut paa_buf = vec![0.0f64; config.segments];
    paa_into(series, &mut paa_buf);
    let mut symbols = vec![0u8; config.segments].into_boxed_slice();
    sax_from_paa_into(&paa_buf, config.card_bits, &mut symbols);
    SaxWord { symbols }
}

/// A reusable summarizer that avoids per-series allocations — used by the
/// index-construction scans which summarize millions of series, and once
/// per query for its key. Making one builds nothing: it borrows the
/// process-wide symbol table and the configuration's interleave masks.
#[derive(Debug, Clone)]
pub struct Summarizer {
    config: SaxConfig,
    symbols: &'static SymbolTable,
    decoder: SymbolDecoder,
    paa_buf: [f64; MAX_SEGMENTS],
}

impl Summarizer {
    /// A summarizer for `config`.
    pub fn new(config: SaxConfig) -> Self {
        Summarizer {
            config,
            symbols: symbol_table(),
            decoder: SymbolDecoder::new(&config),
            paa_buf: [0.0; MAX_SEGMENTS],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SaxConfig {
        &self.config
    }

    /// PAA of `series` (borrowing the internal buffer).
    pub fn paa(&mut self, series: &[Value]) -> &[f64] {
        let w = self.config.segments;
        paa_into(series, &mut self.paa_buf[..w]);
        &self.paa_buf[..w]
    }

    /// SAX symbols of `series` written into `out`.
    pub fn sax_into(&mut self, series: &[Value], out: &mut [u8]) {
        self.sax_into_with(coconut_series::simd::active(), series, out);
    }

    fn sax_into_with(&mut self, dispatch: Dispatch, series: &[Value], out: &mut [u8]) {
        let w = self.config.segments;
        debug_assert_eq!(out.len(), w);
        paa_into_with(dispatch, series, &mut self.paa_buf[..w]);
        for (o, &v) in out.iter_mut().zip(&self.paa_buf[..w]) {
            *o = self.symbols.symbol(self.config.card_bits, v);
        }
    }

    /// The sortable z-order key of `series` (PAA → SAX → interleave).
    pub fn zkey(&mut self, series: &[Value]) -> ZKey {
        self.zkey_with(coconut_series::simd::active(), series)
    }

    /// [`Summarizer::zkey`] on an explicit dispatch (exposed so tests can
    /// force either path): PAA sums and the interleave run on that
    /// dispatch's kernels — BMI2 `PDEP` on [`Dispatch::Avx2`] where the CPU
    /// has it, [`crate::zorder::interleave`] otherwise — bit-exact equal.
    pub fn zkey_with(&mut self, dispatch: Dispatch, series: &[Value]) -> ZKey {
        let mut symbols = [0u8; MAX_SEGMENTS];
        let w = self.config.segments;
        self.sax_into_with(dispatch, series, &mut symbols[..w]);
        let mut key = [ZKey::MIN];
        self.decoder
            .interleave_into_with(dispatch, &symbols[..w], &mut key);
        key[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(len: usize, segs: usize, bits: u8) -> SaxConfig {
        SaxConfig {
            series_len: len,
            segments: segs,
            card_bits: bits,
        }
    }

    #[test]
    fn figure1_style_example() {
        // A series sweeping from low to high must produce increasing symbols.
        let series: Vec<Value> = (0..64).map(|i| (i as f32 - 32.0) / 10.0).collect();
        let w = sax_word(&series, &config(64, 8, 3));
        let s = w.symbols();
        assert!(s.windows(2).all(|p| p[0] <= p[1]), "{s:?}");
        assert_eq!(s[0], 0);
        assert_eq!(s[7], 7);
    }

    #[test]
    fn symbols_respect_cardinality() {
        let series: Vec<Value> = (0..256).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        for bits in 1..=8u8 {
            let w = sax_word(&series, &config(256, 16, bits));
            let max = (1u16 << bits) - 1;
            assert!(
                w.symbols().iter().all(|&s| (s as u16) <= max),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn lexicographic_order_is_first_segment_dominated() {
        // The paper's Figure 2 pathology: S1=ec, S2=ee, S3=fc, S4=ge sort as
        // S1,S2,S3,S4 even though S1 is most similar to S3.
        let s1 = SaxWord::from_symbols(vec![4u8, 2]); // "ec"
        let s2 = SaxWord::from_symbols(vec![4u8, 4]); // "ee"
        let s3 = SaxWord::from_symbols(vec![5u8, 2]); // "fc"
        let s4 = SaxWord::from_symbols(vec![6u8, 4]); // "ge"
        let mut v = vec![s2.clone(), s4.clone(), s3.clone(), s1.clone()];
        v.sort();
        assert_eq!(v, vec![s1, s2, s3, s4]);
    }

    #[test]
    fn summarizer_matches_free_function() {
        let series: Vec<Value> = (0..128).map(|i| ((i * i) as f32 * 0.01).cos()).collect();
        let cfg = config(128, 16, 8);
        let mut s = Summarizer::new(cfg);
        let mut out = vec![0u8; 16];
        s.sax_into(&series, &mut out);
        assert_eq!(out.as_slice(), sax_word(&series, &cfg).symbols());
    }

    #[test]
    fn summarizers_share_the_process_tables() {
        let cfg = config(256, 16, 8);
        let (a, b) = (Summarizer::new(cfg), Summarizer::new(cfg));
        assert!(std::ptr::eq(a.symbols, b.symbols));
        assert!(std::ptr::eq(a.symbols, symbol_table()));
        assert!(a.decoder.shares_masks(&b.decoder));
        assert!(a.decoder.shares_masks(&SymbolDecoder::new(&cfg)));
    }

    #[test]
    fn constant_series_lands_in_middle_region() {
        // A z-normalized constant series is all zeros; symbol must be the
        // first region at or above the median.
        let series = vec![0.0f32; 64];
        let w = sax_word(&series, &config(64, 8, 8));
        assert!(w.symbols().iter().all(|&s| s == 128), "{:?}", w.symbols());
    }
}
