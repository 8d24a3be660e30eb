//! The summarization configuration shared by all indexes.

use coconut_storage::{Error, Result};

/// Most segments a configuration may have: the query and summarization hot
/// paths decode words into fixed stack scratch of this many symbols.
pub(crate) const MAX_SEGMENTS: usize = 32;

/// Parameters of the SAX summarization: how a series of `series_len` points
/// becomes a word of `segments` symbols of `card_bits` bits each.
///
/// The workspace default matches the iSAX literature and the paper's setup:
/// 16 segments at cardinality 256 (8 bits), i.e. a 16-byte word per series —
/// "the SAX summaries of 1 billion data series occupy merely 16 GB".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaxConfig {
    /// Points per series.
    pub series_len: usize,
    /// Number of PAA segments (`w`).
    pub segments: usize,
    /// Bits per symbol (`b`); cardinality is `2^b`, at most 8.
    pub card_bits: u8,
}

impl SaxConfig {
    /// The standard configuration for a given series length: 16 segments ×
    /// 256 cardinality (fewer segments when the series is shorter than 16).
    pub fn default_for_len(series_len: usize) -> Self {
        SaxConfig {
            series_len,
            segments: 16.min(series_len.max(1)),
            card_bits: 8,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.series_len == 0 {
            return Err(Error::invalid("series_len must be positive"));
        }
        if self.segments == 0 || self.segments > self.series_len {
            return Err(Error::invalid(format!(
                "segments ({}) must be in 1..=series_len ({})",
                self.segments, self.series_len
            )));
        }
        if self.segments > MAX_SEGMENTS {
            // More segments than the stack scratch of `mindist` and
            // `Summarizer` holds would overrun it at query time.
            return Err(Error::invalid(format!(
                "segments ({}) exceeds the supported maximum of {MAX_SEGMENTS}",
                self.segments
            )));
        }
        if self.card_bits == 0 || self.card_bits > 8 {
            return Err(Error::invalid("card_bits must be in 1..=8"));
        }
        if self.segments * self.card_bits as usize > 128 {
            return Err(Error::invalid(format!(
                "segments*card_bits = {} exceeds the 128-bit key budget",
                self.segments * self.card_bits as usize
            )));
        }
        Ok(())
    }

    /// Cardinality (`2^card_bits`).
    pub fn cardinality(&self) -> usize {
        1usize << self.card_bits
    }

    /// Total bits in a full-resolution word (`segments * card_bits`).
    pub fn word_bits(&self) -> usize {
        self.segments * self.card_bits as usize
    }

    /// Bytes used to store one SAX word (one byte per segment).
    pub fn word_bytes(&self) -> usize {
        self.segments
    }
}

impl Default for SaxConfig {
    fn default() -> Self {
        Self::default_for_len(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = SaxConfig::default();
        c.validate().unwrap();
        assert_eq!(c.series_len, 256);
        assert_eq!(c.segments, 16);
        assert_eq!(c.cardinality(), 256);
        assert_eq!(c.word_bits(), 128);
        assert_eq!(c.word_bytes(), 16);
    }

    #[test]
    fn short_series_get_fewer_segments() {
        let c = SaxConfig::default_for_len(8);
        c.validate().unwrap();
        assert_eq!(c.segments, 8);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SaxConfig {
            series_len: 0,
            segments: 1,
            card_bits: 8
        }
        .validate()
        .is_err());
        assert!(SaxConfig {
            series_len: 8,
            segments: 0,
            card_bits: 8
        }
        .validate()
        .is_err());
        assert!(SaxConfig {
            series_len: 8,
            segments: 9,
            card_bits: 8
        }
        .validate()
        .is_err());
        assert!(SaxConfig {
            series_len: 256,
            segments: 16,
            card_bits: 0
        }
        .validate()
        .is_err());
        assert!(SaxConfig {
            series_len: 256,
            segments: 16,
            card_bits: 9
        }
        .validate()
        .is_err());
        assert!(SaxConfig {
            series_len: 256,
            segments: 32,
            card_bits: 8
        }
        .validate()
        .is_err());
        // Fits the 128-bit key budget but overruns the 32-segment stack
        // scratch the query path decodes into.
        assert!(SaxConfig {
            series_len: 128,
            segments: 64,
            card_bits: 2
        }
        .validate()
        .is_err());
    }

    #[test]
    fn word_bits_fit_key_budget() {
        let c = SaxConfig {
            series_len: 256,
            segments: 32,
            card_bits: 4,
        };
        c.validate().unwrap();
        assert_eq!(c.word_bits(), 128);
    }
}
