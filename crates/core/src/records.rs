//! Sortable records and their codecs for the external sorter.
//!
//! Non-materialized builds sort 24-byte `(zkey, position)` pairs; the
//! `-Full` builds sort whole `(zkey, position, series)` records — that is
//! why the paper's Coconut-Tree-Full "spends most of its time sorting the
//! raw data" while plain Coconut-Tree's "external sort overhead is really
//! small".

use std::cmp::Ordering;

use coconut_series::Value;
use coconut_storage::Codec;
use coconut_summary::ZKey;

/// A record the bulk loader can consume from any sorted stream, and that a
/// built index can stream back out of its leaves (the LSM compaction path).
///
/// Implemented by [`KeyPos`] (non-materialized builds) and [`KeySeries`]
/// (materialized `-Full` builds). The `Ord` supertrait is the total
/// `(key, pos)` order every sorted stream in the workspace shares.
pub trait SortedRecord: Ord {
    /// The sortable summarization key.
    fn key(&self) -> ZKey;

    /// Position of the record's series in the raw dataset file.
    fn pos(&self) -> u64;

    /// The raw series payload (`Some` for materialized records only).
    fn series(&self) -> Option<&[Value]>;

    /// The record of one leaf entry read back ([`crate::layout::LeafCodec::decode`]):
    /// its key, its position and its payload bytes. [`KeySeries`] requires
    /// a payload; [`KeyPos`] ignores it.
    fn from_entry(key: ZKey, pos: u64, payload: &[u8]) -> Self;
}

/// A `(key, position)` pair — the record of non-materialized builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyPos {
    /// Sortable summarization.
    pub key: ZKey,
    /// Position in the raw dataset (tie-breaker, keeps the sort total).
    pub pos: u64,
}

/// Codec for [`KeyPos`]: 16 bytes of key + 8 bytes of position.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyPosCodec;

impl Codec for KeyPosCodec {
    type Item = KeyPos;

    fn record_size(&self) -> usize {
        24
    }

    fn encode(&self, item: &KeyPos, buf: &mut [u8]) {
        buf[..16].copy_from_slice(&item.key.0.to_le_bytes());
        buf[16..24].copy_from_slice(&item.pos.to_le_bytes());
    }

    fn decode(&self, buf: &[u8]) -> KeyPos {
        KeyPos {
            key: ZKey(crate::le::u128(&buf[..16])),
            pos: crate::le::u64(&buf[16..24]),
        }
    }
}

impl SortedRecord for KeyPos {
    fn key(&self) -> ZKey {
        self.key
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn series(&self) -> Option<&[Value]> {
        None
    }

    fn from_entry(key: ZKey, pos: u64, _payload: &[u8]) -> Self {
        KeyPos { key, pos }
    }
}

/// A `(key, position, raw series)` record — the record of materialized
/// (`-Full`) builds.
#[derive(Debug, Clone)]
pub struct KeySeries {
    /// Sortable summarization.
    pub key: ZKey,
    /// Position in the raw dataset.
    pub pos: u64,
    /// The raw (z-normalized) series values.
    pub series: Vec<Value>,
}

impl PartialEq for KeySeries {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.pos == other.pos
    }
}
impl Eq for KeySeries {}
impl PartialOrd for KeySeries {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeySeries {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order by key, then position; payloads ride along. (key, pos) is
        // unique per dataset so this is consistent with Eq.
        (self.key, self.pos).cmp(&(other.key, other.pos))
    }
}

impl SortedRecord for KeySeries {
    fn key(&self) -> ZKey {
        self.key
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn series(&self) -> Option<&[Value]> {
        Some(&self.series)
    }

    fn from_entry(key: ZKey, pos: u64, payload: &[u8]) -> Self {
        debug_assert!(!payload.is_empty(), "KeySeries needs an embedded payload");
        let series = payload.chunks_exact(4).map(crate::le::f32).collect();
        KeySeries { key, pos, series }
    }
}

/// Codec for [`KeySeries`]: 24-byte header + `4 * series_len` payload.
#[derive(Debug, Clone, Copy)]
pub struct KeySeriesCodec {
    series_len: usize,
}

impl KeySeriesCodec {
    /// A codec for records of `series_len` points.
    pub fn new(series_len: usize) -> Self {
        KeySeriesCodec { series_len }
    }
}

impl Codec for KeySeriesCodec {
    type Item = KeySeries;

    fn record_size(&self) -> usize {
        24 + 4 * self.series_len
    }

    fn encode(&self, item: &KeySeries, buf: &mut [u8]) {
        debug_assert_eq!(item.series.len(), self.series_len);
        buf[..16].copy_from_slice(&item.key.0.to_le_bytes());
        buf[16..24].copy_from_slice(&item.pos.to_le_bytes());
        for (i, &v) in item.series.iter().enumerate() {
            buf[24 + 4 * i..28 + 4 * i].copy_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(&self, buf: &[u8]) -> KeySeries {
        let key = ZKey(crate::le::u128(&buf[..16]));
        let pos = crate::le::u64(&buf[16..24]);
        let series = buf[24..24 + 4 * self.series_len]
            .chunks_exact(4)
            .map(crate::le::f32)
            .collect();
        KeySeries { key, pos, series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keypos_codec_roundtrip() {
        let c = KeyPosCodec;
        let item = KeyPos {
            key: ZKey(u128::MAX - 7),
            pos: 123_456_789,
        };
        let mut buf = vec![0u8; c.record_size()];
        c.encode(&item, &mut buf);
        assert_eq!(c.decode(&buf), item);
    }

    #[test]
    fn keypos_orders_by_key_then_pos() {
        let a = KeyPos {
            key: ZKey(1),
            pos: 99,
        };
        let b = KeyPos {
            key: ZKey(2),
            pos: 0,
        };
        let c = KeyPos {
            key: ZKey(2),
            pos: 1,
        };
        assert!(a < b && b < c);
    }

    #[test]
    fn keyseries_codec_roundtrip() {
        let codec = KeySeriesCodec::new(8);
        let item = KeySeries {
            key: ZKey(42),
            pos: 7,
            series: vec![1.0, -2.5, 3.25, 0.0, f32::MIN_POSITIVE, 100.0, -0.125, 9.0],
        };
        let mut buf = vec![0u8; codec.record_size()];
        codec.encode(&item, &mut buf);
        let back = codec.decode(&buf);
        assert_eq!(back.key, item.key);
        assert_eq!(back.pos, item.pos);
        assert_eq!(back.series, item.series);
    }

    #[test]
    fn keyseries_order_ignores_payload() {
        let a = KeySeries {
            key: ZKey(1),
            pos: 0,
            series: vec![9.0; 4],
        };
        let b = KeySeries {
            key: ZKey(1),
            pos: 1,
            series: vec![0.0; 4],
        };
        assert!(a < b);
        let c = KeySeries {
            key: ZKey(0),
            pos: 5,
            series: vec![1.0; 4],
        };
        assert!(c < a);
    }
}
