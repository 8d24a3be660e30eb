//! Property-based tests for the storage substrate.

use std::sync::Arc;

use coconut_storage::atomic::{crc64, crc64_folding, crc64_reference, crc64_slicing8};
use coconut_storage::extsort::U64Codec;
use coconut_storage::{Codec, CountedFile, ExternalSorter, IoStats, RecordStream, TempDir};
use proptest::prelude::*;

/// A codec with a larger record, to exercise non-trivial serialization.
#[derive(Clone, Copy, Default)]
struct PairCodec;

impl Codec for PairCodec {
    type Item = (u64, u64);
    fn record_size(&self) -> usize {
        16
    }
    fn encode(&self, item: &(u64, u64), buf: &mut [u8]) {
        buf[..8].copy_from_slice(&item.0.to_le_bytes());
        buf[8..].copy_from_slice(&item.1.to_le_bytes());
    }
    fn decode(&self, buf: &[u8]) -> (u64, u64) {
        (
            u64::from_le_bytes(buf[..8].try_into().unwrap()),
            u64::from_le_bytes(buf[8..].try_into().unwrap()),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn external_sort_equals_std_sort(
        values in proptest::collection::vec(any::<u64>(), 0..2000),
        budget in 1u64..4096,
    ) {
        let dir = TempDir::new("prop-extsort").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(U64Codec, budget, dir.path(), stats).unwrap();
        for &v in &values {
            sorter.push(v).unwrap();
        }
        let sorted = sorter.finish().unwrap().collect_all().unwrap();
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
    }

    #[test]
    fn external_sort_pairs_orders_by_first_then_second(
        values in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..1000),
        budget in 1u64..2048,
    ) {
        let dir = TempDir::new("prop-extsort2").unwrap();
        let stats = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(PairCodec, budget, dir.path(), stats).unwrap();
        for &v in &values {
            sorter.push(v).unwrap();
        }
        let sorted = sorter.finish().unwrap().collect_all().unwrap();
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
    }

    #[test]
    fn counted_file_roundtrips_random_chunks(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 1..20),
    ) {
        let dir = TempDir::new("prop-file").unwrap();
        let stats = Arc::new(IoStats::new());
        let f = CountedFile::create(dir.path().join("f.bin"), stats).unwrap();
        let mut offsets = Vec::new();
        for c in &chunks {
            offsets.push(f.append(c).unwrap());
        }
        for (c, &off) in chunks.iter().zip(offsets.iter()) {
            let mut buf = vec![0u8; c.len()];
            f.read_exact_at(&mut buf, off).unwrap();
            prop_assert_eq!(&buf, c);
        }
    }

    #[test]
    fn crc64_kernels_equal_the_bitwise_reference(len in 0usize..=70_000, seed in any::<u64>()) {
        // One buffer, every alignment of its start: the folding kernel's
        // loads are unaligned and its 64/16/1-byte stages cut by length.
        let mut state = seed | 1;
        let buf: Vec<u8> = (0..len + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..16 {
            let bytes = &buf[offset..offset + len];
            let want = crc64_reference(bytes);
            prop_assert_eq!(crc64_slicing8(bytes), want, "slicing-by-8, offset {}", offset);
            prop_assert_eq!(crc64(bytes), want, "dispatched, offset {}", offset);
            if let Some(folded) = crc64_folding(bytes) {
                prop_assert_eq!(folded, want, "folding, offset {}", offset);
            }
        }
    }
}

#[test]
fn crc64_is_crc64_xz() {
    const CHECK: u64 = 0x995D_C9BB_DF19_39FA;
    assert_eq!(crc64_reference(b"123456789"), CHECK);
    assert_eq!(crc64_slicing8(b"123456789"), CHECK);
    assert_eq!(crc64(b"123456789"), CHECK);
    assert!(crc64_folding(b"123456789").is_none_or(|crc| crc == CHECK));
}
