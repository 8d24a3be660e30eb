//! Distance-kernel baseline: scalar vs dispatched SIMD throughput,
//! recorded to `results/BENCH_distance.json` so the perf trajectory of the
//! query hot path is tracked PR over PR.
//!
//! Not a figure of the paper — it measures the workspace's runtime-
//! dispatched vector kernels (`coconut_series::simd`,
//! `coconut_summary::mindist::QueryDistTable`): full and early-abandoning
//! Euclidean distance, the batched MINDIST scan kernel, and the fused
//! z-normalization statistics. Each entry reports the pinned-scalar and
//! pinned-SIMD timings plus their ratio. Both columns pin their
//! implementation explicitly (`kernels_for`), deliberately bypassing the
//! `COCONUT_FORCE_SCALAR` process-wide dispatch so the A/B comparison
//! stays meaningful regardless of the environment; the env state is still
//! recorded in the JSON (`force_scalar`). Only on hardware without AVX2 do
//! both columns collapse to scalar and the ratio sit at ~1.
//!
//! The `bounds_under` rows time the key pass exact queries run
//! (`QueryDistTable::key_filter`), in **ns per key** over one 2,000-entry
//! leaf block (the default leaf capacity), at a cutoff about 3% of the
//! entries pass and at no cutoff: `bounds_under_exact` is the `f64`
//! table-sum kernel alone, `bounds_under` what queries run — the 4-bit fast
//! scan in front of it on AVX2, the exact kernel alone on the scalar
//! dispatch and with no cutoff (so its scalar column is the exact one). The
//! `key_pass_threads` rows time one loaded key pass of a few thousand to
//! 262,144 keys on one thread and split over two scoped threads — the
//! measurement behind `coconut_core::sims::PARALLEL_MIN_KEYS`.
//!
//! The `leaf_*` rows time the leaf codec in **ns per key** over one
//! 2,000-entry leaf: `leaf_encode` the write path's de-interleave (keys to
//! the segment-major symbol block, scalar shifts vs BMI2 `PEXT`) and
//! `leaf_keys` the re-interleave LSM merges pay (scalar vs `PDEP`).
//!
//! The `leaf_first_use` rows time, in **µs per leaf**, what a query pays
//! the first time it needs one 2,000-entry leaf of a file the page cache
//! holds, each leaf used once: `pread_crc_copy_fresh` reads it, checks its
//! CRC and copies its symbols and positions into zeroed memory no one has
//! touched (how blocks loaded before they were mapped), `verify_in_place`
//! checks the CRC and every position where a fresh mapping of the file
//! holds them (how they load now). `fresh_page_touch_us` is the first write
//! to one 4 KB page of a fresh zeroed allocation — the page fault the copy
//! paid per page.
//!
//! The `crc64` rows give the checksum under every leaf read and manifest
//! the same trajectory: MB/s of the bit-at-a-time reference, the portable
//! slicing-by-8 kernel and the carry-less-multiply folding kernel over
//! 48 KB (a 2,000-entry leaf of 24-byte entries; with 16 segments and
//! 3-byte positions a leaf's symbols and positions are 38 KB) and over a
//! buffer beyond the L2 cache (2 MB).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coconut_core::layout::{crc32, pos_bytes, LeafCodec, LeafEntries};
use coconut_series::distance::znormalize;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::simd::{detect, kernels_for, Dispatch};
use coconut_storage::atomic::{crc64_folding, crc64_reference, crc64_slicing8};
use coconut_storage::{CountedFile, IoStats, Result};
use coconut_summary::mindist::{mindist_paa_zkey, KeyFilter, QueryDistTable, SymbolDecoder};
use coconut_summary::paa::paa;
use coconut_summary::sax::sax_word;
use coconut_summary::zorder::interleave;
use coconut_summary::{SaxConfig, ZKey};

use crate::experiments::Env;
use crate::harness::Table;

/// Keys in the batched-MINDIST measurement (a small SIMS scan).
const SCAN_KEYS: usize = 16 * 1024;

/// Entries of the leaf block the key-pass rows bound.
const LEAF_KEYS: usize = 2_000;

/// Leaves in each `leaf_first_use` measurement, each used once (12 MB of
/// 2,000-entry leaves).
const FIRST_USE_LEAVES: usize = 256;

/// Key counts of the one- vs two-thread key-pass rows.
const THREAD_KEYS: [usize; 7] = [8_000, 16_000, 32_000, 64_000, 96_000, 128_000, 262_000];

/// Median ns per iteration of `f`, over `samples` timed samples of `iters`
/// calls each (after one warm-up sample).
fn time_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.total_cmp(b));
    timings[timings.len() / 2]
}

struct Entry {
    name: String,
    scalar_ns: f64,
    simd_ns: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }
}

/// Throughput of the three CRC-64 kernels over one buffer size.
struct CrcEntry {
    name: String,
    reference_mb_s: f64,
    slicing8_mb_s: f64,
    /// Zero where the CPU lacks PCLMULQDQ.
    folding_mb_s: f64,
}

fn crc_entry(label: &str, bytes: usize) -> CrcEntry {
    let buf: Vec<u8> = (0..bytes).map(|i| (i * 131 + 7) as u8).collect();
    let iters = ((8 << 20) / bytes).max(1);
    let mb_s = |f: &dyn Fn(&[u8]) -> u64| {
        bytes as f64 * 1e3
            / time_ns(9, iters, || {
                std::hint::black_box(f(std::hint::black_box(&buf)));
            })
    };
    CrcEntry {
        name: format!("crc64/{label}"),
        reference_mb_s: mb_s(&crc64_reference),
        slicing8_mb_s: mb_s(&crc64_slicing8),
        folding_mb_s: match crc64_folding(&[]) {
            Some(_) => mb_s(&|b| crc64_folding(b).unwrap_or_default()),
            None => 0.0,
        },
    }
}

/// One loaded key pass over `keys` keys of `block`s on one thread and split
/// over two scoped threads (one spawned), in µs.
struct ThreadEntry {
    keys: usize,
    one_thread_us: f64,
    two_threads_us: f64,
}

/// Time the fast-scan key pass over `keys` keys (`blocks` of `LEAF_KEYS`
/// entries, cycled) on one and on two threads, under `filter`.
fn thread_entry(filter: &KeyFilter<'_>, blocks: &[Vec<u8>], keys: usize) -> ThreadEntry {
    let count = keys / LEAF_KEYS;
    let pass = |share: std::ops::Range<usize>| {
        let mut out = Vec::with_capacity(256);
        for b in share {
            out.clear();
            filter.bounds_under(&blocks[b % blocks.len()], 0, &mut out);
            std::hint::black_box(out.len());
        }
    };
    let iters = (1_000_000 / keys).max(3);
    let one = time_ns(9, iters, || pass(0..count));
    let two = time_ns(9, iters, || {
        std::thread::scope(|scope| {
            let other = scope.spawn(|| pass(count / 2..count));
            pass(0..count / 2);
            other.join().expect("a key-pass thread panicked");
        })
    });
    ThreadEntry {
        keys,
        one_thread_us: one / 1e3,
        two_threads_us: two / 1e3,
    }
}

/// One pointer leaf of `keys`, sorted, at positions 0, 7, 14, ...
fn sorted_leaf(keys: &[ZKey]) -> LeafEntries {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let mut leaf = LeafEntries::default();
    for (pos, &key) in sorted.iter().enumerate() {
        leaf.push(key, pos as u64 * 7, None);
    }
    leaf
}

/// The `leaf_*` rows over the sorted `keys` of one leaf (see the module
/// docs), in ns per key.
fn leaf_codec_entries(config: &SaxConfig, keys: &[ZKey]) -> [Entry; 2] {
    let n = keys.len();
    let leaf = sorted_leaf(keys);
    let decoder = SymbolDecoder::new(config);
    let per_key = |f: &mut dyn FnMut()| time_ns(15, 200, f) / n as f64;
    let mut symbols = vec![0u8; n * config.segments];
    let mut encode = |dispatch: Dispatch| {
        per_key(&mut || {
            decoder.decode_into_with(dispatch, leaf.keys(), &mut symbols);
            std::hint::black_box(&symbols);
        })
    };
    let leaf_encode = Entry {
        name: format!("leaf_encode_ns_per_key/{n}_keys"),
        scalar_ns: encode(Dispatch::Scalar),
        simd_ns: encode(detect()),
    };
    let mut back = vec![ZKey::MIN; n];
    let mut reinterleave = |dispatch: Dispatch| {
        per_key(&mut || {
            decoder.interleave_into_with(dispatch, &symbols, &mut back);
            std::hint::black_box(&back);
        })
    };
    let leaf_keys = Entry {
        name: format!("leaf_keys_ns_per_key/{n}_keys"),
        scalar_ns: reinterleave(Dispatch::Scalar),
        simd_ns: reinterleave(detect()),
    };
    [leaf_encode, leaf_keys]
}

/// One `leaf_first_use` row: µs per leaf (or per page).
struct FirstUse {
    name: String,
    us: f64,
}

/// Zeroed memory no one has touched, at least `bytes` of it. glibc serves
/// every allocation of 32 MiB or more with a fresh `mmap` (its dynamic
/// threshold never rises past that), so each call's pages fault on first
/// touch as a fresh process's would; untouched slack costs nothing.
fn fresh_zeroed(bytes: usize) -> Vec<u8> {
    vec![0u8; bytes.max(64 << 20)]
}

/// Median µs per unit of `work`, which uses `units` things for the first
/// time, over 5 runs each given fresh things by `setup`.
fn first_use_us<T>(
    units: usize,
    mut setup: impl FnMut() -> Result<T>,
    mut work: impl FnMut(&mut T) -> Result<()>,
) -> Result<f64> {
    let mut timings = Vec::new();
    for _ in 0..5 {
        let mut fresh = setup()?;
        let start = Instant::now();
        work(&mut fresh)?;
        timings.push(start.elapsed().as_secs_f64() * 1e6 / units as f64);
    }
    timings.sort_by(f64::total_cmp);
    Ok(timings[timings.len() / 2])
}

/// The `leaf_first_use` rows (see the module docs) over the sorted `keys`
/// of one leaf, stored `FIRST_USE_LEAVES` times over in a file in
/// `work_dir`.
fn first_use_entries(work_dir: &Path, config: &SaxConfig, keys: &[ZKey]) -> Result<[FirstUse; 3]> {
    let n = keys.len();
    let w = config.segments;
    let codec = LeafCodec::new(config, false, pos_bytes(n as u64 * 7));
    let mut stored = Vec::new();
    codec.encode(&sorted_leaf(keys), &mut stored);
    let len = stored.len();
    let limit = n as u64 * 7;

    std::fs::create_dir_all(work_dir)?;
    let path = work_dir.join("leaf_first_use.bin");
    let file = CountedFile::create(&path, Arc::new(IoStats::new()))?;
    for _ in 0..FIRST_USE_LEAVES {
        file.append(&stored)?;
    }
    // The copy's two arrays, symbols then positions, in one fresh region.
    let positions_at = FIRST_USE_LEAVES * n * w;
    let mut buf = Vec::new();
    let copy = first_use_us(
        FIRST_USE_LEAVES,
        || Ok(fresh_zeroed(FIRST_USE_LEAVES * len)),
        |arrays| {
            for l in 0..FIRST_USE_LEAVES {
                buf.resize(len, 0);
                file.read_exact_at(&mut buf, (l * len) as u64)?;
                std::hint::black_box(crc32(&buf));
                let parts = codec.parts(&buf);
                arrays[l * n * w..(l + 1) * n * w].copy_from_slice(&buf[..n * w]);
                let pos = &mut arrays[positions_at + l * n * 8..positions_at + (l + 1) * n * 8];
                for (e, p) in pos.chunks_exact_mut(8).enumerate() {
                    p.copy_from_slice(&parts.pos(e).to_ne_bytes());
                }
                let mut decoded = pos
                    .chunks_exact(8)
                    .map(|p| u64::from_ne_bytes(p.try_into().expect("8 bytes")));
                std::hint::black_box(decoded.all(|p| p < limit));
            }
            Ok(())
        },
    )?;
    let in_place = first_use_us(
        FIRST_USE_LEAVES,
        || file.map(),
        |mapping| {
            for leaf in mapping.bytes().chunks_exact(len) {
                std::hint::black_box(crc32(leaf));
                let parts = codec.parts(leaf);
                std::hint::black_box((0..n).all(|e| parts.pos(e) < limit));
            }
            Ok(())
        },
    )?;
    drop(file);
    std::fs::remove_file(&path)?;

    const PAGE: usize = 4096;
    let pages = FIRST_USE_LEAVES * len / PAGE;
    let touch = first_use_us(
        pages,
        || Ok(fresh_zeroed(pages * PAGE)),
        |fresh| {
            for page in fresh.chunks_exact_mut(PAGE).take(pages) {
                page[0] = 1;
            }
            std::hint::black_box(fresh);
            Ok(())
        },
    )?;
    Ok([
        FirstUse {
            name: format!("leaf_first_use/pread_crc_copy_fresh_us/{n}_keys"),
            us: copy,
        },
        FirstUse {
            name: format!("leaf_first_use/verify_in_place_us/{n}_keys"),
            us: in_place,
        },
        FirstUse {
            name: "fresh_page_touch_us".to_string(),
            us: touch,
        },
    ])
}

fn series(seed: u64, len: usize) -> Vec<f32> {
    let mut s = RandomWalkGen::new(seed).generate(len);
    znormalize(&mut s);
    s
}

/// Run the baseline and write `BENCH_distance.json`.
pub fn run(env: &Env) -> Result<()> {
    let scalar = kernels_for(Dispatch::Scalar);
    let simd = kernels_for(detect());
    let mut entries: Vec<Entry> = Vec::new();

    for len in [64usize, 256, 1024] {
        let a = series(1, len);
        let b = series(2, len);
        entries.push(Entry {
            name: format!("euclidean/full/{len}"),
            scalar_ns: time_ns(30, 20_000, || {
                std::hint::black_box((scalar.euclidean_sq)(&a, &b));
            }),
            simd_ns: time_ns(30, 20_000, || {
                std::hint::black_box((simd.euclidean_sq)(&a, &b));
            }),
        });
        let full = (scalar.euclidean_sq)(&a, &b);
        entries.push(Entry {
            name: format!("euclidean/early_abandon_loose/{len}"),
            scalar_ns: time_ns(30, 20_000, || {
                std::hint::black_box((scalar.euclidean_sq_early_abandon)(&a, &b, full * 10.0));
            }),
            simd_ns: time_ns(30, 20_000, || {
                std::hint::black_box((simd.euclidean_sq_early_abandon)(&a, &b, full * 10.0));
            }),
        });
    }

    // The SIMS scan: MINDIST of every in-memory key. `scalar` pins the
    // batch kernel's mirror; `per_key` is the pre-batching one-at-a-time
    // loop, kept as the historical reference column.
    let config = SaxConfig::default_for_len(256);
    let q = series(3, 256);
    let qp = paa(&q, config.segments);
    let keys: Vec<ZKey> = (0..SCAN_KEYS as u64)
        .map(|i| {
            let s = series(100 + i, 256);
            interleave(sax_word(&s, &config).symbols(), config.card_bits)
        })
        .collect();
    let table = QueryDistTable::new(&qp, &config);
    let mut out = vec![0.0f64; keys.len()];
    let per_key_ns = time_ns(15, 3, || {
        for (o, &k) in out.iter_mut().zip(keys.iter()) {
            *o = mindist_paa_zkey(&qp, k, &config);
        }
        std::hint::black_box(out[0]);
    });
    let batch = Entry {
        name: format!("mindist_batch/{SCAN_KEYS}_keys"),
        scalar_ns: time_ns(15, 3, || {
            table.mindist_batch_into_with(Dispatch::Scalar, &keys, &mut out);
            std::hint::black_box(out[0]);
        }),
        simd_ns: time_ns(15, 3, || {
            table.mindist_batch_into_with(detect(), &keys, &mut out);
            std::hint::black_box(out[0]);
        }),
    };
    // Cross-kernel reference ratio, not a scalar/SIMD A/B of one kernel:
    // the pre-batching one-key-at-a-time loop vs the batched SIMD scan —
    // the end-to-end speedup of the SIMS scan restructure.
    let vs_prebatch = Entry {
        name: format!("mindist_prebatch_loop_vs_batch_simd/{SCAN_KEYS}_keys"),
        scalar_ns: per_key_ns,
        simd_ns: batch.simd_ns,
    };
    entries.push(batch);
    entries.push(vs_prebatch);

    // The key pass: `LEAF_KEYS`-entry segment-major leaf blocks of sorted
    // keys, bounded under a cutoff ~3% of the first block's entries pass
    // and under none, per key.
    let decoder = SymbolDecoder::new(&config);
    let blocks: Vec<Vec<u8>> = keys
        .chunks_exact(LEAF_KEYS)
        .map(|leaf| {
            let mut leaf = leaf.to_vec();
            leaf.sort_unstable();
            let mut block = vec![0u8; LEAF_KEYS * config.segments];
            decoder.decode_into(&leaf, &mut block);
            block
        })
        .collect();
    let mut bounds = Vec::new();
    table.bounds_under(&blocks[0], f64::INFINITY, 0, &mut bounds);
    let mut sorted: Vec<f64> = bounds.iter().map(|&(_, b)| b).collect();
    sorted.sort_by(f64::total_cmp);
    let tight = sorted[LEAF_KEYS * 3 / 100];
    let mut under = Vec::with_capacity(LEAF_KEYS);
    for (label, cutoff) in [("cutoff_3pct", tight), ("no_cutoff", f64::INFINITY)] {
        let filter = table.key_filter(cutoff);
        let mut per_key = |dispatch: Dispatch, fast: bool| {
            time_ns(15, 200, || {
                under.clear();
                if fast {
                    filter.bounds_under_with(dispatch, &blocks[0], 0, &mut under);
                } else {
                    filter.exact_bounds_under_with(dispatch, &blocks[0], 0, &mut under);
                }
                std::hint::black_box(under.len());
            }) / LEAF_KEYS as f64
        };
        let exact = Entry {
            name: format!("bounds_under_exact_ns_per_key/{LEAF_KEYS}_keys/{label}"),
            scalar_ns: per_key(Dispatch::Scalar, false),
            simd_ns: per_key(detect(), false),
        };
        let fast = Entry {
            name: format!("bounds_under_ns_per_key/{LEAF_KEYS}_keys/{label}"),
            scalar_ns: per_key(Dispatch::Scalar, true),
            simd_ns: per_key(detect(), true),
        };
        // Cross-kernel ratio: the exact SIMD kernel vs the fast scan.
        let vs = Entry {
            name: format!("bounds_under_exact_simd_vs_fast_scan/{LEAF_KEYS}_keys/{label}"),
            scalar_ns: exact.simd_ns,
            simd_ns: fast.simd_ns,
        };
        entries.extend([exact, fast, vs]);
    }
    entries.extend(leaf_codec_entries(&config, &keys[..LEAF_KEYS]));
    let first_use = first_use_entries(&env.work_dir, &config, &keys[..LEAF_KEYS])?;

    // Distinct copies, so the largest pass streams its symbols from memory
    // as a real one does rather than from cache.
    let tight_filter = table.key_filter(tight);
    let copies: Vec<Vec<u8>> = (0..THREAD_KEYS[THREAD_KEYS.len() - 1] / LEAF_KEYS)
        .map(|b| blocks[b % blocks.len()].clone())
        .collect();
    let threads: Vec<ThreadEntry> = THREAD_KEYS
        .iter()
        .map(|&keys| thread_entry(&tight_filter, &copies, keys))
        .collect();

    let raw = RandomWalkGen::new(9).generate(256);
    let shift = raw[0] as f64;
    entries.push(Entry {
        name: "znormalize_stats/256".to_string(),
        scalar_ns: time_ns(30, 20_000, || {
            std::hint::black_box((scalar.sum_sumsq)(&raw, shift));
        }),
        simd_ns: time_ns(30, 20_000, || {
            std::hint::black_box((simd.sum_sumsq)(&raw, shift));
        }),
    });

    let mut table_out = Table::new(
        "bench_distance",
        "distance-kernel baseline: scalar vs dispatched SIMD (ns/op, median)",
        &["kernel", "scalar_ns", "simd_ns", "speedup"],
    );
    for e in &entries {
        table_out.push_row(vec![
            e.name.clone(),
            format!("{:.1}", e.scalar_ns),
            format!("{:.1}", e.simd_ns),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    table_out.emit(&env.results_dir)?;

    let checksums = [crc_entry("48KB", 48_000), crc_entry("2MB", 2 << 20)];
    let mut crc_out = Table::new(
        "bench_crc64",
        "CRC-64/XZ kernels (MB/s, median)",
        &["buffer", "reference", "slicing8", "folding"],
    );
    for c in &checksums {
        crc_out.push_row(vec![
            c.name.clone(),
            format!("{:.0}", c.reference_mb_s),
            format!("{:.0}", c.slicing8_mb_s),
            format!("{:.0}", c.folding_mb_s),
        ]);
    }
    crc_out.emit(&env.results_dir)?;

    let mut threads_out = Table::new(
        "bench_key_pass_threads",
        "loaded fast-scan key pass: one thread vs two (us, median)",
        &["keys", "one_thread_us", "two_threads_us"],
    );
    for t in &threads {
        threads_out.push_row(vec![
            t.keys.to_string(),
            format!("{:.1}", t.one_thread_us),
            format!("{:.1}", t.two_threads_us),
        ]);
    }
    threads_out.emit(&env.results_dir)?;

    let mut first_use_out = Table::new(
        "bench_leaf_first_use",
        "first use of one leaf block, and of one fresh page (us, median)",
        &["name", "us"],
    );
    for f in &first_use {
        first_use_out.push_row(vec![f.name.clone(), format!("{:.2}", f.us)]);
    }
    first_use_out.emit(&env.results_dir)?;

    // Hand-rolled JSON (no serde in the offline workspace); one object per
    // entry keeps the baseline diffable PR over PR.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"bench_distance\",");
    let _ = writeln!(json, "  \"dispatch\": \"{}\",", detect().name());
    let _ = writeln!(
        json,
        "  \"force_scalar\": {},",
        coconut_series::simd::force_scalar()
    );
    let _ = writeln!(json, "  \"scan_keys\": {SCAN_KEYS},");
    json.push_str("  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"scalar_ns\": {:.1}, \"simd_ns\": {:.1}, \"speedup\": {:.2}}}",
            e.name,
            e.scalar_ns,
            e.simd_ns,
            e.speedup()
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"key_pass_threads\": [\n");
    for (i, t) in threads.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"keys\": {}, \"one_thread_us\": {:.1}, \"two_threads_us\": {:.1}}}",
            t.keys, t.one_thread_us, t.two_threads_us
        );
        json.push_str(if i + 1 < threads.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"leaf_first_use\": [\n");
    for (i, f) in first_use.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"us\": {:.2}}}",
            f.name, f.us
        );
        json.push_str(if i + 1 < first_use.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"checksums\": [\n");
    for (i, c) in checksums.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"reference_mb_s\": {:.0}, \"slicing8_mb_s\": {:.0}, \"folding_mb_s\": {:.0}}}",
            c.name, c.reference_mb_s, c.slicing8_mb_s, c.folding_mb_s
        );
        json.push_str(if i + 1 < checksums.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all(&env.results_dir)?;
    let path = env.results_dir.join("BENCH_distance.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}
