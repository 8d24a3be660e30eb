//! Inputs, all derived from `--seed`: the random-walk dataset file, and the
//! far / near query vectors clients send as `q=v:<values>`.
//!
//! Series `i` of a dataset is a pure function of `(seed, i)`, so the
//! generator can fill the file from several threads, and the load generator
//! can rebuild any member (for near queries and their inline check) without
//! reading the file.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use coconut_series::dataset::HEADER_LEN;

/// Dataset header: the format of `coconut_series::dataset` (magic, length,
/// flags with bit 0 = z-normalized, count, reserved). The crate's own writer
/// appends from one thread; this one fills the file from several.
fn header(series_len: usize, count: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(b"CCNTDS01");
    h[8..12].copy_from_slice(&(series_len as u32).to_le_bytes());
    h[12..16].copy_from_slice(&1u32.to_le_bytes());
    h[16..24].copy_from_slice(&count.to_le_bytes());
    h
}

/// SplitMix64: one multiply-xorshift round per output, good enough for
/// synthetic inputs and cheap enough to make 256M steps in about a second.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream, index)`; distinct keys give
    /// unrelated sequences.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        // Both hops go through the output mixer, so neighbouring indices
        // do not land on shifted copies of one sequence.
        let a = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        Rng(Rng(a.wrapping_add(index.wrapping_mul(0xD134_2543_DE82_EF95))).next_u64())
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Approximately standard normal: the sum of the four 16-bit lanes of
    /// one draw (Irwin–Hall, n = 4), centred and scaled to unit variance.
    /// A random walk only needs finite-variance steps, and after
    /// z-normalisation the step scale cancels anyway.
    #[inline]
    pub fn gauss(&mut self) -> f64 {
        let x = self.next_u64();
        let sum = (x & 0xFFFF) + ((x >> 16) & 0xFFFF) + ((x >> 32) & 0xFFFF) + (x >> 48);
        // Each lane: mean 32767.5, variance (65536^2 - 1) / 12.
        (sum as f64 - 131_070.0) * (3.0f64.sqrt() / 65_536.0)
    }
}

const STREAM_MEMBER: u64 = 1;
const STREAM_FAR: u64 = 2;
const STREAM_NOISE: u64 = 3;

fn znormalize(walk: &[f64], out: &mut [f32]) {
    let n = walk.len() as f64;
    let mean = walk.iter().sum::<f64>() / n;
    let var = walk.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let inv = if var > 0.0 { 1.0 / var.sqrt() } else { 0.0 };
    for (o, x) in out.iter_mut().zip(walk) {
        *o = ((x - mean) * inv) as f32;
    }
}

fn random_walk(rng: &mut Rng, out: &mut [f32]) {
    let mut walk = vec![0.0f64; out.len()];
    let mut acc = 0.0;
    for w in &mut walk {
        acc += rng.gauss();
        *w = acc;
    }
    znormalize(&walk, out);
}

/// Dataset member `index`: a z-normalised random walk.
pub fn member(seed: u64, index: u64, out: &mut [f32]) {
    random_walk(&mut Rng::keyed(seed, STREAM_MEMBER, index), out);
}

/// Far query `index`: a fresh z-normalised random walk that is not in the
/// dataset, so thousands of raw fetches survive pruning.
pub fn far_query(seed: u64, index: u64, len: usize) -> Vec<f32> {
    let mut q = vec![0.0; len];
    random_walk(&mut Rng::keyed(seed, STREAM_FAR, index), &mut q);
    q
}

/// Per-point noise of a near query.
pub const NEAR_SIGMA: f64 = 0.05;

/// Near query `index`: dataset member `source` plus σ = 0.05 noise,
/// re-normalised. Returns the query and the member it was made from.
pub fn near_query(seed: u64, index: u64, source: u64, len: usize) -> (Vec<f32>, Vec<f32>) {
    let mut base = vec![0.0f32; len];
    member(seed, source, &mut base);
    let mut rng = Rng::keyed(seed, STREAM_NOISE, index);
    let noisy: Vec<f64> = base
        .iter()
        .map(|&v| f64::from(v) + NEAR_SIGMA * rng.gauss())
        .collect();
    let mut q = vec![0.0f32; len];
    znormalize(&noisy, &mut q);
    (q, base)
}

/// Euclidean distance, accumulated in `f64` like the program's kernels.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// `v0,v1,...` with shortest-roundtrip `f32` text: what a real client puts
/// after `q=v:`.
pub fn fmt_values(values: &[f32]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(values.len() * 12);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s
}

/// Which dataset a run uses.
#[derive(Debug, Clone)]
pub struct DatasetKey {
    pub n: u64,
    pub len: usize,
    pub seed: u64,
}

impl DatasetKey {
    pub fn file_name(&self) -> String {
        format!("rw-n{}-l{}-s{}.ds", self.n, self.len, self.seed)
    }

    pub fn bytes(&self) -> u64 {
        HEADER_LEN + self.n * self.len as u64 * 4
    }
}

/// Write the dataset `key` to `path` from `threads` threads (positional
/// writes into disjoint ranges), through a temp name so a half-written file
/// is never mistaken for a cached one.
pub fn write_dataset(path: &Path, key: &DatasetKey, threads: usize) -> io::Result<()> {
    let tmp = path.with_extension("ds.part");
    let file = File::create(&tmp)?;
    file.set_len(key.bytes())?;
    file.write_all_at(&header(key.len, key.n), 0)?;
    let threads = threads.max(1) as u64;
    let per = key.n.div_ceil(threads);
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let file = &file;
                s.spawn(move || -> io::Result<()> {
                    let (start, end) = (t * per, ((t + 1) * per).min(key.n));
                    // 4096 series (4 MiB at 256 points) per write.
                    const CHUNK: u64 = 4096;
                    let mut series = vec![0.0f32; key.len];
                    let mut buf = Vec::with_capacity(CHUNK as usize * key.len * 4);
                    let mut at = start;
                    while at < end {
                        let upto = (at + CHUNK).min(end);
                        buf.clear();
                        for i in at..upto {
                            member(key.seed, i, &mut series);
                            for v in &series {
                                buf.extend_from_slice(&v.to_le_bytes());
                            }
                        }
                        file.write_all_at(&buf, HEADER_LEN + at * key.len as u64 * 4)?;
                        at = upto;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a generator thread panicked")?;
        }
        Ok(())
    })?;
    // Flush now: left dirty, a gigabyte of pages is written back by the
    // kernel half a minute later, in the middle of somebody's window.
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// How many generated dataset files stay cached (1 GiB each at full scale,
/// an eighth of that for `build_static`'s part file).
const CACHE_KEEP: usize = 3;

/// Return the cached dataset for `key` under `cache_dir`, generating it
/// first if needed, plus the seconds spent generating (0 on a cache hit).
/// Older cache entries beyond [`CACHE_KEEP`] are removed.
pub fn ensure_dataset(
    cache_dir: &Path,
    key: &DatasetKey,
    threads: usize,
) -> io::Result<(PathBuf, f64)> {
    std::fs::create_dir_all(cache_dir)?;
    let path = cache_dir.join(key.file_name());
    let hit = std::fs::metadata(&path).is_ok_and(|m| m.len() == key.bytes());
    let mut secs = 0.0;
    if hit {
        // Refresh the entry's age so the eviction below keeps it.
        File::options()
            .write(true)
            .open(&path)?
            .set_modified(std::time::SystemTime::now())?;
    } else {
        let t0 = Instant::now();
        write_dataset(&path, key, threads)?;
        secs = t0.elapsed().as_secs_f64();
    }
    let mut entries: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(cache_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.path()
                .extension()
                .is_some_and(|x| x == "ds" || x == "part")
        })
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    entries.sort();
    entries.reverse();
    for (_, old) in entries.into_iter().skip(CACHE_KEEP) {
        if old != path {
            let _ = std::fs::remove_file(old);
        }
    }
    Ok((path, secs))
}

/// Read series `start..end` of a dataset file into one flat buffer.
pub fn read_series(file: &File, len: usize, start: u64, end: u64) -> io::Result<Vec<f32>> {
    let count = (end - start) as usize * len;
    let mut bytes = vec![0u8; count * 4];
    file.read_exact_at(&mut bytes, HEADER_LEN + start * len as u64 * 4)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_deterministic_and_normalised() {
        let mut a = vec![0.0f32; 256];
        let mut b = vec![0.0f32; 256];
        member(7, 42, &mut a);
        member(7, 42, &mut b);
        assert_eq!(a, b);
        member(8, 42, &mut b);
        assert_ne!(a, b);
        let mean: f64 = a.iter().map(|&x| f64::from(x)).sum::<f64>() / 256.0;
        let var: f64 = a.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / 256.0;
        assert!(mean.abs() < 1e-6, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-4, "var {var}");
    }

    #[test]
    fn gauss_has_unit_variance() {
        let mut r = Rng(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn near_queries_stay_near_their_source() {
        let (q, base) = near_query(3, 0, 11, 256);
        let d = euclidean(&q, &base);
        // sigma * sqrt(len) = 0.8; far queries sit several units away.
        assert!(d > 0.3 && d < 1.3, "near distance {d}");
        let far = far_query(3, 0, 256);
        assert!(euclidean(&far, &base) > 3.0);
    }

    #[test]
    fn dataset_file_matches_members_whatever_the_thread_count() {
        let dir = std::env::temp_dir().join(format!("coconut-perf-datagen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let key = DatasetKey {
            n: 1000,
            len: 64,
            seed: 5,
        };
        let (p1, _) = ensure_dataset(&dir, &key, 1).unwrap();
        let one = std::fs::read(&p1).unwrap();
        std::fs::remove_file(&p1).unwrap();
        let (p3, secs) = ensure_dataset(&dir, &key, 3).unwrap();
        assert!(secs > 0.0);
        assert_eq!(one, std::fs::read(&p3).unwrap());
        assert_eq!(one.len() as u64, key.bytes());
        let (_, again) = ensure_dataset(&dir, &key, 3).unwrap();
        assert_eq!(again, 0.0, "second call is a cache hit");
        let f = File::open(&p3).unwrap();
        let got = read_series(&f, 64, 999, 1000).unwrap();
        let mut want = vec![0.0f32; 64];
        member(5, 999, &mut want);
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
