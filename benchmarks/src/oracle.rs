//! The brute-force oracle: re-derive sampled answers from the raw dataset
//! file, after the measured window, while the program under test idles.
//!
//! One pass over the file serves every sampled query at once. Each query
//! early-abandons at its own reported distance (plus tolerance), so almost
//! every series is rejected within its first block and the pass costs about
//! as much as reading the file.

use std::fs::File;
use std::path::Path;

use crate::datagen;

/// One answer to re-derive.
#[derive(Debug, Clone)]
pub struct Check {
    pub label: String,
    pub query: Vec<f32>,
    /// The program's hits in rank order (one for `EXACT`, k for `KNN`).
    pub hits: Vec<(u64, f64)>,
    /// The hits were computed over series `0..covered`.
    pub covered: u64,
    /// How many hits a correct answer has (`min(k, covered)`).
    pub want: usize,
    /// Absolute distance tolerance (the CLI prints four decimals; the server
    /// prints every digit).
    pub tol: f64,
}

/// Squared distance if it stays within `cutoff_sq`, checked every 16 points.
fn ed_sq_within(a: &[f32], b: &[f32], cutoff_sq: f64) -> Option<f64> {
    let mut acc = 0.0f64;
    for (ca, cb) in a.chunks(16).zip(b.chunks(16)) {
        let mut block = 0.0f32;
        for (x, y) in ca.iter().zip(cb) {
            let d = x - y;
            block += d * d;
        }
        acc += f64::from(block);
        if acc > cutoff_sq {
            return None;
        }
    }
    Some(acc)
}

/// Every series of `start..end` within reach of each check: per check, the
/// `(distance, position)` pairs no farther than its worst reported hit.
fn candidates(
    file: &File,
    len: usize,
    start: u64,
    end: u64,
    checks: &[Check],
) -> std::io::Result<Vec<Vec<(f64, u64)>>> {
    let cutoffs: Vec<f64> = checks
        .iter()
        .map(|c| {
            let worst = c.hits.iter().map(|h| h.1).fold(0.0, f64::max);
            // The block-wise f32 sums above round differently from the
            // exact recomputation below, hence the extra slack.
            (worst + c.tol + 1e-3).powi(2)
        })
        .collect();
    let mut found = vec![Vec::new(); checks.len()];
    const CHUNK: u64 = 4096;
    let mut at = start;
    while at < end {
        let upto = (at + CHUNK).min(end);
        let block = datagen::read_series(file, len, at, upto)?;
        for (i, series) in block.chunks_exact(len).enumerate() {
            let pos = at + i as u64;
            for (c, check) in checks.iter().enumerate() {
                if pos < check.covered && ed_sq_within(&check.query, series, cutoffs[c]).is_some() {
                    found[c].push((datagen::euclidean(&check.query, series), pos));
                }
            }
        }
        at = upto;
    }
    Ok(found)
}

/// Re-derive every check from the dataset at `data`. Returns one entry per
/// check: `None` when the program's answer is exact, or what was wrong.
///
/// `off_by_one` deliberately breaks the oracle (it expects every reported
/// position plus one); the acceptance test uses it to prove that a wrong
/// answer makes the run fail.
pub fn verify(
    data: &Path,
    len: usize,
    checks: &[Check],
    threads: usize,
    off_by_one: bool,
) -> Result<Vec<Option<String>>, String> {
    if checks.is_empty() {
        return Ok(Vec::new());
    }
    let file = File::open(data).map_err(|e| format!("opening {}: {e}", data.display()))?;
    let upto = checks.iter().map(|c| c.covered).max().unwrap_or(0);
    let threads = threads.max(1) as u64;
    let per = upto.div_ceil(threads).max(1);
    let mut found: Vec<Vec<(f64, u64)>> = vec![Vec::new(); checks.len()];
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let file = &file;
                s.spawn(move || {
                    candidates(
                        file,
                        len,
                        (t * per).min(upto),
                        ((t + 1) * per).min(upto),
                        checks,
                    )
                })
            })
            .collect();
        for h in handles {
            let part = h
                .join()
                .map_err(|_| "an oracle thread panicked".to_string())?
                .map_err(|e| format!("reading {}: {e}", data.display()))?;
            for (all, mut some) in found.iter_mut().zip(part) {
                all.append(&mut some);
            }
        }
        Ok(())
    })?;
    Ok(checks
        .iter()
        .zip(found)
        .map(|(check, mut near)| {
            near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            judge(check, &near, off_by_one)
        })
        .collect())
}

/// Compare the reported hits with the true nearest series, rank by rank.
/// Positions may differ only where distances tie within the tolerance.
fn judge(check: &Check, near: &[(f64, u64)], off_by_one: bool) -> Option<String> {
    if check.hits.len() != check.want {
        return Some(format!(
            "{}: {} hits, expected {}",
            check.label,
            check.hits.len(),
            check.want
        ));
    }
    for (rank, &(pos, dist)) in check.hits.iter().enumerate() {
        let pos = if off_by_one { pos + 1 } else { pos };
        // A closer series the program missed shows up here: the true
        // rank-th distance is then smaller than the reported one.
        let Some(&(true_dist, true_pos)) = near.get(rank) else {
            return Some(format!(
                "{}: rank {rank} has no series within reach",
                check.label
            ));
        };
        if (true_dist - dist).abs() > check.tol {
            return Some(format!(
                "{}: rank {rank} reported dist {dist}, oracle finds #{true_pos} at {true_dist}",
                check.label
            ));
        }
        match near.iter().find(|c| c.1 == pos) {
            Some(&(d, _)) if (d - dist).abs() <= check.tol => {}
            Some(&(d, _)) => {
                return Some(format!(
                    "{}: #{pos} reported at {dist} but lies at {d}",
                    check.label
                ))
            }
            None => {
                return Some(format!(
                    "{}: reported #{pos} is not among the nearest (covered {})",
                    check.label, check.covered
                ))
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{ensure_dataset, DatasetKey};

    fn brute(seed: u64, n: u64, len: usize, q: &[f32], k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = (0..n)
            .map(|i| {
                let mut m = vec![0.0f32; len];
                datagen::member(seed, i, &mut m);
                (i, datagen::euclidean(q, &m))
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all
    }

    #[test]
    fn accepts_exact_answers_and_rejects_wrong_ones() {
        let dir = std::env::temp_dir().join(format!("coconut-perf-oracle-{}", std::process::id()));
        let key = DatasetKey {
            n: 3000,
            len: 64,
            seed: 21,
        };
        let (path, _) = ensure_dataset(&dir, &key, 2).unwrap();
        let q = datagen::far_query(21, 1, 64);
        let check = |hits: Vec<(u64, f64)>, covered: u64, want: usize| Check {
            label: "t".into(),
            query: q.clone(),
            hits,
            covered,
            want,
            tol: 1e-6,
        };
        let top1 = brute(21, 3000, 64, &q, 1);
        let top5 = brute(21, 3000, 64, &q, 5);
        let prefix = brute(21, 1000, 64, &q, 1);
        let mut second_best = top5[1..2].to_vec();
        second_best[0].1 = top5[1].1;
        let mut wrong_dist = top1.clone();
        wrong_dist[0].1 += 0.01;
        let checks = vec![
            check(top1.clone(), 3000, 1),
            check(top5.clone(), 3000, 5),
            check(prefix.clone(), 1000, 1),
            check(second_best, 3000, 1),        // a closer series exists
            check(wrong_dist, 3000, 1),         // right series, wrong distance
            check(top5[..4].to_vec(), 3000, 5), // a hit short
        ];
        let verdicts = verify(&path, 64, &checks, 2, false).unwrap();
        assert_eq!(verdicts[0], None);
        assert_eq!(verdicts[1], None);
        assert_eq!(verdicts[2], None);
        assert!(verdicts[3].is_some());
        assert!(verdicts[4].is_some());
        assert!(verdicts[5].is_some());
        // The deliberately broken oracle rejects even exact answers.
        let broken = verify(&path, 64, &checks[..3], 1, true).unwrap();
        assert!(broken.iter().all(Option::is_some), "{broken:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
