//! Crash-safety property tests for the LSM subsystem: random interleavings
//! of batch ingest, compaction, and simulated crashes (a fault plan fails
//! the `manifest.before` / `manifest.torn` / `manifest.after` site of one
//! commit), asserting that
//! `LsmCoconut::open` always recovers a consistent run set — contiguous
//! coverage, no orphan run directories, no leftover manifest temp — and
//! that exact queries over the recovered prefix match a brute-force oracle.

use std::sync::Arc;

use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::{Answer, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{FaultPlan, IoStats, TempDir};
use proptest::prelude::*;

const LEN: usize = 32;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c
}

/// Append `n` fresh series to the dataset file and reopen it.
fn grow(
    path: &std::path::Path,
    stats: &Arc<IoStats>,
    gen: &mut RandomWalkGen,
    all: &mut Vec<Vec<Value>>,
    n: usize,
) -> Dataset {
    for _ in 0..n {
        let mut s = gen.generate(LEN);
        znormalize(&mut s);
        all.push(s);
    }
    let mut w = DatasetWriter::create(path, LEN, true, Arc::clone(stats)).unwrap();
    for s in all.iter() {
        w.append(s).unwrap();
    }
    w.finish().unwrap();
    Dataset::open(path, Arc::clone(stats)).unwrap()
}

fn brute_force(prefix: &[Vec<Value>], q: &[Value]) -> Answer {
    let mut best = Answer::none();
    for (i, s) in prefix.iter().enumerate() {
        best.merge(Answer {
            pos: i as u64,
            dist: euclidean(q, s),
        });
    }
    best
}

/// Crash the next manifest commit of `lsm` at the site `param` picks;
/// returns the site.
fn arm_crash(lsm: &LsmCoconut, param: u64) -> &'static str {
    let site = match param {
        1 => "manifest.before",
        2 => "manifest.torn",
        _ => "manifest.after",
    };
    let plan = FaultPlan::parse(&format!("{site}=err@1"), 0).unwrap();
    lsm.set_fault_plan(Some(Arc::new(plan)));
    site
}

/// The consistency bar every recovery must clear.
fn check_recovered(
    lsm: &LsmCoconut,
    idx_dir: &std::path::Path,
    all: &[Vec<Value>],
    query_seed: u64,
) {
    // Coverage never exceeds what was ever ingested, and the entry count
    // matches it exactly (runs are contiguous and gap-free by manifest
    // validation).
    let covered = lsm.covered_end();
    assert!(covered <= all.len() as u64);
    assert_eq!(lsm.len(), covered);
    // After compactions settle, the on-disk run directories are exactly the
    // live run set, and no manifest temp file survives.
    lsm.wait_for_compactions().unwrap();
    let run_dirs: Vec<String> = std::fs::read_dir(idx_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert_eq!(run_dirs.len(), lsm.run_count(), "orphans: {run_dirs:?}");
    assert!(!idx_dir.join("MANIFEST.tmp").exists());
    // Queries over the recovered prefix are oracle-identical.
    let mut q = RandomWalkGen::new(query_seed).generate(LEN);
    znormalize(&mut q);
    let (ans, _) = lsm.exact(&q).unwrap();
    let oracle = brute_force(&all[..covered as usize], &q);
    assert_eq!(ans.pos, oracle.pos);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of {ingest, compact, crash-then-recover} with
    /// all three crash sites. Every op that "crashes" drops the instance
    /// mid-operation and reopens from disk, like a process restart.
    #[test]
    fn random_crash_interleavings_always_recover(
        ops in proptest::collection::vec((0u8..5, 1u64..4), 4..10),
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let data_path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(seed);
        let mut all: Vec<Vec<Value>> = Vec::new();

        let mut dataset = grow(&data_path, &stats, &mut gen, &mut all, 40);
        let mut lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.set_max_runs(3);
        lsm.ingest(&dataset).unwrap();

        for (step, &(op, param)) in ops.iter().enumerate() {
            let qseed = seed ^ (step as u64) << 8;
            match op {
                // Grow the dataset and ingest the new tail.
                0 | 1 => {
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 25 * param as usize);
                    lsm.ingest(&dataset).unwrap();
                }
                // Full compaction.
                2 => {
                    lsm.compact().unwrap();
                    prop_assert_eq!(lsm.run_count(), 1);
                }
                // Crash during an ingest commit, at a random site.
                3 => {
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 30);
                    lsm.wait_for_compactions().unwrap();
                    let site = arm_crash(&lsm, param);
                    let err = lsm.ingest(&dataset).expect_err("armed crash must fire");
                    prop_assert!(err.to_string().contains(site), "{}", err);
                    drop(lsm);
                    lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
                    lsm.set_max_runs(3);
                    check_recovered(&lsm, &idx_dir, &all, qseed);
                }
                // Crash during a compaction commit, at a random site (when
                // there is anything to compact).
                _ => {
                    lsm.wait_for_compactions().unwrap();
                    if lsm.run_count() >= 2 {
                        let site = arm_crash(&lsm, param);
                        let err = lsm.compact().expect_err("armed crash must fire");
                        prop_assert!(err.to_string().contains(site), "{}", err);
                        drop(lsm);
                        lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
                        lsm.set_max_runs(3);
                        check_recovered(&lsm, &idx_dir, &all, qseed);
                    }
                }
            }
            // Whatever happened, committed data keeps answering exactly.
            let mut q = RandomWalkGen::new(qseed ^ 0xABCD).generate(LEN);
            znormalize(&mut q);
            let covered = lsm.covered_end() as usize;
            let (ans, _) = lsm.exact(&q).unwrap();
            prop_assert_eq!(ans.pos, brute_force(&all[..covered], &q).pos, "step {}", step);
        }

        // Catch up on anything a crash rolled back, then do a final full
        // verification pass.
        lsm.ingest(&dataset).unwrap();
        prop_assert_eq!(lsm.covered_end(), all.len() as u64);
        check_recovered(&lsm, &idx_dir, &all, seed ^ 0xF1FA);
    }
}
