//! Property tests for concurrent multi-writer ingest under the size-tiered
//! policy, default and with a two-run cap (whose merges cascade on every
//! ingest): random interleavings of {grow-and-multi-writer-ingest, policy
//! switch, forced compaction, crash-during-group-commit} must always
//! recover a contiguous covered prefix that answers oracle-exactly —
//! including the case where a group commit dies *between* the run fsyncs
//! and the manifest commit, which must clean the orphan run directories on
//! reopen and must never lose a batch whose ingest call returned `Ok`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use coconut_core::{BuildOptions, IndexConfig, LsmCoconut, TieredPolicy};
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

/// Ingest everything up to `upto` with `writers` concurrent writer handles
/// claiming `step`-sized slices. Returns the highest position any writer
/// was *acknowledged* for (its `ingest_next_upto` returned `Ok(Some(_))`,
/// i.e. the group commit made it durable) and the first error, if any —
/// both matter: after a crash the acknowledged prefix must survive
/// recovery even though some call failed.
fn multi_ingest(
    lsm: &LsmCoconut,
    dataset: &Dataset,
    upto: u64,
    writers: usize,
    step: u64,
) -> (u64, Option<String>) {
    let acked = AtomicU64::new(0);
    let mut first_err = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let acked = &acked;
                s.spawn(move || -> Result<(), String> {
                    let w = lsm.writer();
                    loop {
                        match w.ingest_next_upto(dataset, upto, step) {
                            Ok(Some(r)) => {
                                acked.fetch_max(r.end, Ordering::Relaxed);
                            }
                            Ok(None) => return Ok(()),
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(e) = h.join().expect("writer thread panicked") {
                first_err.get_or_insert(e);
            }
        }
    });
    (acked.load(Ordering::Relaxed), first_err)
}

/// The consistency bar every recovery must clear: contiguous coverage, no
/// orphan run directories or manifest temp once compactions settle, and
/// oracle-exact answers over the recovered prefix.
fn check_recovered(
    lsm: &LsmCoconut,
    idx_dir: &std::path::Path,
    all: &[Vec<Value>],
    acked: u64,
    query_seed: u64,
) {
    let covered = lsm.covered_end();
    assert!(covered <= all.len() as u64);
    assert!(
        covered >= acked,
        "acknowledged batch lost: acked up to {acked}, recovered {covered}"
    );
    assert_eq!(lsm.len(), covered);
    lsm.wait_for_compactions().unwrap();
    let run_dirs: Vec<String> = std::fs::read_dir(idx_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("run-"))
        .collect();
    assert_eq!(run_dirs.len(), lsm.run_count(), "orphans: {run_dirs:?}");
    assert!(!idx_dir.join("MANIFEST.tmp").exists());
    let mut q = RandomWalkGen::new(query_seed).generate(LEN);
    znormalize(&mut q);
    let (ans, _) = lsm.exact(&q).unwrap();
    let oracle = brute_force(&all[..covered as usize], &q);
    assert_eq!(ans.pos, oracle.pos);
}

/// The scenario the group-commit protocol exists for, pinned
/// deterministically: several writers fsync their runs, then the elected
/// committer dies *before the manifest write*. The fsynced runs are
/// orphans — on disk but in no manifest — and reopen must quarantine-free
/// clean them while keeping every previously acknowledged batch.
#[test]
fn group_commit_crash_between_run_fsync_and_manifest_commit_recovers() {
    for site in ["manifest.before", "manifest.torn", "manifest.after"] {
        let dir = TempDir::new("prop-compaction-det").unwrap();
        let stats = Arc::new(IoStats::new());
        let data_path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(9);
        let mut all: Vec<Vec<Value>> = Vec::new();

        // A durable first wave, then arm the crash and send three writers.
        let dataset = grow(&data_path, &stats, &mut gen, &mut all, 60);
        let lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.ingest_upto(&dataset, 30).unwrap();
        lsm.wait_for_compactions().unwrap();
        let acked_before = lsm.covered_end();
        assert_eq!(acked_before, 30);

        let plan = FaultPlan::parse(&format!("{site}=err@1"), 7).unwrap();
        lsm.set_fault_plan(Some(Arc::new(plan)));
        let (acked, err) = multi_ingest(&lsm, &dataset, 60, 3, 5);
        assert!(err.is_some(), "{site}: armed crash never fired");
        drop(lsm);

        // The fsynced-but-uncommitted runs are on disk right now; reopen
        // must reconcile the directory against the surviving manifest.
        let lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
        check_recovered(&lsm, &idx_dir, &all, acked.max(acked_before), 0xC0C0);

        // Catching up re-ingests only what the crash lost, and the final
        // state answers exactly.
        lsm.ingest(&dataset).unwrap();
        assert_eq!(lsm.covered_end(), 60);
        check_recovered(&lsm, &idx_dir, &all, 60, 0xC0C1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of multi-writer ingest, policy switches,
    /// forced compaction, and group-commit crashes at all three manifest
    /// fault sites, under 1–3 writers. Every crash drops the instance and
    /// reopens from disk like a process restart.
    #[test]
    fn multi_writer_interleavings_always_recover(
        ops in proptest::collection::vec((0u8..5, 1u64..4), 4..9),
        writers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-compaction").unwrap();
        let stats = Arc::new(IoStats::new());
        let data_path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(seed);
        let mut all: Vec<Vec<Value>> = Vec::new();

        let mut dataset = grow(&data_path, &stats, &mut gen, &mut all, 40);
        let mut lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        if seed % 2 == 1 {
            lsm.set_policy(Box::new(TieredPolicy::with_max_runs(2)));
        }
        let (mut acked, err) = multi_ingest(&lsm, &dataset, dataset.len(), writers, 15);
        prop_assert!(err.is_none(), "{:?}", err);

        for (step, &(op, param)) in ops.iter().enumerate() {
            let qseed = seed ^ (step as u64) << 8;
            match op {
                // Grow the dataset and multi-writer-ingest the new tail.
                0 | 1 => {
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 20 * param as usize);
                    let (a, err) = multi_ingest(&lsm, &dataset, dataset.len(), writers, 12);
                    prop_assert!(err.is_none(), "step {}: {:?}", step, err);
                    acked = acked.max(a);
                    prop_assert_eq!(lsm.covered_end(), all.len() as u64);
                }
                // Swap the compaction policy live, then let it settle.
                2 => {
                    if param == 1 {
                        lsm.set_policy(Box::new(TieredPolicy::with_max_runs(2)));
                    } else {
                        lsm.set_policy(Box::new(TieredPolicy::default()));
                    }
                    lsm.wait_for_compactions().unwrap();
                }
                // Full compaction: one run, regardless of policy/history.
                3 => {
                    lsm.compact().unwrap();
                    prop_assert_eq!(lsm.run_count(), 1);
                }
                // Crash a multi-writer group commit at a manifest fault
                // site, then recover from disk.
                _ => {
                    let site = match param {
                        1 => "manifest.before",
                        2 => "manifest.torn",
                        _ => "manifest.after",
                    };
                    dataset = grow(&data_path, &stats, &mut gen, &mut all, 30);
                    lsm.wait_for_compactions().unwrap();
                    let plan = FaultPlan::parse(&format!("{site}=err@1"), seed).unwrap();
                    lsm.set_fault_plan(Some(Arc::new(plan)));
                    let (a, err) = multi_ingest(&lsm, &dataset, dataset.len(), writers, 10);
                    prop_assert!(err.is_some(), "step {}: armed {} never fired", step, site);
                    acked = acked.max(a);
                    drop(lsm);
                    lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
                    check_recovered(&lsm, &idx_dir, &all, acked, qseed);
                }
            }
            // Whatever happened, committed data keeps answering exactly.
            let mut q = RandomWalkGen::new(qseed ^ 0xBEEF).generate(LEN);
            znormalize(&mut q);
            let covered = lsm.covered_end() as usize;
            let (ans, _) = lsm.exact(&q).unwrap();
            prop_assert_eq!(ans.pos, brute_force(&all[..covered], &q).pos, "step {}", step);
        }

        // Catch up on anything a crash rolled back; the full dataset must
        // then be covered, contiguous, and oracle-exact under compaction.
        let (a, err) = multi_ingest(&lsm, &dataset, dataset.len(), writers, 15);
        prop_assert!(err.is_none(), "{:?}", err);
        acked = acked.max(a).max(all.len() as u64);
        prop_assert_eq!(lsm.covered_end(), all.len() as u64);
        lsm.compact().unwrap();
        prop_assert_eq!(lsm.run_count(), 1);
        check_recovered(&lsm, &idx_dir, &all, acked, seed ^ 0xFACE);
    }
}
