//! Streaming-ingest integration tests at the facade level: the README's
//! "Streaming ingest" walkthrough (batch ingest → crash → `open()` recovery
//! → query), run against the public API end to end.

use std::sync::Arc;

use coconut::baselines::SerialScan;
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::storage::FaultPlan;

const LEN: usize = 64;

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

fn setup(n: u64) -> (TempDir, Dataset) {
    let dir = TempDir::new("streaming-it").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(7), n, LEN, &stats).unwrap();
    (dir, Dataset::open(&path, stats).unwrap())
}

fn query(seed: u64) -> Vec<f32> {
    let mut q = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut q);
    q
}

#[test]
fn batch_ingest_survives_clean_restart() {
    let (dir, dataset) = setup(500);
    let idx_dir = dir.path().join("lsm");
    {
        let lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        for upto in [100u64, 250, 400, 500] {
            lsm.ingest_upto(&dataset, upto).unwrap();
        }
        lsm.wait_for_compactions().unwrap();
    } // dropped: a clean shutdown
    let lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
    assert_eq!(lsm.len(), 500);
    let scan = SerialScan::new(&dataset);
    for seed in 40..45 {
        let q = query(seed);
        let (truth, _) = scan.exact(&q).unwrap();
        let (got, _) = lsm.exact(&q).unwrap();
        assert_eq!(got.pos, truth.pos, "seed {seed}");
    }
}

#[test]
fn simulated_crash_recovers_committed_prefix() {
    let (dir, dataset) = setup(600);
    let idx_dir = dir.path().join("lsm");
    {
        let lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.ingest_upto(&dataset, 300).unwrap();
        lsm.wait_for_compactions().unwrap();
        // Die halfway through the next commit's manifest write.
        let torn = FaultPlan::parse("manifest.torn=err@1", 0).unwrap();
        lsm.set_fault_plan(Some(Arc::new(torn)));
        assert!(lsm.ingest_upto(&dataset, 600).is_err());
    } // the "crashed process"
    let lsm = LsmCoconut::open(&idx_dir, &dataset, BuildOptions::default()).unwrap();
    // The un-committed batch is lost — exactly crash semantics — and the
    // committed prefix answers exactly.
    assert_eq!(lsm.covered_end(), 300);
    let scan = SerialScan::new(&dataset);
    // Re-ingest the lost tail and verify against the full oracle.
    lsm.ingest(&dataset).unwrap();
    assert_eq!(lsm.covered_end(), 600);
    for seed in 50..55 {
        let q = query(seed);
        let (truth, _) = scan.exact(&q).unwrap();
        let (got, _) = lsm.exact(&q).unwrap();
        assert_eq!(got.pos, truth.pos, "seed {seed}");
    }
}

#[test]
fn tiered_policy_bounds_read_amplification() {
    let (dir, dataset) = setup(800);
    let idx_dir = dir.path().join("lsm");
    let lsm = LsmCoconut::new(config(), BuildOptions::default(), &idx_dir).unwrap();
    lsm.set_policy(Box::new(TieredPolicy {
        size_ratio: 4,
        tier_runs: 2,
        max_runs: 3,
    }));
    for i in 1..=16u64 {
        lsm.ingest_upto(&dataset, i * 50).unwrap();
    }
    lsm.wait_for_compactions().unwrap();
    assert!(lsm.run_count() <= 3, "{} runs", lsm.run_count());
    assert_eq!(lsm.len(), 800);
    let scan = SerialScan::new(&dataset);
    let q = query(77);
    let (truth, _) = scan.exact(&q).unwrap();
    assert_eq!(lsm.exact(&q).unwrap().0.pos, truth.pos);
}
