//! Update-path integration tests: LSM ingestion, whose every batch is a
//! bulk-loaded run, and the ADS+ extension path stay exact as data arrives.

use std::sync::Arc;

use coconut::baselines::{AdsIndex, AdsVariant, SerialScan};
use coconut::index::{BuildOptions, CoconutTree, IndexConfig, LsmCoconut};
use coconut::prelude::*;
use coconut::series::distance::znormalize;
use coconut::summary::SaxConfig;

const LEN: usize = 64;
const N: u64 = 600;

fn setup() -> (TempDir, Dataset, Vec<Vec<f32>>) {
    let dir = TempDir::new("updates").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    let mut generator = RandomWalkGen::new(13);
    write_dataset(&path, &mut generator, N, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let queries = (0..5u64)
        .map(|i| {
            let mut q = RandomWalkGen::new(900 + i).generate(LEN);
            znormalize(&mut q);
            q
        })
        .collect();
    (dir, dataset, queries)
}

fn config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

#[test]
fn batched_inserts_match_full_rebuild() {
    let (dir, dataset, queries) = setup();
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 2,
        shards: 1,
    };

    // Reference: a tree bulk-loaded over everything at once.
    let reference = CoconutTree::build(&dataset, &config(), dir.path(), opts.clone()).unwrap();

    for batch_size in [1u64, 7, 50, 300] {
        let lsm_dir = TempDir::new("updates-lsm").unwrap();
        let lsm = LsmCoconut::new(config(), opts.clone(), lsm_dir.path()).unwrap();
        lsm.ingest_upto(&dataset, N / 2).unwrap();
        let mut covered = N / 2;
        while covered < N {
            covered = (covered + batch_size).min(N);
            lsm.ingest_upto(&dataset, covered).unwrap();
            assert_eq!(lsm.len(), covered, "batch={batch_size}");
        }
        for q in &queries {
            let (a, _) = lsm.exact(q).unwrap();
            let (b, _) = reference.exact_search(q).unwrap();
            assert_eq!(a.pos, b.pos, "batch={batch_size}");
        }
        // A full compaction leaves one run holding every entry, packed as
        // the reference's leaves are.
        lsm.compact().unwrap();
        assert_eq!(lsm.run_count(), 1, "batch={batch_size}");
        assert_eq!(
            lsm.leaf_fill_fractions().len() as u64,
            reference.leaf_count(),
            "batch={batch_size}"
        );
        for q in &queries {
            let (a, _) = lsm.exact(q).unwrap();
            let (b, _) = reference.exact_search(q).unwrap();
            assert_eq!(a.pos, b.pos, "batch={batch_size}");
        }
    }
}

/// The LSM, whose runs are bulk-loaded B+-trees, against ADS+'s top-down
/// inserts.
#[test]
fn lsm_and_btree_and_ads_agree_under_growth() {
    let (dir, dataset, queries) = setup();
    let opts = BuildOptions {
        memory_bytes: 1 << 20,
        materialized: false,
        threads: 2,
        shards: 1,
    };
    let sax = SaxConfig::default_for_len(LEN);

    let lsm = LsmCoconut::new(config(), opts, dir.path()).unwrap();
    lsm.set_max_runs(2);
    lsm.ingest_upto(&dataset, 200).unwrap();
    let mut ads = AdsIndex::build_upto(
        &dataset,
        sax,
        32,
        1 << 20,
        dir.path(),
        AdsVariant::Plus,
        2,
        200,
    )
    .unwrap();

    let mut covered = 200u64;
    for step in 0..4 {
        let hi = (covered + 100).min(N);
        lsm.ingest_upto(&dataset, hi).unwrap();
        ads.extend_to(hi).unwrap();
        covered = hi;

        // Both must agree with a scan once everything is covered, and with
        // each other before (they cover the same prefix).
        if covered == N {
            let scan = SerialScan::new(&dataset);
            for q in &queries {
                let (truth, _) = scan.exact(q).unwrap();
                assert_eq!(lsm.exact(q).unwrap().0.pos, truth.pos, "step {step}");
                assert_eq!(ads.exact_search(q).unwrap().0.pos, truth.pos, "step {step}");
            }
        } else {
            for q in &queries {
                let a = lsm.exact(q).unwrap().0;
                let b = ads.exact_search(q).unwrap().0;
                assert_eq!(a.pos, b.pos, "step {step}");
            }
        }
    }
}
