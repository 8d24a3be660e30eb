//! Property tests for the pluggable node-splitting policies.
//!
//! On random skewed (clustered) series distributions — the regime the
//! adaptive policy reshapes the trie for — every query a Coconut-Trie can
//! answer must be bit-identical across policies: adaptive vs the fixed
//! binary baseline vs a brute-force oracle, for exact 1-NN, k-NN, and
//! range queries. The answers must also survive a reopen from disk (the
//! multi-way v1 node encoding) and, for the LSM path, a simulated crash
//! mid-manifest-write (the manifest's policy byte) unchanged.

use std::sync::Arc;

use coconut_core::{BuildOptions, CoconutTrie, IndexConfig, LsmCoconut, SplitPolicyKind};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::SeriesIndex;
use coconut_series::Value;
use coconut_storage::{FaultPlan, IoStats, TempDir};
use proptest::prelude::*;

const LEN: usize = 32;

fn config(policy: SplitPolicyKind) -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 16;
    c.with_split_policy(policy)
}

/// Write a clustered dataset: `clusters` base shapes plus per-series noise
/// of relative scale `noise`, so z-keys pile up on shared prefixes. Returns
/// the opened dataset and the raw series for the oracle.
fn skewed_dataset(
    dir: &TempDir,
    n: usize,
    clusters: usize,
    noise: f64,
    seed: u64,
) -> (Dataset, Vec<Vec<Value>>) {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("skew.bin");
    let bases: Vec<Vec<Value>> = (0..clusters)
        .map(|c| {
            let mut b = RandomWalkGen::new(seed.wrapping_mul(31) + c as u64).generate(LEN);
            znormalize(&mut b);
            b
        })
        .collect();
    let mut state = seed | 1;
    let mut all = Vec::with_capacity(n);
    let mut w = DatasetWriter::create(&path, LEN, true, Arc::clone(&stats)).unwrap();
    for i in 0..n {
        let base = &bases[i % clusters];
        let mut s: Vec<Value> = base
            .iter()
            .map(|&v| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * noise;
                v + u as Value
            })
            .collect();
        znormalize(&mut s);
        w.append(&s).unwrap();
        all.push(s);
    }
    w.finish().unwrap();
    (Dataset::open(&path, stats).unwrap(), all)
}

fn query(seed: u64) -> Vec<Value> {
    let mut q = RandomWalkGen::new(seed).generate(LEN);
    znormalize(&mut q);
    q
}

/// All `(pos, dist)` pairs sorted by distance — the oracle every index
/// answer is checked against.
fn oracle(all: &[Vec<Value>], q: &[Value]) -> Vec<(u64, f64)> {
    let mut d: Vec<(u64, f64)> = all
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, euclidean(q, s)))
        .collect();
    d.sort_by(|a, b| a.1.total_cmp(&b.1));
    d
}

/// Exact 1-NN, k-NN, and range answers from `trie` must match `other` (the
/// fixed baseline) bit-for-bit and the oracle by distance.
fn check_identical(trie: &CoconutTrie, other: &CoconutTrie, all: &[Vec<Value>], qseed: u64) {
    let q = query(qseed);
    let truth = oracle(all, &q);

    let (a, _) = trie.exact_search(&q).unwrap();
    let (f, _) = other.exact_search(&q).unwrap();
    prop_assert_eq!(a.pos, f.pos, "1-NN diverged across policies");
    prop_assert_eq!(a.dist.to_bits(), f.dist.to_bits(), "1-NN dist bits");
    prop_assert_eq!(a.pos, truth[0].0, "1-NN diverged from oracle");

    let k = 5.min(all.len());
    let (ka, _) = trie.exact_knn(&q, k).unwrap();
    let (kf, _) = other.exact_knn(&q, k).unwrap();
    prop_assert_eq!(ka.len(), kf.len());
    for (i, (x, y)) in ka.iter().zip(kf.iter()).enumerate() {
        prop_assert_eq!(x.pos, y.pos, "kNN[{}] pos diverged across policies", i);
        prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "kNN[{}] dist bits", i);
        prop_assert!(
            (x.dist - truth[i].1).abs() < 1e-6,
            "kNN[{}] dist {} vs oracle {}",
            i,
            x.dist,
            truth[i].1
        );
    }

    let eps = truth[k - 1].1 * 1.2;
    let (ra, _) = trie.exact_range(&q, eps).unwrap();
    let (rf, _) = other.exact_range(&q, eps).unwrap();
    let mut pa: Vec<u64> = ra.iter().map(|x| x.pos).collect();
    let mut pf: Vec<u64> = rf.iter().map(|x| x.pos).collect();
    let mut truth_in: Vec<u64> = truth
        .iter()
        .take_while(|&&(_, d)| d <= eps)
        .map(|&(p, _)| p)
        .collect();
    pa.sort_unstable();
    pf.sort_unstable();
    truth_in.sort_unstable();
    prop_assert_eq!(&pa, &pf, "range hit set diverged across policies");
    prop_assert_eq!(&pa, &truth_in, "range hit set diverged from oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adaptive and fixed tries over random clustered datasets answer every
    /// query identically — before and after a reopen of the adaptive index
    /// from its on-disk (multi-way) encoding.
    #[test]
    fn adaptive_is_answer_identical_on_skewed_data(
        n in 80usize..300,
        clusters in 1usize..6,
        noise in 0.005f64..0.08,
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-split").unwrap();
        let (ds, all) = skewed_dataset(&dir, n, clusters, noise, seed);
        let fixed = CoconutTrie::build(
            &ds,
            &config(SplitPolicyKind::Fixed),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        let adaptive = CoconutTrie::build(
            &ds,
            &config(SplitPolicyKind::Adaptive),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        for i in 0..4u64 {
            check_identical(&adaptive, &fixed, &all, seed ^ (i << 17) ^ 0x5EED);
        }

        // Reopen the adaptive index from disk: the recovered trie must be
        // structurally equal and answer-identical.
        let reopened = CoconutTrie::open(adaptive.index_path(), &ds, 2).unwrap();
        prop_assert_eq!(reopened.node_count(), adaptive.node_count());
        prop_assert_eq!(reopened.config().split_policy, SplitPolicyKind::Adaptive);
        prop_assert_eq!(reopened.leaf_entry_counts(), adaptive.leaf_entry_counts());
        for i in 0..2u64 {
            check_identical(&reopened, &fixed, &all, seed ^ (i << 23) ^ 0x0DD);
        }
    }

    /// An LSM index created with the adaptive policy keeps it through a
    /// simulated crash at any manifest fault site: recovery reads the
    /// policy byte back and keeps answering oracle-exact.
    #[test]
    fn adaptive_policy_survives_lsm_crash_recovery(
        kill in 0u8..3,
        seed in 0u64..1000,
    ) {
        let dir = TempDir::new("prop-split-lsm").unwrap();
        let (ds, all) = skewed_dataset(&dir, 120, 3, 0.02, seed);
        let idx_dir = dir.path().join("idx");
        let lsm = LsmCoconut::new(
            config(SplitPolicyKind::Adaptive),
            BuildOptions::default(),
            &idx_dir,
        )
        .unwrap();
        lsm.ingest_upto(&ds, 60).unwrap();
        lsm.wait_for_compactions().unwrap();
        let site = match kill {
            0 => "manifest.before",
            1 => "manifest.torn",
            _ => "manifest.after",
        };
        let plan = FaultPlan::parse(&format!("{site}=err@1"), 0).unwrap();
        lsm.set_fault_plan(Some(Arc::new(plan)));
        let err = lsm.ingest_upto(&ds, 120).expect_err("armed crash must fire");
        prop_assert!(err.to_string().contains(site), "{}", err);
        drop(lsm);

        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        prop_assert_eq!(
            lsm.config().split_policy,
            SplitPolicyKind::Adaptive,
            "policy byte must survive crash recovery"
        );
        let covered = lsm.covered_end() as usize;
        prop_assert!(covered == 60 || covered == 120, "covered {}", covered);
        let q = query(seed ^ 0xCAFE);
        let (ans, _) = lsm.exact(&q).unwrap();
        let truth = oracle(&all[..covered], &q);
        prop_assert_eq!(ans.pos, truth[0].0);

        // Catching up after recovery works and stays oracle-exact.
        lsm.ingest_upto(&ds, 120).unwrap();
        let q = query(seed ^ 0xF00D);
        let (ans, _) = lsm.exact(&q).unwrap();
        prop_assert_eq!(ans.pos, oracle(&all, &q)[0].0);
    }
}
