//! Leaf occupancy of the adaptive split policy on skewed data: over a
//! clustered 6,000 × 128 dataset, where binary prefix splitting fragments
//! the dense key neighborhoods into near-empty leaves, the adaptive trie's
//! 10th-percentile leaf fill must be at least the fixed trie's and at
//! least the committed `results/BENCH_occupancy.json` value. The build is
//! deterministic, so the baseline holds exactly. Answer identity across
//! policies is `prop_split.rs`'s job.

use std::sync::Arc;

use coconut_core::{BuildOptions, CoconutTrie, IndexConfig, SplitPolicyKind};
use coconut_series::dataset::{Dataset, DatasetWriter};
use coconut_series::distance::znormalize;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::Value;
use coconut_storage::{IoStats, TempDir};

/// The committed skewed-dataset fill. Read, never written: to re-baseline,
/// edit the file by hand — a failing gate prints the measured value.
const BASELINE: &str = include_str!("../../../results/BENCH_occupancy.json");

const N: usize = 6_000;
const LEN: usize = 128;
const LEAF: usize = 100;

/// Clusters in the skewed dataset (each a dense key neighborhood).
const CLUSTERS: usize = 6;

/// Relative noise around each cluster's base shape: wide enough that keys
/// stay distinct, narrow enough that binary splitting fragments them.
const NOISE: f64 = 0.12;

/// `CLUSTERS` random-walk base shapes; each series a noisy copy of one.
fn skewed_dataset(dir: &TempDir) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("clustered.ds");
    let bases: Vec<Vec<Value>> = (0..CLUSTERS)
        .map(|c| {
            let mut b = RandomWalkGen::new(13 * 31 + c as u64).generate(LEN);
            znormalize(&mut b);
            b
        })
        .collect();
    let mut state = 13u64 | 1;
    let mut w = DatasetWriter::create(&path, LEN, true, Arc::clone(&stats)).unwrap();
    for i in 0..N {
        let mut s: Vec<Value> = bases[i % CLUSTERS]
            .iter()
            .map(|&v| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * NOISE;
                v + u as Value
            })
            .collect();
        znormalize(&mut s);
        w.append(&s).unwrap();
    }
    w.finish().unwrap();
    Dataset::open(&path, stats).unwrap()
}

/// The 10th-percentile leaf fill (entries / capacity).
fn p10_fill(trie: &CoconutTrie) -> f64 {
    let mut counts = trie.leaf_entry_counts();
    counts.sort_unstable();
    counts[counts.len() / 10] as f64 / trie.config().leaf_capacity as f64
}

/// Pull `skewed_adaptive_p10` out of a baseline (the workspace has no JSON
/// reader).
fn baseline_p10(json: &str) -> Option<f64> {
    let tail = json.split("\"skewed_adaptive_p10\":").nth(1)?;
    tail.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?
        .parse()
        .ok()
}

/// Fails unless the adaptive p10 is at least the fixed one and at least
/// the baseline's, with no tolerance.
fn p10_gate(baseline: &str, fixed: f64, adaptive: f64) -> Result<(), String> {
    let committed = baseline_p10(baseline).ok_or("baseline has no skewed_adaptive_p10")?;
    if adaptive < fixed {
        return Err(format!(
            "adaptive p10 fill {adaptive:.4} fell below fixed {fixed:.4} on the skewed dataset"
        ));
    }
    if adaptive < committed {
        return Err(format!(
            "skewed adaptive p10 fill regressed: {adaptive:.4} vs committed {committed:.4}"
        ));
    }
    Ok(())
}

#[test]
fn baseline_parse_extracts_p10() {
    let j = "{\n  \"gate\": {\"skewed_adaptive_p10\": 0.8125}\n}";
    assert_eq!(baseline_p10(j), Some(0.8125));
    assert_eq!(baseline_p10("{}"), None);
    assert!(p10_gate(j, 0.5, 0.8125).is_ok());
    assert!(p10_gate(j, 0.5, 0.8).is_err());
    assert!(p10_gate(j, 0.9, 0.85).is_err());
}

#[test]
fn adaptive_skewed_p10_fill_holds_the_committed_baseline() {
    let dir = TempDir::new("occupancy").unwrap();
    let ds = skewed_dataset(&dir);
    let opts = BuildOptions {
        memory_bytes: (ds.payload_bytes() / 2).max(1 << 20),
        materialized: false,
        threads: 4,
        shards: 1,
    };
    let mut p10 = [0.0; 2];
    for (slot, policy) in [SplitPolicyKind::Fixed, SplitPolicyKind::Adaptive]
        .into_iter()
        .enumerate()
    {
        let mut config = IndexConfig::default_for_len(LEN).with_split_policy(policy);
        config.leaf_capacity = LEAF;
        let trie = CoconutTrie::build(&ds, &config, dir.path(), opts.clone()).unwrap();
        p10[slot] = p10_fill(&trie);
    }
    p10_gate(BASELINE, p10[0], p10[1]).unwrap();
}
