//! Streaming-ingest integration tests at the facade level: the README's
//! "Streaming ingest" walkthrough (batch ingest → crash → `open()` recovery
//! → query), run against the public API end to end, and the writer-count
//! sweep gated on `results/BENCH_streaming.json`.

use std::sync::Arc;

use coconut::baselines::SerialScan;
use coconut::index::manifest::Manifest;
use coconut::prelude::*;
use coconut::series::distance::{euclidean, znormalize};
use coconut::series::gen::make_queries;
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

/// The committed final amplification of the sweep below. Read, never
/// written: to re-baseline, edit the file by hand — a failing gate prints
/// the measured value.
const AMP_BASELINE: &str = include_str!("../results/BENCH_streaming.json");

/// Allowed growth of final write/space amplification over the baseline.
/// Generous because group-commit fold sizes (and therefore compaction
/// work) depend on thread timing; answers are gated exactly.
const AMP_TOLERANCE: f64 = 1.6;

/// Pull `"{key}": <float>` out of a baseline (the workspace has no JSON
/// reader).
fn baseline_value(json: &str, key: &str) -> Option<f64> {
    let tail = json.split(&format!("\"{key}\":")).nth(1)?;
    tail.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?
        .parse()
        .ok()
}

/// Fails when a configuration's final `(write_amp, space_amp)` exceeds
/// `AMP_TOLERANCE` × its `<id>_write_amp` / `<id>_space_amp` in `baseline`.
fn amp_gate(baseline: &str, finals: &[(String, f64, f64)]) -> Result<(), String> {
    for (id, write_amp, space_amp) in finals {
        for (what, new) in [("write_amp", write_amp), ("space_amp", space_amp)] {
            let key = format!("{id}_{what}");
            let old = baseline_value(baseline, &key).ok_or(format!("baseline has no {key}"))?;
            if *new > old * AMP_TOLERANCE {
                return Err(format!(
                    "streaming {what} regression ({id}): {new:.3} vs committed \
                     {old:.3} (tolerance {AMP_TOLERANCE}x)"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn baseline_parser_reads_flat_keys() {
    let json = "{\n  \"tiered_w1_write_amp\": 1.625,\n  \"x\": 2\n}";
    assert_eq!(baseline_value(json, "tiered_w1_write_amp"), Some(1.625));
    assert_eq!(baseline_value(json, "missing"), None);
}

/// {1, 2, 4} group-committed writers under the size-tiered policy ingest a
/// 6,000 × 128 dataset in 8 batches. After each batch every query must
/// match a brute-force scan of the covered prefix; a full compaction must
/// leave one run bit-identical to a from-scratch build; final write/space
/// amplification must stay within the committed baseline.
#[test]
fn policy_writer_sweep_is_exact_and_within_amp_baseline() {
    const N: u64 = 6_000;
    const SWEEP_LEN: usize = 128;
    const BATCHES: u64 = 8;

    let dir = TempDir::new("streaming-sweep").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(11), N, SWEEP_LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let queries = make_queries(&mut RandomWalkGen::new(11 ^ 0x5eed_cafe), 10, SWEEP_LEN);
    let all: Vec<Vec<f32>> = (0..N).map(|p| dataset.get(p).unwrap()).collect();
    let brute_force = |prefix: &[Vec<f32>], q: &[f32]| {
        let mut best = Answer::none();
        for (i, s) in prefix.iter().enumerate() {
            best.merge(Answer {
                pos: i as u64,
                dist: euclidean(q, s),
            });
        }
        best.pos
    };

    let mut config = IndexConfig::default_for_len(SWEEP_LEN);
    config.leaf_capacity = 100;
    let opts = BuildOptions {
        memory_bytes: (dataset.payload_bytes() / 2).max(1 << 20),
        materialized: false,
        threads: 4,
        shards: 1,
    };
    // Full compaction must reproduce this bit for bit, whatever the history.
    let reference = CoconutTree::build(&dataset, &config, dir.path(), opts.clone()).unwrap();
    let reference = std::fs::read(reference.index_path()).unwrap();

    let mut finals = Vec::new();
    for writers in [1usize, 2, 4] {
        let id = format!("tiered_w{writers}");
        let idx_dir = dir.path().join(&id);
        let lsm = LsmCoconut::new(config, opts.clone(), &idx_dir).unwrap();
        lsm.set_policy(Box::new(TieredPolicy {
            size_ratio: 4,
            tier_runs: 3,
            max_runs: 6,
        }));
        let batch = N.div_ceil(BATCHES);
        let mut covered = 0u64;
        while covered < N {
            let upto = (covered + batch).min(N);
            if writers == 1 {
                lsm.ingest_upto(&dataset, upto).unwrap();
            } else {
                // Each writer claims the next slice of the revealed
                // prefix; completed runs group-commit.
                let step = ((upto - covered) / (writers as u64 * 2)).max(1);
                std::thread::scope(|s| {
                    for _ in 0..writers {
                        s.spawn(|| {
                            let w = lsm.writer();
                            while w.ingest_next_upto(&dataset, upto, step).unwrap().is_some() {}
                        });
                    }
                });
            }
            covered = upto;
            for (qi, q) in queries.iter().enumerate() {
                let want = brute_force(&all[..covered as usize], q);
                let got = lsm.exact(q).unwrap().0;
                assert_eq!(got.pos, want, "{id} covered={covered} query {qi}: {got:?}");
            }
        }

        lsm.wait_for_compactions().unwrap();
        lsm.compact().unwrap();
        assert_eq!(
            lsm.run_count(),
            1,
            "{id}: full compaction left several runs"
        );
        for (qi, q) in queries.iter().enumerate() {
            let got = lsm.exact(q).unwrap().0;
            assert_eq!(got.pos, brute_force(&all, q), "{id} compacted, query {qi}");
        }
        let manifest = Manifest::load(&idx_dir).unwrap();
        let compacted = std::fs::read(idx_dir.join(&manifest.runs[0].file)).unwrap();
        assert!(
            compacted == reference,
            "{id}: full compaction is not bit-identical to a from-scratch build \
             ({} vs {} bytes)",
            compacted.len(),
            reference.len()
        );
        finals.push((id, lsm.write_amplification(), lsm.space_amplification()));
    }

    amp_gate(AMP_BASELINE, &finals).unwrap();
    // The gate fires on a doctored baseline with a far lower write amp.
    let line = AMP_BASELINE
        .lines()
        .find(|l| l.contains("\"tiered_w1_write_amp\""))
        .unwrap();
    let doctored = AMP_BASELINE.replace(line, "  \"tiered_w1_write_amp\": 0.100,");
    let err = amp_gate(&doctored, &finals).unwrap_err();
    assert!(err.contains("regression"), "{err}");
}
