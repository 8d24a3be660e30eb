//! Sustained streaming ingest: the write/read/space-amplification tradeoff
//! of the LSM subsystem, swept over compaction policy × writer count and
//! recorded to `results/BENCH_streaming.json` so the curves are tracked
//! PR over PR.
//!
//! Not a figure of the paper — it measures the workspace's LSM subsystem
//! (`coconut_core::lsm`, cf. the paper's future-work proposal and the
//! follow-up *"Sortable Summarizations for Static and Streaming Data
//! Series"*, which frames streaming data-series indexing around exactly
//! this amplification tradeoff). The raw file is revealed in equal batches;
//! each batch is ingested by N concurrent writer handles (group-committed
//! runs, one manifest fsync per fold) while tiered or leveled compaction
//! runs on the worker pool, and after each batch a fixed query workload
//! runs over the covered prefix. Per phase the experiment reports the live
//! run count (read amplification), cumulative write amplification and
//! space amplification; it times nothing (`benchmarks/` is the performance
//! record).
//!
//! **Every answer is checked against a brute-force oracle over the covered
//! prefix; any divergence fails the experiment** — CI runs this per PR, so
//! the streaming path cannot silently lose or corrupt data. Each
//! configuration then waits for compactions, fully compacts, verifies the
//! single remaining run is **bit-identical to a from-scratch bulk load**,
//! and re-verifies every answer. Final write/space amplification is gated
//! against the committed baseline: a regression beyond `AMP_TOLERANCE`×
//! hard-fails the run.

use std::fmt::Write as _;

use coconut_core::manifest::Manifest;
use coconut_core::{
    BuildOptions, CoconutTree, CompactionPolicyKind, IndexConfig, LsmCoconut, TieredPolicy,
};
use coconut_series::distance::euclidean;
use coconut_series::index::{Answer, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{Error, Result};
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind};
use crate::experiments::Env;
use crate::harness::Table;

/// Batches the raw file is revealed in.
const BATCHES: u64 = 8;

/// Writer counts swept per policy.
const WRITERS: [usize; 3] = [1, 2, 4];

/// Allowed multiplicative growth of final write/space amplification over
/// the committed baseline before the run hard-fails. Generous because
/// group-commit fold sizes (and therefore compaction work) depend on
/// thread timing; answer correctness is gated exactly, amplification
/// within an envelope.
const AMP_TOLERANCE: f64 = 1.6;

/// The amplification after one ingest-then-query phase.
struct Phase {
    covered: u64,
    runs: usize,
    write_amp: f64,
    space_amp: f64,
}

/// One policy × writer-count configuration's full result.
struct Config {
    id: String,
    policy: CompactionPolicyKind,
    writers: usize,
    phases: Vec<Phase>,
    final_write_amp: f64,
    final_space_amp: f64,
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

/// Pull `"{key}": <float>` out of a committed baseline (hand-rolled: the
/// workspace has no JSON reader).
fn baseline_value(json: &str, key: &str) -> Option<f64> {
    let tail = json.split(&format!("\"{key}\":")).nth(1)?;
    tail.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .next()?
        .parse()
        .ok()
}

/// Run one policy × writer-count configuration.
#[allow(clippy::too_many_arguments)]
fn run_config(
    env: &Env,
    dataset: &coconut_series::dataset::Dataset,
    all: &[Vec<Value>],
    queries: &[Vec<Value>],
    config: &IndexConfig,
    opts: &BuildOptions,
    reference_index: &[u8],
    policy: CompactionPolicyKind,
    writers: usize,
) -> Result<Config> {
    let id = format!("{policy}_w{writers}");
    let idx_dir = env.work_dir.join(format!("streaming-lsm-{id}"));
    // A fresh directory per invocation: the experiment measures ingest from
    // scratch (recovery is covered by the test suites).
    if idx_dir.exists() {
        std::fs::remove_dir_all(&idx_dir)?;
    }
    let lsm = LsmCoconut::create(*config, opts.clone(), &idx_dir, 0, policy)?;
    if policy == CompactionPolicyKind::Tiered {
        // The tuned tiered policy the old single-writer baseline used.
        lsm.set_policy(Box::new(TieredPolicy {
            size_ratio: 4,
            tier_runs: 3,
            max_runs: 6,
        }));
    }

    let n = dataset.len();
    let batch = n.div_ceil(BATCHES).max(1);
    let mut phases: Vec<Phase> = Vec::new();
    let mut covered = 0u64;
    while covered < n {
        let upto = (covered + batch).min(n);
        if writers == 1 {
            lsm.ingest_upto(dataset, upto)?;
        } else {
            // Each writer claims the next slice of the revealed prefix and
            // builds its run concurrently; completed runs group-commit.
            let step = ((upto - covered) / (writers as u64 * 2)).max(1);
            let lsm_ref = &lsm;
            std::thread::scope(|s| -> Result<()> {
                let handles: Vec<_> = (0..writers)
                    .map(|_| {
                        s.spawn(move || -> Result<()> {
                            let w = lsm_ref.writer();
                            while w.ingest_next_upto(dataset, upto, step)?.is_some() {}
                            Ok(())
                        })
                    })
                    .collect();
                for h in handles {
                    h.join()
                        .map_err(|_| Error::invalid("an ingest writer panicked"))??;
                }
                Ok(())
            })?;
        }
        covered = upto;
        let prefix = &all[..covered as usize];

        for (qi, q) in queries.iter().enumerate() {
            let (ans, _) = lsm.exact(q)?;
            let oracle = brute_force(prefix, q);
            if ans.pos != oracle.pos {
                return Err(Error::corrupt(format!(
                    "streaming divergence ({id}) at covered={covered}, query {qi}: \
                     LSM answered #{} at {:.6}, oracle #{} at {:.6}",
                    ans.pos, ans.dist, oracle.pos, oracle.dist
                )));
            }
        }
        phases.push(Phase {
            covered,
            runs: lsm.run_count(),
            write_amp: lsm.write_amplification(),
            space_amp: lsm.space_amplification(),
        });
    }

    // Settle and fully compact; answers must survive both, and the single
    // remaining run must be bit-identical to a from-scratch bulk load.
    lsm.wait_for_compactions()?;
    lsm.compact()?;
    if lsm.run_count() != 1 {
        return Err(Error::corrupt(format!(
            "full compaction ({id}) left more than one run"
        )));
    }
    for (qi, q) in queries.iter().enumerate() {
        let (ans, _) = lsm.exact(q)?;
        let oracle = brute_force(all, q);
        if ans.pos != oracle.pos {
            return Err(Error::corrupt(format!(
                "post-compaction divergence ({id}) on query {qi}"
            )));
        }
    }
    let manifest = Manifest::load(&idx_dir)?;
    let run_file = manifest
        .runs
        .first()
        .ok_or_else(|| Error::corrupt("compacted index lists no runs"))?;
    let compacted = std::fs::read(idx_dir.join(&run_file.file))?;
    if compacted != reference_index {
        return Err(Error::corrupt(format!(
            "full compaction ({id}) is not bit-identical to a from-scratch \
             build ({} vs {} bytes)",
            compacted.len(),
            reference_index.len()
        )));
    }

    Ok(Config {
        id,
        policy,
        writers,
        phases,
        final_write_amp: lsm.write_amplification(),
        final_space_amp: lsm.space_amplification(),
    })
}

/// Run the sweep and write `BENCH_streaming.json`.
pub fn run(env: &Env) -> Result<()> {
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries.clamp(1, 10),
        11,
    )?;
    let config = IndexConfig {
        sax: SaxConfig::default_for_len(env.scale.series_len),
        leaf_capacity: env.scale.leaf_capacity,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: coconut_core::SplitPolicyKind::Fixed,
    };
    let opts = BuildOptions {
        memory_bytes: (w.dataset.payload_bytes() / 2).max(1 << 20),
        materialized: false,
        threads: env.scale.threads,
        shards: 1,
    };

    // Read the committed baseline before this run overwrites it.
    let baseline_path = env.results_dir.join("BENCH_streaming.json");
    let baseline = std::fs::read_to_string(&baseline_path).ok();

    // The oracle prefix and the from-scratch reference build are shared by
    // every configuration (the reference is policy-independent: full
    // compaction must reproduce it bit for bit regardless of history).
    let n = w.dataset.len();
    let mut all: Vec<Vec<Value>> = Vec::with_capacity(n as usize);
    for p in 0..n {
        all.push(w.dataset.get(p)?);
    }
    let ref_dir = coconut_storage::TempDir::new("streaming-ref")?;
    let reference = CoconutTree::build(&w.dataset, &config, ref_dir.path(), opts.clone())?;
    let reference_index = std::fs::read(reference.index_path())?;

    let mut configs: Vec<Config> = Vec::new();
    for policy in CompactionPolicyKind::ALL {
        for writers in WRITERS {
            configs.push(run_config(
                env,
                &w.dataset,
                &all,
                &w.queries,
                &config,
                &opts,
                &reference_index,
                policy,
                writers,
            )?);
        }
    }

    // Gate final amplification against the committed baseline (when one
    // with amp curves exists).
    if let Some(prior) = &baseline {
        for c in &configs {
            for (what, new) in [
                ("write_amp", c.final_write_amp),
                ("space_amp", c.final_space_amp),
            ] {
                let key = format!("{}_{what}", c.id);
                if let Some(old) = baseline_value(prior, &key) {
                    if new > old * AMP_TOLERANCE {
                        return Err(Error::invalid(format!(
                            "streaming {what} regression ({}): {new:.3} vs \
                             committed {old:.3} (tolerance {AMP_TOLERANCE}x)",
                            c.id
                        )));
                    }
                }
            }
        }
    }

    let mut table = Table::new(
        "streaming",
        "LSM streaming ingest: amplification curves per policy x writer count",
        &[
            "policy",
            "writers",
            "covered",
            "runs",
            "write_amp",
            "space_amp",
        ],
    );
    for c in &configs {
        for p in &c.phases {
            table.push_row(vec![
                c.policy.to_string(),
                c.writers.to_string(),
                p.covered.to_string(),
                p.runs.to_string(),
                format!("{:.3}", p.write_amp),
                format!("{:.3}", p.space_amp),
            ]);
        }
    }
    table.emit(&env.results_dir)?;
    println!(
        "   oracle check: {} queries x {} phases x {} configs identical to \
         brute force; every full compaction bit-identical to the \
         from-scratch build\n",
        w.queries.len(),
        BATCHES,
        configs.len()
    );

    // Hand-rolled JSON (no serde in the offline workspace); flat
    // `<config>_<metric>` keys keep the baseline gate's parser trivial and
    // the file diffable PR over PR.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"streaming\",");
    let _ = writeln!(json, "  \"series\": {n},");
    let _ = writeln!(json, "  \"series_len\": {},", env.scale.series_len);
    let _ = writeln!(json, "  \"batches\": {BATCHES},");
    let _ = writeln!(json, "  \"queries_per_phase\": {},", w.queries.len());
    let _ = writeln!(json, "  \"amp_tolerance\": {AMP_TOLERANCE},");
    for c in &configs {
        let _ = writeln!(json, "  \"{}_write_amp\": {:.3},", c.id, c.final_write_amp);
        let _ = writeln!(json, "  \"{}_space_amp\": {:.3},", c.id, c.final_space_amp);
    }
    json.push_str("  \"configs\": [\n");
    for (ci, c) in configs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"id\": \"{}\",", c.id);
        let _ = writeln!(json, "      \"policy\": \"{}\",", c.policy);
        let _ = writeln!(json, "      \"writers\": {},", c.writers);
        json.push_str("      \"phases\": [\n");
        for (i, p) in c.phases.iter().enumerate() {
            let _ = write!(
                json,
                "        {{\"covered\": {}, \"runs\": {}, \"write_amp\": {:.3}, \
                 \"space_amp\": {:.3}}}",
                p.covered, p.runs, p.write_amp, p.space_amp
            );
            json.push_str(if i + 1 < c.phases.len() { ",\n" } else { "\n" });
        }
        json.push_str("      ]\n");
        json.push_str("    }");
        json.push_str(if ci + 1 < configs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all(&env.results_dir)?;
    std::fs::write(&baseline_path, json)?;
    println!("wrote {}", baseline_path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    #[test]
    fn streaming_runs_verifies_and_writes_outputs() {
        let (w, r) = (
            TempDir::new("streaming-w").unwrap(),
            TempDir::new("streaming-r").unwrap(),
        );
        let env = Env {
            work_dir: w.path().to_path_buf(),
            results_dir: r.path().to_path_buf(),
            scale: crate::experiments::Scale {
                n: 600,
                series_len: 64,
                queries: 3,
                leaf_capacity: 32,
                threads: 2,
            },
        };
        run(&env).unwrap();
        let csv = std::fs::read_to_string(r.path().join("streaming.csv")).unwrap();
        assert!(csv.starts_with("policy,writers,covered"));
        // 2 policies x 3 writer counts x 8 phases + header.
        assert_eq!(csv.lines().count(), 1 + 2 * 3 * 8, "{csv}");
        let json = std::fs::read_to_string(r.path().join("BENCH_streaming.json")).unwrap();
        assert!(json.contains("\"experiment\": \"streaming\""));
        for id in [
            "tiered_w1",
            "tiered_w2",
            "tiered_w4",
            "leveled_w1",
            "leveled_w2",
            "leveled_w4",
        ] {
            assert!(json.contains(&format!("\"id\": \"{id}\"")), "{json}");
            assert!(json.contains(&format!("\"{id}_write_amp\"")), "{json}");
        }

        // A doctored baseline with a much lower committed write-amp makes
        // the regression gate fire.
        let doctored = json.replace(
            json.lines()
                .find(|l| l.contains("\"tiered_w1_write_amp\""))
                .unwrap(),
            "  \"tiered_w1_write_amp\": 0.100,",
        );
        std::fs::write(r.path().join("BENCH_streaming.json"), doctored).unwrap();
        let err = run(&env).unwrap_err();
        assert!(err.to_string().contains("regression"), "{err}");
    }

    #[test]
    fn baseline_parser_reads_flat_keys() {
        let json = "{\n  \"tiered_w1_write_amp\": 1.625,\n  \"x\": 2\n}";
        assert_eq!(baseline_value(json, "tiered_w1_write_amp"), Some(1.625));
        assert_eq!(baseline_value(json, "missing"), None);
    }
}
