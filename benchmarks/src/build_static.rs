//! `build_static`: the paper's headline, through the CLI alone. `coconut
//! build` children construct the indexes (pointer ctree / ctrie on the whole
//! dataset under a 16 MiB budget, materialized ctree on its first eighth);
//! `coconut query` children then open each index kind and answer.
//!
//! It is the only workload that runs the static `CoconutTree` /
//! `CoconutTrie` query paths and pays the index open on every query.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use coconut_series::distance::znormalize;
use coconut_series::gen::{Generator, RandomWalkGen};

use crate::common::{Env, Measured, LEAF, MEMORY_MB, SHARDS};
use crate::datagen::Rng;
use crate::oracle::{self, Check};
use crate::proc::{self, run_cli};
use crate::sched::{Class, KNN_K};
use crate::stats;

/// Share of the window spent on alternating pointer builds; one
/// materialized build follows, and `coconut query` children take the rest.
const POINTER_SHARE: f64 = 0.45;
/// Queries against the materialized index (each re-reads all its leaves).
const FULL_QUERIES: u64 = 2;

const CLI_TIMEOUT: Duration = Duration::from_secs(120);
/// `coconut query` prints distances with four decimals.
const CLI_TOL: f64 = 2e-4;

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// One `coconut build`; returns its wall seconds and the index file.
fn build(
    env: &Env,
    m: &mut Measured,
    index: &str,
    materialized: bool,
    data: &Path,
    dir_name: &str,
) -> Result<Option<(f64, PathBuf)>, String> {
    let dir = env.scratch.fresh(dir_name)?;
    let mut args = strings(&["build", "--index", index]);
    if materialized {
        args.push("--materialized".into());
    }
    args.extend(strings(&[
        "--memory-mb",
        &MEMORY_MB.to_string(),
        "--shards",
        &SHARDS.to_string(),
        "--leaf",
        &LEAF.to_string(),
        "--out-dir",
        &dir.to_string_lossy(),
        &data.to_string_lossy(),
    ]));
    let run = run_cli(&env.coconut, &args, &env.log, CLI_TIMEOUT)?;
    let idx = std::fs::read_dir(&dir).ok().and_then(|mut d| {
        d.find_map(|e| {
            e.ok()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "idx"))
        })
    });
    m.attempted += 1;
    match idx {
        Some(idx) if run.ok => Ok(Some((run.secs, idx))),
        _ => {
            m.fail(format!(
                "coconut build --index {index} failed: {}",
                run.stdout.trim()
            ));
            Ok(None)
        }
    }
}

/// The query `coconut query --seed S` makes for itself.
fn cli_query(seed: u64, len: usize) -> Vec<f32> {
    let mut q = RandomWalkGen::new(seed).generate(len);
    znormalize(&mut q);
    q
}

/// Parse `exact nearest: #P at D` or the `top-k nearest:` list.
fn parse_cli_answer(stdout: &str) -> Option<Vec<(u64, f64)>> {
    if let Some(line) = stdout.lines().find(|l| l.starts_with("exact nearest: #")) {
        let mut it = line["exact nearest: #".len()..].split(" at ");
        return Some(vec![(
            it.next()?.trim().parse().ok()?,
            it.next()?.trim().parse().ok()?,
        )]);
    }
    let hits: Option<Vec<(u64, f64)>> = stdout
        .lines()
        .filter_map(|l| l.trim().split_once(". #"))
        .map(|(_, rest)| {
            let (pos, dist) = rest.split_once("dist")?;
            Some((pos.trim().parse().ok()?, dist.trim().parse().ok()?))
        })
        .collect();
    hits.filter(|h| !h.is_empty())
}

pub fn run(env: &Env) -> Result<Measured, String> {
    let p = &env.params;
    let mut m = Measured::default();
    let part = p.part_key().n;
    let t0 = Instant::now();
    let spent = |t0: Instant| t0.elapsed().as_secs_f64();

    // Phase 1: alternating pointer builds under the 16 MiB budget.
    let (mut tree_s, mut trie_s) = (Vec::new(), Vec::new());
    let (mut tree_idx, mut trie_idx) = (None, None);
    while tree_s.is_empty() || spent(t0) < p.window * POINTER_SHARE {
        if let Some((secs, idx)) = build(env, &mut m, "ctree", false, &env.data, "ctree")? {
            tree_s.push(secs);
            tree_idx = Some(idx);
        }
        if let Some((secs, idx)) = build(env, &mut m, "ctrie", false, &env.data, "ctrie")? {
            trie_s.push(secs);
            trie_idx = Some(idx);
        }
        if m.failed > 0 || proc::interrupted() {
            return Ok(m);
        }
    }
    // Phase 2: one materialized build - an external sort of whole records.
    let Some((full_s, full_idx)) = build(env, &mut m, "ctree", true, &env.data_part, "ctree-full")?
    else {
        return Ok(m);
    };
    let (tree_idx, trie_idx) = (
        tree_idx.expect("a ctree was built"),
        trie_idx.expect("a ctrie was built"),
    );
    // For a static index the build is the set-up: the time until the data
    // can be queried.
    m.put("setup_s", stats::median(&tree_s), tree_s.len());
    m.put(
        "build_series_per_s",
        p.n as f64 / stats::median(&tree_s),
        tree_s.len(),
    );
    m.put(
        "build_trie_series_per_s",
        p.n as f64 / stats::median(&trie_s),
        trie_s.len(),
    );
    m.put("build_full_series_per_s", part as f64 / full_s, 1);
    let idx_bytes = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len()) as f64;
    m.put(
        "index_bytes_per_series",
        idx_bytes(&tree_idx) / p.n as f64,
        1,
    );
    m.put(
        "trie_index_bytes_per_series",
        idx_bytes(&trie_idx) / p.n as f64,
        1,
    );
    m.put(
        "full_index_bytes_per_series",
        idx_bytes(&full_idx) / part as f64,
        1,
    );

    // Phase 3: one `coconut query` child per query. Each class stays on one
    // index kind so its median is of one population: far and KNN on the
    // ctree (the CLI offers k-NN on ctrees only), near on the ctrie. The
    // ctrie's exact search and the materialized ctree get far queries of
    // their own, reported apart.
    let t_queries = Instant::now();
    let budget = (p.window - spent(t0)).max(p.window * 0.2);
    let mut lat: Vec<(&str, Class, f64)> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut j = 0u64;
    let mut full_left = FULL_QUERIES;
    loop {
        let rotation_done = lat.len() >= 8 && spent(t_queries) >= budget;
        if rotation_done && full_left == 0 {
            break;
        }
        let mut rng = Rng::keyed(p.seed, 5, j);
        let (kind, class, idx, data, covered) = if rotation_done {
            full_left -= 1;
            ("full", Class::Far, &full_idx, &env.data_part, part)
        } else {
            match j % 8 {
                1 | 5 => ("trie", Class::Near, &trie_idx, &env.data, p.n),
                3 | 7 => ("tree", Class::Knn, &tree_idx, &env.data, p.n),
                6 => ("trie", Class::Far, &trie_idx, &env.data, p.n),
                _ => ("tree", Class::Far, &tree_idx, &env.data, p.n),
            }
        };
        j += 1;
        let mut args = strings(&[
            "query",
            "--index",
            &idx.to_string_lossy(),
            "--data",
            &data.to_string_lossy(),
        ]);
        let qseed = rng.next_u64() >> 1;
        let member = rng.below(covered);
        match class {
            Class::Near => args.extend(strings(&["--pos", &member.to_string()])),
            Class::Far => args.extend(strings(&["--seed", &qseed.to_string()])),
            Class::Knn => args.extend(strings(&[
                "--seed",
                &qseed.to_string(),
                "--k",
                &KNN_K.to_string(),
            ])),
        }
        let run = run_cli(&env.coconut, &args, &env.log, CLI_TIMEOUT)?;
        m.attempted += 1;
        let Some(hits) = parse_cli_answer(&run.stdout).filter(|_| run.ok) else {
            m.fail(format!(
                "coconut query ({}) failed: {}",
                class.name(),
                run.stdout.trim()
            ));
            break;
        };
        lat.push((kind, class, run.secs * 1e3));
        match class {
            // `--pos P` asks for a member: it must come back at distance 0.
            Class::Near if hits[0] != (member, 0.0) => {
                m.fail(format!("--pos {member} answered {:?}", hits[0]))
            }
            Class::Near => {}
            _ => checks.push(Check {
                label: format!("cli {} query", class.name()),
                query: cli_query(qseed, p.len),
                want: if class == Class::Knn {
                    KNN_K.min(covered as usize)
                } else {
                    1
                },
                hits,
                covered,
                tol: CLI_TOL,
            }),
        }
        if proc::interrupted() {
            break;
        }
    }
    // The gated query metrics are over the pointer indexes' own classes.
    let of = |kind: &str, class: Class| -> Vec<f64> {
        lat.iter()
            .filter(|l| l.0 == kind && l.1 == class)
            .map(|l| l.2)
            .collect()
    };
    let (far, near, knn) = (
        of("tree", Class::Far),
        of("trie", Class::Near),
        of("tree", Class::Knn),
    );
    let all: Vec<f64> = [&far[..], &near[..], &knn[..]].concat();
    m.put(
        "query_qps",
        1e3 * all.len() as f64 / all.iter().sum::<f64>(),
        all.len(),
    );
    m.put("query_p50_ms", stats::median(&all), all.len());
    m.put("far_p50_ms", stats::median(&far), far.len());
    m.put("near_p50_ms", stats::median(&near), near.len());
    m.put("knn_p50_ms", stats::median(&knn), knn.len());
    let trie_far = of("trie", Class::Far);
    m.put("trie_far_p50_ms", stats::median(&trie_far), trie_far.len());
    let full_far = of("full", Class::Far);
    m.put("full_far_p50_ms", stats::median(&full_far), full_far.len());

    // Every far / KNN answer is re-derived from the raw file (the part
    // dataset is a prefix of the whole one).
    let t = Instant::now();
    let verdicts = oracle::verify(&env.data, p.len, &checks, proc::nproc(), p.break_oracle)?;
    m.put("oracle_checked", verdicts.len() as f64, verdicts.len());
    m.put("oracle_s", t.elapsed().as_secs_f64(), 1);
    for v in verdicts {
        m.attempt(v.map_or(Ok(()), Err));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_answers() {
        let exact = "exact nearest: #746515 at 3.8870\ntime 248.3 ms  (fetched 6974 records, pruned 999026, 1000000 lower bounds)\n";
        assert_eq!(parse_cli_answer(exact), Some(vec![(746515, 3.887)]));
        let knn = "top-10 nearest:\n  1. #910887     dist 4.7886\n  2. #409090     dist 4.8374\ntime 132.0 ms  (fetched 8991 records)\n";
        assert_eq!(
            parse_cli_answer(knn),
            Some(vec![(910887, 4.7886), (409090, 4.8374)])
        );
        assert_eq!(parse_cli_answer("error: no such file\n"), None);
    }
}
