//! `repro distributed` — the distributed shard fabric, end to end over
//! real processes: K shard workers are spawned as child processes (the
//! `repro` binary re-execs itself as `__shard-worker`), a coordinator
//! scatter-gathers over them through TCP, and **every** `EXACT`/`KNN`/
//! `RANGE` answer is checked bit-for-bit against two oracles:
//!
//! 1. the in-process `ShardSet<LocalShard>` with the *same* K-way
//!    partition map (same merge code, no wire) — any divergence here is a
//!    wire-protocol bug;
//! 2. a single whole-dataset index — any divergence here is a
//!    partitioning/merge bug.
//!
//! The acceptance bar is zero divergences and zero hangs for
//! K ∈ {1, 2, 4}. It times nothing: `benchmarks/` is the performance
//! record.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::backend::partition;
use coconut_core::{BuildOptions, IndexConfig, LocalShard, LsmCoconut, Query, ShardSet, Snapshot};
use coconut_series::dataset::Dataset;
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_server::{ClientConfig, CoordinatorEngine, Server, ServerConfig};
use coconut_storage::{Deadline, Error, IoStats, Result};
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind};
use crate::experiments::Env;

/// Shard counts exercised per run.
const SHARD_COUNTS: &[usize] = &[1, 2, 4];

/// k for the kNN queries.
const KNN_K: usize = 5;

/// Per-request deadline — generous; hitting it means a real hang.
const DEADLINE_MS: u64 = 30_000;

/// The index/build configuration every node (worker, oracle, single)
/// uses, so indexes differ only in their base offset.
pub(crate) fn index_config(series_len: usize, leaf: usize) -> IndexConfig {
    IndexConfig {
        sax: SaxConfig::default_for_len(series_len),
        leaf_capacity: leaf,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: coconut_core::SplitPolicyKind::Fixed,
    }
}

fn build_opts(threads: usize) -> BuildOptions {
    BuildOptions {
        memory_bytes: 64 << 20,
        materialized: false,
        threads,
        shards: 1,
    }
}

/// Entry point for the `__shard-worker` re-exec: serve one shard until the
/// parent kills the process. Prints `SHARD LISTENING <addr>` once bound so
/// the parent can scrape the port.
pub fn worker_main(args: &[String]) -> Result<()> {
    // The chaos experiment hands workers a fault schedule through
    // `COCONUT_FAULTS`; without one this is a no-op.
    coconut_storage::fault::install_from_env()?;
    let mut data = None;
    let mut index_dir = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut leaf = 100usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| Error::invalid(format!("__shard-worker: missing value for {a}")))
        };
        match a.as_str() {
            "--data" => data = Some(val()?),
            "--index-dir" => index_dir = Some(val()?),
            "--addr" => addr = val()?,
            "--leaf" => {
                leaf = val()?
                    .parse()
                    .map_err(|_| Error::invalid("__shard-worker: bad --leaf"))?
            }
            other => {
                return Err(Error::invalid(format!(
                    "__shard-worker: unknown argument {other}"
                )))
            }
        }
    }
    let data = data.ok_or_else(|| Error::invalid("__shard-worker: --data is required"))?;
    let index_dir =
        index_dir.ok_or_else(|| Error::invalid("__shard-worker: --index-dir is required"))?;
    let ds = Dataset::open(Path::new(&data), Arc::new(IoStats::new()))?;
    let opts = build_opts(2);
    let recovered = if coconut_core::manifest::Manifest::path_in(Path::new(&index_dir)).exists() {
        Some(Arc::new(LsmCoconut::open(
            Path::new(&index_dir),
            &ds,
            opts.clone(),
        )?))
    } else {
        None
    };
    let config = index_config(ds.series_len(), leaf);
    let engine = Arc::new(coconut_server::Engine::new_shard(
        ds,
        &index_dir,
        config,
        opts,
        recovered,
        Some(Duration::from_millis(DEADLINE_MS)),
    ));
    let server = Server::start(
        engine,
        &ServerConfig {
            addr,
            workers: 4,
            queue: 16,
            default_deadline_ms: Some(DEADLINE_MS),
            idle_timeout_ms: None,
        },
    )?;
    println!("SHARD LISTENING {}", server.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| Error::invalid(format!("__shard-worker: flush: {e}")))?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// A spawned shard-worker process, killed on drop so a failing run never
/// leaks children.
pub(crate) struct WorkerProc {
    child: Child,
    pub(crate) addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `repro __shard-worker` for one slice and scrape its bound port.
/// `envs` lets the chaos experiment hand the worker a fault schedule;
/// inherited fault variables are always scrubbed first so an operator's
/// environment cannot leak into a clean run.
pub(crate) fn spawn_worker(
    data: &Path,
    index_dir: &Path,
    leaf: usize,
    envs: &[(&str, String)],
) -> Result<WorkerProc> {
    let exe = std::env::current_exe()
        .map_err(|e| Error::invalid(format!("cannot locate the repro binary: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.arg("__shard-worker")
        .arg("--data")
        .arg(data)
        .arg("--index-dir")
        .arg(index_dir)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--leaf")
        .arg(leaf.to_string())
        .env_remove("COCONUT_FAULTS")
        .env_remove("COCONUT_FAULT_SEED")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| Error::invalid(format!("cannot spawn a shard worker: {e}")))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("SHARD LISTENING ") {
                    return Ok(WorkerProc {
                        child,
                        addr: addr.trim().to_string(),
                    });
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                return Err(Error::invalid(format!("shard worker stdout: {e}")));
            }
            None => {
                let _ = child.kill();
                return Err(Error::invalid(
                    "shard worker exited before announcing its port",
                ));
            }
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err(Error::invalid("shard worker took too long to bind"));
        }
    }
}

/// Serialize a query the way the wire expects (`f32` shortest roundtrip).
pub(crate) fn fmt_query(q: &[Value]) -> String {
    let mut out = String::from("q=v:");
    for (i, v) in q.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

pub(crate) fn field<'a>(reply: &'a str, key: &str) -> Result<&'a str> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .ok_or_else(|| Error::corrupt(format!("reply is missing {key} in {reply:?}")))
}

pub(crate) fn parse_answer(reply: &str) -> Result<Answer> {
    let pos = field(reply, "pos=")?;
    if pos == "none" {
        return Ok(Answer::none());
    }
    Ok(Answer {
        pos: pos
            .parse()
            .map_err(|_| Error::corrupt(format!("bad pos in {reply:?}")))?,
        dist: field(reply, "dist=")?
            .parse()
            .map_err(|_| Error::corrupt(format!("bad dist in {reply:?}")))?,
    })
}

pub(crate) fn parse_hits(reply: &str) -> Result<Vec<Answer>> {
    let hits = field(reply, "hits=")?;
    if hits == "none" {
        return Ok(Vec::new());
    }
    hits.split(',')
        .map(|pair| {
            let (pos, dist) = pair
                .split_once(':')
                .ok_or_else(|| Error::corrupt(format!("bad hit {pair:?}")))?;
            Ok(Answer {
                pos: pos
                    .parse()
                    .map_err(|_| Error::corrupt(format!("bad hit pos {pos:?}")))?,
                dist: dist
                    .parse()
                    .map_err(|_| Error::corrupt(format!("bad hit dist {dist:?}")))?,
            })
        })
        .collect()
}

/// Two answers are identical iff position and distance *bits* match.
pub(crate) fn same_answer(a: &Answer, b: &Answer) -> bool {
    (a.pos == b.pos && a.dist.to_bits() == b.dist.to_bits()) || (!a.is_some() && !b.is_some())
}

pub(crate) fn same_hits(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_answer(x, y))
}

/// One round-trip over the coordinator connection.
fn round_trip(
    out: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String> {
    out.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| Error::invalid(format!("coordinator send: {e}")))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| Error::invalid(format!("coordinator recv: {e}")))?;
    if reply.is_empty() {
        return Err(Error::invalid("coordinator closed the connection"));
    }
    let reply = reply.trim().to_string();
    reply
        .strip_prefix("OK ")
        .map(String::from)
        .ok_or_else(|| Error::corrupt(format!("coordinator answered {reply:?}")))
}

/// What one K-configuration counted.
struct KReport {
    requests: usize,
    divergences: usize,
}

/// Build the in-process oracle: the same K-way partition over
/// `LocalShard`s (fresh directories under `tag`).
fn local_oracle(
    env: &Env,
    ds: &Dataset,
    k: usize,
    leaf: usize,
    tag: &str,
) -> Result<ShardSet<LocalShard>> {
    let n = ds.len();
    let mut shards = Vec::with_capacity(k);
    for (i, range) in partition(n, k).into_iter().enumerate() {
        let dir = env.work_dir.join(format!("dist-{tag}-k{k}-s{i}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let lsm = LsmCoconut::new_based(
            index_config(ds.series_len(), leaf),
            build_opts(2),
            &dir,
            range.start,
        )?;
        shards.push(LocalShard::new(Arc::new(lsm), ds.clone(), range)?);
    }
    let set = ShardSet::new(shards)?;
    set.build(n)?;
    Ok(set)
}

/// Run one K-configuration: spawn workers, coordinate, query, verify.
fn run_k(
    env: &Env,
    data_path: &Path,
    ds: &Dataset,
    queries: &[Vec<Value>],
    single: &Snapshot,
    k: usize,
) -> Result<KReport> {
    let n = ds.len();
    let leaf = env.scale.leaf_capacity;

    // The wire-free oracle with the same partition map.
    let oracle = local_oracle(env, ds, k, leaf, "oracle")?;

    // K worker processes, each with a fresh slice directory.
    let mut workers = Vec::with_capacity(k);
    for i in 0..k {
        let dir = env.work_dir.join(format!("dist-worker-k{k}-s{i}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        workers.push(spawn_worker(data_path, &dir, leaf, &[])?);
    }
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();

    // The coordinator, served over real TCP like any node.
    let engine = Arc::new(CoordinatorEngine::new(
        &addrs,
        ds.clone(),
        ClientConfig::default(),
        Some(Duration::from_millis(DEADLINE_MS)),
    )?);
    let mut server = Server::start(engine, &ServerConfig::default())?;
    let addr = server.addr();

    let out = TcpStream::connect(addr)
        .map_err(|e| Error::invalid(format!("coordinator connect: {e}")))?;
    let mut reader = BufReader::new(
        out.try_clone()
            .map_err(|e| Error::invalid(format!("coordinator clone: {e}")))?,
    );
    let mut out = out;

    // Dispatch the build: every shard indexes its slice.
    let build = round_trip(&mut out, &mut reader, &format!("BUILD start=0 end={n}"))?;
    let covered = field(&build, "covered=")?
        .parse::<u64>()
        .map_err(|_| Error::corrupt(format!("bad covered in {build:?}")))?;
    if covered != n {
        return Err(Error::corrupt(format!(
            "coordinated build covered {covered} of {n} series"
        )));
    }

    let mut report = KReport {
        requests: 0,
        divergences: 0,
    };
    for q in queries {
        let qs = fmt_query(q);

        // EXACT: remote vs same-K oracle vs single index, bit for bit.
        let reply = round_trip(
            &mut out,
            &mut reader,
            &format!("EXACT {qs} deadline_ms={DEADLINE_MS}"),
        )?;
        report.requests += 1;
        let remote = parse_answer(&reply)?;
        let local = oracle.exact(q, Deadline::NONE)?;
        let (single_ans, _) = single.exact(q, Deadline::NONE)?;
        if !same_answer(&remote, &local) || !same_answer(&remote, &single_ans) {
            report.divergences += 1;
            eprintln!(
                "EXACT diverged (k={k}): remote {remote:?} local {local:?} single {single_ans:?}"
            );
        }

        // KNN.
        let reply = round_trip(
            &mut out,
            &mut reader,
            &format!("KNN k={KNN_K} {qs} deadline_ms={DEADLINE_MS}"),
        )?;
        report.requests += 1;
        let remote = parse_hits(&reply)?;
        let local = oracle.search(q, &Query::knn(KNN_K), false)?.value;
        let (single_hits, _) = single.exact_knn(q, KNN_K, Deadline::NONE)?;
        if !same_hits(&remote, &local) || !same_hits(&remote, &single_hits) {
            report.divergences += 1;
            eprintln!("KNN diverged (k={k}): remote {remote:?} local {local:?}");
        }

        // RANGE, with a radius derived from the true 1-NN so hit lists are
        // non-trivial but bounded.
        let eps = if single_ans.is_some() && single_ans.dist.is_finite() {
            (single_ans.dist * 1.25).max(1e-3)
        } else {
            1.0
        };
        let reply = round_trip(
            &mut out,
            &mut reader,
            &format!("RANGE eps={eps} {qs} deadline_ms={DEADLINE_MS}"),
        )?;
        report.requests += 1;
        let remote = parse_hits(&reply)?;
        let local = oracle.search(q, &Query::range(eps), false)?.value;
        let (single_hits, _) = single.search(q, &Query::range(eps))?;
        if !same_hits(&remote, &local) || !same_hits(&remote, &single_hits) {
            report.divergences += 1;
            eprintln!("RANGE diverged (k={k}): remote {remote:?} local {local:?}");
        }
    }
    let _ = out.write_all(b"QUIT\n");
    server.shutdown();
    drop(workers); // kills the children
    Ok(report)
}

/// Run the experiment; fails on any answer that is not bit-identical to
/// both oracles.
pub fn run(env: &Env) -> Result<()> {
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        env.scale.queries,
        17,
    )?;
    let n = w.dataset.len();

    // The single whole-dataset index: the global ground truth.
    let single_dir = env.work_dir.join("dist-single");
    if single_dir.exists() {
        std::fs::remove_dir_all(&single_dir)?;
    }
    let single = LsmCoconut::new(
        index_config(env.scale.series_len, env.scale.leaf_capacity),
        build_opts(env.scale.threads),
        &single_dir,
    )?;
    single.ingest_upto(&w.dataset, n)?;
    let single_snap = single.snapshot();

    let mut total_divergences = 0;
    for &k in SHARD_COUNTS {
        println!("   k={k}: spawning {k} shard worker process(es)");
        let report = run_k(env, &w.path, &w.dataset, &w.queries, &single_snap, k)?;
        println!(
            "   k={k}: {} requests, {} divergences",
            report.requests, report.divergences
        );
        total_divergences += report.divergences;
    }

    if total_divergences > 0 {
        return Err(Error::corrupt(format!(
            "{total_divergences} distributed answers diverged from the oracles"
        )));
    }
    println!(
        "   oracle check: every EXACT/KNN/RANGE answer bit-identical to the \
         in-process ShardSet and the single index for K in {{1, 2, 4}}\n"
    );
    Ok(())
}
