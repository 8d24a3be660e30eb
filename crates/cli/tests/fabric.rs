//! The shard fabric over real processes: shard workers are
//! `coconut serve --shard` children, the coordinator runs in this process.
//!
//! * **Distributed:** for K ∈ {1, 2, 4} workers, every `EXACT`/`KNN`/
//!   `RANGE` answer through the coordinator's socket must be bit-identical
//!   to the in-process `ShardSet<LocalShard>` over the same partition map
//!   (a divergence is a wire bug) and to one whole-dataset index (a
//!   divergence is a partition or merge bug).
//! * **Chaos:** five seeded fault schedules (ingest I/O errors, dropped
//!   sockets, a lossy link, read stalls, a worker killed mid-workload).
//!   Every reply must be bit-identical to a brute-force scan of the slices
//!   it claims to cover, or a typed `unavailable`/`deadline` refusal.
//!
//! The chaos test installs a process-global client fault plan, so every
//! test here serializes on one mutex.

use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use coconut_core::backend::partition;
use coconut_core::{BuildOptions, IndexConfig, LocalShard, LsmCoconut, Query, ShardSet};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::euclidean;
use coconut_series::gen::{make_queries, RandomWalkGen};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_server::{ClientConfig, CoordinatorEngine, Server, ServerConfig};
use coconut_storage::{fault, Deadline, IoStats, TempDir};
use coconut_summary::SaxConfig;

/// Leaf capacity of every index here: workers, oracles, single node.
const LEAF: usize = 100;

/// k for the kNN queries.
const KNN_K: usize = 5;

/// Per-request deadline: generous, so hitting it means a real hang.
const DEADLINE_MS: u64 = 30_000;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random-walk dataset of `n` × 128 under `dir`, plus `queries` fresh
/// z-normalized queries from a distinct seed stream.
fn workload(
    dir: &TempDir,
    n: u64,
    seed: u64,
    queries: usize,
) -> (PathBuf, Dataset, Vec<Vec<Value>>) {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.ds");
    write_dataset(&path, &mut RandomWalkGen::new(seed), n, 128, &stats).unwrap();
    let ds = Dataset::open(&path, stats).unwrap();
    let queries = make_queries(&mut RandomWalkGen::new(seed ^ 0x5eed_cafe), queries, 128);
    (path, ds, queries)
}

/// What `coconut serve --shard` builds a slice with.
fn index_config(series_len: usize) -> IndexConfig {
    IndexConfig {
        sax: SaxConfig::default_for_len(series_len),
        leaf_capacity: LEAF,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy: Default::default(),
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

/// A `coconut serve --shard` child, killed on drop so a failing test never
/// leaks processes. Its stdout stays open: the worker prints after the
/// line the port is scraped from.
struct Worker {
    child: Child,
    _stdout: Lines<BufReader<ChildStdout>>,
    addr: String,
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn a shard worker over `index_dir` and scrape its bound port.
/// Inherited fault variables are scrubbed; `faults` arms
/// `COCONUT_FAULTS` / `COCONUT_FAULT_SEED`.
fn spawn_worker(data: &Path, index_dir: &Path, faults: Option<(&str, u64)>) -> Worker {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_coconut"));
    cmd.arg("serve")
        .arg("--shard")
        .arg("--data")
        .arg(data)
        .arg("--index-dir")
        .arg(index_dir)
        .args(["--addr", "127.0.0.1:0", "--leaf", &LEAF.to_string()])
        .args(["--memory-mb", "64", "--workers", "4", "--queue", "16"])
        .args(["--deadline-ms", &DEADLINE_MS.to_string()])
        .env_remove("COCONUT_FAULTS")
        .env_remove("COCONUT_FAULT_SEED")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some((spec, seed)) = faults {
        cmd.env("COCONUT_FAULTS", spec)
            .env("COCONUT_FAULT_SEED", seed.to_string());
    }
    let mut child = cmd.spawn().expect("spawn coconut serve --shard");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("SHARD LISTENING ") {
                    break addr.trim().to_string();
                }
            }
            other => {
                let _ = child.kill();
                panic!("shard worker exited before announcing its port: {other:?}");
            }
        }
    };
    Worker {
        child,
        _stdout: lines,
        addr,
    }
}

/// A query the way the wire carries it (`f32` shortest round trip).
fn fmt_query(q: &[Value]) -> String {
    let values: Vec<String> = q.iter().map(|v| v.to_string()).collect();
    format!("q=v:{}", values.join(","))
}

fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .unwrap_or_else(|| panic!("reply is missing {key}: {reply:?}"))
}

fn parse_answer(reply: &str) -> Answer {
    match field(reply, "pos=") {
        "none" => Answer::none(),
        pos => Answer {
            pos: pos.parse().unwrap(),
            dist: field(reply, "dist=").parse().unwrap(),
        },
    }
}

fn parse_hits(reply: &str) -> Vec<Answer> {
    match field(reply, "hits=") {
        "none" => Vec::new(),
        hits => hits
            .split(',')
            .map(|hit| {
                let (pos, dist) = hit.split_once(':').unwrap();
                Answer {
                    pos: pos.parse().unwrap(),
                    dist: dist.parse().unwrap(),
                }
            })
            .collect(),
    }
}

/// Two answers are identical iff position and distance *bits* match.
fn same_answer(a: &Answer, b: &Answer) -> bool {
    (a.pos == b.pos && a.dist.to_bits() == b.dist.to_bits()) || (!a.is_some() && !b.is_some())
}

fn same_hits(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_answer(x, y))
}

/// A range radius from the true 1-NN: hit lists non-trivial but bounded.
fn radius(nearest: &Answer) -> f64 {
    if nearest.is_some() && nearest.dist.is_finite() {
        (nearest.dist * 1.25).max(1e-3)
    } else {
        1.0
    }
}

#[test]
fn distributed_answers_are_bit_identical_to_shardset_and_single_node() {
    let _guard = serial();
    let dir = TempDir::new("fabric-dist").unwrap();
    let (data, ds, queries) = workload(&dir, 6_000, 17, 20);
    let n = ds.len();

    // The single whole-dataset index: the global ground truth.
    let single =
        LsmCoconut::new(index_config(128), build_opts(4), dir.path().join("single")).unwrap();
    single.ingest_upto(&ds, n).unwrap();
    let single = single.snapshot();

    for k in [1usize, 2, 4] {
        // The wire-free oracle over the same partition map.
        let mut shards = Vec::with_capacity(k);
        for (i, range) in partition(n, k).into_iter().enumerate() {
            let lsm = LsmCoconut::new_based(
                index_config(128),
                build_opts(2),
                dir.path().join(format!("oracle-k{k}-s{i}")),
                range.start,
            )
            .unwrap();
            shards.push(LocalShard::new(Arc::new(lsm), ds.clone(), range).unwrap());
        }
        let oracle = ShardSet::new(shards).unwrap();
        oracle.build(n).unwrap();

        let workers: Vec<Worker> = (0..k)
            .map(|i| spawn_worker(&data, &dir.path().join(format!("worker-k{k}-s{i}")), None))
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let engine = CoordinatorEngine::new(
            &addrs,
            ds.clone(),
            ClientConfig::default(),
            Some(Duration::from_millis(DEADLINE_MS)),
        )
        .unwrap();
        let mut server = Server::start(Arc::new(engine), &ServerConfig::default()).unwrap();
        let mut out = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(out.try_clone().unwrap());
        let mut round_trip = |line: String| {
            out.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.starts_with("OK "), "k={k}: {line:.40} -> {reply:?}");
            reply.trim().to_string()
        };

        let build = round_trip(format!("BUILD start=0 end={n}"));
        assert_eq!(field(&build, "covered="), n.to_string(), "k={k}: {build}");

        for (qi, q) in queries.iter().enumerate() {
            let qs = fmt_query(q);
            let remote = parse_answer(&round_trip(format!("EXACT {qs} deadline_ms={DEADLINE_MS}")));
            let local = oracle.exact(q, Deadline::NONE).unwrap();
            let (nearest, _) = single.exact(q, Deadline::NONE).unwrap();
            assert!(
                same_answer(&remote, &local) && same_answer(&remote, &nearest),
                "EXACT k={k} query {qi}: remote {remote:?} local {local:?} single {nearest:?}"
            );

            let remote = parse_hits(&round_trip(format!(
                "KNN k={KNN_K} {qs} deadline_ms={DEADLINE_MS}"
            )));
            let local = oracle.search(q, &Query::knn(KNN_K), false).unwrap().value;
            let (whole, _) = single.exact_knn(q, KNN_K, Deadline::NONE).unwrap();
            assert!(
                same_hits(&remote, &local) && same_hits(&remote, &whole),
                "KNN k={k} query {qi}: remote {remote:?} local {local:?} single {whole:?}"
            );

            let eps = radius(&nearest);
            let remote = parse_hits(&round_trip(format!(
                "RANGE eps={eps} {qs} deadline_ms={DEADLINE_MS}"
            )));
            let local = oracle.search(q, &Query::range(eps), false).unwrap().value;
            let (whole, _) = single.search(q, &Query::range(eps)).unwrap();
            assert!(
                same_hits(&remote, &local) && same_hits(&remote, &whole),
                "RANGE k={k} query {qi}: remote {remote:?} local {local:?} single {whole:?}"
            );
        }
        let _ = out.write_all(b"QUIT\n");
        server.shutdown();
    }
}

/// The chaos schedules' seed; a failure message prints it.
const DEFAULT_SEED: u64 = 0xC0C0_0009;

/// Deterministic schedule randomness (splitmix-style): a seed reproduces
/// the exact run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform pick from `lo..=hi`.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One fault schedule: the workers' `COCONUT_FAULTS`, the plan this
/// (coordinator) process installs, and whether worker 1 is killed halfway
/// through the queries.
struct Schedule {
    name: &'static str,
    worker_faults: Option<String>,
    client_faults: Option<String>,
    kill_worker: bool,
}

fn schedules(rng: &mut Rng) -> Vec<Schedule> {
    let schedule = |name, worker_faults, client_faults, kill_worker| Schedule {
        name,
        worker_faults,
        client_faults,
        kill_worker,
    };
    vec![
        schedule(
            "ingest-faults",
            Some(format!(
                "atomic.fsync=err@{},extsort.spill=err@{}",
                rng.pick(1, 2),
                rng.pick(1, 3)
            )),
            None,
            false,
        ),
        schedule(
            "socket-faults",
            Some(format!(
                "server.read=drop@{},server.write=drop@{}",
                rng.pick(2, 5),
                rng.pick(3, 6)
            )),
            Some(format!(
                "client.io=err@{},client.connect=err@{}",
                rng.pick(1, 3),
                rng.pick(2, 4)
            )),
            false,
        ),
        schedule(
            "lossy-link",
            Some(format!("server.write=drop@p:0.{}", rng.pick(5, 15))),
            None,
            false,
        ),
        schedule(
            "read-stalls",
            Some(format!(
                "server.read=stall:{}@every:{}",
                rng.pick(10, 40),
                rng.pick(2, 4)
            )),
            None,
            false,
        ),
        schedule("shard-death", None, None, true),
    ]
}

/// Clears the process-global fault plan even when a round panics.
struct FaultGuard;

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// What one reply turned out to be.
enum Verdict {
    /// `OK` covering every slice, bit-identical to the brute-force oracle.
    Identical,
    /// `OK degraded=1 missing=...`, bit-identical to the oracle over the
    /// slices it claims to cover.
    Degraded,
    /// A typed `ERR unavailable` / `ERR deadline` refusal.
    Refused,
}

/// A typed refusal the chaos contract accepts.
fn refused(reply: &str) -> bool {
    reply.starts_with("ERR unavailable:") || reply.starts_with("ERR deadline:")
}

/// The slices a ` degraded=1 missing=a..b,c..d` reply says it lacks; none
/// without that suffix.
fn missing_slices(reply: &str, n: u64) -> Vec<Range<u64>> {
    if !reply.contains(" degraded=1 ") {
        return Vec::new();
    }
    field(reply, "missing=")
        .split(',')
        .map(|part| {
            let (a, b) = part.split_once("..").unwrap();
            let slice = a.parse().unwrap()..b.parse().unwrap();
            assert!(
                !slice.is_empty() && slice.end <= n,
                "bad slice in {reply:?}"
            );
            slice
        })
        .collect()
}

/// Every `(dist, pos)` outside `missing` that `keep` accepts, in the
/// fabric's merge order.
fn oracle_hits(
    all: &[Vec<Value>],
    q: &[Value],
    missing: &[Range<u64>],
    keep: impl Fn(f64) -> bool,
) -> Vec<Answer> {
    let mut hits: Vec<Answer> = (0..all.len() as u64)
        .filter(|pos| !missing.iter().any(|r| r.contains(pos)))
        .map(|pos| Answer {
            pos,
            dist: euclidean(q, &all[pos as usize]),
        })
        .filter(|a| keep(a.dist))
        .collect();
    hits.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.pos.cmp(&b.pos)));
    hits
}

/// Judge one reply: `want` gives the oracle hit list over the covered
/// slices, `single` whether the reply is one answer or a hit list.
fn judge(
    reply: &str,
    prefix: &str,
    n: u64,
    single: bool,
    want: impl Fn(&[Range<u64>]) -> Vec<Answer>,
) -> Result<Verdict, String> {
    if refused(reply) {
        return Ok(Verdict::Refused);
    }
    if !reply.starts_with(prefix) {
        return Err(format!("untyped reply {reply:?}"));
    }
    let missing = missing_slices(reply, n);
    let want = want(&missing);
    let same = if single {
        same_answer(
            &parse_answer(reply),
            want.first().unwrap_or(&Answer::none()),
        )
    } else {
        same_hits(&parse_hits(reply), &want)
    };
    match (same, missing.is_empty()) {
        (false, _) => Err(format!("{reply:?} is not the oracle's {want:?}")),
        (true, true) => Ok(Verdict::Identical),
        (true, false) => Ok(Verdict::Degraded),
    }
}

#[test]
fn chaos_schedules_answer_exactly_or_refuse_typed() {
    const WORKERS: usize = 2;
    // Attempts for BUILD to converge under injected ingest faults.
    const BUILD_ATTEMPTS: usize = 8;

    let _guard = serial();
    let dir = TempDir::new("fabric-chaos").unwrap();
    let (data, ds, queries) = workload(&dir, 3_000, 23, 8);
    let n = ds.len();
    let all: Vec<Vec<Value>> = (0..n).map(|p| ds.get(p).unwrap()).collect();
    // A retry budget for injected faults: enough attempts to absorb a
    // one-shot fault, a short breaker hold-off so a killed shard fails
    // fast.
    let client = ClientConfig {
        connect_timeout: Duration::from_millis(1000),
        request_timeout: Duration::from_millis(DEADLINE_MS),
        retries: 3,
        backoff_start: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        down_backoff_start: Duration::from_millis(100),
        down_backoff_cap: Duration::from_millis(500),
    };

    let (mut degraded, mut refusals) = (0, 0);
    let mut diverged = Vec::new();
    for (round, sched) in schedules(&mut Rng(DEFAULT_SEED)).iter().enumerate() {
        let fault_seed = DEFAULT_SEED ^ round as u64;
        let mut workers: Vec<Worker> = (0..WORKERS)
            .map(|i| {
                let faults = sched.worker_faults.as_deref().map(|f| (f, fault_seed));
                spawn_worker(&data, &dir.path().join(format!("r{round}-s{i}")), faults)
            })
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let _faults = FaultGuard;
        if let Some(spec) = &sched.client_faults {
            fault::install(fault::FaultPlan::parse(spec, fault_seed).unwrap());
        }
        let coord = CoordinatorEngine::new(
            &addrs,
            ds.clone(),
            client.clone(),
            Some(Duration::from_millis(DEADLINE_MS)),
        )
        .unwrap();

        // BUILD must converge: a typed failure may cost an attempt (a
        // one-shot fault fires once), an untyped one never may.
        let built = (0..BUILD_ATTEMPTS).any(|_| {
            let reply = coord.execute_line(&format!("BUILD start=0 end={n}")).reply;
            assert!(
                reply.starts_with("OK build") || refused(&reply) || reply.starts_with("ERR io:"),
                "{} (seed {DEFAULT_SEED:#x}): BUILD answered {reply}",
                sched.name
            );
            reply.starts_with("OK build") && field(&reply, "covered=") == n.to_string()
        });
        assert!(built, "{}: BUILD did not converge", sched.name);

        let mut tally = |what: &str, verdict: Result<Verdict, String>| match verdict {
            Ok(Verdict::Identical) => {}
            Ok(Verdict::Degraded) => degraded += 1,
            Ok(Verdict::Refused) => refusals += 1,
            Err(why) => diverged.push(format!("{} {what}: {why}", sched.name)),
        };
        for (qi, q) in queries.iter().enumerate() {
            if sched.kill_worker && qi == queries.len() / 2 {
                drop(workers.remove(1));
                // Strict mode must now refuse: an OK over a dead slice
                // would be silently wrong.
                let reply = coord
                    .execute_line(&format!("EXACT {}", fmt_query(&queries[0])))
                    .reply;
                let verdict = if refused(&reply) {
                    Ok(Verdict::Refused)
                } else {
                    Err(format!("strict EXACT over a dead shard answered {reply:?}"))
                };
                tally("strict-after-kill", verdict);
            }
            let qs = fmt_query(q);
            let line = |request: String| {
                coord
                    .execute_line(&format!(
                        "{request} {qs} mode=degraded deadline_ms={DEADLINE_MS}"
                    ))
                    .reply
            };

            let reply = line("EXACT".into());
            tally(
                "EXACT",
                judge(&reply, "OK exact ", n, true, |missing| {
                    oracle_hits(&all, q, missing, |_| true)
                }),
            );
            let reply = line(format!("KNN k={KNN_K}"));
            tally(
                "KNN",
                judge(&reply, "OK knn ", n, false, |missing| {
                    let mut hits = oracle_hits(&all, q, missing, |_| true);
                    hits.truncate(KNN_K);
                    hits
                }),
            );
            let eps = radius(&oracle_hits(&all, q, &[], |_| true)[0]);
            let reply = line(format!("RANGE eps={eps}"));
            tally(
                "RANGE",
                judge(&reply, "OK range ", n, false, |missing| {
                    oracle_hits(&all, q, missing, |d| d <= eps)
                }),
            );
        }
    }

    assert!(
        diverged.is_empty(),
        "seed {DEFAULT_SEED:#x}:\n{}",
        diverged.join("\n")
    );
    // The contract means something only if both failure shapes occurred.
    assert!(
        degraded > 0 && refusals > 0,
        "seed {DEFAULT_SEED:#x} exercised too little: {degraded} degraded, {refusals} refused"
    );
}
