//! End-to-end robustness over a real TCP fabric: idle-read timeouts,
//! deterministic socket fault injection, graceful degradation when a
//! shard dies mid-service, and the wire category of an injected crash.
//!
//! The fault plan registry is process-global, and the idle/degradation
//! tests also move request traffic through the fault sites, so every test
//! here serializes on one mutex.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::gen::RandomWalkGen;
use coconut_server::{ClientConfig, CoordinatorEngine, Engine, Server, ServerConfig};
use coconut_storage::{FaultPlan, IoStats, TempDir};

const LEN: usize = 64;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset(dir: &TempDir, n: u64) -> Dataset {
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.ds");
    write_dataset(&path, &mut RandomWalkGen::new(3), n, LEN, &stats).unwrap();
    Dataset::open(&path, stats).unwrap()
}

fn small_config() -> IndexConfig {
    let mut c = IndexConfig::default_for_len(LEN);
    c.leaf_capacity = 32;
    c
}

fn server_config(idle_timeout_ms: Option<u64>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 8,
        default_deadline_ms: Some(5000),
        idle_timeout_ms,
    }
}

fn start_shard(dir: &TempDir, name: &str, ds: &Dataset) -> Server<Engine> {
    let engine = Arc::new(Engine::new_shard(
        ds.clone(),
        dir.path().join(name),
        small_config(),
        BuildOptions::default(),
        None,
        Some(Duration::from_secs(5)),
    ));
    Server::start(engine, &server_config(None)).unwrap()
}

/// A retry/breaker budget small enough that a dead shard is detected in
/// milliseconds, not seconds.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(250),
        request_timeout: Duration::from_secs(5),
        retries: 2,
        backoff_start: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(10),
        down_backoff_start: Duration::from_millis(40),
        down_backoff_cap: Duration::from_millis(80),
    }
}

#[test]
fn idle_connections_are_closed_and_counted() {
    let _guard = serial();
    let dir = TempDir::new("srv-idle").unwrap();
    let ds = dataset(&dir, 60);
    let lsm = Arc::new(
        LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap(),
    );
    lsm.ingest_upto(&ds, 60).unwrap();
    let engine = Arc::new(Engine::new(lsm, ds, None));
    let mut server = Server::start(
        Arc::clone(&engine),
        &ServerConfig {
            idle_timeout_ms: Some(100),
            ..server_config(None)
        },
    )
    .unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // An active connection answers normally...
    (&stream).write_all(b"PING\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");
    // ...then going quiet gets a typed goodbye and EOF.
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR unavailable: idle-read timeout"),
        "{line:?}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
    assert_eq!(engine.metrics().idle_disconnects.get(), 1);
    assert!(engine
        .metrics_text()
        .contains("coconut_idle_disconnect_total 1"));
    server.shutdown();
}

#[test]
fn coordinator_degrades_when_a_shard_dies() {
    let _guard = serial();
    let dir = TempDir::new("srv-degraded").unwrap();
    let ds = dataset(&dir, 200);
    let s0 = start_shard(&dir, "s0", &ds);
    let mut s1 = start_shard(&dir, "s1", &ds);
    let addrs = vec![s0.addr().to_string(), s1.addr().to_string()];
    let coord = CoordinatorEngine::new(
        &addrs,
        ds.clone(),
        fast_client(),
        Some(Duration::from_secs(5)),
    )
    .unwrap();
    let reply = coord.execute_line("BUILD start=0 end=200").reply;
    assert!(reply.starts_with("OK build"), "{reply}");

    // While every shard is alive, a degraded reply is byte-identical to
    // the strict one.
    let strict = coord.execute_line("EXACT q=seed:9").reply;
    assert!(strict.starts_with("OK exact pos="), "{strict}");
    let complete = coord.execute_line("EXACT q=seed:9 mode=degraded").reply;
    assert_eq!(complete, strict);

    // Kill the shard owning 100..200.
    s1.shutdown();

    // Strict mode refuses with a typed error rather than answering over a
    // hole.
    let reply = coord.execute_line("EXACT q=seed:9").reply;
    assert!(reply.starts_with("ERR unavailable:"), "{reply}");

    // Degraded mode answers over the live slice and names the hole.
    let reply = coord.execute_line("EXACT q=seed:9 mode=degraded").reply;
    assert!(reply.starts_with("OK exact pos="), "{reply}");
    assert!(reply.contains("degraded=1 missing=100..200"), "{reply}");
    let pos: u64 = reply
        .split("pos=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(pos < 100, "answer must come from the live slice: {reply}");

    let reply = coord.execute_line("KNN k=3 q=seed:9 mode=degraded").reply;
    assert!(reply.starts_with("OK knn"), "{reply}");
    assert!(reply.contains("degraded=1 missing=100..200"), "{reply}");

    let reply = coord
        .execute_line("RANGE eps=12 q=seed:9 mode=degraded")
        .reply;
    assert!(reply.starts_with("OK range"), "{reply}");
    assert!(reply.contains("degraded=1 missing=100..200"), "{reply}");

    assert!(coord.metrics().degraded.get() >= 3);
    assert!(coord
        .metrics()
        .render()
        .contains("coconut_coordinator_degraded_total"));
    drop(s0);
}

#[test]
fn injected_socket_faults_are_survived_by_retries() {
    let _guard = serial();
    let dir = TempDir::new("srv-faults").unwrap();
    let ds = dataset(&dir, 120);
    let s0 = start_shard(&dir, "s0", &ds);
    let addrs = vec![s0.addr().to_string()];
    let coord = CoordinatorEngine::new(
        &addrs,
        ds.clone(),
        fast_client(),
        Some(Duration::from_secs(5)),
    )
    .unwrap();
    let reply = coord.execute_line("BUILD start=0 end=120").reply;
    assert!(reply.starts_with("OK build"), "{reply}");
    let clean = coord.execute_line("EXACT q=seed:4").reply;
    assert!(clean.starts_with("OK exact pos="), "{clean}");

    // One injected client-side error and one injected server-side
    // connection drop: the retry budget must absorb both and recover the
    // byte-identical answer.
    let plan = FaultPlan::parse("client.io=err@1,server.read=drop@1", 7).unwrap();
    coconut_storage::fault::install(plan);
    let reply = coord.execute_line("EXACT q=seed:4").reply;
    coconut_storage::fault::clear();
    assert_eq!(reply, clean, "retries must recover the identical answer");
    drop(s0);
}

#[test]
fn a_manifest_crash_replies_as_an_io_fault() {
    let _guard = serial();
    let dir = TempDir::new("srv-manifest").unwrap();
    let ds = dataset(&dir, 60);
    let lsm = Arc::new(
        LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap(),
    );
    let engine = Engine::new(lsm, ds, None);
    let plan = FaultPlan::parse("manifest.torn=err@1", 0).unwrap();
    engine.lsm().set_fault_plan(Some(Arc::new(plan)));
    // A coordinator reparses `ERR io:` as a shard I/O fault, not as a bad
    // request.
    let reply = engine.execute_line("INGEST upto=60").reply;
    assert!(reply.starts_with("ERR io:"), "{reply}");
    assert!(reply.contains("manifest.torn"), "{reply}");
}
