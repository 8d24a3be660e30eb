//! The README's "Coconut as a service" walkthrough, run over a real
//! socket: start a server, speak the line protocol exactly as the README
//! shows with `nc`, and scrape the HTTP metrics endpoint exactly as the
//! README shows with `curl`. If the README's session drifts from the
//! implementation, this suite fails.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use coconut::prelude::*;
use coconut::storage::IoStats;
use coconut_server::{Engine, Server, ServerConfig};

const LEN: usize = 64;

fn start_server(n: u64) -> (TempDir, Server) {
    let dir = TempDir::new("serve-protocol").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(5), n, LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let mut config = IndexConfig::default_for_len(LEN);
    config.leaf_capacity = 32;
    let lsm =
        Arc::new(LsmCoconut::new(config, BuildOptions::default(), dir.path().join("lsm")).unwrap());
    let engine = Arc::new(Engine::new(Arc::clone(&lsm), dataset, None));
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 8,
            default_deadline_ms: None,
            idle_timeout_ms: None,
        },
    )
    .unwrap();
    (dir, server)
}

/// One request line in, one reply line out — what `nc` does.
fn roundtrip(reader: &mut BufReader<TcpStream>, out: &mut TcpStream, line: &str) -> String {
    out.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

fn connect(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.addr()).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

#[test]
fn readme_line_protocol_session() {
    let (_dir, server) = start_server(400);
    let (mut reader, mut out) = connect(&server);

    // Liveness and health.
    assert_eq!(roundtrip(&mut reader, &mut out, "PING"), "OK pong");
    let health = roundtrip(&mut reader, &mut out, "HEALTH");
    assert!(
        health.starts_with("OK healthy covered=0"),
        "fresh index: {health}"
    );

    // Ingest the dataset prefix, then all of it.
    let reply = roundtrip(&mut reader, &mut out, "INGEST upto=200");
    assert!(
        reply.starts_with("OK ingest covered=200 added=200"),
        "{reply}"
    );
    let reply = roundtrip(&mut reader, &mut out, "INGEST");
    assert!(
        reply.starts_with("OK ingest covered=400 added=200"),
        "{reply}"
    );

    // A member query: the dataset's own series 7 is its own nearest
    // neighbor, and the reply names the snapshot it was answered over.
    let reply = roundtrip(&mut reader, &mut out, "EXACT q=pos:7");
    assert!(reply.starts_with("OK exact pos=7 "), "{reply}");
    assert!(reply.contains("covered=400"), "{reply}");
    assert!(reply.contains("seq="), "{reply}");

    // Fresh-query variants: k-NN and range.
    let reply = roundtrip(&mut reader, &mut out, "KNN k=3 q=seed:42");
    assert!(reply.starts_with("OK knn k=3 "), "{reply}");
    assert_eq!(
        reply.split("hits=").nth(1).unwrap().split(',').count(),
        3,
        "{reply}"
    );
    let reply = roundtrip(&mut reader, &mut out, "RANGE eps=100 q=seed:42");
    assert!(reply.starts_with("OK range eps=100 "), "{reply}");

    // Deadlines are per request; an impossible one fails typed, not hung.
    let reply = roundtrip(&mut reader, &mut out, "EXACT q=seed:1 deadline_ms=0");
    assert!(reply.starts_with("ERR deadline:"), "{reply}");

    // Maintenance verbs.
    let reply = roundtrip(&mut reader, &mut out, "COMPACT");
    assert_eq!(reply, "OK compact runs=1");
    let reply = roundtrip(&mut reader, &mut out, "GC");
    assert!(reply.starts_with("OK gc removed="), "{reply}");

    // STATS streams Prometheus text terminated by `# EOF`.
    out.write_all(b"STATS\n").unwrap();
    let mut saw_qps = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "# EOF" {
            break;
        }
        saw_qps |= line.starts_with("coconut_qps");
    }
    assert!(saw_qps, "STATS body should carry coconut_qps");

    // Malformed input gets a typed parse error naming the offending
    // token, not a dropped connection.
    let reply = roundtrip(&mut reader, &mut out, "FROB x=1");
    assert!(reply.starts_with("ERR parse:"), "{reply}");
    assert!(reply.contains("FROB"), "{reply}");

    // QUIT closes the connection.
    assert_eq!(roundtrip(&mut reader, &mut out, "QUIT"), "OK bye");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection should be closed after QUIT");
}

#[test]
fn readme_curl_walkthrough_over_http() {
    let (_dir, server) = start_server(200);

    // Queries answered through the engine show up in the scrape.
    let (mut reader, mut out) = connect(&server);
    roundtrip(&mut reader, &mut out, "INGEST");
    roundtrip(&mut reader, &mut out, "EXACT q=seed:3");
    roundtrip(&mut reader, &mut out, "QUIT");

    let get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    };

    let (head, body) = get("/metrics");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    for required in [
        "# HELP coconut_queries_total",
        "# TYPE coconut_query_latency_seconds histogram",
        "coconut_query_latency_seconds_bucket",
        "coconut_query_latency_p50_seconds",
        "coconut_query_latency_p99_seconds",
        "coconut_qps",
        "coconut_records_fetched_total",
        "coconut_compaction_debt_bytes",
        "coconut_covered_series 200",
    ] {
        assert!(body.contains(required), "missing {required} in:\n{body}");
    }

    let (head, body) = get("/health");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(body.starts_with("OK healthy covered=200"), "{body}");

    let (head, _) = get("/nope");
    assert!(head.starts_with("HTTP/1.0 404"), "{head}");
}

#[test]
fn admission_queue_rejects_overload_with_busy() {
    let (_dir, server) = start_server(100);
    // 1 worker and a queue of 1: the third concurrent connection is
    // refused at the door with ERR busy instead of waiting unboundedly.
    let engine = Arc::clone(server.engine());
    drop(server);
    let mut server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            default_deadline_ms: None,
            idle_timeout_ms: None,
        },
    )
    .unwrap();

    // Occupy the worker (the PING reply proves it took the connection off
    // the queue) and fill the queue with an idle-but-open connection. The
    // accept loop dispatches connections in arrival order, so no wait is
    // needed before the overflow connection.
    let (mut r1, mut o1) = {
        let stream = TcpStream::connect(server.addr()).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    assert_eq!(roundtrip(&mut r1, &mut o1, "PING"), "OK pong");
    let _parked = TcpStream::connect(server.addr()).unwrap();

    // The next connection must be turned away quickly.
    let overflow = TcpStream::connect(server.addr()).unwrap();
    let mut reply = String::new();
    let mut reader = BufReader::new(overflow);
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR busy: admission queue full");
    // Counted before the reply was written.
    assert_eq!(server.engine().metrics().rejected.get(), 1);
    server.shutdown();
}
