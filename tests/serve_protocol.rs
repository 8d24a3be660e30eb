//! The README's "Coconut as a service" walkthrough, run over a real
//! socket: start a server, speak the line protocol exactly as the README
//! shows with `nc`, and scrape the HTTP metrics endpoint exactly as the
//! README shows with `curl`. If the README's session drifts from the
//! implementation, this suite fails. Beside it, concurrent clients check
//! every reply against a brute-force oracle while the index churns.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut::prelude::*;
use coconut::series::distance::{euclidean, znormalize};
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

/// Eight socket clients query on a fixed arrival schedule while a churn
/// thread ingests the second half of a 6,000 × 128 dataset and finally
/// compacts. Every reply names the snapshot it pinned (`covered=`), and
/// must match a brute-force scan of exactly that prefix; no request may
/// be dropped or time out, and `/metrics` must carry the core signals.
#[test]
fn clients_under_churn_match_the_pinned_prefix_oracle() {
    const N: u64 = 6_000;
    const CHURN_LEN: usize = 128;
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 30;
    const ARRIVAL_INTERVAL: Duration = Duration::from_millis(5);
    const CHURN_STEPS: u64 = 8;
    // Generous, so a timeout means real trouble.
    const DEADLINE_MS: u64 = 10_000;

    let dir = TempDir::new("serve-churn").unwrap();
    let stats = Arc::new(IoStats::new());
    let path = dir.path().join("data.bin");
    write_dataset(&path, &mut RandomWalkGen::new(13), N, CHURN_LEN, &stats).unwrap();
    let dataset = Dataset::open(&path, stats).unwrap();
    let all: Arc<Vec<Vec<f32>>> = Arc::new((0..N).map(|p| dataset.get(p).unwrap()).collect());

    let mut config = IndexConfig::default_for_len(CHURN_LEN);
    config.leaf_capacity = 100;
    let opts = BuildOptions {
        memory_bytes: (dataset.payload_bytes() / 2).max(1 << 20),
        materialized: false,
        threads: 4,
        shards: 1,
    };
    let lsm = Arc::new(LsmCoconut::new(config, opts, dir.path().join("lsm")).unwrap());
    lsm.set_policy(Box::new(TieredPolicy {
        size_ratio: 4,
        tier_runs: 3,
        max_runs: 6,
    }));
    // The first half is covered before the doors open; the rest arrives
    // as churn while the clients query.
    lsm.ingest_upto(&dataset, N / 2).unwrap();
    let engine = Arc::new(Engine::new(
        Arc::clone(&lsm),
        dataset.clone(),
        Some(Duration::from_millis(DEADLINE_MS)),
    ));
    let mut server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Connections are persistent: one worker per client plus
            // slack for the metrics scrape.
            workers: CLIENTS + 2,
            queue: CLIENTS,
            default_deadline_ms: Some(DEADLINE_MS),
            idle_timeout_ms: None,
        },
    )
    .unwrap();
    let addr = server.addr();

    let churn = {
        let lsm = Arc::clone(&lsm);
        let dataset = dataset.clone();
        std::thread::spawn(move || {
            let step = (N - N / 2).div_ceil(CHURN_STEPS);
            let mut upto = N / 2;
            while upto < N {
                upto = (upto + step).min(N);
                lsm.ingest_upto(&dataset, upto).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            lsm.compact().unwrap();
        })
    };

    let start_at = Instant::now();
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|client| {
            let all = Arc::clone(&all);
            std::thread::spawn(move || {
                // Many clients start at once: retry refused connections.
                let stream = coconut_server::connect_with_retry(
                    &addr.to_string(),
                    10,
                    Duration::from_millis(20),
                    Duration::from_millis(400),
                )
                .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut out = stream;
                let mut replied = 0;
                let mut divergences = Vec::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let scheduled = start_at + ARRIVAL_INTERVAL * (i as u32 + 1);
                    std::thread::sleep(scheduled.saturating_duration_since(Instant::now()));
                    let seed = client * 100_000 + i as u64 + 1;
                    let knn = i % 5 == 4;
                    let request = if knn {
                        format!("KNN k=3 q=seed:{seed} deadline_ms={DEADLINE_MS}\n")
                    } else {
                        format!("EXACT q=seed:{seed} deadline_ms={DEADLINE_MS}\n")
                    };
                    out.write_all(request.as_bytes()).unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    if reply.is_empty() {
                        break; // the server hung up: the rest count as dropped
                    }
                    replied += 1;
                    let reply = reply.trim();
                    assert!(
                        reply.starts_with("OK"),
                        "client {client} request {i}: {reply}"
                    );

                    let field = |key: &str| {
                        reply
                            .split_whitespace()
                            .find_map(|t| t.strip_prefix(key))
                            .unwrap_or_else(|| panic!("no {key} in {reply}"))
                    };
                    let covered: usize = field("covered=").parse().unwrap();
                    let answered: u64 = if knn {
                        field("hits=").split(':').next().unwrap().parse().unwrap()
                    } else {
                        field("pos=").parse().unwrap()
                    };
                    let mut q = RandomWalkGen::new(seed).generate(CHURN_LEN);
                    znormalize(&mut q);
                    let mut best = Answer::none();
                    for (pos, s) in all[..covered.min(all.len())].iter().enumerate() {
                        best.merge(Answer {
                            pos: pos as u64,
                            dist: euclidean(&q, s),
                        });
                    }
                    if answered != best.pos {
                        divergences.push(format!(
                            "client {client} request {i}: server #{answered} vs oracle \
                             #{} over covered={covered} ({reply})",
                            best.pos
                        ));
                    }
                }
                let _ = out.write_all(b"QUIT\n");
                (replied, divergences)
            })
        })
        .collect();

    let mut replied = 0;
    let mut divergences = Vec::new();
    for client in clients {
        let (r, d) = client.join().unwrap();
        replied += r;
        divergences.extend(d);
    }
    churn.join().unwrap();

    let mut scrape = TcpStream::connect(addr).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    scrape.read_to_string(&mut response).unwrap();
    server.shutdown();
    let (head, metrics) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    for required in [
        "coconut_qps",
        "coconut_query_latency_p50_seconds",
        "coconut_query_latency_p99_seconds",
        "coconut_records_fetched_total",
        "coconut_compaction_debt_bytes",
    ] {
        assert!(
            metrics.contains(required),
            "missing {required} in:\n{metrics}"
        );
    }
    let timeouts = metrics
        .lines()
        .find_map(|l| l.strip_prefix("coconut_query_timeouts_total "))
        .map_or(0.0, |v| v.trim().parse::<f64>().unwrap());

    assert!(divergences.is_empty(), "{}", divergences.join("\n"));
    assert_eq!(replied, CLIENTS * REQUESTS_PER_CLIENT, "requests dropped");
    assert_eq!(timeouts, 0.0, "queries hit the {DEADLINE_MS} ms deadline");
}
