//! End-to-end check of the query server: concurrent clients send on a
//! fixed arrival schedule over real sockets to a server whose index is
//! churning (ingest + compaction) underneath.
//!
//! **Every reply is checked against a brute-force oracle.** Replies carry
//! `covered=<n>`, the covered prefix of the *snapshot the server pinned*,
//! so the oracle scans exactly that prefix even though ingest keeps
//! advancing while requests are in flight. Any divergence, dropped reply,
//! server-side timeout, or missing `/metrics` signal fails the experiment
//! — CI runs this on every push. It times nothing: `benchmarks/` is the
//! performance record.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::{BuildOptions, IndexConfig, LsmCoconut, TieredPolicy};
use coconut_series::distance::{euclidean, znormalize};
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::Value;
use coconut_server::{Engine, Server, ServerConfig};
use coconut_storage::{Error, Result};
use coconut_summary::SaxConfig;

use crate::data::{prepare, DataKind};
use crate::experiments::Env;

/// Concurrent clients (the acceptance bar is at least 8).
const CLIENTS: usize = 8;

/// Requests per client.
const REQUESTS_PER_CLIENT: usize = 30;

/// Arrival interval per client, so requests keep overlapping the churn.
const ARRIVAL_INTERVAL: Duration = Duration::from_millis(5);

/// Per-request deadline — generous, so timeouts mean real trouble.
const DEADLINE_MS: u64 = 10_000;

/// Ingest churn steps while the clients run.
const CHURN_STEPS: u64 = 8;

/// What one client counted.
struct ClientReport {
    sent: usize,
    replied: usize,
    divergences: usize,
}

fn brute_force_pos(prefix: &[Vec<Value>], q: &[Value]) -> Option<u64> {
    let mut best: Option<(u64, f64)> = None;
    for (i, s) in prefix.iter().enumerate() {
        let d = euclidean(q, s);
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i as u64, d));
        }
    }
    best.map(|(p, _)| p)
}

/// Pull `key=<u64>` out of a reply line.
fn field_u64(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

/// First `pos` of a `hits=pos:dist,...` list.
fn first_hit_pos(reply: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix("hits="))
        .and_then(|hits| hits.split(',').next())
        .and_then(|h| h.split(':').next())
        .and_then(|p| p.parse().ok())
}

fn client_loop(
    addr: std::net::SocketAddr,
    client_id: usize,
    series_len: usize,
    all_series: Arc<Vec<Vec<Value>>>,
    start_at: Instant,
) -> Result<ClientReport> {
    // The server may still be settling into its accept loop (or the
    // admission queue may briefly refuse) when many clients start at once:
    // retry refused connections with capped backoff instead of failing the
    // whole experiment on the first ECONNREFUSED.
    let stream = coconut_server::connect_with_retry(
        &addr.to_string(),
        10,
        Duration::from_millis(20),
        Duration::from_millis(400),
    )
    .map_err(|e| Error::invalid(format!("client {client_id}: connect: {e}")))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| Error::invalid(format!("client {client_id}: clone: {e}")))?,
    );
    let mut out = stream;
    let mut report = ClientReport {
        sent: 0,
        replied: 0,
        divergences: 0,
    };
    for i in 0..REQUESTS_PER_CLIENT {
        // Wait for the scheduled arrival.
        let scheduled = start_at + ARRIVAL_INTERVAL * (i as u32 + 1);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let seed = (client_id as u64) * 100_000 + i as u64 + 1;
        let knn = i % 5 == 4;
        let request = if knn {
            format!("KNN k=3 q=seed:{seed} deadline_ms={DEADLINE_MS}\n")
        } else {
            format!("EXACT q=seed:{seed} deadline_ms={DEADLINE_MS}\n")
        };
        out.write_all(request.as_bytes())
            .map_err(|e| Error::invalid(format!("client {client_id}: send: {e}")))?;
        report.sent += 1;

        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| Error::invalid(format!("client {client_id}: recv: {e}")))?;
        if reply.is_empty() {
            break; // server closed on us: counts as a dropped request
        }
        report.replied += 1;
        let reply = reply.trim();
        if !reply.starts_with("OK") {
            return Err(Error::corrupt(format!(
                "client {client_id} request {i}: server answered {reply:?}"
            )));
        }

        // Oracle: regenerate the query, scan exactly the snapshot's prefix.
        let covered = field_u64(reply, "covered")
            .ok_or_else(|| Error::corrupt(format!("no covered= in {reply:?}")))?
            as usize;
        let mut q = RandomWalkGen::new(seed).generate(series_len);
        znormalize(&mut q);
        let oracle = brute_force_pos(&all_series[..covered.min(all_series.len())], &q);
        let answered = if knn {
            first_hit_pos(reply)
        } else {
            field_u64(reply, "pos")
        };
        if answered != oracle {
            report.divergences += 1;
            eprintln!(
                "client {client_id} request {i}: server {answered:?} vs oracle {oracle:?} \
                 over covered={covered} ({reply})"
            );
        }
    }
    let _ = out.write_all(b"QUIT\n");
    Ok(report)
}

/// Fetch `/metrics` over HTTP (exercising the curl-compatible path) and
/// return the body.
fn scrape_metrics(addr: std::net::SocketAddr) -> Result<String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| Error::invalid(format!("scrape: connect: {e}")))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")
        .map_err(|e| Error::invalid(format!("scrape: send: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| Error::invalid(format!("scrape: recv: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::corrupt("scrape: no HTTP header/body split"))?;
    if !head.starts_with("HTTP/1.0 200") {
        return Err(Error::corrupt(format!("scrape: bad status in {head:?}")));
    }
    Ok(body.to_string())
}

/// Run the experiment; fails on any divergence, dropped reply, timeout or
/// missing metric.
pub fn run(env: &Env) -> Result<()> {
    println!("{}\n", check(env)?);
    Ok(())
}

/// Drive the clients against the churning server and return the oracle
/// line [`run`] prints.
fn check(env: &Env) -> Result<String> {
    let w = prepare(
        &env.work_dir,
        DataKind::RandomWalk,
        env.scale.n,
        env.scale.series_len,
        1,
        13,
    )?;
    let n = w.dataset.len();
    // The oracle's copy of every series (replies tell it how much to scan).
    let mut all_series: Vec<Vec<Value>> = Vec::with_capacity(n as usize);
    for p in 0..n {
        all_series.push(w.dataset.get(p)?);
    }
    let all_series = Arc::new(all_series);

    let idx_dir = env.work_dir.join("serve-lsm");
    if idx_dir.exists() {
        std::fs::remove_dir_all(&idx_dir)?;
    }
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
    let lsm = Arc::new(LsmCoconut::new(config, opts, &idx_dir)?);
    lsm.set_policy(Box::new(TieredPolicy {
        size_ratio: 4,
        tier_runs: 3,
        max_runs: 6,
    }));
    // Cover the first half before opening the doors; the rest arrives as
    // churn while the clients are querying.
    lsm.ingest_upto(&w.dataset, n / 2)?;

    let engine = Arc::new(Engine::new(
        Arc::clone(&lsm),
        w.dataset.clone(),
        Some(Duration::from_millis(DEADLINE_MS)),
    ));
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        // Connections are persistent, so one worker per client plus slack
        // for the metrics scrape.
        workers: CLIENTS + 2,
        queue: CLIENTS,
        default_deadline_ms: Some(DEADLINE_MS),
        idle_timeout_ms: None,
    };
    let mut server = Server::start(Arc::clone(&engine), &server_config)?;
    let addr = server.addr();

    // Churn: keep ingesting (and finally compacting) while clients query.
    let churn_stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let lsm = Arc::clone(&lsm);
        let dataset = w.dataset.clone();
        let stop = Arc::clone(&churn_stop);
        std::thread::spawn(move || -> Result<()> {
            let step = (n - n / 2).div_ceil(CHURN_STEPS).max(1);
            let mut upto = n / 2;
            while upto < n && !stop.load(Ordering::Relaxed) {
                upto = (upto + step).min(n);
                lsm.ingest_upto(&dataset, upto)?;
                std::thread::sleep(Duration::from_millis(10));
            }
            lsm.compact()?;
            Ok(())
        })
    };

    let start_at = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let all_series = Arc::clone(&all_series);
            let series_len = env.scale.series_len;
            std::thread::spawn(move || client_loop(addr, c, series_len, all_series, start_at))
        })
        .collect();

    let mut sent = 0usize;
    let mut replied = 0usize;
    let mut divergences = 0usize;
    for c in clients {
        let report = c
            .join()
            .map_err(|_| Error::corrupt("a client thread panicked"))??;
        sent += report.sent;
        replied += report.replied;
        divergences += report.divergences;
    }
    churn_stop.store(true, Ordering::Relaxed);
    churn
        .join()
        .map_err(|_| Error::corrupt("the churn thread panicked"))??;

    // The curl-facing metrics endpoint must expose the core signals.
    let metrics = scrape_metrics(addr)?;
    for required in [
        "coconut_qps",
        "coconut_query_latency_p50_seconds",
        "coconut_query_latency_p99_seconds",
        "coconut_records_fetched_total",
        "coconut_compaction_debt_bytes",
    ] {
        if !metrics.contains(required) {
            return Err(Error::corrupt(format!(
                "metrics endpoint is missing {required}"
            )));
        }
    }
    let timeouts = metrics
        .lines()
        .find_map(|l| l.strip_prefix("coconut_query_timeouts_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0) as u64;
    server.shutdown();

    // The acceptance bar: nothing diverged, nothing dropped, nothing
    // timed out under a 10 s deadline.
    if divergences > 0 {
        return Err(Error::corrupt(format!(
            "{divergences} answers diverged from the brute-force oracle"
        )));
    }
    if replied != sent {
        return Err(Error::corrupt(format!(
            "{} requests were dropped without a reply",
            sent - replied
        )));
    }
    if timeouts > 0 {
        return Err(Error::corrupt(format!(
            "{timeouts} queries hit the {DEADLINE_MS} ms deadline"
        )));
    }

    Ok(format!(
        "   oracle check: {replied} replies over pinned snapshots identical to \
         brute force; 0 dropped, 0 timeouts"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    #[test]
    fn serve_load_runs_and_verifies() {
        let (w, r) = (
            TempDir::new("serve-w").unwrap(),
            TempDir::new("serve-r").unwrap(),
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
        let line = check(&env).unwrap();
        let replies = CLIENTS * REQUESTS_PER_CLIENT;
        assert!(
            line.contains(&format!("oracle check: {replies} replies")),
            "{line}"
        );
        assert!(line.contains("0 dropped, 0 timeouts"), "{line}");
        assert!(std::fs::read_dir(r.path()).unwrap().next().is_none());
    }
}
