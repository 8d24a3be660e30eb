//! The three serving workloads, end to end through real `coconut serve`
//! children over TCP: `query_static`, `ingest_query_mix`, `distributed_k2`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};
use crate::common::{
    Env, Measured, LEAF, MEMORY_MB, MIX_INITIAL_SHARE, MIX_PERIOD_S, ORACLE_SAMPLES, SETUP_REPS,
    WORKERS,
};
use crate::oracle::{self, Check};
use crate::proc::{self, Proc};
use crate::sched::{send_time, Class, Op, OpenLoopLog, Schedule, KNN_K};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QueryStatic,
    IngestQueryMix,
    DistributedK2,
}

const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Server replies print every digit; only `f32` input rounding separates
/// them from the oracle's recomputation.
const REPLY_TOL: f64 = 1e-6;

/// A running deployment: one `coconut serve`, or a coordinator over two
/// shard workers. Children die with it.
struct Serving {
    /// Where clients connect (the single node, or the coordinator).
    addr: String,
    /// The coordinator (if any) comes first so it is dropped before the
    /// workers it talks to.
    procs: Vec<Proc>,
    index_dirs: Vec<PathBuf>,
}

fn serve_args(env: &Env, index_dir: &std::path::Path) -> Vec<String> {
    [
        "serve",
        "--data",
        &env.data.to_string_lossy(),
        "--index-dir",
        &index_dir.to_string_lossy(),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &WORKERS.to_string(),
        "--memory-mb",
        &MEMORY_MB.to_string(),
        "--leaf",
        &LEAF.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

impl Serving {
    /// `coconut serve` on a fresh index directory, optionally ingesting
    /// `initial` series before it accepts connections.
    fn single(env: &Env, name: &str, initial: Option<u64>) -> Result<Serving, String> {
        let dir = env.scratch.fresh(name)?;
        Serving::single_on(env, dir, initial)
    }

    /// `coconut serve` on `dir` as it is (fresh, or left by a killed server).
    fn single_on(env: &Env, dir: PathBuf, initial: Option<u64>) -> Result<Serving, String> {
        let mut args = serve_args(env, &dir);
        if let Some(n) = initial {
            args.extend(["--initial".to_string(), n.to_string()]);
        }
        let mut p = Proc::spawn(&env.coconut, &args, "serve", &env.log)?;
        let addr = p.wait_for_addr("serving on ", START_TIMEOUT)?;
        Ok(Serving {
            addr,
            procs: vec![p],
            index_dirs: vec![dir],
        })
    }

    /// Two `coconut serve --shard` workers behind `coconut serve --coordinator`.
    fn cluster(env: &Env, name: &str) -> Result<Serving, String> {
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        let mut dirs = Vec::new();
        for i in 0..2 {
            let dir = env.scratch.fresh(&format!("{name}-shard{i}"))?;
            let mut args = serve_args(env, &dir);
            args.push("--shard".into());
            let mut p = Proc::spawn(&env.coconut, &args, &format!("shard{i}"), &env.log)?;
            addrs.push(p.wait_for_addr("SHARD LISTENING ", START_TIMEOUT)?);
            workers.push(p);
            dirs.push(dir);
        }
        let args: Vec<String> = [
            "serve",
            "--data",
            &env.data.to_string_lossy(),
            "--coordinator",
            "--shards",
            &addrs.join(","),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut coord = Proc::spawn(&env.coconut, &args, "coordinator", &env.log)?;
        let addr = coord.wait_for_addr("serving on ", START_TIMEOUT)?;
        let mut procs = vec![coord];
        procs.extend(workers);
        Ok(Serving {
            addr,
            procs,
            index_dirs: dirs,
        })
    }

    fn index_bytes(&self) -> u64 {
        self.index_dirs.iter().map(|d| proc::dir_bytes(d)).sum()
    }

    /// A child that exited on its own has crashed.
    fn crashed(&mut self) -> Option<String> {
        self.procs.iter_mut().find_map(|p| {
            p.has_exited()
                .then(|| format!("{} exited during the run", p.label))
        })
    }

    fn remove_index_dirs(&self) {
        for d in &self.index_dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// One set-up: bring the deployment up until `HEALTH` answers over the
/// wanted prefix. Returns the deployment, a connected client, the set-up
/// seconds, and (where set-up indexes through a timed call) series per
/// second of that call.
fn set_up(env: &Env, kind: Kind, rep: usize) -> Result<(Serving, Conn, f64, Option<f64>), String> {
    let n = env.params.n;
    let t0 = Instant::now();
    let (serving, want, mut index_rate) = match kind {
        Kind::QueryStatic => (
            Serving::single(env, &format!("static-{rep}"), None)?,
            n,
            None,
        ),
        Kind::DistributedK2 => (Serving::cluster(env, &format!("k2-{rep}"))?, n, None),
        Kind::IngestQueryMix => {
            let initial = mix_initial(n);
            let s = Serving::single(env, &format!("mix-{rep}"), Some(initial))?;
            (s, initial, None)
        }
    };
    let mut conn = Conn::connect(&serving.addr, Duration::from_secs(10))?;
    if kind != Kind::IngestQueryMix {
        // One INGEST call indexes the whole dataset as one run (through the
        // coordinator: one BUILD per shard).
        let t = Instant::now();
        let reply = conn.request(&format!("INGEST upto={n}"))?;
        let secs = t.elapsed().as_secs_f64();
        if client::field_u64(&reply, "covered") != Some(n) {
            return Err(format!("set-up INGEST answered: {reply}"));
        }
        index_rate = Some(n as f64 / secs);
    }
    let health = conn.request("HEALTH")?;
    if !health.starts_with("OK healthy") || client::field_u64(&health, "covered") != Some(want) {
        return Err(format!("HEALTH after set-up answered: {health}"));
    }
    Ok((serving, conn, t0.elapsed().as_secs_f64(), index_rate))
}

fn mix_initial(n: u64) -> u64 {
    (n as f64 * MIX_INITIAL_SHARE) as u64
}

/// One timed query.
struct QuerySample {
    class: Class,
    ms: f64,
    /// Completed inside the window (counts toward `query_qps`).
    in_window: bool,
}

/// A far / KNN reply, a candidate for the post-window oracle.
struct Answer {
    class: Class,
    query: Vec<f32>,
    reply: client::QueryReply,
}

impl Answer {
    fn check(&self, label: String) -> Check {
        Check {
            label,
            want: match self.class {
                Class::Knn => KNN_K.min(self.reply.covered as usize),
                _ => 1,
            },
            query: self.query.clone(),
            hits: self.reply.hits.clone(),
            covered: self.reply.covered,
            tol: REPLY_TOL,
        }
    }
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<QuerySample>,
    answers: Vec<Answer>,
    attempted: u64,
    failures: Vec<String>,
}

/// Check a near reply by construction: it must name the member the query
/// was made from, no farther than the noise put it.
fn check_near(op: &Op, reply: &client::QueryReply) -> Result<(), String> {
    let (source, dist) = op.source.expect("near ops carry their source");
    match reply.hits.first() {
        Some(&(pos, d)) if pos == source && d <= dist + REPLY_TOL => Ok(()),
        other => Err(format!(
            "near query from #{source} (dist {dist}) answered {other:?}"
        )),
    }
}

/// A closed loop: send, wait for the reply, send the next. Ops before
/// `window_start` are the warm-up; no op starts after `window_end`.
fn closed_loop(
    conn: &mut Conn,
    sched: &mut Schedule,
    window_start: Instant,
    window_end: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let op = sched.next_op();
        let line = op.line();
        let sent = Instant::now();
        if sent >= window_end || proc::interrupted() {
            return log;
        }
        log.attempted += 1;
        let reply = conn.request(&line);
        let done = Instant::now();
        let parsed = match reply.and_then(|r| client::parse_query_reply(&r)) {
            Ok(p) => p,
            Err(e) => {
                // A dead or wedged server fails every later op too: stop.
                log.failures.push(format!("{} query: {e}", op.class.name()));
                return log;
            }
        };
        match op.class {
            Class::Near => {
                if let Err(e) = check_near(&op, &parsed) {
                    log.failures.push(e);
                }
            }
            class => log.answers.push(Answer {
                class,
                query: op.query,
                reply: parsed,
            }),
        }
        if sent >= window_start {
            log.samples.push(QuerySample {
                class: op.class,
                ms: (done - sent).as_secs_f64() * 1e3,
                in_window: done <= window_end,
            });
        }
    }
}

/// What the open-loop writer of `ingest_query_mix` saw.
#[derive(Default)]
struct WriterLog {
    timing: OpenLoopLog,
    acked: u64,
    added: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// The open-loop writer: `INGEST upto=<next>` every `MIX_PERIOD_S`, whether
/// or not the previous batch was quick, growing the index from `from` to
/// `to` over the window.
fn open_loop_writer(
    conn: &mut Conn,
    from: u64,
    to: u64,
    window_start: Instant,
    window: f64,
) -> WriterLog {
    let mut log = WriterLog {
        acked: from,
        ..WriterLog::default()
    };
    let batches = ((window / MIX_PERIOD_S).floor() as u64).max(1);
    let mut free_at = 0.0;
    for k in 0..batches {
        let due = k as f64 * MIX_PERIOD_S;
        let upto = from + (to - from) * (k + 1) / batches;
        let wake = window_start + Duration::from_secs_f64(send_time(due, free_at));
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        if proc::interrupted() {
            return log;
        }
        let sent = window_start.elapsed().as_secs_f64();
        log.attempted += 1;
        let reply = conn.request(&format!("INGEST upto={upto}"));
        free_at = window_start.elapsed().as_secs_f64();
        match reply {
            Ok(r) if client::field_u64(&r, "covered") == Some(upto) => {
                log.timing.record(due, sent, free_at);
                log.added += client::field_u64(&r, "added").unwrap_or(0);
                log.acked = upto;
            }
            Ok(r) => {
                log.failures
                    .push(format!("INGEST upto={upto} answered: {r}"));
                return log;
            }
            Err(e) => {
                log.failures.push(format!("INGEST upto={upto}: {e}"));
                return log;
            }
        }
    }
    log
}

/// Pick `count` evenly spaced answers for the oracle.
fn sample_answers<T>(answers: Vec<T>, count: usize) -> Vec<T> {
    if answers.len() <= count {
        return answers;
    }
    let step = answers.len() as f64 / count as f64;
    let picks: Vec<usize> = (0..count).map(|i| (i as f64 * step) as usize).collect();
    answers
        .into_iter()
        .enumerate()
        .filter(|(i, _)| picks.binary_search(i).is_ok())
        .map(|(_, c)| c)
        .collect()
}

/// Poll `HEALTH` until background merges have stopped changing the run set
/// (the server has no "merges in flight" signal; the largest merge a window
/// leaves behind takes a few hundred milliseconds).
fn settle(conn: &mut Conn) -> Result<String, String> {
    const POLL: Duration = Duration::from_millis(50);
    const STABLE_POLLS: u32 = 12;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = String::new();
    let mut stable = 0;
    while stable < STABLE_POLLS && Instant::now() < deadline {
        let health = conn.request("HEALTH")?;
        stable = if health == last { stable + 1 } else { 0 };
        last = health;
        std::thread::sleep(POLL);
    }
    conn.stats()
}

pub fn run(env: &Env, kind: Kind) -> Result<Measured, String> {
    let p = &env.params;
    let mut m = Measured::default();

    // Set-up, several times; the last deployment serves the window.
    let mut setups = Vec::new();
    let mut index_rates = Vec::new();
    let mut live: Option<(Serving, Conn)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((old, conn)) = live.take() {
            drop(conn);
            old.remove_index_dirs();
        }
        m.attempted += 1;
        let (serving, conn, secs, rate) = set_up(env, kind, rep)?;
        setups.push(secs);
        index_rates.extend(rate);
        live = Some((serving, conn));
    }
    let (mut serving, mut conn_a) = live.expect("at least one set-up");
    m.put("setup_s", stats::median(&setups), setups.len());

    // Warm-up, then the window.
    let near_below = if kind == Kind::IngestQueryMix {
        mix_initial(p.n)
    } else {
        p.n
    };
    let mut conn_b = Conn::connect(&serving.addr, Duration::from_secs(10))?;
    let t_warm = Instant::now();
    let window_start = t_warm + Duration::from_secs_f64(p.warmup);
    let window_end = window_start + Duration::from_secs_f64(p.window);
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut writer: Option<WriterLog> = None;
    std::thread::scope(|s| {
        let b = s.spawn(|| {
            closed_loop(
                &mut conn_b,
                &mut Schedule::new(p.seed, 1, p.len, near_below),
                window_start,
                window_end,
            )
        });
        if kind == Kind::IngestQueryMix {
            // Connection A writes (open loop), connection B queries.
            std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
            writer = Some(open_loop_writer(
                &mut conn_a,
                near_below,
                p.n,
                window_start,
                p.window,
            ));
        } else {
            logs.push(closed_loop(
                &mut conn_a,
                &mut Schedule::new(p.seed, 0, p.len, near_below),
                window_start,
                window_end,
            ));
        }
        logs.push(b.join().expect("the query client panicked"));
    });

    let mut samples = Vec::new();
    let mut answers = Vec::new();
    for log in logs {
        m.attempted += log.attempted;
        log.failures.into_iter().for_each(|f| m.fail(f));
        samples.extend(log.samples);
        answers.extend(log.answers);
    }
    query_metrics(&mut m, &samples, p.window);

    let mut last_acked = p.n;
    if let Some(w) = writer {
        m.attempted += w.attempted;
        w.failures.into_iter().for_each(|f| m.fail(f));
        last_acked = w.acked;
        if w.acked != p.n {
            m.fail(format!("the writer reached {} of {} series", w.acked, p.n));
        }
        let inside: f64 = w.timing.service_ms.iter().sum::<f64>() / 1e3;
        index_rates = vec![w.added as f64 / inside];
        let n = w.timing.latency_ms.len();
        m.put("ingest_series_per_s", w.added as f64 / inside, n);
        m.put(
            "ingest_batch_p50_ms",
            stats::median(&w.timing.latency_ms),
            n,
        );
        if let Some(pct) = stats::highest_supported(n).filter(|&pct| pct > 50.0) {
            m.put(
                &format!("ingest_batch_p{pct}_ms"),
                stats::percentile(&w.timing.latency_ms, pct),
                n,
            );
        }
        m.put(
            "generator_late_p95_ms",
            stats::percentile(&w.timing.late_ms, 95.0),
            n,
        );
    }
    m.put(
        "build_series_per_s",
        stats::median(&index_rates),
        index_rates.len(),
    );

    // Storage cost, after background merges settle. The mix then compacts to
    // one run so its bytes compare with a from-scratch index.
    if kind != Kind::DistributedK2 {
        let stats_text = settle(&mut conn_a)?;
        for (name, gauge) in [
            ("write_amp", "coconut_write_amp"),
            ("space_amp", "coconut_space_amp"),
            ("runs_at_end", "coconut_runs"),
            ("pool_rejected_total", "coconut_requests_rejected_total"),
        ] {
            if let Some(v) = client::scrape(&stats_text, gauge) {
                m.put(name, v, 1);
            }
        }
    }
    if kind == Kind::IngestQueryMix {
        m.attempted += 1;
        let t = Instant::now();
        match conn_a.request("COMPACT") {
            Ok(r) if r.starts_with("OK compact runs=1") => {
                m.put("final_compact_s", t.elapsed().as_secs_f64(), 1)
            }
            other => m.fail(format!("COMPACT answered {other:?}")),
        }
        let _ = conn_a.request("GC");
    }
    m.put(
        "index_bytes_per_series",
        serving.index_bytes() as f64 / p.n as f64,
        1,
    );
    if let Some(crash) = serving.crashed() {
        m.fail(crash);
    }

    // Process-crash probe: SIGKILL after the last acknowledged INGEST, then
    // restart on the same directory. Every acknowledged series must still
    // be covered and the sampled queries still exact.
    let sampled = sample_answers(answers, ORACLE_SAMPLES);
    let mut checks: Vec<Check> = sampled
        .iter()
        .map(|a| a.check(format!("{} query", a.class.name())))
        .collect();
    if kind == Kind::IngestQueryMix {
        drop(conn_a);
        drop(conn_b);
        let dir = serving.index_dirs[0].clone();
        serving.procs[0].kill();
        drop(serving);
        let t = Instant::now();
        let revived = Serving::single_on(env, dir, None)?;
        let mut conn = Conn::connect(&revived.addr, Duration::from_secs(10))?;
        let health = conn.request("HEALTH")?;
        m.put("restart_s", t.elapsed().as_secs_f64(), 1);
        let covered = client::field_u64(&health, "covered").unwrap_or(0);
        m.attempt(if covered >= last_acked {
            Ok(())
        } else {
            Err(format!(
                "after SIGKILL + restart covered={covered} < acknowledged {last_acked}"
            ))
        });
        m.note(
            "durability probe: process crash (SIGKILL), not power loss - the OS cache survives; \
             flush policy: each run file and the manifest are fsynced before INGEST is acknowledged",
        );
        for a in sampled {
            m.attempted += 1;
            let label = format!("{} query after restart", a.class.name());
            let op = Op {
                class: a.class,
                query: a.query,
                source: None,
            };
            match conn
                .request(&op.line())
                .and_then(|r| client::parse_query_reply(&r))
            {
                Ok(reply) => checks.push(
                    Answer {
                        class: op.class,
                        query: op.query,
                        reply,
                    }
                    .check(label),
                ),
                Err(e) => m.fail(format!("{label}: {e}")),
            }
        }
        drop(conn);
        drop(revived);
    } else {
        drop(conn_a);
        drop(conn_b);
        drop(serving);
    }

    // The oracle runs last, with every child gone: it never competes with
    // the program for the two cores.
    let t = Instant::now();
    let verdicts = oracle::verify(&env.data, p.len, &checks, proc::nproc(), p.break_oracle)?;
    m.put("oracle_checked", verdicts.len() as f64, verdicts.len());
    m.put("oracle_s", t.elapsed().as_secs_f64(), 1);
    for v in verdicts {
        m.attempt(v.map_or(Ok(()), Err));
    }
    Ok(m)
}

/// Throughput and latency percentiles of the window's queries.
fn query_metrics(m: &mut Measured, samples: &[QuerySample], window: f64) {
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let completed = samples.iter().filter(|s| s.in_window).count();
    m.put("query_qps", completed as f64 / window, completed);
    m.put("query_p50_ms", stats::median(&all), all.len());
    for pct in [95.0, 99.0] {
        if stats::supports(all.len(), pct) {
            m.put(
                &format!("query_p{pct}_ms"),
                stats::percentile(&all, pct),
                all.len(),
            );
        }
    }
    for class in Class::ALL {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        m.put(
            &format!("{}_p50_ms", class.name()),
            stats::median(&ms),
            ms.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_sample_is_evenly_spread_and_bounded() {
        let picked = sample_answers((0..100).collect(), 40);
        assert_eq!(picked.len(), 40);
        assert_eq!(picked[0], 0);
        assert!(*picked.last().unwrap() >= 95);
        assert_eq!(sample_answers((0..7).collect(), 40).len(), 7);
    }
}
