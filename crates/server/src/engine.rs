//! Request execution: each query pins an LSM [`Snapshot`] and runs
//! lock-free against it under a cooperative [`Deadline`].
//!
//! [`Snapshot`]: coconut_core::Snapshot
//!
//! Every query response carries `covered=<n> seq=<s>` — the pinned
//! snapshot's prefix and manifest sequence — so a client checking answers
//! against a brute-force oracle knows *exactly* which prefix of the dataset
//! the server answered over, even while ingest is advancing concurrently.
//!
//! One [`Engine`] serves two deployment shapes behind the same protocol:
//!
//! * **whole-dataset mode** ([`Engine::new`]) — the classic single-node
//!   server over an open index;
//! * **shard-worker mode** ([`Engine::new_shard`]) — the index over one
//!   key-range slice may not exist yet; the coordinator's `BUILD
//!   start=<s> end=<e>` request assigns the slice (creating the slice
//!   index with its base at `s`, or verifying a recovered one) before any
//!   query can run. `EXACT`/`KNN` accept the coordinator's `bound=` and
//!   return only candidates that could still enter the global answer.
//!
//! Distances in replies are formatted with Rust's shortest-roundtrip `f64`
//! `Display`, so a coordinator parsing them back recovers the *bit-exact*
//! value — the property the distributed fabric's bit-identity guarantee
//! rests on.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::query::nearest_of;
use coconut_core::{BuildOptions, IndexConfig, Kind, LsmCoconut, Query, ShardInfo};
use coconut_series::dataset::Dataset;
use coconut_series::distance::znormalize;
use coconut_series::gen::{Generator, RandomWalkGen};
use coconut_series::index::Answer;
use coconut_series::Value;
use coconut_storage::{Deadline, Error, Result};
use parking_lot::RwLock;

use crate::metrics::ServerMetrics;
use crate::protocol::{parse, QuerySpec, Request};

/// The result of executing one request line.
pub struct Outcome {
    /// The reply to write back (always newline-terminated by the caller).
    pub reply: String,
    /// True when the connection should close after the reply (QUIT).
    pub close: bool,
}

/// What the connection layer needs from a request executor. [`Engine`]
/// (single node or shard worker) and `CoordinatorEngine` both implement
/// this, so one listener/pool serves every deployment shape.
pub trait Handler: Send + Sync + 'static {
    /// Execute one request line and format the reply.
    fn execute_line(&self, line: &str) -> Outcome;
    /// Render the Prometheus metrics text (the `GET /metrics` body).
    fn metrics_text(&self) -> String;
    /// One-line health summary (the `GET /health` body).
    fn health_line(&self) -> String;
    /// Called when the admission queue refused a connection.
    fn on_rejected(&self);
    /// Called when a connection is closed by the idle-read timeout.
    fn on_idle_disconnect(&self) {}
}

/// The index an engine executes against.
enum Slot {
    /// Whole-dataset mode: the index exists for the engine's lifetime.
    Fixed(Arc<LsmCoconut>),
    /// Shard-worker mode: the slice index is created (or re-verified) by
    /// the first `BUILD` request.
    Shard(ShardSlot),
}

/// Deferred state of a shard worker's slice index.
struct ShardSlot {
    index_dir: PathBuf,
    config: IndexConfig,
    opts: BuildOptions,
    state: RwLock<Option<ShardState>>,
}

struct ShardState {
    lsm: Arc<LsmCoconut>,
    range: Range<u64>,
}

/// Shared request executor: one per server, used from every worker thread.
pub struct Engine {
    dataset: Dataset,
    metrics: Arc<ServerMetrics>,
    default_deadline: Option<Duration>,
    slot: Slot,
}

impl Engine {
    /// Build a whole-dataset engine over an open index.
    /// `default_deadline` applies to queries that don't set `deadline_ms=`.
    pub fn new(lsm: Arc<LsmCoconut>, dataset: Dataset, default_deadline: Option<Duration>) -> Self {
        Engine {
            dataset,
            metrics: Arc::new(ServerMetrics::new()),
            default_deadline,
            slot: Slot::Fixed(lsm),
        }
    }

    /// Build a shard-worker engine. The slice index in `index_dir` is
    /// created by the first `BUILD start=<s> end=<e>` request (with
    /// `config`/`opts`); pass `recovered` when the directory already holds
    /// an index recovered from a previous process — its manifest base is
    /// the slice start, and the provisional slice end is its covered
    /// prefix until a `BUILD` re-pins the assignment.
    pub fn new_shard(
        dataset: Dataset,
        index_dir: impl Into<PathBuf>,
        config: IndexConfig,
        opts: BuildOptions,
        recovered: Option<Arc<LsmCoconut>>,
        default_deadline: Option<Duration>,
    ) -> Self {
        let state = recovered.map(|lsm| {
            let range = lsm.base()..lsm.covered_end().max(lsm.base());
            ShardState { lsm, range }
        });
        Engine {
            dataset,
            metrics: Arc::new(ServerMetrics::new()),
            default_deadline,
            slot: Slot::Shard(ShardSlot {
                index_dir: index_dir.into(),
                config,
                opts,
                state: RwLock::new(state),
            }),
        }
    }

    /// The engine's metric set (shared with the admission layer).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The underlying index (tests and the load generator use it to settle
    /// compactions or inspect state).
    ///
    /// # Panics
    ///
    /// Panics on a shard-worker engine, whose index is owned by the
    /// deferred slot; use the `SHARD-INFO` verb instead.
    pub fn lsm(&self) -> &Arc<LsmCoconut> {
        match &self.slot {
            Slot::Fixed(lsm) => lsm,
            Slot::Shard(_) => panic!("Engine::lsm() is not available in shard-worker mode"),
        }
    }

    /// The live index, if any: the fixed one, or the shard slot's current
    /// slice index.
    fn current(&self) -> Result<Arc<LsmCoconut>> {
        match &self.slot {
            Slot::Fixed(lsm) => Ok(Arc::clone(lsm)),
            Slot::Shard(slot) => slot
                .state
                .read()
                .as_ref()
                .map(|s| Arc::clone(&s.lsm))
                .ok_or_else(|| {
                    Error::invalid("shard has no assigned slice yet; send BUILD start=<s> end=<e>")
                }),
        }
    }

    /// Render the Prometheus metrics text.
    pub fn metrics_text(&self) -> String {
        match self.current() {
            Ok(lsm) => self.metrics.render(&lsm),
            Err(_) => self.metrics.render_without_index(),
        }
    }

    /// One-line health summary.
    pub fn health_line(&self) -> String {
        match self.current() {
            Ok(lsm) => {
                let snap = lsm.snapshot();
                let levels: Vec<String> = lsm
                    .level_run_counts()
                    .iter()
                    .map(|n| n.to_string())
                    .collect();
                format!(
                    "OK healthy covered={} runs={} seq={} write_amp={:.2} levels={}",
                    snap.covered_end(),
                    snap.run_count(),
                    snap.seq(),
                    lsm.write_amplification(),
                    if levels.is_empty() {
                        "-".to_string()
                    } else {
                        levels.join("/")
                    }
                )
            }
            Err(_) => "OK healthy unassigned covered=0 runs=0 seq=0".into(),
        }
    }

    /// Execute one request line and format the reply.
    pub fn execute_line(&self, line: &str) -> Outcome {
        let request = match parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.record_failure(false);
                return Outcome {
                    reply: parse_err_reply(&e),
                    close: false,
                };
            }
        };
        if matches!(request, Request::Quit) {
            return Outcome {
                reply: "OK bye".into(),
                close: true,
            };
        }
        let reply = match self.execute(&request) {
            Ok(reply) => reply,
            Err(e) => {
                self.metrics.record_failure(e.is_deadline());
                err_reply(&e)
            }
        };
        Outcome {
            reply,
            close: false,
        }
    }

    fn execute(&self, request: &Request) -> Result<String> {
        match request {
            Request::Ping => Ok("OK pong".into()),
            Request::Health => Ok(self.health_line()),
            Request::Stats => Ok(format!("{}# EOF", self.metrics_text())),
            Request::Exact { .. } | Request::Knn { .. } | Request::Range { .. } => {
                let wire = request
                    .query()
                    .ok_or_else(|| Error::invalid("not a query request"))?;
                // A single node (or one shard's slice) has no shards to
                // lose; mode=degraded is accepted but never degrades here.
                let query = Query {
                    deadline: self.deadline(wire.deadline_ms),
                    ..wire.query
                };
                let snap = self.current()?.snapshot();
                let q = resolve_query(&self.dataset, wire.series)?;
                let started = Instant::now();
                let (answers, stats) = snap.search(&q, &query)?;
                self.metrics
                    .record_query(started.elapsed().as_secs_f64(), &stats);
                let mut reply =
                    fmt_query_reply(&query.kind, &answers, snap.covered_end(), snap.seq());
                if query.kind == Kind::Nearest {
                    reply.push_str(&format!(" fetched={}", stats.records_fetched));
                }
                Ok(reply)
            }
            Request::Ingest { upto } => {
                let lsm = self.current()?;
                let upto = upto.unwrap_or_else(|| self.dataset.len());
                let before = lsm.covered_end();
                lsm.ingest_upto(&self.dataset, upto)?;
                let after = lsm.covered_end();
                self.metrics.record_ingest(after.saturating_sub(before));
                Ok(format!(
                    "OK ingest covered={} added={} runs={}",
                    after,
                    after.saturating_sub(before),
                    lsm.run_count()
                ))
            }
            Request::Build { start, end, upto } => {
                let info = self.build(*start, *end, *upto)?;
                Ok(format!("OK build {}", fmt_shard_info(&info)))
            }
            Request::ShardInfo => {
                let info = self.shard_info()?;
                Ok(format!("OK shard-info {}", fmt_shard_info(&info)))
            }
            Request::Compact => {
                let lsm = self.current()?;
                lsm.compact()?;
                Ok(format!("OK compact runs={}", lsm.run_count()))
            }
            Request::Gc => Ok(format!(
                "OK gc removed={}",
                self.current()?.collect_garbage()
            )),
            Request::Quit => Ok("OK bye".into()),
        }
    }

    /// The shard's assigned slice and ingest progress. In whole-dataset
    /// mode the "slice" is the entire dataset.
    pub fn shard_info(&self) -> Result<ShardInfo> {
        let range = match &self.slot {
            Slot::Fixed(_) => 0..self.dataset.len(),
            Slot::Shard(slot) => {
                let state = slot.state.read();
                let state = state.as_ref().ok_or_else(|| {
                    Error::invalid("shard has no assigned slice yet; send BUILD start=<s> end=<e>")
                })?;
                state.range.clone()
            }
        };
        let snap = self.current()?.snapshot();
        Ok(ShardInfo {
            start: range.start,
            end: range.end,
            covered_end: snap.covered_end(),
            seq: snap.seq(),
            runs: snap.run_count() as u64,
        })
    }

    /// Assign (or re-verify) the slice `start..end` and index it up to
    /// `upto` (clamped into the slice; `None` = the whole slice).
    fn build(&self, start: u64, end: u64, upto: Option<u64>) -> Result<ShardInfo> {
        let (lsm, range) = match &self.slot {
            Slot::Fixed(lsm) => {
                if start != 0 {
                    return Err(Error::invalid(format!(
                        "this server owns the whole dataset (slice 0..{}); \
                         BUILD start={start} does not match",
                        self.dataset.len()
                    )));
                }
                (Arc::clone(lsm), 0..end.min(self.dataset.len()))
            }
            Slot::Shard(slot) => {
                let mut state = slot.state.write();
                match state.as_mut() {
                    Some(s) => {
                        if s.range.start != start {
                            return Err(Error::invalid(format!(
                                "shard slice starts at {} but BUILD asked for start={start}; \
                                 a slice's base is fixed at creation",
                                s.range.start
                            )));
                        }
                        // Re-pin the provisional end a recovery guessed.
                        s.range.end = end.max(s.lsm.covered_end());
                        (Arc::clone(&s.lsm), s.range.clone())
                    }
                    None => {
                        let lsm = self.open_or_create_slice(slot, start)?;
                        let range = start..end;
                        *state = Some(ShardState {
                            lsm: Arc::clone(&lsm),
                            range: range.clone(),
                        });
                        (lsm, range)
                    }
                }
            }
        };
        let upto = upto.unwrap_or(range.end).clamp(range.start, range.end);
        let before = lsm.covered_end();
        lsm.ingest_upto(&self.dataset, upto)?;
        self.metrics
            .record_ingest(lsm.covered_end().saturating_sub(before));
        self.shard_info()
    }

    /// Recover the slice index from disk (verifying its base) or create a
    /// fresh one based at `start`.
    fn open_or_create_slice(&self, slot: &ShardSlot, start: u64) -> Result<Arc<LsmCoconut>> {
        let manifest = coconut_core::manifest::Manifest::path_in(&slot.index_dir);
        let lsm = if manifest.exists() {
            let lsm = LsmCoconut::open(&slot.index_dir, &self.dataset, slot.opts.clone())?;
            if lsm.base() != start {
                return Err(Error::invalid(format!(
                    "recovered slice index in {} is based at {} but BUILD asked \
                     for start={start}",
                    slot.index_dir.display(),
                    lsm.base()
                )));
            }
            lsm
        } else {
            LsmCoconut::new_based(slot.config, slot.opts.clone(), &slot.index_dir, start)?
        };
        Ok(Arc::new(lsm))
    }

    fn deadline(&self, requested_ms: Option<u64>) -> Deadline {
        match requested_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => self
                .default_deadline
                .map_or(Deadline::NONE, Deadline::after),
        }
    }
}

impl Handler for Engine {
    fn execute_line(&self, line: &str) -> Outcome {
        Engine::execute_line(self, line)
    }

    fn metrics_text(&self) -> String {
        Engine::metrics_text(self)
    }

    fn health_line(&self) -> String {
        Engine::health_line(self)
    }

    fn on_rejected(&self) {
        self.metrics.rejected.inc();
    }

    fn on_idle_disconnect(&self) {
        self.metrics.idle_disconnects.inc();
    }
}

/// Materialize the query vector named by a request against `dataset`.
pub(crate) fn resolve_query(dataset: &Dataset, spec: &QuerySpec) -> Result<Vec<Value>> {
    let len = dataset.series_len();
    match spec {
        QuerySpec::Seed(seed) => {
            let mut q = RandomWalkGen::new(*seed).generate(len);
            znormalize(&mut q);
            Ok(q)
        }
        QuerySpec::Pos(pos) => {
            if *pos >= dataset.len() {
                return Err(Error::invalid(format!(
                    "q=pos:{pos} is beyond the dataset ({} series)",
                    dataset.len()
                )));
            }
            dataset.get(*pos)
        }
        QuerySpec::Values(values) => {
            if values.len() != len {
                return Err(Error::invalid(format!(
                    "q=v: has {} values but the dataset's series length is {len}",
                    values.len()
                )));
            }
            Ok(values.clone())
        }
    }
}

/// Map an [`Error`] to its wire category (`ERR <category>: <message>`).
pub(crate) fn err_reply(e: &Error) -> String {
    let category = match e {
        Error::Io(_) => "io",
        Error::Corrupt(_) => "corrupt",
        Error::InvalidArg(_) => "invalid",
        Error::Deadline(_) => "deadline",
        Error::Unavailable(_) => "unavailable",
    };
    format!("ERR {category}: {}", one_line(&e.to_string()))
}

/// Format a [`crate::protocol::ParseError`] as its wire reply.
pub(crate) fn parse_err_reply(e: &crate::protocol::ParseError) -> String {
    format!("ERR parse: {}", one_line(&e.to_string()))
}

/// Keep a reply one line no matter what the message holds.
fn one_line(msg: &str) -> String {
    msg.chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect()
}

/// Format an answer with shortest-roundtrip `f64` precision: parsing the
/// printed distance back recovers the identical bits.
pub(crate) fn fmt_answer(a: &Answer) -> String {
    if a.is_some() {
        format!("pos={} dist={}", a.pos, a.dist)
    } else {
        "pos=none dist=inf".into()
    }
}

/// Format a hit list as `pos:dist,...` (shortest-roundtrip distances), or
/// `none` when empty.
pub(crate) fn fmt_hits(answers: &[Answer]) -> String {
    if answers.is_empty() {
        return "none".into();
    }
    answers
        .iter()
        .map(|a| format!("{}:{}", a.pos, a.dist))
        .collect::<Vec<_>>()
        .join(",")
}

/// The reply to a query of `kind`, up to the fields single nodes and
/// coordinators share: what was found, over which prefix.
pub(crate) fn fmt_query_reply(kind: &Kind, answers: &[Answer], covered: u64, seq: u64) -> String {
    match kind {
        // (no wire verb yields an approximate query yet)
        Kind::Nearest | Kind::Approx => format!(
            "OK exact {} covered={covered} seq={seq}",
            fmt_answer(&nearest_of(answers))
        ),
        Kind::Knn(k) => format!(
            "OK knn k={k} covered={covered} seq={seq} hits={}",
            fmt_hits(answers)
        ),
        Kind::Range(eps) => format!(
            "OK range eps={eps} covered={covered} seq={seq} hits={}",
            fmt_hits(answers)
        ),
    }
}

/// Serialize a [`ShardInfo`] as its wire fields.
pub(crate) fn fmt_shard_info(info: &ShardInfo) -> String {
    format!(
        "start={} end={} covered={} seq={} runs={}",
        info.start, info.end, info.covered_end, info.seq, info.runs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_round_trip_bit_exactly() {
        // The shortest-roundtrip property the distributed fabric relies on.
        for bits in [
            0x3FF0000000000001u64, // 1.0 + 1 ulp
            0x400921FB54442D18,    // pi
            0x0000000000000001,    // smallest subnormal
            0x7FEFFFFFFFFFFFFF,    // f64::MAX
        ] {
            let d = f64::from_bits(bits);
            let a = Answer { pos: 7, dist: d };
            let printed = fmt_answer(&a);
            let parsed: f64 = printed
                .split("dist=")
                .nth(1)
                .unwrap()
                .parse()
                .expect("reply distance parses");
            assert_eq!(parsed.to_bits(), bits, "{printed}");
        }
        assert_eq!(fmt_answer(&Answer::none()), "pos=none dist=inf");
        assert!("inf".parse::<f64>().unwrap().is_infinite());
    }
}
