//! The server's metric set: one [`ServerMetrics`] per server process,
//! built on the lock-free instruments of [`coconut_storage::metrics`].
//!
//! Counters and histograms are updated on the request hot path (a handful
//! of relaxed atomics each); gauges derived from index state (covered
//! prefix, run count, compaction debt) and from sliding-window meters (QPS,
//! ingest rate) are refreshed lazily inside [`ServerMetrics::render`], so
//! an idle server pays nothing for them.

use std::sync::Arc;

use coconut_core::LsmCoconut;
use coconut_series::index::QueryStats;
use coconut_storage::metrics::{Counter, Gauge, Histogram, RateMeter, Registry};

/// Latency histogram bounds: 100 µs to ~105 s in ×2 steps — wide enough
/// for sub-millisecond in-memory hits and multi-second cold scans alike.
const LATENCY_START: f64 = 1e-4;
const LATENCY_FACTOR: f64 = 2.0;
const LATENCY_BUCKETS: usize = 20;

/// QPS / ingest-rate window (seconds); bounded by the meter's ring size.
const RATE_WINDOW_S: u64 = 10;

/// Leaf-fill histogram bounds: ten linear buckets over `(0, 1]`; leaves an
/// unsplittable key group forced beyond capacity land in `+Inf`.
const FILL_BUCKETS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Per-level run-count gauges exported (`coconut_runs_level_0..`); the top
/// gauge absorbs every deeper level so the set stays fixed-size.
const LEVEL_GAUGES: usize = 8;

/// Every instrument the query server exports, with Prometheus rendering.
pub struct ServerMetrics {
    registry: Registry,
    /// Queries answered (any verb, success or failure).
    pub queries: Arc<Counter>,
    /// Queries that failed with a non-deadline error.
    pub errors: Arc<Counter>,
    /// Queries aborted by an expired per-request deadline.
    pub timeouts: Arc<Counter>,
    /// Connections rejected because the admission queue was full.
    pub rejected: Arc<Counter>,
    /// Connections closed by the server after the idle-read timeout.
    pub idle_disconnects: Arc<Counter>,
    /// End-to-end query latency in seconds.
    pub latency: Arc<Histogram>,
    /// Raw series fetched by SIMS scans, across all queries.
    pub records_fetched: Arc<Counter>,
    /// Leaf nodes visited while seeding approximate answers.
    pub leaves_visited: Arc<Counter>,
    /// Series added to the index by `INGEST` requests.
    pub ingested: Arc<Counter>,
    /// Events feeding the QPS gauge.
    pub query_meter: RateMeter,
    /// Events (one per ingested series) feeding the ingest-rate gauge.
    pub ingest_meter: RateMeter,
    qps: Arc<Gauge>,
    ingest_rate: Arc<Gauge>,
    p50: Arc<Gauge>,
    p99: Arc<Gauge>,
    covered: Arc<Gauge>,
    runs: Arc<Gauge>,
    debt: Arc<Gauge>,
    pinned_gc: Arc<Gauge>,
    disk: Arc<Gauge>,
    /// Per-leaf fill fractions across live runs; a *state* histogram,
    /// rebuilt from the index on every render rather than accumulated.
    leaf_fill: Arc<Histogram>,
    oversized_leaves: Arc<Gauge>,
    write_amp: Arc<Gauge>,
    space_amp: Arc<Gauge>,
    ingest_commits: Arc<Gauge>,
    runs_committed: Arc<Gauge>,
    runs_level: Vec<Arc<Gauge>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Build the full metric set (registration order is render order).
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let queries = reg.counter("coconut_queries_total", "Queries answered (all verbs).");
        let errors = reg.counter(
            "coconut_query_errors_total",
            "Queries failed with a non-deadline error.",
        );
        let timeouts = reg.counter(
            "coconut_query_timeouts_total",
            "Queries aborted by an expired per-request deadline.",
        );
        let rejected = reg.counter(
            "coconut_requests_rejected_total",
            "Connections rejected by the bounded admission queue.",
        );
        let idle_disconnects = reg.counter(
            "coconut_idle_disconnect_total",
            "Connections closed after the idle-read timeout.",
        );
        let latency = reg.histogram(
            "coconut_query_latency_seconds",
            "End-to-end query latency.",
            Histogram::exponential(LATENCY_START, LATENCY_FACTOR, LATENCY_BUCKETS),
        );
        let p50 = reg.gauge(
            "coconut_query_latency_p50_seconds",
            "Median query latency (estimated from the histogram).",
        );
        let p99 = reg.gauge(
            "coconut_query_latency_p99_seconds",
            "99th-percentile query latency (estimated from the histogram).",
        );
        let qps = reg.gauge(
            "coconut_qps",
            "Queries per second over the trailing window.",
        );
        let records_fetched = reg.counter(
            "coconut_records_fetched_total",
            "Raw series fetched by SIMS scans.",
        );
        let leaves_visited = reg.counter(
            "coconut_leaves_visited_total",
            "Leaf nodes visited while seeding approximate answers.",
        );
        let ingested = reg.counter(
            "coconut_series_ingested_total",
            "Series added to the index by INGEST requests.",
        );
        let ingest_rate = reg.gauge(
            "coconut_ingest_series_per_second",
            "Ingest throughput over the trailing window.",
        );
        let covered = reg.gauge(
            "coconut_covered_series",
            "End (exclusive) of the indexed raw-file prefix.",
        );
        let runs = reg.gauge("coconut_runs", "Live LSM runs (read amplification).");
        let debt = reg.gauge(
            "coconut_compaction_debt_bytes",
            "Index bytes not yet merged into the largest run.",
        );
        let pinned_gc = reg.gauge(
            "coconut_gc_pinned_runs",
            "Compacted-away runs kept on disk by live snapshots.",
        );
        let disk = reg.gauge("coconut_index_disk_bytes", "Total index bytes on disk.");
        let leaf_fill = reg.histogram(
            "coconut_leaf_fill",
            "Leaf occupancy (entries / leaf capacity) across live runs, \
             rebuilt at scrape time.",
            Histogram::new(&FILL_BUCKETS),
        );
        let oversized_leaves = reg.gauge(
            "coconut_oversized_leaves",
            "Leaves beyond capacity because identical keys cannot split.",
        );
        let write_amp = reg.gauge(
            "coconut_write_amp",
            "Entries written (ingested + rewritten by compaction) per \
             entry ingested, since this index instance opened.",
        );
        let space_amp = reg.gauge(
            "coconut_space_amp",
            "Index bytes on disk per byte referenced by the live run set \
             (garbage awaiting GC inflates it above 1).",
        );
        let ingest_commits = reg.gauge(
            "coconut_ingest_manifest_commits",
            "Manifest commits that acknowledged ingest batches (group \
             commit folds several runs into one).",
        );
        let runs_committed = reg.gauge(
            "coconut_ingest_runs_committed",
            "Ingest runs made durable across all manifest commits.",
        );
        let runs_level = (0..LEVEL_GAUGES)
            .map(|l| {
                reg.gauge(
                    &format!("coconut_runs_level_{l}"),
                    &format!(
                        "Live runs sized for level {l}{}.",
                        if l + 1 == LEVEL_GAUGES {
                            " or deeper"
                        } else {
                            ""
                        }
                    ),
                )
            })
            .collect();
        ServerMetrics {
            registry: reg,
            queries,
            errors,
            timeouts,
            rejected,
            idle_disconnects,
            latency,
            records_fetched,
            leaves_visited,
            ingested,
            query_meter: RateMeter::new(),
            ingest_meter: RateMeter::new(),
            qps,
            ingest_rate,
            p50,
            p99,
            covered,
            runs,
            debt,
            pinned_gc,
            disk,
            leaf_fill,
            oversized_leaves,
            write_amp,
            space_amp,
            ingest_commits,
            runs_committed,
            runs_level,
        }
    }

    /// Record one answered query: latency plus the scan's work counters.
    pub fn record_query(&self, seconds: f64, stats: &QueryStats) {
        self.queries.inc();
        self.query_meter.record();
        self.latency.observe(seconds);
        self.records_fetched.add(stats.records_fetched);
        self.leaves_visited.add(stats.leaves_visited);
    }

    /// Record a query failure; expired deadlines count separately so
    /// saturation (timeouts) is distinguishable from breakage (errors).
    pub fn record_failure(&self, is_deadline: bool) {
        if is_deadline {
            self.timeouts.inc();
        } else {
            self.errors.inc();
        }
    }

    /// Record `n` series committed by an ingest: one counter add and one
    /// meter add (one clock read) per batch, however large.
    pub fn record_ingest(&self, n: u64) {
        self.ingested.add(n);
        self.ingest_meter.add(n);
    }

    /// Refresh only the meter- and histogram-derived gauges, then render.
    /// For a shard worker whose slice index has not been assigned yet: the
    /// index gauges stay at their last (or zero) values.
    pub fn render_without_index(&self) -> String {
        self.qps.set(self.query_meter.per_second(RATE_WINDOW_S));
        self.ingest_rate
            .set(self.ingest_meter.per_second(RATE_WINDOW_S));
        self.p50.set(self.latency.quantile(0.50));
        self.p99.set(self.latency.quantile(0.99));
        self.registry.render()
    }

    /// Refresh the derived gauges from the index and the sliding-window
    /// meters, then render everything as Prometheus text.
    pub fn render(&self, lsm: &LsmCoconut) -> String {
        self.qps.set(self.query_meter.per_second(RATE_WINDOW_S));
        self.ingest_rate
            .set(self.ingest_meter.per_second(RATE_WINDOW_S));
        self.p50.set(self.latency.quantile(0.50));
        self.p99.set(self.latency.quantile(0.99));
        let snap = lsm.snapshot();
        self.covered.set(snap.covered_end() as f64);
        self.runs.set(snap.run_count() as f64);
        self.debt.set(lsm.compaction_debt() as f64);
        self.pinned_gc.set(lsm.pinned_garbage() as f64);
        self.disk
            .set(coconut_series::index::SeriesIndex::disk_bytes(lsm) as f64);
        self.leaf_fill.reset();
        for fill in lsm.leaf_fill_fractions() {
            self.leaf_fill.observe(fill);
        }
        self.oversized_leaves.set(lsm.oversized_leaves() as f64);
        self.write_amp.set(lsm.write_amplification());
        self.space_amp.set(lsm.space_amplification());
        let ws = lsm.write_stats();
        self.ingest_commits.set(ws.ingest_commits as f64);
        self.runs_committed.set(ws.runs_committed as f64);
        let counts = lsm.level_run_counts();
        for (l, gauge) in self.runs_level.iter().enumerate() {
            let n = if l + 1 == LEVEL_GAUGES {
                // The top gauge absorbs every deeper level.
                counts.iter().skip(l).sum::<usize>()
            } else {
                counts.get(l).copied().unwrap_or(0)
            };
            gauge.set(n as f64);
        }
        self.registry.render()
    }
}

/// Per-shard instruments of a coordinator's client pool. The storage
/// registry has no label support, so each shard's series are distinguished
/// by name: `coconut_shard_<i>_requests_total` and friends.
pub struct ShardClientMetrics {
    /// Requests sent to this shard (including retried attempts' parents).
    pub requests: Arc<Counter>,
    /// Retry attempts after an I/O failure or refused connection.
    pub retries: Arc<Counter>,
    /// Requests abandoned after the retry budget was exhausted.
    pub unavailable: Arc<Counter>,
    /// Candidate answers this shard contributed to scatter-gather merges.
    pub candidates: Arc<Counter>,
    /// Requests currently being serviced by this shard (at most one per
    /// coordinator worker, each on a connection of its own).
    pub in_flight: Arc<Gauge>,
}

impl ShardClientMetrics {
    /// Register this shard's instruments (as shard number `index`) in the
    /// coordinator's registry.
    pub fn new(reg: &mut Registry, index: usize) -> Self {
        ShardClientMetrics {
            requests: reg.counter(
                &format!("coconut_shard_{index}_requests_total"),
                &format!("Requests sent to shard {index}."),
            ),
            retries: reg.counter(
                &format!("coconut_shard_{index}_retries_total"),
                &format!("Retried attempts against shard {index}."),
            ),
            unavailable: reg.counter(
                &format!("coconut_shard_{index}_unavailable_total"),
                &format!("Requests abandoned after shard {index}'s retry budget."),
            ),
            candidates: reg.counter(
                &format!("coconut_shard_{index}_candidates_total"),
                &format!("Candidate answers shard {index} contributed."),
            ),
            in_flight: reg.gauge(
                &format!("coconut_shard_{index}_in_flight"),
                &format!("Requests currently in flight to shard {index}."),
            ),
        }
    }
}

/// The coordinator's metric set: cluster-level query counters plus one
/// [`ShardClientMetrics`] per shard, rendered from one registry.
pub struct CoordinatorMetrics {
    registry: Registry,
    /// Queries answered by the coordinator (any verb).
    pub queries: Arc<Counter>,
    /// Queries failed with a non-deadline, non-unavailable error.
    pub errors: Arc<Counter>,
    /// Queries aborted by an expired deadline.
    pub timeouts: Arc<Counter>,
    /// Queries that failed because a shard stayed unreachable.
    pub unavailable: Arc<Counter>,
    /// Degraded-mode queries answered with at least one slice missing.
    pub degraded: Arc<Counter>,
    /// Connections rejected by the admission queue.
    pub rejected: Arc<Counter>,
    /// Connections closed by the coordinator after the idle-read timeout.
    pub idle_disconnects: Arc<Counter>,
    /// End-to-end query latency in seconds (all shards' rounds included).
    pub latency: Arc<Histogram>,
    /// Per-shard client instruments, indexed by shard number.
    pub shards: Vec<Arc<ShardClientMetrics>>,
    p50: Arc<Gauge>,
    p99: Arc<Gauge>,
}

impl CoordinatorMetrics {
    /// Build the coordinator metric set for `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        let mut reg = Registry::new();
        let queries = reg.counter(
            "coconut_coordinator_queries_total",
            "Queries answered by the coordinator.",
        );
        let errors = reg.counter(
            "coconut_coordinator_errors_total",
            "Coordinator queries failed with a non-deadline error.",
        );
        let timeouts = reg.counter(
            "coconut_coordinator_timeouts_total",
            "Coordinator queries aborted by an expired deadline.",
        );
        let unavailable = reg.counter(
            "coconut_coordinator_unavailable_total",
            "Coordinator queries that lost a shard past its retry budget.",
        );
        let degraded = reg.counter(
            "coconut_coordinator_degraded_total",
            "Degraded-mode queries answered with at least one slice missing.",
        );
        let rejected = reg.counter(
            "coconut_coordinator_rejected_total",
            "Connections rejected by the coordinator's admission queue.",
        );
        let idle_disconnects = reg.counter(
            "coconut_idle_disconnect_total",
            "Connections closed after the idle-read timeout.",
        );
        let latency = reg.histogram(
            "coconut_coordinator_latency_seconds",
            "End-to-end scatter-gather query latency.",
            Histogram::exponential(LATENCY_START, LATENCY_FACTOR, LATENCY_BUCKETS),
        );
        let p50 = reg.gauge(
            "coconut_coordinator_latency_p50_seconds",
            "Median coordinator latency (estimated from the histogram).",
        );
        let p99 = reg.gauge(
            "coconut_coordinator_latency_p99_seconds",
            "99th-percentile coordinator latency (estimated from the histogram).",
        );
        let shards = (0..shard_count)
            .map(|i| Arc::new(ShardClientMetrics::new(&mut reg, i)))
            .collect();
        CoordinatorMetrics {
            registry: reg,
            queries,
            errors,
            timeouts,
            unavailable,
            degraded,
            rejected,
            idle_disconnects,
            latency,
            shards,
            p50,
            p99,
        }
    }

    /// Record one answered scatter-gather query.
    pub fn record_query(&self, seconds: f64) {
        self.queries.inc();
        self.latency.observe(seconds);
    }

    /// Record a failed query, classified by error kind.
    pub fn record_failure(&self, e: &coconut_storage::Error) {
        if e.is_deadline() {
            self.timeouts.inc();
        } else if e.is_unavailable() {
            self.unavailable.inc();
        } else {
            self.errors.inc();
        }
    }

    /// Refresh the derived gauges and render everything as Prometheus text.
    pub fn render(&self) -> String {
        self.p50.set(self.latency.quantile(0.50));
        self.p99.set(self.latency.quantile(0.99));
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_metrics_render_per_shard_series() {
        let m = CoordinatorMetrics::new(2);
        m.record_query(0.002);
        m.record_failure(&coconut_storage::Error::unavailable("shard down"));
        m.shards[1].retries.inc();
        m.shards[1].in_flight.set(1.0);
        let text = m.render();
        for required in [
            "coconut_coordinator_queries_total 1",
            "coconut_coordinator_unavailable_total 1",
            "coconut_coordinator_latency_p99_seconds",
            "coconut_shard_0_requests_total 0",
            "coconut_shard_1_retries_total 1",
            "coconut_shard_1_in_flight 1",
        ] {
            assert!(text.contains(required), "missing {required} in:\n{text}");
        }
    }

    #[test]
    fn render_lists_required_metrics() {
        use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
        let dir = coconut_storage::TempDir::new("srv-metrics").unwrap();
        let lsm = LsmCoconut::new(
            IndexConfig::default_for_len(64),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let m = ServerMetrics::new();
        m.record_query(0.004, &QueryStats::default());
        m.record_failure(true);
        m.record_ingest(100);
        let text = m.render(&lsm);
        for required in [
            "coconut_qps",
            "coconut_query_latency_p50_seconds",
            "coconut_query_latency_p99_seconds",
            "coconut_query_latency_seconds_bucket",
            "coconut_records_fetched_total",
            "coconut_compaction_debt_bytes",
            "coconut_query_timeouts_total 1",
            "coconut_series_ingested_total 100",
            "coconut_leaf_fill_bucket",
            "coconut_oversized_leaves 0",
            "coconut_write_amp",
            "coconut_space_amp",
            "coconut_ingest_manifest_commits",
            "coconut_ingest_runs_committed",
            "coconut_runs_level_0",
            "coconut_runs_level_7",
        ] {
            assert!(text.contains(required), "missing {required} in:\n{text}");
        }
    }

    #[test]
    fn leaf_fill_histogram_tracks_index_state() {
        use coconut_core::{BuildOptions, IndexConfig, LsmCoconut};
        use coconut_series::dataset::{write_dataset, Dataset};
        use coconut_series::gen::RandomWalkGen;
        use std::sync::Arc as StdArc;

        let dir = coconut_storage::TempDir::new("srv-fill").unwrap();
        let stats = StdArc::new(coconut_storage::IoStats::new());
        let path = dir.path().join("d.ds");
        write_dataset(&path, &mut RandomWalkGen::new(5), 300, 64, &stats).unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        let mut config = IndexConfig::default_for_len(64);
        config.leaf_capacity = 32;
        let lsm = LsmCoconut::new(config, BuildOptions::default(), dir.path().join("i")).unwrap();
        lsm.ingest_upto(&ds, 300).unwrap();
        lsm.wait_for_compactions().unwrap();

        let m = ServerMetrics::new();
        let text = m.render(&lsm);
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("coconut_leaf_fill_count "))
            .expect("histogram count line")
            .parse()
            .unwrap();
        assert_eq!(count, lsm.leaf_fill_fractions().len() as u64);
        assert!(count > 0, "ingested index must report leaves:\n{text}");
        // The histogram is rebuilt, not accumulated: a second scrape of an
        // unchanged index reports the same count.
        let text2 = m.render(&lsm);
        assert!(
            text2.contains(&format!("coconut_leaf_fill_count {count}")),
            "scrape must not accumulate:\n{text2}"
        );
    }
}
