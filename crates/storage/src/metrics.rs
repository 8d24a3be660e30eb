//! Cheap atomic metrics with Prometheus text rendering.
//!
//! The observability substrate for the query server (and anything else that
//! wants counters): lock-free [`Counter`]s, [`Gauge`]s, log-bucketed
//! [`Histogram`]s, and a sliding-window [`RateMeter`], collected in a
//! [`Registry`] that renders the whole set in the Prometheus text exposition
//! format (version 0.0.4). Every update is a handful of relaxed atomic
//! operations, so metrics can sit directly on query hot paths; rendering is
//! the only operation that allocates.
//!
//! The workspace's existing instrumentation ([`crate::IoStats`],
//! `QueryStats` in `coconut-series`) stays the per-operation measurement
//! layer; this module is the *aggregation* layer those numbers are folded
//! into over the lifetime of a process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed bucket upper bounds (plus an implicit `+Inf`),
/// with a total sum and count — enough for Prometheus `_bucket`/`_sum`/
/// `_count` series and server-side quantile estimates.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Box<[f64]>,
    /// One count per bound, plus a final overflow (`+Inf`) bucket.
    counts: Box<[AtomicU64]>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observations in fixed-point micro-units (1e-6), so `observe`
    /// stays a pair of atomic adds.
    sum_micro: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit bucket upper bounds (must be positive and
    /// strictly increasing).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
        }
    }

    /// `n` exponential buckets: `start, start*factor, start*factor², ...`.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        debug_assert!(start > 0.0 && factor > 1.0 && n > 0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Self::new(&bounds)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micro = (v * 1e6).max(0.0) as u64;
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket holding the target rank — the same estimate
    /// Prometheus's `histogram_quantile` computes. Returns 0 when empty;
    /// observations beyond the last bound clamp to it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            let next = cumulative + in_bucket;
            if (next as f64) >= target {
                // Interpolate within [lower, upper) by rank.
                let upper = self.bounds.get(i).copied().unwrap_or_else(|| {
                    // Overflow bucket: clamp to the largest finite bound.
                    self.bounds.last().copied().unwrap_or(0.0)
                });
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = ((target - cumulative as f64) / in_bucket as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
            cumulative = next;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Clear every bucket, the count, and the sum. For histograms that
    /// describe current *state* (e.g. per-leaf fill) rather than an event
    /// stream: the exporter rebuilds them from scratch on each scrape.
    /// Concurrent `observe` calls may land in either generation; state
    /// histograms are only written by the rendering thread, so in practice
    /// a scrape sees one consistent rebuild.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micro.store(0, Ordering::Relaxed);
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with `(+Inf, total)`
    /// — the shape of Prometheus `_bucket` series.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cumulative));
        }
        out
    }
}

/// Events-per-second over a sliding window, kept as a ring of per-second
/// slots stamped with their absolute second. Recording is two relaxed
/// atomics; slots recycle lazily, so an idle meter decays to zero without a
/// background thread.
#[derive(Debug)]
pub struct RateMeter {
    epoch: Instant,
    /// `(stamp, count)` per slot; a slot is valid for second `s` only while
    /// `stamps[s % N] == s`.
    stamps: Box<[AtomicU64]>,
    counts: Box<[AtomicU64]>,
}

/// Ring size: rates can be asked over windows up to this many seconds.
const RATE_SLOTS: u64 = 16;

impl Default for RateMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl RateMeter {
    /// A meter whose window starts now.
    pub fn new() -> Self {
        RateMeter {
            epoch: Instant::now(),
            stamps: (0..RATE_SLOTS).map(|_| AtomicU64::new(u64::MAX)).collect(),
            counts: (0..RATE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn second(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Record one event at the current instant.
    pub fn record(&self) {
        self.add(1);
    }

    /// Record `n` events at the current instant, reading the clock once.
    pub fn add(&self, n: u64) {
        let sec = self.second();
        let i = (sec % RATE_SLOTS) as usize;
        let stamped = self.stamps[i].load(Ordering::Relaxed);
        if stamped != sec {
            // First event of this second in this slot: recycle it. A racing
            // recorder may double-reset; the lost handful of events is
            // acceptable for a rate estimate.
            self.stamps[i].store(sec, Ordering::Relaxed);
            self.counts[i].store(0, Ordering::Relaxed);
        }
        self.counts[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Mean events/second over the last `window_s` *completed-or-current*
    /// seconds (clamped to the ring size).
    pub fn per_second(&self, window_s: u64) -> f64 {
        let window = window_s.clamp(1, RATE_SLOTS);
        let now = self.second();
        let from = now.saturating_sub(window - 1);
        let mut events = 0u64;
        for sec in from..=now {
            let i = (sec % RATE_SLOTS) as usize;
            if self.stamps[i].load(Ordering::Relaxed) == sec {
                events += self.counts[i].load(Ordering::Relaxed);
            }
        }
        // Use the elapsed fraction of the current window so early rates are
        // not diluted by seconds that have not happened yet.
        let elapsed = (self.epoch.elapsed().as_secs_f64() - from as f64).max(1e-3);
        events as f64 / elapsed.min(window as f64)
    }
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A set of named metrics rendered together as Prometheus text.
///
/// Metrics are registered once at startup (each registration hands back an
/// `Arc` the hot path updates) and rendered on demand; registration order is
/// render order.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: &str, help: &str, metric: Metric) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid Prometheus metric name: {name}"
        );
        self.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
    }

    /// Register a counter, returning the shared handle.
    pub fn counter(&mut self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Register a gauge, returning the shared handle.
    pub fn gauge(&mut self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, Metric::Gauge(Arc::clone(&g)));
        g
    }

    /// Register a histogram, returning the shared handle.
    pub fn histogram(&mut self, name: &str, help: &str, h: Histogram) -> Arc<Histogram> {
        let h = Arc::new(h);
        self.push(name, help, Metric::Histogram(Arc::clone(&h)));
        h
    }

    /// Render every metric in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, fmt_f64(g.get()));
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    for (bound, cumulative) in h.cumulative_buckets() {
                        let le = if bound.is_finite() {
                            fmt_f64(bound)
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", e.name, le, cumulative);
                    }
                    let _ = writeln!(out, "{}_sum {}", e.name, fmt_f64(h.sum()));
                    let _ = writeln!(out, "{}_count {}", e.name, h.count());
                }
            }
        }
        out
    }
}

/// Prometheus float formatting: plain decimal, no exponent for the common
/// magnitudes, `0` for zero.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 6.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 112.5).abs() < 1e-3);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (2.0, 3));
        assert_eq!(buckets[2], (4.0, 4));
        assert_eq!(buckets[3], (8.0, 5));
        assert_eq!(buckets[4].1, 6);
        assert!(buckets[4].0.is_infinite());
        // Median falls in the (1, 2] bucket; p99 clamps to the last bound.
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "{p50}");
        assert_eq!(h.quantile(1.0), 8.0);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0, "empty -> 0");
    }

    #[test]
    fn reset_clears_buckets_count_and_sum() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.cumulative_buckets().iter().all(|&(_, c)| c == 0));
        // The histogram is reusable after a reset.
        h.observe(1.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.cumulative_buckets()[1], (2.0, 1));
    }

    #[test]
    fn exponential_bounds_grow() {
        let h = Histogram::exponential(1e-3, 2.0, 4);
        let bounds: Vec<f64> = h.cumulative_buckets().iter().map(|b| b.0).collect();
        assert_eq!(&bounds[..4], &[1e-3, 2e-3, 4e-3, 8e-3]);
        assert!(bounds[4].is_infinite());
    }

    #[test]
    fn rate_meter_counts_current_second() {
        let m = RateMeter::new();
        for _ in 0..50 {
            m.record();
        }
        // All 50 events landed within the current (partial) second; the
        // rate over any window must see them.
        assert!(m.per_second(1) >= 50.0, "{}", m.per_second(1));
        assert!(m.per_second(10) >= 50.0 / 10.0);
    }

    #[test]
    fn bulk_add_counts_like_single_events() {
        let (single, bulk) = (RateMeter::new(), RateMeter::new());
        for _ in 0..1000 {
            single.record();
        }
        bulk.add(1000);
        // Every event either meter holds, whichever second it landed in.
        let events = |m: &RateMeter| -> u64 {
            m.stamps
                .iter()
                .zip(m.counts.iter())
                .filter(|(stamp, _)| stamp.load(Ordering::Relaxed) != u64::MAX)
                .map(|(_, count)| count.load(Ordering::Relaxed))
                .sum()
        };
        assert_eq!(events(&single), 1000);
        assert_eq!(events(&bulk), 1000);
        let (a, b) = (single.per_second(RATE_SLOTS), bulk.per_second(RATE_SLOTS));
        assert!((a - b).abs() <= 0.1 * a, "{a} vs {b}");
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let mut reg = Registry::new();
        let c = reg.counter("coconut_queries_total", "Total queries answered.");
        let g = reg.gauge("coconut_runs", "Live LSM runs.");
        let h = reg.histogram(
            "coconut_query_latency_seconds",
            "Query latency.",
            Histogram::new(&[0.001, 0.01]),
        );
        c.add(3);
        g.set(2.0);
        h.observe(0.0005);
        h.observe(0.5);
        let text = reg.render();
        assert!(text.contains("# HELP coconut_queries_total Total queries answered."));
        assert!(text.contains("# TYPE coconut_queries_total counter"));
        assert!(text.contains("coconut_queries_total 3"));
        assert!(text.contains("# TYPE coconut_runs gauge"));
        assert!(text.contains("coconut_runs 2"));
        assert!(text.contains("# TYPE coconut_query_latency_seconds histogram"));
        assert!(text.contains("coconut_query_latency_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("coconut_query_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("coconut_query_latency_seconds_count 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty());
            let bare = name.split('{').next().unwrap();
            assert!(bare
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'));
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
}
