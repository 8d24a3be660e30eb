//! SIMS: exact search by Scanning In-Memory Summarizations (Algorithm 5).
//!
//! The paper's exact search keeps every record's sortable summarization in
//! main memory ("the SAX summaries of 1 billion data series occupy merely
//! 16 GB"), and answers a query in three steps:
//!
//! 1. seed a best-so-far (`bsf`) with an approximate search;
//! 2. compute a lower bound (MINDIST) for *every* record with multiple
//!    parallel threads over the in-memory array;
//! 3. walk the records in storage order, fetching the raw series only where
//!    the lower bound beats the current `bsf` — a *skip-sequential* scan,
//!    because the summary array is aligned with the on-disk order.
//!
//! [`sims_scan`] is that loop, once, over three parameters: the scan order
//! differs per index flavor (raw-file order for non-materialized indexes,
//! leaf order for materialized ones), so the fetch is a [`SeriesFetcher`];
//! the lower bound and true distance are a [`Distance`] ([`Ed`], [`Dtw`]);
//! and what "beats the `bsf`" means is a [`Collector`] ([`TopK`] for 1-NN
//! and k-NN, [`Within`] for range queries).
//!
//! # Invariants
//!
//! * **One answer order.** Collectors rank by `(dist, pos)`
//!   ([`crate::query::dist_pos`]) and the scan skips a record only when its
//!   lower bound *exceeds* the collector's cutoff, so equal distances
//!   resolve to the lower position whatever order the scan visits records
//!   in — a materialized index returns exactly what a pointer index does.
//! * **Monotone fetches.** The scan visits indexes in strictly increasing
//!   order, and [`SeriesFetcher`] implementations rely on it: they are
//!   forward-only cursors, which is what makes the scan *skip-sequential*
//!   (every raw-file/leaf read moves forward, never seeks back).
//! * **Kernel dispatch is process-wide and answer-invariant.** The MINDIST
//!   batch kernel and the early-abandoning Euclidean distance go through
//!   `coconut_series::simd`'s runtime dispatch (AVX2 where available, a
//!   bit-identical scalar mirror otherwise). Setting the environment
//!   variable `COCONUT_FORCE_SCALAR=1` before the first query pins the
//!   scalar mirror; answers are bit-identical either way (enforced by
//!   `tests/simd_parity.rs` and the per-kernel property suites).
//! * **Threads share nothing but the bound array.** The parallel MINDIST
//!   pass splits the key array into disjoint chunks, one per worker, each
//!   with its own [`QueryDistTable`]-driven scratch. Note this is *query*
//!   parallelism; the *build*-side rule that concurrent workers divide the
//!   memory budget (K sorters get `budget / K` each) is documented on
//!   [`coconut_storage::ExternalSorter::new`] and `crate::shard`.
//! * **Split-policy independence.** SIMS scans the *full* sorted key
//!   array and visits records in storage order — neither step consults
//!   node boundaries — so answers are bit-identical no matter which
//!   [`crate::split::SplitPolicy`] shaped the trie above the keys. Only
//!   the approximate bsf-seeding descent touches nodes, and a different
//!   seed can only change *work*, never the exact answer.

use coconut_series::distance::euclidean_sq_early_abandon;
use coconut_series::dtw::{dtw_sq_early_abandon, lb_keogh_sq, Envelope};
use coconut_series::index::{Answer, QueryStats};
use coconut_series::Value;
use coconut_storage::{Deadline, Result};
use coconut_summary::mindist::{envelope_segment_bounds, mindist_env_zkey, QueryDistTable};
use coconut_summary::paa::paa;
use coconut_summary::{SaxConfig, ZKey};

use crate::query::dist_pos;

/// How many scan iterations pass between two [`Deadline`] checks. The scan
/// body is tens-to-hundreds of nanoseconds per record, so checking the
/// clock every 64 records bounds overrun to microseconds while keeping the
/// check itself off the per-record path.
const DEADLINE_STRIDE: usize = 64;

/// Fetches the raw series for scan index `i` (in the summary array's order).
///
/// Implementations are stateful cursors: SIMS guarantees indexes arrive in
/// increasing order, so fetchers can stream forward (skip-sequentially).
pub trait SeriesFetcher {
    /// Fill `out` with the series at scan index `i`; return its raw-file
    /// position.
    fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64>;
}

/// Below this many keys the scan runs single-threaded: one mindist costs
/// ~100 ns, so spawning scoped OS threads only pays for itself once the
/// scan itself reaches tens of milliseconds (measured in `bench_query`'s
/// `sims_threads` group — at 20k keys extra threads *lose* ~35%).
pub const PARALLEL_MIN_KEYS: usize = 1 << 17;

/// Fill `out[i]` from `keys[i]` with `bound_chunk`, splitting the arrays
/// into one disjoint chunk per worker once there are `min_parallel_keys`.
fn parallel_fill(
    keys: &[ZKey],
    threads: usize,
    min_parallel_keys: usize,
    bound_chunk: impl Fn(&[ZKey], &mut [f64]) + Sync,
) -> Vec<f64> {
    let n = keys.len();
    let mut out = vec![0.0f64; n];
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n < min_parallel_keys {
        bound_chunk(keys, &mut out);
        return out;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (keys_chunk, out_chunk) in keys.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let bound_chunk = &bound_chunk;
            s.spawn(move || bound_chunk(keys_chunk, out_chunk));
        }
    });
    out
}

/// Compute the MINDIST lower bound of every key against `query_paa`, using
/// `threads` worker threads (step 2 of Algorithm 5).
///
/// The scan is batched: the query's squared distance to every SAX region is
/// tabulated once ([`QueryDistTable`]), then keys are block-decoded into
/// struct-of-arrays scratch and bounded [`coconut_summary::mindist::MINDIST_BATCH`]
/// at a time by the runtime-dispatched vector kernel (AVX2 gathers + BMI2
/// decode where available, a bit-identical scalar mirror otherwise).
pub fn parallel_mindists(
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
) -> Vec<f64> {
    parallel_mindists_with_threshold(query_paa, keys, config, threads, PARALLEL_MIN_KEYS)
}

/// [`parallel_mindists`] with an explicit serial/parallel cutover (exposed
/// so tests and benchmarks can force either path).
pub fn parallel_mindists_with_threshold(
    query_paa: &[f64],
    keys: &[ZKey],
    config: &SaxConfig,
    threads: usize,
    min_parallel_keys: usize,
) -> Vec<f64> {
    let table = QueryDistTable::new(query_paa, config);
    parallel_fill(keys, threads, min_parallel_keys, |k, o| {
        table.mindist_batch_into(k, o)
    })
}

/// The squared early-abandon cutoff for a distance-space `cutoff`. Squaring
/// can round to just below the squared distance of a boundary hit
/// (sqrt/square is not an exact roundtrip), silently dropping it, so the
/// cutoff is padded by a few ulps; collectors re-test in distance space.
fn padded_sq(cutoff: f64) -> f64 {
    (cutoff * cutoff) * (1.0 + 8.0 * f64::EPSILON)
}

/// The distance a scan ranks by: an index-level lower bound per key and the
/// true distance per fetched series.
pub trait Distance: Sync {
    /// Lower-bound each of `keys` into `out` (same length).
    fn lower_bounds(&self, keys: &[ZKey], out: &mut [f64]);

    /// The distance to `candidate`, or `None` once it provably exceeds
    /// `cutoff` (a returned distance may still exceed it by rounding).
    fn eval(&self, candidate: &[Value], cutoff: f64) -> Option<f64>;
}

/// Euclidean distance: MINDIST bounds, early-abandoning true distance.
pub struct Ed<'a> {
    query: &'a [Value],
    table: QueryDistTable,
}

impl<'a> Ed<'a> {
    /// Tabulate `query` against every SAX region of `config`.
    pub fn new(query: &'a [Value], config: &SaxConfig) -> Self {
        Ed {
            query,
            table: QueryDistTable::new(&paa(query, config.segments), config),
        }
    }
}

impl Distance for Ed<'_> {
    fn lower_bounds(&self, keys: &[ZKey], out: &mut [f64]) {
        self.table.mindist_batch_into(keys, out);
    }

    fn eval(&self, candidate: &[Value], cutoff: f64) -> Option<f64> {
        euclidean_sq_early_abandon(self.query, candidate, padded_sq(cutoff)).map(f64::sqrt)
    }
}

/// **Dynamic Time Warping** (extension; the paper notes DTW compatibility
/// in Section 2). Pruning cascade per record: index-level envelope bound →
/// LB_Keogh on the raw series → full banded DTW with early abandoning.
pub struct Dtw<'a> {
    query: &'a [Value],
    band: usize,
    envelope: Envelope,
    env_lo: Vec<f64>,
    env_hi: Vec<f64>,
    config: SaxConfig,
}

impl<'a> Dtw<'a> {
    /// Build the warping envelope of `query` for a Sakoe–Chiba band of
    /// radius `band` and its per-segment bounds under `config`.
    pub fn new(query: &'a [Value], band: usize, config: &SaxConfig) -> Self {
        let envelope = Envelope::new(query, band);
        let (env_lo, env_hi) =
            envelope_segment_bounds(&envelope.lower, &envelope.upper, config.segments);
        Dtw {
            query,
            band,
            envelope,
            env_lo,
            env_hi,
            config: *config,
        }
    }
}

impl Distance for Dtw<'_> {
    fn lower_bounds(&self, keys: &[ZKey], out: &mut [f64]) {
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = mindist_env_zkey(&self.env_lo, &self.env_hi, k, &self.config);
        }
    }

    fn eval(&self, candidate: &[Value], cutoff: f64) -> Option<f64> {
        let cutoff_sq = padded_sq(cutoff);
        // Tighter point-level bound before paying for DTW.
        if lb_keogh_sq(&self.envelope, candidate) > cutoff_sq {
            return None;
        }
        dtw_sq_early_abandon(self.query, candidate, self.band, cutoff_sq).map(f64::sqrt)
    }
}

/// Collects a scan's answers under the total `(dist, pos)` order
/// ([`dist_pos`]), so ties resolve the same way whatever order the scan
/// visits records in.
pub trait Collector {
    /// The largest distance that can still enter the result; records whose
    /// lower bound exceeds it are skipped unfetched.
    fn cutoff(&self) -> f64;

    /// Offer a candidate; the collector keeps it only if it belongs.
    fn offer(&mut self, candidate: Answer);

    /// The collected answers, `(dist, pos)`-sorted.
    fn into_answers(self) -> Vec<Answer>;
}

/// The largest distance strictly below `bound` — turns the strict external
/// bound into the inclusive cutoff collectors work with.
fn below(bound: f64) -> f64 {
    bound.next_down()
}

/// The `k` best answers below an external `bound` (1-NN is `k = 1`).
pub struct TopK {
    k: usize,
    best: Vec<Answer>,
    cutoff: f64,
}

impl TopK {
    /// An empty top-`k` (`k >= 1`) admitting only distances below `bound`.
    pub fn new(k: usize, bound: f64) -> Self {
        debug_assert!(k >= 1);
        TopK {
            k,
            best: Vec::new(),
            cutoff: below(bound),
        }
    }
}

impl Collector for TopK {
    #[inline]
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn offer(&mut self, candidate: Answer) {
        // Seed leaves are met again by the scan.
        if candidate.dist > self.cutoff || self.best.iter().any(|b| b.pos == candidate.pos) {
            return;
        }
        let at = self
            .best
            .partition_point(|b| dist_pos(b, &candidate).is_lt());
        if at == self.k {
            return; // ties the current worst with a higher position
        }
        self.best.insert(at, candidate);
        self.best.truncate(self.k);
        if let Some(worst) = self.best.get(self.k - 1) {
            self.cutoff = worst.dist;
        }
    }

    fn into_answers(self) -> Vec<Answer> {
        self.best
    }
}

/// Every answer within `epsilon` (inclusive) and below an external `bound`.
pub struct Within {
    hits: Vec<Answer>,
    cutoff: f64,
}

impl Within {
    /// An empty result admitting distances `<= epsilon` and `< bound`.
    pub fn new(epsilon: f64, bound: f64) -> Self {
        Within {
            hits: Vec::new(),
            cutoff: epsilon.min(below(bound)),
        }
    }
}

impl Collector for Within {
    #[inline]
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn offer(&mut self, candidate: Answer) {
        if candidate.dist <= self.cutoff {
            self.hits.push(candidate);
        }
    }

    fn into_answers(mut self) -> Vec<Answer> {
        self.hits.sort_by(dist_pos);
        self.hits
    }
}

/// The SIMS scan (Algorithm 5, steps 2–3): lower-bound every key with
/// `threads` workers, then walk the records in storage order, fetching and
/// measuring only those whose bound can still enter `hits`. `keys[i]` must
/// be the summarization of the record the fetcher returns for scan index
/// `i`; `hits` arrives holding the approximate-search seeds. `deadline` is
/// checked before the bounds pass and every 64 records after; an
/// expired deadline aborts with [`coconut_storage::Error::Deadline`].
pub fn sims_scan<D: Distance, F: SeriesFetcher, C: Collector>(
    dist: &D,
    series_len: usize,
    keys: &[ZKey],
    threads: usize,
    fetcher: &mut F,
    hits: &mut C,
    deadline: Deadline,
) -> Result<QueryStats> {
    let mut stats = QueryStats::default();
    deadline.check()?;
    let bounds = parallel_fill(keys, threads, PARALLEL_MIN_KEYS, |k, o| {
        dist.lower_bounds(k, o)
    });
    stats.lower_bounds += keys.len() as u64;

    let mut buf = vec![0.0 as Value; series_len];
    let mut cutoff = hits.cutoff();
    for (i, &bound) in bounds.iter().enumerate() {
        if i.is_multiple_of(DEADLINE_STRIDE) {
            deadline.check()?;
        }
        if bound > cutoff {
            stats.pruned += 1;
            continue;
        }
        let pos = fetcher.fetch(i, &mut buf)?;
        stats.records_fetched += 1;
        if let Some(d) = dist.eval(&buf, cutoff) {
            hits.offer(Answer { pos, dist: d });
            cutoff = hits.cutoff();
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::nearest_of;
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_summary::sax::Summarizer;

    struct VecFetcher<'a> {
        data: &'a [Vec<Value>],
    }

    impl SeriesFetcher for VecFetcher<'_> {
        fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64> {
            out.copy_from_slice(&self.data[i]);
            Ok(i as u64)
        }
    }

    fn setup(n: usize, len: usize) -> (Vec<Vec<Value>>, Vec<ZKey>, SaxConfig) {
        let config = SaxConfig::default_for_len(len);
        let mut g = RandomWalkGen::new(42);
        let mut summ = Summarizer::new(config);
        let mut data = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = g.generate(len);
            znormalize(&mut s);
            keys.push(summ.zkey(&s));
            data.push(s);
        }
        (data, keys, config)
    }

    fn query(seed: u64, len: usize) -> Vec<Value> {
        let mut q = RandomWalkGen::new(seed).generate(len);
        znormalize(&mut q);
        q
    }

    /// Euclidean scan of `data` into `hits` (seeded by the caller).
    fn scan<C: Collector>(
        q: &[Value],
        data: &[Vec<Value>],
        keys: &[ZKey],
        config: &SaxConfig,
        threads: usize,
        mut hits: C,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let stats = sims_scan(
            &Ed::new(q, config),
            q.len(),
            keys,
            threads,
            &mut VecFetcher { data },
            &mut hits,
            deadline,
        )?;
        Ok((hits.into_answers(), stats))
    }

    fn brute_force(query: &[Value], data: &[Vec<Value>]) -> Vec<Answer> {
        let mut all: Vec<Answer> = data
            .iter()
            .enumerate()
            .map(|(i, s)| Answer {
                pos: i as u64,
                dist: euclidean(query, s),
            })
            .collect();
        all.sort_by(dist_pos);
        all
    }

    #[test]
    fn sims_matches_brute_force() {
        let (data, keys, config) = setup(500, 64);
        for seed in 0..20 {
            let q = query(7 + seed, 64);
            let top = TopK::new(1, f64::INFINITY);
            let (ans, stats) = scan(&q, &data, &keys, &config, 2, top, Deadline::NONE).unwrap();
            assert_eq!(ans, brute_force(&q, &data)[..1]);
            assert_eq!(stats.lower_bounds, 500);
            assert_eq!(stats.pruned + stats.records_fetched, 500);
        }
    }

    #[test]
    fn good_seed_increases_pruning() {
        let (data, keys, config) = setup(2000, 64);
        let q = query(9, 64);
        let exact = brute_force(&q, &data)[0];

        let cold = TopK::new(1, f64::INFINITY);
        let (_, cold) = scan(&q, &data, &keys, &config, 1, cold, Deadline::NONE).unwrap();
        let mut warm = TopK::new(1, f64::INFINITY);
        warm.offer(exact);
        let (ans, warm) = scan(&q, &data, &keys, &config, 1, warm, Deadline::NONE).unwrap();
        assert_eq!(nearest_of(&ans), exact);
        assert!(
            warm.records_fetched <= cold.records_fetched,
            "seeding with the exact answer must not fetch more ({} > {})",
            warm.records_fetched,
            cold.records_fetched
        );
        assert!(warm.pruned >= cold.pruned);
    }

    #[test]
    fn parallel_mindists_match_serial() {
        let (_, keys, config) = setup(5000, 64);
        let qp = paa(&query(3, 64), config.segments);
        let serial = parallel_mindists(&qp, &keys, &config, 1);
        // Force the threaded path despite the small key count.
        let parallel = parallel_mindists_with_threshold(&qp, &keys, &config, 4, 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn knn_and_range_match_brute_force() {
        let (data, keys, config) = setup(300, 64);
        let q = query(5, 64);
        let all = brute_force(&q, &data);
        let top = TopK::new(5, f64::INFINITY);
        let (top, _) = scan(&q, &data, &keys, &config, 2, top, Deadline::NONE).unwrap();
        assert_eq!(top, all[..5]);
        // k larger than n returns everything, sorted.
        let big = TopK::new(500, f64::INFINITY);
        let (big, _) = scan(&q, &data, &keys, &config, 1, big, Deadline::NONE).unwrap();
        assert_eq!(big, all);
        // Range at the 7th distance is inclusive of it.
        let within = Within::new(all[6].dist, f64::INFINITY);
        let (hits, _) = scan(&q, &data, &keys, &config, 1, within, Deadline::NONE).unwrap();
        assert_eq!(hits, all[..7]);
    }

    #[test]
    fn bound_is_strict_and_infinity_is_no_bound() {
        let (data, keys, config) = setup(300, 64);
        let q = query(8, 64);
        let all = brute_force(&q, &data);
        // A bound equal to the 3rd distance admits exactly the two below.
        let top = TopK::new(5, all[2].dist);
        let (top, _) = scan(&q, &data, &keys, &config, 1, top, Deadline::NONE).unwrap();
        assert_eq!(top, all[..2]);
        let within = Within::new(all[9].dist, all[2].dist);
        let (hits, _) = scan(&q, &data, &keys, &config, 1, within, Deadline::NONE).unwrap();
        assert_eq!(hits, all[..2]);
        // Below the true NN nothing survives.
        let none = TopK::new(1, all[0].dist);
        let (none, _) = scan(&q, &data, &keys, &config, 1, none, Deadline::NONE).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn ties_break_by_position_whatever_the_scan_order() {
        // Four identical series (equal distance to any query) scanned in a
        // non-monotone position order, as a materialized index would.
        const ORDER: [u64; 4] = [7, 2, 9, 4];
        struct Shuffled<'a>(&'a [Value]);
        impl SeriesFetcher for Shuffled<'_> {
            fn fetch(&mut self, i: usize, out: &mut [Value]) -> Result<u64> {
                out.copy_from_slice(self.0);
                Ok(ORDER[i])
            }
        }
        fn collect<C: Collector>(ed: &Ed<'_>, keys: &[ZKey], s: &[Value], mut hits: C) -> Vec<u64> {
            sims_scan(ed, 64, keys, 1, &mut Shuffled(s), &mut hits, Deadline::NONE).unwrap();
            hits.into_answers().iter().map(|a| a.pos).collect()
        }
        let config = SaxConfig::default_for_len(64);
        let s = query(1, 64);
        let keys = [Summarizer::new(config).zkey(&s); 4];
        let q = query(2, 64);
        let ed = Ed::new(&q, &config);
        let top2 = collect(&ed, &keys, &s, TopK::new(2, f64::INFINITY));
        assert_eq!(top2, [2, 4]);
        let within = Within::new(euclidean(&q, &s), f64::INFINITY);
        assert_eq!(collect(&ed, &keys, &s, within), [2, 4, 7, 9]);
    }

    #[test]
    fn expired_deadline_aborts_scan() {
        let (data, keys, config) = setup(200, 64);
        let q = query(11, 64);
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let top = TopK::new(3, f64::INFINITY);
        let err = scan(&q, &data, &keys, &config, 1, top, expired).unwrap_err();
        assert!(err.is_deadline(), "{err}");
        let within = Within::new(10.0, f64::INFINITY);
        let err = scan(&q, &data, &keys, &config, 1, within, expired).unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }
}
