//! SIMS: exact search by Scanning In-Memory Summarizations (Algorithm 5).
//!
//! The paper's exact search keeps every record's sortable summarization in
//! main memory ("the SAX summaries of 1 billion data series occupy merely
//! 16 GB"), seeds a best-so-far with an approximate search, lower-bounds
//! the records with parallel threads, and fetches the raw series only where
//! the bound beats the best-so-far, in storage order — a *skip-sequential*
//! scan.
//!
//! [`sims_scan`] is that loop, and it uses what the sort bought: the
//! summaries ([`Summaries`]) are kept leaf by leaf — a box per leaf from
//! the directory, the leaf's block of symbols and positions verified in
//! place, in a mapping of the index file, by the first query that needs it
//! ("if SAX sums are not in memory, load them", one leaf at a time) — and a
//! leaf of the sorted order is a tight box in SAX space. Boxes come at two
//! levels: the leaf's, from the directory, and inside a verified block one
//! *zone box* per 64 entries (per segment the smallest and the largest
//! symbol, derived from the checked symbols and kept in memory). A median
//! leaf's prefix box fixes only a few of a key's bits, while 64 sorted
//! neighbours share most of theirs, so a zone box is far tighter. One
//! kernel bounds both ([`KeyFilter::boxes_under`]: the query's nearest
//! symbols clamped into each box, through the fast scan, 32 boxes a step).
//! The scan bounds every leaf's box once and visits the
//! leaves best bound first — in ascending `(box bound, leaf)` order,
//! skipping outright every leaf whose box is beyond the probe's cutoff — in
//! batches that start at one leaf's worth of keys and double. Each batch
//! runs under the cutoff the collector holds when it starts, in two phases:
//!
//! * **A — bound.** Inside the batch's leaves (their blocks verified by the
//!   worker that gets there first) the key pass bounds each leaf's zones,
//!   then each entry of the zones that survive, and keeps only the entries
//!   at or under the cutoff ([`KeyFilter::zoned_bounds_under`]: a 4-bit
//!   fast-scan prefilter, then the exact sum of its few survivors) —
//!   a short list of `(where it is stored, bound)` candidates instead of a
//!   bound per record. Workers share nothing they write but a leaf's
//!   verify-once cell, so a batch of [`PARALLEL_MIN_KEYS`] keys, or one
//!   with [`PARALLEL_MIN_COLD_LEAVES`] blocks no query has verified yet (a
//!   cold scan checks blocks in parallel), is split over scoped threads by
//!   leaf ranges; a near query, whose probe already pruned almost every
//!   leaf, never spawns.
//! * **B — fetch.** The batch's candidates are swept in storage order —
//!   raw-file position for pointer indexes, scan index for materialized
//!   ones — each re-checked against the cutoff as it tightens, then fetched
//!   and measured.
//!
//! The sweep tightens the cutoff the next batch starts under, and the best
//! boxes come first, so the candidates that set the final answer are
//! fetched early and most later leaves are bounded under a cutoff close to
//! it. The scan stops at the first box over the cutoff: every box after it
//! in the order is over too.
//!
//! **One scan per snapshot.** The runs of an LSM snapshot share one
//! configuration, so their leaf boxes are comparable under one table, and
//! a snapshot is scanned as one index: the scan takes a list of runs, each
//! its [`Summaries`] and the leaves its probe resolved, bounds every run's
//! leaf boxes, and visits all of them in one ascending `(box bound, run,
//! leaf)` order, in the same doubling batches, under one collector. A
//! sweep fetches by raw-file position across the runs (pointer runs cover
//! disjoint position ranges of one raw file) or run by run, each in scan
//! order (materialized, one forward cursor per run). [`sims_scan`] is the
//! case of one run. A snapshot's query thus pays one table, one leaf order
//! and one set of batches whatever its run count, and the best boxes of
//! every run set the cutoff the other runs' leaves are bounded under.
//!
//! The fetch is a [`SeriesFetcher`]; the lower bound and true distance are a
//! [`Distance`] ([`Ed`], [`Dtw`] — both reduce their bound to one per-query
//! [`QueryDistTable`], so one kernel serves both); and what "beats the
//! best-so-far" means is a [`Collector`] ([`TopK`] for 1-NN and k-NN,
//! [`Within`] for range queries).
//!
//! # Invariants
//!
//! * **One answer order.** Collectors rank by `(dist, pos)`
//!   ([`crate::query::dist_pos`]) and the scan skips a record — or a leaf —
//!   only when its lower bound *exceeds* the collector's cutoff, so equal
//!   distances resolve to the lower position whatever order the scan visits
//!   records in — a materialized index returns exactly what a pointer
//!   index does.
//! * **Monotone fetches, per sweep.** A sweep visits its candidates in
//!   strictly increasing storage order — across the runs of a snapshot
//!   too — which is what makes it *skip-sequential* (every raw-file/leaf
//!   read moves forward, never seeks back). The next sweep starts over: its
//!   batch's leaves may lie before the last one's, so a [`SeriesFetcher`]
//!   is a forward cursor that restarts per sweep. Batches hold disjoint
//!   leaves, so a materialized index's cursor still reads each leaf at most
//!   once per scan.
//! * **Kernel dispatch is process-wide and answer-invariant.** The bound
//!   kernels and the early-abandoning Euclidean distance go through
//!   `coconut_series::simd`'s runtime dispatch (AVX2 where available, a
//!   bit-identical scalar mirror otherwise). Setting the environment
//!   variable `COCONUT_FORCE_SCALAR=1` before the first query pins the
//!   scalar mirror; answers are bit-identical either way (enforced by
//!   `tests/simd_parity.rs` and the per-kernel property suites).
//! * **Threads change neither answers nor counters.** Batches are cut by
//!   key count and each works from the one cutoff it started under, so the
//!   candidate lists — and with them every [`QueryStats`] field — are the
//!   same for any thread count, and whichever blocks earlier queries left
//!   loaded; the workers share only the read-only table and the summaries,
//!   and a sweep sorts what they return. Note this is
//!   *query* parallelism; the *build*-side rule that concurrent workers
//!   divide the memory budget (K sorters get `budget / K` each) is
//!   documented on [`coconut_storage::ExternalSorter::new`] and
//!   `crate::shard`.
//! * **Leaf boundaries prune work, never answers.** A leaf box contains
//!   every key of its leaf, and a zone box every key of its zone, so
//!   neither bound exceeds theirs (the clamped symbols sum smaller table
//!   entries, in the same segment order): skipping a leaf or a zone drops
//!   only records the key pass would have dropped one by one. Answers —
//!   and every [`QueryStats`] counter but `lower_bounds` — are therefore
//!   bit-identical no matter which [`crate::split::SplitPolicy`] or packing
//!   cut the leaves, and with zones or without; a different cut (like a
//!   different probe seed) only changes how much is skipped.

use std::ops::Range;

use coconut_series::distance::euclidean_sq_early_abandon;
use coconut_series::dtw::{dtw_sq_early_abandon, lb_keogh_sq, Envelope};
use coconut_series::index::{Answer, QueryStats};
use coconut_series::Value;
use coconut_storage::{Deadline, Result};
use coconut_summary::mindist::{envelope_segment_bounds, KeyFilter, QueryDistTable};
use coconut_summary::paa::paa;
use coconut_summary::{SaxConfig, ZKey};

use crate::leaves::Summaries;
use crate::query::dist_pos;

/// How many phase-B candidates pass between two [`Deadline`] checks (phase
/// A checks once per batch). A candidate costs a raw fetch, so
/// checking the clock every 64 bounds overrun to well under a millisecond
/// while keeping the check itself off the per-record path.
const DEADLINE_STRIDE: usize = 64;

/// Fetches the raw series of a scan candidate.
///
/// Implementations are stateful cursors: SIMS guarantees candidates arrive
/// in increasing storage order within a sweep, so fetchers can stream
/// forward (skip-sequentially), starting over when a sweep begins behind
/// where the last one ended.
pub trait SeriesFetcher {
    /// Which order is storage order, and so what a candidate is known by:
    /// its raw-file position (`true`, pointer indexes) or its scan index,
    /// i.e. leaf order (`false`, materialized indexes).
    const POSITION_ORDER: bool;

    /// Fill `out` with the series stored at `at` — a raw-file position or a
    /// scan index, as [`Self::POSITION_ORDER`] says — and return its
    /// raw-file position.
    fn fetch(&mut self, at: u64, out: &mut [Value]) -> Result<u64>;
}

/// Below this many keys a batch whose blocks are all loaded is bounded on
/// one thread: a fast-scan bound costs about a nanosecond, so spawning a
/// scoped OS thread only pays for itself once the pass outlasts the spawn.
/// `repro bench_distance`'s `key_pass_threads` rows (one loaded pass over
/// 2,000-entry blocks, one thread vs two, on a shared 2-vCPU Xeon VM, 18
/// runs): two threads never win at 32,000 keys and below, and from 64,000
/// up they win only while the second vCPU is idle — 10 of 18 runs at
/// 128,000 keys, by up to 1.7×, losing the other 8 by up to 2.5×. The
/// threshold sits at the top of that crossover: on a busy server the second
/// core is another query's.
pub const PARALLEL_MIN_KEYS: usize = 1 << 17;

/// Below this many unverified leaves a batch under [`PARALLEL_MIN_KEYS`]
/// is verified and bounded on one thread. One worker verifies and bounds a
/// cold 2,000-entry leaf in about 15 µs, while a process's first spawn
/// costs about 200 µs, so a second worker pays only from a few dozen cold
/// leaves per batch — the far and k-NN scans' later batches, not a `--pos`
/// query's handful. Measured with `coconut query` on 1M × 256 series
/// (2,000-entry leaves, 2-vCPU Xeon VM), threshold 16 against a second
/// worker for any cold batch, alternating pairs: `--pos` search 0.50 vs
/// 0.80 ms on the ctree (60 of 60 pairs) and 0.50 vs 0.70–0.80 ms on the
/// ctrie (40 of 40); far and 10-NN search held — faster in 40 and 42 of 60
/// pairs on the ctree, 27 and 27 of 40 on the ctrie. Answers and
/// `QueryStats` were equal in every pair.
pub const PARALLEL_MIN_COLD_LEAVES: usize = 16;

/// Cut `items` into at most `parts` contiguous chunks of near-equal total
/// `weight`, in order.
pub(crate) fn balanced_chunks<T>(
    items: &[T],
    parts: usize,
    weight: impl Fn(&T) -> usize,
) -> Vec<&[T]> {
    let total: usize = items.iter().map(&weight).sum();
    let share = total.div_ceil(parts.max(1)).max(1);
    let mut chunks = Vec::new();
    let (mut start, mut acc) = (0, 0);
    for (i, item) in items.iter().enumerate() {
        acc += weight(item);
        if acc >= share {
            chunks.push(&items[start..=i]);
            (start, acc) = (i + 1, 0);
        }
    }
    if start < items.len() {
        chunks.push(&items[start..]);
    }
    chunks
}

/// Run `work` on every share — the first on this thread, the others on
/// scoped threads of their own — and return the results in share order.
pub(crate) fn scatter<S: Send, T: Send>(
    shares: impl IntoIterator<Item = S>,
    work: impl Fn(S) -> T + Sync,
) -> Vec<T> {
    let mut shares = shares.into_iter();
    let Some(mine) = shares.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = shares
            .map(|share| scope.spawn(move || work(share)))
            .collect();
        let mut results = vec![work(mine)];
        for worker in spawned {
            match worker.join() {
                Ok(result) => results.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

/// Compute the MINDIST lower bound of every key against `query_paa`, using
/// `threads` worker threads.
///
/// The pass is batched: the query's squared distance to every SAX region is
/// tabulated once ([`QueryDistTable`]), then keys are block-decoded into
/// struct-of-arrays scratch and bounded [`coconut_summary::mindist::MINDIST_BATCH`]
/// at a time by the runtime-dispatched vector kernel (AVX2 gathers + BMI2
/// decode where available, a bit-identical scalar mirror otherwise).
///
/// [`sims_scan`] no longer bounds raw keys — it works from the
/// segment-major symbol blocks of [`Summaries`] — so this is a library function for callers
/// that hold a bare key array.
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
    let n = keys.len();
    let mut out = vec![0.0f64; n];
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n < min_parallel_keys {
        table.mindist_batch_into(keys, &mut out);
        return out;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (keys_chunk, out_chunk) in keys.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let table = &table;
            s.spawn(move || table.mindist_batch_into(keys_chunk, out_chunk));
        }
    });
    out
}

/// The squared early-abandon cutoff for a distance-space `cutoff`. Squaring
/// can round to just below the squared distance of a boundary hit
/// (sqrt/square is not an exact roundtrip), silently dropping it, so the
/// cutoff is padded by a few ulps; collectors re-test in distance space.
fn padded_sq(cutoff: f64) -> f64 {
    (cutoff * cutoff) * (1.0 + 8.0 * f64::EPSILON)
}

/// The distance a scan ranks by: an index-level lower bound, tabulated per
/// query, and the true distance per fetched series.
pub trait Distance: Sync {
    /// The query's squared distance to every SAX region: what lower-bounds
    /// a key, a symbol block, or a leaf box.
    fn table(&self) -> &QueryDistTable;

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
    fn table(&self) -> &QueryDistTable {
        &self.table
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
    table: QueryDistTable,
}

impl<'a> Dtw<'a> {
    /// Build the warping envelope of `query` for a Sakoe–Chiba band of
    /// radius `band` and tabulate its per-segment intervals against every
    /// SAX region of `config`.
    pub fn new(query: &'a [Value], band: usize, config: &SaxConfig) -> Self {
        let envelope = Envelope::new(query, band);
        let (env_lo, env_hi) =
            envelope_segment_bounds(&envelope.lower, &envelope.upper, config.segments);
        Dtw {
            query,
            band,
            table: QueryDistTable::for_envelope(&env_lo, &env_hi, config),
            envelope,
        }
    }
}

impl Distance for Dtw<'_> {
    fn table(&self) -> &QueryDistTable {
        &self.table
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
        // A seed offered by the caller is met again by a scan of every leaf.
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

/// One run of a scan: its summaries, and the leaves of it the probe
/// already resolved — leaves whose every entry the collector has been
/// offered or seen bounded over its cutoff, so nothing in them can enter
/// the answer any more. Their boxes are still bounded (and counted), their
/// entries are neither.
pub(crate) struct ScanRun<'a> {
    pub(crate) summaries: &'a Summaries,
    pub(crate) resolved: Range<usize>,
}

/// An entry that survived phase A: where it is stored — its raw-file
/// position, or its scan index in the runs' leaves taken one run after
/// another, whichever orders the fetcher's storage — and its lower bound.
type Candidate = (u64, f64);

/// One phase-A worker's reusable buffers: the kernel's `(entry, bound)`
/// output for the leaf at hand, and the candidates of its share. The first
/// part's list is also where a batch's candidates gather for its sweep.
/// Beside them, the bounds the worker computed for the batch.
struct Part {
    under: Vec<(usize, f64)>,
    kept: Vec<Candidate>,
    bounded: usize,
}

impl Default for Part {
    fn default() -> Self {
        Part {
            under: Vec::with_capacity(256),
            kept: Vec::with_capacity(256),
            bounded: 0,
        }
    }
}

/// Phase A over one batch of `(run, leaf)` `leaves`: append every entry
/// `filter` keeps (known by position if `by_pos`, by scan index otherwise,
/// run `r`'s from `firsts[r]` on) to the first of `parts` (there is always
/// one), and return the bounds computed — per leaf, its zones and the
/// entries of its surviving zones, or with `zoned` off every entry. The
/// batch is split over `workers` scoped threads by leaf ranges
/// of near-equal key counts (one worker runs inline, spawning nothing). A
/// worker verifies the blocks of its leaves that no query touched before,
/// so a cold scan checks blocks in parallel. Each worker fills one of
/// `parts`, the scan's reusable buffers — the first appends where the
/// candidates gather, the others' lists follow it there: they are
/// allocated here, by the thread that keeps them, so they grow in its
/// allocator arena batch after batch instead of leaving a high-water mark
/// in the arena of every short-lived worker.
#[allow(clippy::too_many_arguments)]
fn bound_batch(
    filter: &KeyFilter<'_>,
    zoned: bool,
    runs: &[ScanRun<'_>],
    firsts: &[usize],
    leaves: &[(usize, usize)],
    by_pos: bool,
    workers: usize,
    parts: &mut Vec<Part>,
) -> Result<usize> {
    let shares = balanced_chunks(leaves, workers, |&(r, l)| runs[r].summaries.leaf_len(l));
    if parts.len() < shares.len() {
        parts.resize_with(shares.len(), Part::default);
    }
    let loaded = scatter(
        shares.into_iter().zip(parts.iter_mut()),
        |(leaves, part)| -> Result<()> {
            for &(r, l) in leaves {
                let summaries = runs[r].summaries;
                let block = summaries.block(l)?;
                let start = firsts[r] + summaries.leaf_starts()[l];
                part.under.clear();
                part.bounded += block.bounds_under(filter, zoned, &mut part.under);
                part.kept.extend(part.under.iter().map(|&(e, bound)| {
                    let at = if by_pos {
                        block.pos(e)
                    } else {
                        (start + e) as u64
                    };
                    (at, bound)
                }));
            }
            Ok(())
        },
    );
    // Every part is drained even when a block failed to load: the buffers
    // outlive the batch.
    let mut bounded = 0;
    if let Some((first, rest)) = parts.split_first_mut() {
        bounded += std::mem::take(&mut first.bounded);
        for part in rest {
            first.kept.append(&mut part.kept);
            bounded += std::mem::take(&mut part.bounded);
        }
    }
    loaded.into_iter().collect::<Result<()>>()?;
    Ok(bounded)
}

/// The leaves of `runs` outside their resolved ones whose box bound does
/// not exceed `cutoff`, as `(bound, run, leaf)` in ascending order — the
/// one order the scan visits every run's leaves in — and the entries the
/// other unresolved leaves hold. Each run's leaf boxes are bounded as one
/// box block ([`KeyFilter::boxes_under`]).
fn leaf_order(
    table: &QueryDistTable,
    runs: &[ScanRun<'_>],
    cutoff: f64,
) -> (Vec<(f64, usize, usize)>, u64) {
    let filter = table.key_filter(cutoff);
    let mut order = Vec::new();
    let mut under = Vec::new();
    let mut pruned = 0;
    for (run, r) in runs.iter().enumerate() {
        // Resolved leaves are bounded all the same: `lower_bounds` counts
        // one per leaf box.
        under.clear();
        filter.boxes_under(r.summaries.leaf_boxes(), 0, &mut under);
        let starts = r.summaries.leaf_starts();
        let resolved = starts[r.resolved.end] - starts[r.resolved.start];
        let mut kept = 0;
        for &(leaf, bound) in under.iter().filter(|(l, _)| !r.resolved.contains(l)) {
            order.push((bound, run, leaf));
            kept += r.summaries.leaf_len(leaf);
        }
        pruned += (r.summaries.len() - resolved - kept) as u64;
    }
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    (order, pruned)
}

/// The SIMS scan (Algorithm 5), seeded by the collector `hits`: bound
/// every leaf box, then visit the surviving leaves best box first, in
/// batches of one leaf's worth of keys, doubling (phase A: the keys of the
/// batch's leaves, with `threads` workers), each swept in storage order
/// (phase B) before the next starts — see the module docs. `deadline` is
/// checked per batch and every 64 candidates; an expired deadline aborts
/// with [`coconut_storage::Error::Deadline`].
///
/// The returned [`QueryStats`] count the `lower_bounds` computed (one per
/// leaf box, one per zone of a visited leaf, one per key of a surviving
/// zone), `records_fetched`, and `pruned` records skipped unfetched —
/// every entry of a skipped leaf included, so `pruned + records_fetched ==
/// summaries.len()`.
pub fn sims_scan<D: Distance, F: SeriesFetcher, C: Collector>(
    dist: &D,
    series_len: usize,
    summaries: &Summaries,
    threads: usize,
    fetcher: &mut F,
    hits: &mut C,
    deadline: Deadline,
) -> Result<QueryStats> {
    let run = ScanRun {
        summaries,
        resolved: 0..0,
    };
    scan_runs(
        dist,
        true,
        series_len,
        &[run],
        threads,
        fetcher,
        hits,
        deadline,
    )
}

/// [`sims_scan`] over several runs at once — the leaves of every run
/// outside its resolved ones, in one best-box-first order, under one
/// table and one collector. `fetcher` knows a candidate by its raw-file
/// position ([`SeriesFetcher::POSITION_ORDER`]: a sweep walks the raw file
/// forward across the runs) or by its scan index in the runs' leaves
/// taken one run after another, run `r`'s starting after the entries of
/// the runs before it (so a sweep goes run by run, each in leaf order).
/// `pruned + records_fetched` covers the unresolved leaves' entries. With
/// `zoned` off the key pass bounds every entry of a visited leaf.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_runs<D: Distance, F: SeriesFetcher, C: Collector>(
    dist: &D,
    zoned: bool,
    series_len: usize,
    runs: &[ScanRun<'_>],
    threads: usize,
    fetcher: &mut F,
    hits: &mut C,
    deadline: Deadline,
) -> Result<QueryStats> {
    let entries: usize = runs.iter().map(|r| r.summaries.len()).sum();
    let leaves: usize = runs.iter().map(|r| r.summaries.leaf_count()).sum();
    let limits = (entries.div_ceil(leaves.max(1)), PARALLEL_MIN_KEYS);
    scan_batched(
        dist, zoned, series_len, runs, threads, fetcher, hits, deadline, limits,
    )
}

/// [`scan_runs`] with explicit `(keys of the first batch, keys that make a
/// loaded batch parallel)` (so tests can reach the threaded path on a few
/// thousand keys).
#[allow(clippy::too_many_arguments)]
fn scan_batched<D: Distance, F: SeriesFetcher, C: Collector>(
    dist: &D,
    zoned: bool,
    series_len: usize,
    runs: &[ScanRun<'_>],
    threads: usize,
    fetcher: &mut F,
    hits: &mut C,
    deadline: Deadline,
    (first_batch_keys, parallel_min_keys): (usize, usize),
) -> Result<QueryStats> {
    let mut stats = QueryStats::default();
    let table = dist.table();
    deadline.check()?;
    let (order, pruned) = leaf_order(table, runs, hits.cutoff());
    let leaf_len = |run: usize, leaf: usize| runs[run].summaries.leaf_len(leaf);
    let firsts: Vec<usize> = runs
        .iter()
        .scan(0, |first, r| {
            let at = *first;
            *first += r.summaries.len();
            Some(at)
        })
        .collect();
    stats.lower_bounds += runs
        .iter()
        .map(|r| r.summaries.leaf_count() as u64)
        .sum::<u64>();
    stats.pruned += pruned;
    let mut buf = vec![0.0 as Value; series_len];
    let mut parts = vec![Part::default()];
    let mut batch: Vec<(usize, usize)> = Vec::new();
    let mut batch_keys = first_batch_keys.max(1);
    let mut next = 0;
    loop {
        // Phase A: the next leaves in box order, a batch of keys, up to
        // the first box over the cutoff — and every box after it is too.
        deadline.check()?;
        let mut cutoff = hits.cutoff();
        let mut keys = 0;
        batch.clear();
        while let Some(&(bound, run, leaf)) = order.get(next) {
            if bound > cutoff || keys >= batch_keys {
                break;
            }
            batch.push((run, leaf));
            keys += leaf_len(run, leaf);
            next += 1;
        }
        if batch.is_empty() {
            break;
        }
        batch_keys = batch_keys.saturating_mul(2);
        let cold = batch
            .iter()
            .filter(|&&(r, l)| !runs[r].summaries.is_loaded(l))
            .count();
        let parallel = threads > 1
            && batch.len() > 1
            && (keys >= parallel_min_keys || cold >= PARALLEL_MIN_COLD_LEAVES);
        let workers = if parallel { threads } else { 1 };
        let filter = table.key_filter(cutoff);
        let by_pos = F::POSITION_ORDER;
        let bounded = bound_batch(
            &filter, zoned, runs, &firsts, &batch, by_pos, workers, &mut parts,
        )?;
        let candidates = &mut parts[0].kept;
        stats.lower_bounds += bounded as u64;
        stats.pruned += (keys - candidates.len()) as u64;

        // Phase B: fetch in storage order under the tightening cutoff.
        candidates.sort_unstable_by_key(|&(at, _)| at);
        for (n, &(at, bound)) in candidates.iter().enumerate() {
            if n.is_multiple_of(DEADLINE_STRIDE) {
                deadline.check()?;
            }
            if bound > cutoff {
                stats.pruned += 1;
                continue;
            }
            let pos = fetcher.fetch(at, &mut buf)?;
            stats.records_fetched += 1;
            if let Some(d) = dist.eval(&buf, cutoff) {
                hits.offer(Answer { pos, dist: d });
                cutoff = hits.cutoff();
            }
        }
        candidates.clear();
    }
    let unvisited = order[next..].iter().map(|&(_, r, l)| leaf_len(r, l));
    stats.pruned += unvisited.sum::<usize>() as u64;
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
        const POSITION_ORDER: bool = true;

        fn fetch(&mut self, pos: u64, out: &mut [Value]) -> Result<u64> {
            out.copy_from_slice(&self.data[pos as usize]);
            Ok(pos)
        }
    }

    /// Entries per leaf of the test summaries: not a multiple of the
    /// kernel's 8-lane block, so every leaf has a scalar tail.
    const LEAF: usize = 37;

    /// The summaries an index over `keys` (key `i` at position `i`) holds.
    fn summarize(keys: &[ZKey], config: &SaxConfig) -> Summaries {
        let mut entries: Vec<(ZKey, u64)> = keys.iter().copied().zip(0..).collect();
        entries.sort_unstable();
        Summaries::from_sorted(config, &entries, std::iter::repeat(LEAF))
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
            &summarize(keys, config),
            threads,
            &mut VecFetcher { data },
            &mut hits,
            deadline,
        )?;
        Ok((hits.into_answers(), stats))
    }

    /// [`scan_batched`] over `sums` alone under explicit `limits`.
    fn scan_one<F: SeriesFetcher, C: Collector>(
        ed: &Ed<'_>,
        sums: &Summaries,
        threads: usize,
        fetcher: &mut F,
        hits: &mut C,
        limits: (usize, usize),
    ) -> QueryStats {
        let runs = [ScanRun {
            summaries: sums,
            resolved: 0..0,
        }];
        scan_batched(
            ed,
            true,
            64,
            &runs,
            threads,
            fetcher,
            hits,
            Deadline::NONE,
            limits,
        )
        .unwrap()
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
            // One bound per leaf box, one per zone of a surviving leaf (a
            // leaf of 37 is one zone), one per key of a surviving zone.
            let leaves = 500u64.div_ceil(LEAF as u64);
            assert!((leaves..=500 + 2 * leaves).contains(&stats.lower_bounds));
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
    fn batches_sweeps_and_threads_change_neither_answers_nor_stats() {
        let (data, keys, config) = setup(3000, 64);
        let sums = summarize(&keys, &config);
        for seed in 0..6 {
            let q = query(40 + seed, 64);
            let ed = Ed::new(&q, &config);
            let oracle = brute_force(&q, &data);
            // Unseeded 7-NN: the first batches keep (and sweep) the most.
            let run = |threads: usize, limits: (usize, usize)| {
                let mut hits = TopK::new(7, f64::INFINITY);
                let mut fetcher = VecFetcher { data: &data };
                let stats = scan_one(&ed, &sums, threads, &mut fetcher, &mut hits, limits);
                assert_eq!(
                    hits.into_answers(),
                    oracle[..7],
                    "{threads} threads {limits:?}"
                );
                assert_eq!(stats.pruned + stats.records_fetched, 3000);
                stats
            };
            // A first batch of one key (so one leaf) or of one leaf's keys,
            // with every multi-leaf batch threaded, those from 100 keys, or
            // none; then one batch and one sweep.
            for limits in [
                (1, 1),
                (LEAF, 100),
                (1, usize::MAX),
                (usize::MAX, usize::MAX),
            ] {
                let one = run(1, limits);
                assert_eq!(run(2, limits), one);
                assert_eq!(run(4, limits), one);
            }
            // Sweeping between batches tightens the cutoff the later ones
            // bound under.
            assert!(run(1, (1, usize::MAX)).lower_bounds <= run(1, (usize::MAX, 1)).lower_bounds);
        }
    }

    /// A fetcher that logs where every fetch was asked for.
    struct Logged<F> {
        inner: F,
        log: Vec<u64>,
    }

    impl<F: SeriesFetcher> SeriesFetcher for Logged<F> {
        const POSITION_ORDER: bool = F::POSITION_ORDER;

        fn fetch(&mut self, at: u64, out: &mut [Value]) -> Result<u64> {
            self.log.push(at);
            self.inner.fetch(at, out)
        }
    }

    #[test]
    fn leaves_are_visited_best_box_first_and_the_scan_stops_at_the_cutoff() {
        const LEAVES: usize = 60;
        let (data, keys, config) = setup(LEAVES * LEAF, 64);
        let sums = summarize(&keys, &config);
        let mut leaf_of = vec![0; data.len()];
        for l in 0..LEAVES {
            let block = sums.block(l).unwrap();
            for e in 0..block.len() {
                leaf_of[block.pos(e) as usize] = l;
            }
        }
        for seed in 0..4 {
            let q = query(60 + seed, 64);
            let ed = Ed::new(&q, &config);
            let oracle = brute_force(&q, &data);
            let run = ScanRun {
                summaries: &sums,
                resolved: 0..0,
            };
            let (order, pruned) = leaf_order(ed.table(), &[run], f64::INFINITY);
            assert_eq!((order.len(), pruned), (LEAVES, 0));
            assert!(order
                .windows(2)
                .all(|w| w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].2 < w[1].2)));
            // With one-leaf first batches, batch `k` is the `2^k` leaves
            // from order rank `2^k - 1`: every fetch of a batch comes before
            // any of the next one's.
            let mut batch_of = vec![0; LEAVES];
            for (rank, &(_, _, leaf)) in order.iter().enumerate() {
                batch_of[leaf] = (rank + 1).ilog2();
            }
            let mut fetcher = Logged {
                inner: VecFetcher { data: &data },
                log: Vec::new(),
            };
            let mut hits = TopK::new(3, f64::INFINITY);
            let limits = (LEAF, usize::MAX);
            scan_one(&ed, &sums, 1, &mut fetcher, &mut hits, limits);
            assert_eq!(hits.into_answers(), oracle[..3]);
            let batches: Vec<u32> = fetcher
                .log
                .iter()
                .map(|&p| batch_of[leaf_of[p as usize]])
                .collect();
            assert_eq!(batches.first(), Some(&0));
            assert!(batches.windows(2).all(|w| w[0] <= w[1]), "{batches:?}");

            // Seeded with the answer, the cutoff never moves: the scan
            // bounds the zone of exactly the leaves whose box is under it
            // (a leaf of 37 is one zone), and the keys of exactly the zones
            // whose box — its symbols' extremes — is under it too.
            let mut seeded = TopK::new(1, f64::INFINITY);
            seeded.offer(oracle[0]);
            let mut fetcher = VecFetcher { data: &data };
            let stats = scan_one(&ed, &sums, 1, &mut fetcher, &mut seeded, limits);
            let cutoff = oracle[0].dist;
            let under: Vec<usize> = order
                .iter()
                .filter(|&&(b, _, _)| b <= cutoff)
                .map(|&(_, _, leaf)| leaf)
                .collect();
            assert!(under.len() < LEAVES, "seed {seed}: no leaf pruned");
            let zones_under = under
                .iter()
                .filter(|&&leaf| {
                    let rows = sums.block(leaf).unwrap().symbols.chunks_exact(LEAF);
                    let lo: Vec<u8> = rows.clone().map(|r| *r.iter().min().unwrap()).collect();
                    let hi: Vec<u8> = rows.map(|r| *r.iter().max().unwrap()).collect();
                    ed.table().box_bound(&lo, &hi) <= cutoff
                })
                .count();
            assert!(zones_under < under.len(), "seed {seed}: no zone pruned");
            let bounds = LEAVES + under.len() + zones_under * LEAF;
            assert_eq!(stats.lower_bounds, bounds as u64);
            assert_eq!(stats.pruned + stats.records_fetched, data.len() as u64);
        }
    }

    /// A tree of leaves of 20 over 2,000 random walks in `dir`, its dataset
    /// (whose I/O counters the tree shares) and the walks.
    fn tree_of_2000(
        dir: &coconut_storage::TempDir,
        materialized: bool,
    ) -> (
        crate::CoconutTree,
        coconut_series::dataset::Dataset,
        Vec<Vec<Value>>,
    ) {
        use crate::{BuildOptions, CoconutTree, IndexConfig};
        use coconut_series::dataset::{write_dataset, Dataset};
        use coconut_storage::IoStats;
        let io = std::sync::Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        if !path.exists() {
            write_dataset(&path, &mut RandomWalkGen::new(5), 2_000, 64, &io).unwrap();
        }
        let ds = Dataset::open(&path, io).unwrap();
        let mut config = IndexConfig::default_for_len(64);
        config.leaf_capacity = 20;
        let opts = BuildOptions {
            materialized,
            ..BuildOptions::default()
        };
        let tree = CoconutTree::build(&ds, &config, dir.path(), opts).unwrap();
        let all = (0..ds.len()).map(|p| ds.get(p).unwrap()).collect();
        (tree, ds, all)
    }

    #[test]
    fn a_materialized_scan_restarts_per_sweep_and_reads_each_leaf_once() {
        let dir = coconut_storage::TempDir::new("sims-full").unwrap();
        let (tree, ds, all) = tree_of_2000(&dir, true);
        let sums = tree.summaries();
        // Every block in place: what the scan reads is payloads alone.
        for l in 0..sums.leaf_count() {
            sums.block(l).unwrap();
        }
        let io = ds.file().stats();
        let entry_bytes = tree.store.codec().entry_bytes() as u64;
        for seed in 0..3 {
            let q = query(80 + seed, 64);
            let mut fetcher = Logged {
                inner: tree.leaf_fetcher(),
                log: Vec::new(),
            };
            let mut hits = TopK::new(5, f64::INFINITY);
            let before = io.snapshot();
            let ed = Ed::new(&q, &tree.config().sax);
            sims_scan(&ed, 64, sums, 2, &mut fetcher, &mut hits, Deadline::NONE).unwrap();
            let read = io.snapshot().since(&before);
            assert_eq!(hits.into_answers(), brute_force(&q, &all)[..5]);
            // Scan indexes rise within a sweep and fall back between some.
            let falls = fetcher.log.windows(2).filter(|w| w[1] < w[0]).count();
            assert!(falls >= 2, "seed {seed}: {falls} falls");
            let mut touched: Vec<usize> = fetcher
                .log
                .iter()
                .map(|&i| sums.leaf_starts().partition_point(|&s| s as u64 <= i) - 1)
                .collect();
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(read.seq_reads + read.rand_reads, touched.len() as u64);
            let bytes = touched
                .iter()
                .map(|&l| sums.leaf_len(l) as u64 * entry_bytes);
            assert_eq!(read.bytes_read, bytes.sum::<u64>());
        }
    }

    #[test]
    fn the_probe_and_the_scan_account_for_every_record_once() {
        use crate::Query;
        let dir = coconut_storage::TempDir::new("sims-seeds").unwrap();
        for materialized in [false, true] {
            let (tree, _, all) = tree_of_2000(&dir, materialized);
            for seed in 0..4 {
                let q = query(90 + seed, 64);
                let oracle = brute_force(&q, &all);
                let wide = Query {
                    radius: 4,
                    ..Query::knn(3)
                };
                for (query, k) in [(Query::nearest(), 1), (Query::knn(7), 7), (wide, 3)] {
                    let (answers, stats) = tree.search(&q, &query).unwrap();
                    assert_eq!(answers, oracle[..k], "{query:?}");
                    // The scan passes the probe's leaves by: nothing is
                    // fetched or pruned twice.
                    assert_eq!(stats.pruned + stats.records_fetched, 2_000, "{query:?}");
                    let seeds = 1..=2 * query.radius as u64 + 1;
                    assert!(seeds.contains(&stats.leaves_visited), "{query:?}");
                }
            }
        }
    }

    #[test]
    fn bound_batch_is_the_same_on_any_worker_count() {
        let (_, keys, config) = setup(3000, 64);
        let sums = summarize(&keys, &config);
        let q = query(4, 64);
        let ed = Ed::new(&q, &config);
        let runs = [ScanRun {
            summaries: &sums,
            resolved: 0..0,
        }];
        let leaves: Vec<(usize, usize)> = (0..sums.leaf_count())
            .filter(|l| l % 5 != 2)
            .map(|l| (0, l))
            .collect();
        // A cutoff about a third of the keys pass.
        let mut all = parallel_mindists(&paa(&q, config.segments), &keys, &config, 1);
        all.sort_by(f64::total_cmp);
        let filter = ed.table().key_filter(all[1000]);
        let mut parts = vec![Part::default()];
        let mut batch = |zoned: bool, workers: usize| {
            let bounded = bound_batch(
                &filter,
                zoned,
                &runs,
                &[0],
                &leaves,
                false,
                workers,
                &mut parts,
            )
            .unwrap();
            (std::mem::take(&mut parts[0].kept), bounded)
        };
        let (inline, keys) = batch(false, 1);
        assert!(!inline.is_empty() && inline.windows(2).all(|w| w[0].0 < w[1].0));
        let (zoned, bounded) = batch(true, 1);
        assert_eq!(zoned, inline);
        // One bound per leaf's zone and per key of a surviving zone.
        assert_eq!(keys, leaves.iter().map(|&(_, l)| sums.leaf_len(l)).sum());
        assert!((leaves.len()..=keys + leaves.len()).contains(&bounded));
        for workers in [2, 4, 200] {
            for (zoned, want) in [(false, keys), (true, bounded)] {
                assert_eq!(
                    batch(zoned, workers),
                    (inline.clone(), want),
                    "{workers} workers"
                );
            }
        }
        assert!(balanced_chunks(&leaves, 4, |&(_, l)| sums.leaf_len(l)).len() == 4);
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
            const POSITION_ORDER: bool = false;

            fn fetch(&mut self, i: u64, out: &mut [Value]) -> Result<u64> {
                out.copy_from_slice(self.0);
                Ok(ORDER[i as usize])
            }
        }
        fn collect<C: Collector>(
            ed: &Ed<'_>,
            sums: &Summaries,
            s: &[Value],
            mut hits: C,
        ) -> Vec<u64> {
            sims_scan(ed, 64, sums, 1, &mut Shuffled(s), &mut hits, Deadline::NONE).unwrap();
            hits.into_answers().iter().map(|a| a.pos).collect()
        }
        let config = SaxConfig::default_for_len(64);
        let s = query(1, 64);
        let key = Summarizer::new(config).zkey(&s);
        let sums = Summaries::from_sorted(&config, &ORDER.map(|pos| (key, pos)), [3]);
        let q = query(2, 64);
        let ed = Ed::new(&q, &config);
        let top2 = collect(&ed, &sums, &s, TopK::new(2, f64::INFINITY));
        assert_eq!(top2, [2, 4]);
        let within = Within::new(euclidean(&q, &s), f64::INFINITY);
        assert_eq!(collect(&ed, &sums, &s, within), [2, 4, 7, 9]);
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
