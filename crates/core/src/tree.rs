//! Coconut-Tree: a balanced, contiguous, densely packed data series index
//! (paper Section 4.3, Algorithm 3).
//!
//! Construction sorts the sortable summarizations externally and bulk-loads
//! a B+-tree bottom-up, UB-tree style: leaves are written left-to-right into
//! one contiguous file region, packed to the configured fill factor, and the
//! (tiny) internal levels are kept in memory — "the index's internal nodes
//! for most applications fit in main memory". Median-based splitting is
//! implicit in bulk loading: any node boundary may fall between any two
//! records, so no common-prefix constraint wastes space.
//!
//! The leaves, their persistence and every query live in
//! [`crate::leaves::SortedLeafIndex`]; this module is what makes the index
//! a *tree*: the [`SeparatorLevels`] directory and fixed-size leaf packing.
//!
//! A tree's file is written once, by its bulk load, and never changes
//! after. The paper's B+-tree inserts (Figure 10a) are not kept: updates go
//! to [`crate::LsmCoconut`], whose every run is a bulk-loaded tree and whose
//! merges bulk-load new ones.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use coconut_series::dataset::Dataset;
use coconut_storage::{CountedFile, RecordStream, Result, SortReport};
use coconut_summary::ZKey;

use crate::builder::{key_pos_stream, key_series_stream};
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{IndexHeader, LeafEntries, LeafMeta, LeafStore};
use crate::leaves::{Directory, SortedLeafIndex, Unbuilt};
use crate::records::SortedRecord;

static TREE_ID: AtomicU64 = AtomicU64::new(0);

/// The Coconut-Tree index: sorted leaves under [`SeparatorLevels`].
pub type CoconutTree = SortedLeafIndex<SeparatorLevels>;

/// Coconut-Tree's directory: in-memory B+-tree separator levels over the
/// leaves' first keys. Nothing of it is stored — reopening rebuilds it from
/// the leaf directory.
pub struct SeparatorLevels {
    fanout: usize,
    /// `levels[0]` holds each leaf's first key, each higher level the first
    /// key of `fanout`-sized groups.
    levels: Vec<Vec<ZKey>>,
}

impl SeparatorLevels {
    fn rebuild(&mut self, leaves: &[LeafMeta]) {
        self.levels.clear();
        if leaves.is_empty() {
            return;
        }
        let mut level: Vec<ZKey> = leaves.iter().map(|l| l.first_key).collect();
        loop {
            let next: Option<Vec<ZKey>> = if level.len() <= self.fanout {
                None
            } else {
                Some(level.chunks(self.fanout).map(|c| c[0]).collect())
            };
            self.levels.push(level);
            match next {
                Some(n) => level = n,
                None => break,
            }
        }
    }
}

impl Directory for SeparatorLevels {
    const KIND: u8 = 0;
    const NAME: &'static str = "CTree";

    fn next_file_id() -> u64 {
        TREE_ID.fetch_add(1, Ordering::Relaxed)
    }

    fn empty(config: &IndexConfig) -> Self {
        SeparatorLevels {
            fanout: config.internal_fanout,
            levels: Vec::new(),
        }
    }

    fn bulk_load(
        tree: &mut CoconutTree,
        tmp_dir: &Path,
        opts: &BuildOptions,
        _: Unbuilt,
    ) -> Result<()> {
        let (range, sax) = (tree.range.clone(), tree.config.sax);
        if opts.materialized {
            let mut stream = key_series_stream(&tree.dataset, range, &sax, opts, tmp_dir)?;
            tree.pack(&mut stream)
        } else {
            let mut stream = key_pos_stream(&tree.dataset, range, &sax, opts, tmp_dir)?;
            tree.pack(&mut stream)
        }
    }

    /// Descend the internal levels to the leaf whose key range contains
    /// `key`.
    fn descend(&self, key: ZKey) -> Option<usize> {
        // Non-empty leaves imply at least one level (`rebuild`).
        let top = self.levels.last()?;
        let mut idx = top.partition_point(|&k| k <= key).saturating_sub(1);
        for level in self.levels.iter().rev().skip(1) {
            let lo = idx * self.fanout;
            let hi = ((idx + 1) * self.fanout).min(level.len());
            idx = lo
                + level[lo..hi]
                    .partition_point(|&k| k <= key)
                    .saturating_sub(1);
        }
        Some(idx)
    }

    /// The tree tail has no records; the header only carries the policy
    /// byte so reopen reconstructs the config.
    fn write_tail(&self, _file: &CountedFile) -> Result<u8> {
        Ok(0)
    }

    fn read_tail(
        _file: &CountedFile,
        _header: &IndexHeader,
        _tail: u64,
        leaves: &[LeafMeta],
        config: &IndexConfig,
    ) -> Result<Self> {
        let mut levels = Self::empty(config);
        levels.rebuild(leaves);
        Ok(levels)
    }
}

impl CoconutTree {
    /// Bulk-load a tree from an already-sorted record stream covering
    /// exactly the positions of `range` — the LSM compaction path, where
    /// `stream` is a K-way [`coconut_storage::MergedStream`] over the leaf
    /// streams of existing runs. The record type must match
    /// `opts.materialized` ([`crate::records::KeySeries`] when materialized,
    /// [`crate::records::KeyPos`] otherwise).
    ///
    /// Because the loader consumes the same `(key, pos)`-ordered sequence a
    /// from-scratch sort would produce, the resulting index file is
    /// bit-identical to [`CoconutTree::build_range`] over the same range.
    pub fn build_range_from_stream<R: SortedRecord>(
        dataset: &Dataset,
        range: std::ops::Range<u64>,
        config: &IndexConfig,
        dir: &Path,
        opts: BuildOptions,
        stream: &mut dyn RecordStream<Item = R>,
    ) -> Result<Self> {
        let mut tree = Self::create(dataset, range, config, dir, &opts)?;
        tree.pack(stream)?;
        Ok(tree)
    }

    /// Median packing: every leaf takes the same `fill_factor`-scaled number
    /// of records, whatever their keys; then build the levels and persist.
    fn pack<R: SortedRecord>(&mut self, stream: &mut dyn RecordStream<Item = R>) -> Result<()> {
        let per_leaf = self.config.bulk_leaf_entries();
        self.load(|| stream.next_item(), std::iter::repeat(per_leaf))?;
        self.build_report.sort = stream.report();
        self.dir.rebuild(&self.leaves);
        self.persist()
    }

    /// Open a previously built index file as a run covering exactly the
    /// positions `range` of `dataset` — the LSM recovery path, where the
    /// manifest records each run's covered range. Unlike
    /// [`CoconutTree::open`] (which assumes the whole dataset), this
    /// validates that the file's entry count matches the range, so a
    /// manifest/run mismatch is caught at open time rather than at query
    /// time.
    pub fn open_range(
        path: &Path,
        dataset: &Dataset,
        threads: usize,
        range: std::ops::Range<u64>,
    ) -> Result<Self> {
        Self::open_covering(path, dataset, threads, range, true)
    }

    /// Stream this tree's entries in leaf order — which, for a bulk-loaded
    /// run, is exactly `(key, pos)`-sorted order. LSM compaction feeds K of
    /// these into a [`coconut_storage::MergedStream`] and bulk-loads the
    /// merged run from the result, so a compaction is a K-way merge of
    /// sorted runs, never a re-sort of the raw range.
    ///
    /// `R` must match the tree's layout: [`crate::records::KeySeries`] for
    /// materialized trees, [`crate::records::KeyPos`] otherwise.
    pub fn leaf_entries<R: SortedRecord>(&self) -> LeafEntryStream<'_, R> {
        LeafEntryStream {
            store: &self.store,
            leaves: &self.leaves,
            entry_count: self.entry_count,
            next_leaf: 0,
            slot: 0,
            buf: Vec::new(),
            entries: LeafEntries::default(),
            _record: std::marker::PhantomData,
        }
    }

    /// Height of the tree (internal levels above the leaves).
    pub fn height(&self) -> usize {
        self.dir.levels.len()
    }
}

/// A forward scan over a tree's leaf entries in leaf (= sorted) order,
/// yielding decoded records; created by [`CoconutTree::leaf_entries`].
/// Reads each leaf block once, sequentially, and re-interleaves its keys.
pub struct LeafEntryStream<'a, R> {
    store: &'a LeafStore,
    leaves: &'a [LeafMeta],
    entry_count: u64,
    /// The leaf to read when `entries` runs out.
    next_leaf: usize,
    /// The next entry of `entries` to yield.
    slot: usize,
    buf: Vec<u8>,
    entries: LeafEntries,
    _record: std::marker::PhantomData<R>,
}

impl<R: SortedRecord> RecordStream for LeafEntryStream<'_, R> {
    type Item = R;

    fn next_item(&mut self) -> Result<Option<R>> {
        while self.slot == self.entries.len() {
            let Some(meta) = self.leaves.get(self.next_leaf) else {
                return Ok(None);
            };
            self.store.read_leaf(self.next_leaf, meta, &mut self.buf)?;
            self.store.codec().decode(&self.buf, &mut self.entries);
            self.next_leaf += 1;
            self.slot = 0;
        }
        let (e, i) = (&self.entries, self.slot);
        self.slot += 1;
        Ok(Some(R::from_entry(e.keys()[i], e.pos()[i], e.payload(i))))
    }

    fn report(&self) -> SortReport {
        SortReport {
            items: self.entry_count,
            runs: 0,
            merge_passes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{first, Metric, Query};
    use crate::records::{KeyPos, KeySeries};
    use coconut_series::dataset::write_dataset;
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_series::index::{Answer, SeriesIndex};
    use coconut_series::Value;
    use coconut_storage::{IoStats, TempDir};
    use coconut_summary::mindist::ZONE;
    use coconut_summary::sax::Summarizer;
    use std::sync::Arc;

    fn dtw(band: usize) -> Query {
        Query {
            metric: Metric::Dtw(band),
            ..Query::nearest()
        }
    }

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    fn make_dataset(dir: &TempDir, n: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(17), n, LEN, &stats).unwrap();
        Dataset::open(&path, stats).unwrap()
    }

    fn brute_force(ds: &Dataset, query: &[Value]) -> Answer {
        let mut best = Answer::none();
        let mut scan = ds.scan();
        while let Some((pos, s)) = scan.next_series().unwrap() {
            best.merge(Answer {
                pos,
                dist: euclidean(query, s),
            });
        }
        best
    }

    fn query(seed: u64) -> Vec<Value> {
        let mut q = RandomWalkGen::new(seed).generate(LEN);
        znormalize(&mut q);
        q
    }

    #[test]
    fn build_packs_leaves_and_is_contiguous() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1000);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.leaf_count(), 1000u64.div_ceil(32));
        crate::leaves::tests::assert_packed(&tree);
        // All leaves except possibly the last are full.
        assert!(tree.avg_fill() > 0.9, "fill {}", tree.avg_fill());
        assert!(tree.height() >= 1);
    }

    /// The most bounds an exact query of `tree` computes: one per leaf box,
    /// per zone and per entry.
    fn most_bounds(tree: &CoconutTree) -> u64 {
        let counts = tree.leaf_entry_counts();
        let zones: usize = counts.iter().map(|c| c.div_ceil(ZONE)).sum();
        tree.len() + tree.leaf_count() + zones as u64
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 800);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 100..110 {
            let q = query(seed);
            let (ans, stats) = tree.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
            assert!((ans.dist - expect.dist).abs() < 1e-6);
            assert!(stats.pruned + stats.records_fetched >= 800);
            assert!(stats.lower_bounds <= most_bounds(&tree));
        }
    }

    #[test]
    fn materialized_exact_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 500);
        let tree = CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().materialized(),
        )
        .unwrap();
        assert!(tree.is_materialized());
        for seed in 200..208 {
            let q = query(seed);
            let (ans, _) = tree.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn approximate_is_lower_bounded_by_exact() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 600);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 300..310 {
            let q = query(seed);
            let approx = tree.approximate_search(&q, 1).unwrap();
            let (exact, _) = tree.exact_search(&q).unwrap();
            assert!(approx.is_some());
            assert!(exact.dist <= approx.dist + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn larger_radius_never_worsens_approximate() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 600);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 400..410 {
            let q = query(seed);
            let r0 = tree.approximate_search(&q, 0).unwrap();
            let r1 = tree.approximate_search(&q, 1).unwrap();
            let r5 = tree.approximate_search(&q, 5).unwrap();
            assert!(r1.dist <= r0.dist + 1e-9);
            assert!(r5.dist <= r1.dist + 1e-9);
        }
    }

    #[test]
    fn knn_is_sorted_and_consistent_with_exact() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 400);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(55);
        let (top, _) = tree.exact_knn(&q, 5).unwrap();
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        let (one, _) = tree.exact_search(&q).unwrap();
        assert_eq!(top[0].pos, one.pos);
    }

    #[test]
    fn open_reloads_and_answers_identically() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        let built =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTree::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.leaf_count(), built.leaf_count());
        for seed in 500..505 {
            let q = query(seed);
            let (a, _) = built.exact_search(&q).unwrap();
            let (b, _) = reopened.exact_search(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    /// Every `(key, pos)` of `ds`, sorted: what the leaves of a tree over
    /// all of it hold, in order.
    fn sorted_entries(ds: &Dataset) -> Vec<KeyPos> {
        let mut summarizer = Summarizer::new(small_config().sax);
        let mut all: Vec<KeyPos> = (0..ds.len())
            .map(|pos| KeyPos {
                key: summarizer.zkey(&ds.get(pos).unwrap()),
                pos,
            })
            .collect();
        all.sort_unstable();
        all
    }

    fn streamed<R: SortedRecord>(tree: &CoconutTree) -> Vec<R> {
        let mut stream = tree.leaf_entries::<R>();
        std::iter::from_fn(|| stream.next_item().unwrap()).collect()
    }

    #[test]
    fn leaf_entries_yield_what_was_written() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 700);
        let want = sorted_entries(&ds);
        for opts in [
            BuildOptions::default(),
            BuildOptions::default().materialized(),
        ] {
            let tree = CoconutTree::build(&ds, &small_config(), dir.path(), opts).unwrap();
            let reopened = CoconutTree::open(tree.index_path(), &ds, 1).unwrap();
            assert_eq!(streamed::<KeyPos>(&reopened), want);
            if tree.is_materialized() {
                for r in streamed::<KeySeries>(&reopened) {
                    assert_eq!(r.series, ds.get(r.pos).unwrap(), "pos {}", r.pos);
                }
            }
        }
    }

    #[test]
    fn empty_dataset_yields_empty_tree() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 0);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.is_empty());
        let q = query(2);
        assert!(!tree.approximate_search(&q, 1).unwrap().is_some());
        let (ans, _) = tree.exact_search(&q).unwrap();
        assert!(!ans.is_some());
    }

    #[test]
    fn wrong_query_length_rejected() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 50);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.approximate_search(&[0.0; 10], 1).is_err());
    }

    #[test]
    fn fill_factor_controls_occupancy() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 320);
        let mut config = small_config();
        config.fill_factor = 0.5;
        let tree = CoconutTree::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
        // Leaves hold 16 of 32 slots.
        assert!(
            (tree.avg_fill() - 0.5).abs() < 0.05,
            "fill {}",
            tree.avg_fill()
        );
        assert_eq!(tree.leaf_count(), 20);
    }

    #[test]
    fn sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1100);
        for materialized in [false, true] {
            let base_opts = BuildOptions {
                materialized,
                memory_bytes: 1 << 20, // small enough that shards spill
                ..BuildOptions::default()
            };
            let single =
                CoconutTree::build(&ds, &small_config(), dir.path(), base_opts.clone()).unwrap();
            let single_bytes = std::fs::read(single.index_path()).unwrap();
            for shards in [2usize, 4, 7] {
                let sharded = CoconutTree::build(
                    &ds,
                    &small_config(),
                    dir.path(),
                    base_opts.clone().with_shards(shards),
                )
                .unwrap();
                let sharded_bytes = std::fs::read(sharded.index_path()).unwrap();
                assert_eq!(
                    single_bytes, sharded_bytes,
                    "mat={materialized} shards={shards}: index files differ"
                );
                assert_eq!(sharded.len(), single.len());
                assert_eq!(sharded.leaf_count(), single.leaf_count());
                // The sharded index answers identically.
                for seed in 900..905 {
                    let q = query(seed);
                    let (a, _) = single.exact_search(&q).unwrap();
                    let (b, _) = sharded.exact_search(&q).unwrap();
                    assert_eq!(a.pos, b.pos, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn sharded_build_reads_one_pass() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 3000);
        let stats = Arc::clone(ds.file().stats());
        let before = stats.snapshot();
        let tree = CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().with_shards(6),
        )
        .unwrap();
        assert_eq!(tree.len(), 3000);
        let delta = stats.snapshot().since(&before);
        // With ample memory no shard spills, so bytes read equal exactly
        // one pass over the raw payload.
        assert_eq!(delta.bytes_read, ds.payload_bytes());
    }

    #[test]
    fn build_io_is_sequential() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 2000);
        let stats = Arc::clone(ds.file().stats());
        let before = stats.snapshot();
        let _tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let delta = stats.snapshot().since(&before);
        // Bulk loading must be sequential-I/O dominated — the paper's core
        // claim for bottom-up construction.
        assert!(
            delta.random_ops() * 5 <= delta.total_ops(),
            "random {} of {}",
            delta.random_ops(),
            delta.total_ops()
        );
    }

    #[test]
    fn range_query_matches_brute_force() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 500);
        for materialized in [false, true] {
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let tree = CoconutTree::build(&ds, &small_config(), dir.path(), opts).unwrap();
            let q = query(42);
            // Pick epsilon around the 10th-nearest distance so the result
            // set is non-trivial.
            let mut dists: Vec<(u64, f64)> = (0..500)
                .map(|p| (p, euclidean(&q, &ds.get(p).unwrap())))
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            let eps = dists[9].1;
            let (hits, _) = tree.exact_range(&q, eps).unwrap();
            let expected: Vec<u64> = dists
                .iter()
                .take_while(|&&(_, d)| d <= eps)
                .map(|&(p, _)| p)
                .collect();
            assert_eq!(hits.len(), expected.len(), "mat={materialized}");
            let mut got: Vec<u64> = hits.iter().map(|a| a.pos).collect();
            got.sort_unstable();
            let mut want = expected;
            want.sort_unstable();
            assert_eq!(got, want, "mat={materialized}");
            // Sorted by distance.
            for w in hits.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn range_query_epsilon_zero_finds_members_only() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 200);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let member = ds.get(77).unwrap();
        let (hits, _) = tree.exact_range(&member, 1e-6).unwrap();
        assert!(hits.iter().any(|a| a.pos == 77));
        assert!(hits.iter().all(|a| a.dist <= 1e-6));
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        use coconut_series::dtw::dtw as dtw_dist;
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        for materialized in [false, true] {
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let tree = CoconutTree::build(&ds, &small_config(), dir.path(), opts).unwrap();
            for seed in 800..805 {
                let q = query(seed);
                for band in [2usize, 6] {
                    let (ans, stats) = tree.search(&q, &dtw(band)).map(first).unwrap();
                    // Brute force DTW.
                    let mut best = Answer::none();
                    for p in 0..300 {
                        let s = ds.get(p).unwrap();
                        best.merge(Answer {
                            pos: p,
                            dist: dtw_dist(&q, &s, band),
                        });
                    }
                    assert_eq!(
                        ans.pos, best.pos,
                        "mat={materialized} seed={seed} band={band}"
                    );
                    assert!((ans.dist - best.dist).abs() < 1e-6);
                    assert!(stats.pruned + stats.records_fetched >= 300);
                    assert!(stats.lower_bounds <= most_bounds(&tree));
                }
            }
        }
    }

    #[test]
    fn dtw_answer_is_at_most_euclidean_answer() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 300);
        let tree =
            CoconutTree::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(11);
        let (ed, _) = tree.exact_search(&q).unwrap();
        let (dt, _) = tree.search(&q, &dtw(5)).map(first).unwrap();
        assert!(dt.dist <= ed.dist + 1e-9);
    }

    #[test]
    fn descend_agrees_with_flat_binary_search() {
        let dir = TempDir::new("ctree").unwrap();
        let ds = make_dataset(&dir, 1500);
        let mut config = small_config();
        config.internal_fanout = 4; // force several levels
        let tree = CoconutTree::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
        assert!(tree.height() >= 3);
        for seed in 700..720 {
            let q = query(seed);
            let key = tree.query_key(&q).unwrap();
            let li = tree.dir.descend(key).unwrap();
            let flat = tree.dir.levels[0]
                .partition_point(|&k| k <= key)
                .saturating_sub(1);
            assert_eq!(li, flat, "seed {seed}");
        }
    }
}
