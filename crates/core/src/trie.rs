//! Coconut-Trie: bottom-up bulk loading of a prefix-split index
//! (paper Section 4.2, Algorithm 2).
//!
//! Coconut-Trie keeps the state of the art's node shape — every node is an
//! iSAX prefix, here a prefix of the interleaved z-order key — but builds
//! the index *bottom-up* from the externally sorted summarizations and
//! compacts it, so that leaves end up contiguous on disk. Because the keys
//! are sorted, every prefix node covers a contiguous key range, and the
//! builder emits a leaf as soon as a subtree fits in one node — exactly the
//! fixpoint `CompactSubtree` reaches by repeatedly merging sibling leaves
//! that fit together. Under the paper's binary split that is decided on the
//! sorted stream as it arrives: a lookahead of `capacity + 1` records shows
//! whether the first record's prefix run closes within one leaf, so the
//! build holds that lookahead and the leaf being written — no summary array
//! — and stays inside the sorter's memory budget however large the data.
//!
//! What Coconut-Trie does **not** fix (by design — it isolates the
//! contiguity variable) is occupancy: prefix boundaries cannot balance
//! entries, so most leaves stay nearly empty and the on-disk size is
//! inflated — the effect the paper measures in Figure 8c and the reason
//! Coconut-Tree wins overall.
//!
//! The *splitting decision* is therefore pluggable: a
//! [`crate::split::SplitPolicy`] chooses, at every oversized subtree, how
//! many interleaved bits the node consumes. The default
//! [`crate::split::FixedBinaryPolicy`] reproduces the paper's binary trie
//! byte-for-byte; [`crate::split::AdaptivePolicy`] builds Dumpy-style
//! variable-fanout nodes (`TrieNode::Multi` internally) whose undersized
//! sibling slots are greedily merged into shared leaves, recovering most of
//! the occupancy Coconut-Tree gets — without giving up prefix semantics.
//! Both policies produce bit-identical *query answers* (exact search runs
//! over the same sorted keys either way); only the leaf partitioning and
//! the approximate-search seed differ. The adaptive policy chooses each
//! fanout from its whole window's key histogram, so it carves in memory:
//! it holds the sorted keys, plus their positions for pointer builds —
//! 24 B per series, 16 B for -Full builds.
//!
//! The leaves, their persistence and every query live in
//! [`crate::leaves::SortedLeafIndex`]; this module is what makes the index
//! a *trie*: the [`PrefixNodes`] directory, its on-disk tail, and the
//! prefix carving that decides where one leaf ends and the next begins.

use std::collections::vec_deque::{Drain, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use coconut_storage::{CountedFile, Error, RecordStream, Result};
use coconut_summary::ZKey;

use crate::builder::{key_pos_stream, key_series_stream};
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::{read_index, IndexHeader, LeafEntries, LeafMeta};
use crate::leaves::{Directory, SortedLeafIndex, Unbuilt};
use crate::records::{KeyPos, SortedRecord};
use crate::split::{child_counts, merge_slots, SplitPolicy, SplitPolicyKind};

static TRIE_ID: AtomicU64 = AtomicU64::new(0);

/// The trie tail encoding this build writes and reads (header byte 48).
pub const TAIL_VERSION: u8 = 1;

/// The Coconut-Trie index: sorted leaves under [`PrefixNodes`].
pub type CoconutTrie = SortedLeafIndex<PrefixNodes>;

/// A node of the in-memory trie skeleton. Chains of one-child prefix nodes
/// are path-compressed: each node records its own bit depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrieNode {
    /// An internal binary split on interleaved-key bit `depth`.
    Internal { depth: u32, zero: u32, one: u32 },
    /// A leaf holding logical leaf `leaf` (index into the leaf directory).
    Leaf { leaf: u32 },
    /// A variable-fanout split consuming `bits` interleaved bits starting at
    /// bit `depth`: child for slot `v` is `children[start + v]` in the
    /// trie's slot arena. Merged sibling slots share a child, so the same
    /// node id may appear in consecutive slots. Adaptive-policy builds only.
    Multi { depth: u32, bits: u8, start: u32 },
}

/// Coconut-Trie's directory: the prefix-node skeleton over the leaves,
/// persisted as the index file's tail.
pub struct PrefixNodes {
    /// Interleaved key bits (`SaxConfig::word_bits`).
    total_bits: usize,
    nodes: Vec<TrieNode>,
    /// Slot arena for `TrieNode::Multi` nodes (empty on fixed builds).
    children: Vec<u32>,
    root: Option<u32>,
}

/// The recursive carve over sorted keys held in memory — the adaptive
/// policy's bulk load, and the reference the fixed policy's
/// [`carve_stream`] is tested against: the sorted keys, the policy, and the
/// leaf sizes emitted so far (leaf `i` takes the next `leaf_sizes[i]` keys).
struct Carver<'a> {
    dir: &'a mut PrefixNodes,
    keys: &'a [ZKey],
    policy: &'a dyn SplitPolicy,
    capacity: usize,
    leaf_sizes: Vec<usize>,
    oversized: u64,
}

impl Carver<'_> {
    fn leaf(&mut self, entries: usize) -> u32 {
        self.leaf_sizes.push(entries);
        self.dir.nodes.push(TrieNode::Leaf {
            leaf: (self.leaf_sizes.len() - 1) as u32,
        });
        (self.dir.nodes.len() - 1) as u32
    }

    /// Recursively partition the sorted keys `[lo, hi)` starting at bit
    /// `depth`; appends leaf sizes in order and returns the subtree's node
    /// index. Every key in the window shares its first `depth` bits, so the
    /// window is sorted by the remaining bits — all boundaries are binary
    /// searches.
    fn carve(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        debug_assert!(lo < hi);
        let total_bits = self.dir.total_bits;
        if hi - lo <= self.capacity || depth == total_bits {
            if hi - lo > self.capacity {
                // Identical keys beyond capacity cannot be refined further;
                // count the oversized leaf instead of absorbing it silently.
                self.oversized += 1;
            }
            return self.leaf(hi - lo);
        }
        let window = &self.keys[lo..hi];
        let bits = self
            .policy
            .choose_bits(window, depth, total_bits, self.capacity)
            .clamp(1, total_bits - depth);
        if bits == 1 {
            // The paper's binary split, kept verbatim: fixed-policy builds
            // must stay byte-identical to the pre-policy builder.
            let mid = lo + window.partition_point(|k| k.bit(depth, total_bits) == 0);
            if mid == lo || mid == hi {
                // All entries share this bit: path-compress (the paper's
                // createUptree emits a chain of one-child nodes; we skip them).
                return self.carve(lo, hi, depth + 1);
            }
            let zero = self.carve(lo, mid, depth + 1);
            let one = self.carve(mid, hi, depth + 1);
            self.dir.nodes.push(TrieNode::Internal {
                depth: depth as u32,
                zero,
                one,
            });
            return (self.dir.nodes.len() - 1) as u32;
        }
        let counts = child_counts(window, depth, bits, total_bits);
        if counts.iter().filter(|&&c| c > 0).count() == 1 {
            // Every entry shares all `bits` bits: path-compress the whole
            // window (the multi-bit generalization of the binary case).
            return self.carve(lo, hi, depth + bits);
        }
        // Greedily merge undersized consecutive slots into shared leaves;
        // only a single still-oversized slot deepens.
        let fanout = 1usize << bits;
        let mut slot_nodes = vec![u32::MAX; fanout];
        let mut cursor = lo;
        for g in merge_slots(&counts, self.capacity) {
            let (glo, ghi) = (cursor, cursor + g.entries);
            cursor = ghi;
            if g.entries == 0 {
                continue; // routed to a neighboring group's node below
            }
            let node = if g.entries <= self.capacity {
                self.leaf(g.entries)
            } else {
                self.carve(glo, ghi, depth + bits)
            };
            for s in g.slots {
                slot_nodes[s] = node;
            }
        }
        debug_assert_eq!(cursor, hi);
        // Empty slots route to the nearest populated neighbor so descent is
        // total for any query key.
        let mut last = u32::MAX;
        for slot in slot_nodes.iter_mut() {
            if *slot != u32::MAX {
                last = *slot;
            } else {
                *slot = last;
            }
        }
        let mut last = u32::MAX;
        for slot in slot_nodes.iter_mut().rev() {
            if *slot != u32::MAX {
                last = *slot;
            } else {
                *slot = last;
            }
        }
        let start = self.dir.children.len() as u32;
        self.dir.children.extend_from_slice(&slot_nodes);
        self.dir.nodes.push(TrieNode::Multi {
            depth: depth as u32,
            bits: bits as u8,
            start,
        });
        (self.dir.nodes.len() - 1) as u32
    }
}

/// A binary split still open on the streaming carve's path from the root:
/// the bit it splits on, the prefix its window's keys share (their first
/// `depth` bits) and its zero child once carved.
struct OpenSplit {
    depth: usize,
    prefix: ZKey,
    zero: Option<u32>,
}

/// The skeleton a streaming carve produced, in the recursive carve's node
/// order.
#[derive(Debug, Default, PartialEq)]
struct Carved {
    nodes: Vec<TrieNode>,
    root: Option<u32>,
    leaves: u32,
    oversized: u64,
}

/// The fixed binary carve over a sorted record stream: the nodes and leaves
/// [`Carver::carve`] makes under [`crate::split::FixedBinaryPolicy`],
/// without holding the stream. `emit` receives each leaf's records, left to
/// right.
///
/// A window is every key sharing one prefix, and it starts at the first
/// unwritten record, so a lookahead of `capacity + 1` records tells whether
/// it fits one leaf: it does unless the last of them still shares the
/// prefix. The carve descends from the first record's window until it
/// fits — pushing an open split where the first key has bit 0, and passing
/// through without a node where it has bit 1 — emits that leaf, then climbs:
/// a split whose window goes on gets its one child next, one whose window
/// ended with its zero child makes no node, and one with both children
/// becomes an internal node. Only a run of identical keys longer than
/// `capacity` is read past the lookahead: it is one oversized leaf.
fn carve_stream<R: SortedRecord>(
    total_bits: usize,
    capacity: usize,
    mut next: impl FnMut() -> Result<Option<R>>,
    mut emit: impl FnMut(Drain<'_, R>) -> Result<()>,
) -> Result<Carved> {
    let prefix = |key: ZKey, depth: usize| key.prefix(depth, total_bits);
    let mut ahead: VecDeque<R> = VecDeque::with_capacity(capacity + 1);
    let mut open: Vec<OpenSplit> = Vec::new();
    let mut out = Carved::default();
    let mut depth = 0;
    // The subtree that ended with the last leaf written.
    let mut closed: Option<u32> = None;
    let mut more = true;
    loop {
        while more && ahead.len() <= capacity {
            match next()? {
                Some(rec) => ahead.push_back(rec),
                None => more = false,
            }
        }
        let first = ahead.front().map(SortedRecord::key);
        while let Some(node) = closed.take() {
            let Some(split) = open.last_mut() else {
                debug_assert!(first.is_none(), "the root window is every key");
                out.root = Some(node);
                break;
            };
            match split.zero {
                None if first.is_some_and(|k| prefix(k, split.depth) == split.prefix) => {
                    split.zero = Some(node);
                    depth = split.depth + 1;
                }
                None => {
                    open.pop();
                    closed = Some(node);
                }
                Some(zero) => {
                    out.nodes.push(TrieNode::Internal {
                        depth: split.depth as u32,
                        zero,
                        one: node,
                    });
                    open.pop();
                    closed = Some(out.nodes.len() as u32 - 1);
                }
            }
        }
        let Some(first) = first else {
            return Ok(out);
        };
        while depth < total_bits
            && ahead.len() > capacity
            && prefix(ahead[capacity].key(), depth) == prefix(first, depth)
        {
            if first.bit(depth, total_bits) == 0 {
                open.push(OpenSplit {
                    depth,
                    prefix: prefix(first, depth),
                    zero: None,
                });
            }
            depth += 1;
        }
        let mut size =
            ahead.partition_point(|rec| prefix(rec.key(), depth) == prefix(first, depth));
        if size > capacity {
            // Identical keys beyond capacity cannot be refined further;
            // count the oversized leaf instead of absorbing it silently.
            out.oversized += 1;
            while more && size == ahead.len() {
                match next()? {
                    Some(rec) => {
                        size += usize::from(rec.key() == first);
                        ahead.push_back(rec);
                    }
                    None => more = false,
                }
            }
        }
        emit(ahead.drain(..size))?;
        out.nodes.push(TrieNode::Leaf { leaf: out.leaves });
        out.leaves += 1;
        closed = Some(out.nodes.len() as u32 - 1);
    }
}

impl Directory for PrefixNodes {
    const KIND: u8 = 1;
    const NAME: &'static str = "CTrie";

    fn next_file_id() -> u64 {
        TRIE_ID.fetch_add(1, Ordering::Relaxed)
    }

    fn empty(config: &IndexConfig) -> Self {
        PrefixNodes {
            total_bits: config.sax.word_bits(),
            nodes: Vec::new(),
            children: Vec::new(),
            root: None,
        }
    }

    fn bulk_load(
        trie: &mut CoconutTrie,
        tmp_dir: &Path,
        opts: &BuildOptions,
        _: Unbuilt,
    ) -> Result<()> {
        let (range, sax) = (trie.range.clone(), trie.config.sax);
        match (trie.config.split_policy, opts.materialized) {
            // The paper's binary split carves the one sorted stream as it
            // arrives: pointer builds sort `(key, pos)`, -Full builds sort
            // whole records once and write them straight into their leaves.
            (SplitPolicyKind::Fixed, false) => {
                let mut stream = key_pos_stream(&trie.dataset, range, &sax, opts, tmp_dir)?;
                trie.load_carved(&mut stream)?;
            }
            (SplitPolicyKind::Fixed, true) => {
                let mut stream = key_series_stream(&trie.dataset, range, &sax, opts, tmp_dir)?;
                trie.load_carved(&mut stream)?;
            }
            (SplitPolicyKind::Adaptive, _) => trie.load_adaptive(tmp_dir, opts)?,
        }
        trie.persist()
    }

    /// Descend to the leaf the query key belongs to.
    fn descend(&self, key: ZKey) -> Option<usize> {
        let mut node = self.root?;
        loop {
            match self.nodes[node as usize] {
                TrieNode::Leaf { leaf } => return Some(leaf as usize),
                TrieNode::Internal { depth, zero, one } => {
                    node = if key.bit(depth as usize, self.total_bits) == 0 {
                        zero
                    } else {
                        one
                    };
                }
                TrieNode::Multi { depth, bits, start } => {
                    let v = key.bits(depth as usize, bits as usize, self.total_bits);
                    node = self.children[start as usize + v as usize];
                }
            }
        }
    }

    /// Trie skeleton tail ([`TAIL_VERSION`]): the node count, one
    /// variable-length record per node (a tag byte, then `depth, zero, one`
    /// for a binary split, the leaf number for a leaf, `depth, bits` and
    /// `2^bits` child slots for a variable-fanout split), then the root.
    fn write_tail(&self, file: &CountedFile) -> Result<u8> {
        let mut buf = Vec::with_capacity(12 + self.nodes.len() * 13);
        buf.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for n in &self.nodes {
            match *n {
                TrieNode::Internal { depth, zero, one } => {
                    buf.push(0);
                    buf.extend_from_slice(&depth.to_le_bytes());
                    buf.extend_from_slice(&zero.to_le_bytes());
                    buf.extend_from_slice(&one.to_le_bytes());
                }
                TrieNode::Leaf { leaf } => {
                    buf.push(1);
                    buf.extend_from_slice(&leaf.to_le_bytes());
                }
                TrieNode::Multi { depth, bits, start } => {
                    buf.push(2);
                    buf.extend_from_slice(&depth.to_le_bytes());
                    buf.push(bits);
                    let fanout = 1usize << bits;
                    for child in &self.children[start as usize..start as usize + fanout] {
                        buf.extend_from_slice(&child.to_le_bytes());
                    }
                }
            }
        }
        buf.extend_from_slice(&self.root.map_or(u32::MAX, |r| r).to_le_bytes());
        file.append(&buf)?;
        Ok(TAIL_VERSION)
    }

    fn read_tail(
        file: &CountedFile,
        header: &IndexHeader,
        tail: u64,
        _leaves: &[LeafMeta],
        config: &IndexConfig,
    ) -> Result<Self> {
        if header.tail_version != TAIL_VERSION {
            return Err(Error::corrupt(format!(
                "unsupported trie tail version {} (this build reads version {TAIL_VERSION})",
                header.tail_version
            )));
        }
        let mut dir = Self::empty(config);
        let mut count_buf = [0u8; 8];
        read_index(file, &mut count_buf, tail)?;
        let node_count = u64::from_le_bytes(count_buf);
        // Everything after the node count up to end-of-file is records plus
        // the trailing root.
        let tail_len = file.len().saturating_sub(tail + 8) as usize;
        let mut buf = vec![0u8; tail_len];
        read_index(file, &mut buf, tail + 8)?;
        let mut off = 0usize;
        fn take<'a>(buf: &'a [u8], off: &mut usize, n: usize) -> Result<&'a [u8]> {
            let bytes = buf
                .get(*off..*off + n)
                .ok_or_else(|| Error::corrupt("trie tail truncated"))?;
            *off += n;
            Ok(bytes)
        }
        for _ in 0..node_count {
            match take(&buf, &mut off, 1)?[0] {
                0 => {
                    let c = take(&buf, &mut off, 12)?;
                    dir.nodes.push(TrieNode::Internal {
                        depth: crate::le::u32(&c[0..4]),
                        zero: crate::le::u32(&c[4..8]),
                        one: crate::le::u32(&c[8..12]),
                    });
                }
                1 => {
                    let leaf = crate::le::u32(take(&buf, &mut off, 4)?);
                    dir.nodes.push(TrieNode::Leaf { leaf });
                }
                2 => {
                    let c = take(&buf, &mut off, 5)?;
                    let (depth, bits) = (crate::le::u32(&c[0..4]), c[4]);
                    if bits == 0 || bits > 32 {
                        return Err(Error::corrupt(format!(
                            "bad trie multi-node fanout bits {bits}"
                        )));
                    }
                    let start = dir.children.len() as u32;
                    let slots = take(&buf, &mut off, 4usize << bits)?;
                    dir.children
                        .extend(slots.chunks_exact(4).map(crate::le::u32));
                    dir.nodes.push(TrieNode::Multi { depth, bits, start });
                }
                t => return Err(Error::corrupt(format!("bad trie node tag {t}"))),
            }
        }
        let root_raw = crate::le::u32(take(&buf, &mut off, 4)?);
        dir.root = (root_raw != u32::MAX).then_some(root_raw);
        Ok(dir)
    }
}

impl CoconutTrie {
    /// Write the leaves [`carve_stream`] cuts from `stream` and take its
    /// skeleton: a lookahead of one leaf is all the build holds.
    fn load_carved<R: SortedRecord>(
        &mut self,
        stream: &mut dyn RecordStream<Item = R>,
    ) -> Result<()> {
        let (total_bits, capacity) = (self.dir.total_bits, self.config.leaf_capacity);
        let mut leaf = LeafEntries::default();
        let carved = carve_stream(
            total_bits,
            capacity,
            || stream.next_item(),
            |records| {
                for rec in records {
                    self.admit(&mut leaf, &rec)?;
                }
                self.push_leaf(&leaf)?;
                leaf.clear();
                Ok(())
            },
        )?;
        self.build_report.sort = stream.report();
        self.build_report.oversized_leaves = carved.oversized;
        self.dir.nodes = carved.nodes;
        self.dir.root = carved.root;
        self.loaded()
    }

    /// The adaptive policy picks each fanout from its whole window's key
    /// histogram, so it carves in memory: the sorted keys, plus their
    /// positions for pointer builds (a -Full build sorts again with the
    /// payloads once its leaves are cut).
    fn load_adaptive(&mut self, tmp_dir: &Path, opts: &BuildOptions) -> Result<()> {
        let (range, sax) = (self.range.clone(), self.config.sax);
        let n = (range.end - range.start) as usize;
        let mut keys: Vec<ZKey> = Vec::with_capacity(n);
        let mut positions: Vec<u64> = Vec::with_capacity(if opts.materialized { 0 } else { n });
        {
            let mut stream = key_pos_stream(&self.dataset, range.clone(), &sax, opts, tmp_dir)?;
            while let Some(kp) = stream.next_item()? {
                keys.push(kp.key);
                if !opts.materialized {
                    positions.push(kp.pos);
                }
            }
            self.build_report.sort = stream.report();
        }

        // insertBottomUp + CompactSubtree: a maximal subtree whose entries
        // fit one leaf becomes one leaf; the policy chooses how an oversized
        // subtree splits.
        let policy = self.config.split_policy.policy();
        let mut carver = Carver {
            keys: &keys,
            policy: &*policy,
            capacity: self.config.leaf_capacity,
            leaf_sizes: Vec::new(),
            oversized: 0,
            dir: &mut self.dir,
        };
        let root = (!keys.is_empty()).then(|| carver.carve(0, keys.len(), 0));
        let Carver {
            leaf_sizes,
            oversized,
            ..
        } = carver;
        self.dir.root = root;
        self.build_report.oversized_leaves = oversized;

        if opts.materialized {
            drop(keys);
            let mut stream = key_series_stream(&self.dataset, range, &sax, opts, tmp_dir)?;
            self.load(|| stream.next_item(), leaf_sizes.into_iter())
        } else {
            let mut records = keys
                .iter()
                .zip(&positions)
                .map(|(&key, &pos)| KeyPos { key, pos });
            self.load(|| Ok(records.next()), leaf_sizes.into_iter())
        }
    }

    /// Number of trie nodes (internal + leaf) in the skeleton.
    pub fn node_count(&self) -> usize {
        self.dir.nodes.len()
    }

    /// Bit depth of every leaf, in leaf order: the interleaved key bits
    /// consumed by the split nodes on its root path (path-compressed
    /// one-child levels are skipped, matching the in-memory skeleton).
    pub fn leaf_depths(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.leaves.len()];
        let Some(root) = self.dir.root else {
            return out;
        };
        // (node, bit depth at which the node's subtree starts). Merged
        // Multi slots repeat a child id in consecutive slots; visit each
        // distinct child once.
        let mut stack: Vec<(u32, u32)> = vec![(root, 0)];
        while let Some((node, at)) = stack.pop() {
            match self.dir.nodes[node as usize] {
                TrieNode::Leaf { leaf } => out[leaf as usize] = at,
                TrieNode::Internal { depth, zero, one } => {
                    stack.push((zero, depth + 1));
                    stack.push((one, depth + 1));
                }
                TrieNode::Multi { depth, bits, start } => {
                    let fanout = 1usize << bits;
                    let slots = &self.dir.children[start as usize..start as usize + fanout];
                    let mut prev = u32::MAX;
                    for &child in slots {
                        if child != prev {
                            stack.push((child, depth + bits as u32));
                            prev = child;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::dataset::{write_dataset, Dataset};
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_series::index::{Answer, SeriesIndex};
    use coconut_series::Value;
    use coconut_storage::{IoStats, TempDir};
    use coconut_summary::mindist::SymbolDecoder;
    use std::cell::Cell;
    use std::sync::Arc;

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    fn make_dataset(dir: &TempDir, n: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        write_dataset(&path, &mut RandomWalkGen::new(23), n, LEN, &stats).unwrap();
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
    fn build_produces_consistent_leaves() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 1000);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(trie.len(), 1000);
        let leaf_total: u64 = trie.leaves.iter().map(|l| l.count as u64).sum();
        assert_eq!(leaf_total, 1000);
        // Prefix splitting cannot balance: occupancy is well below 100%.
        assert!(trie.avg_fill() < 0.9, "fill {}", trie.avg_fill());
        // Every leaf respects capacity (no oversized leaves for random data).
        assert!(trie.leaves.iter().all(|l| l.count as usize <= 32));
        // Leaves are written back to back: each starts where the one before
        // it ends.
        crate::leaves::tests::assert_packed(&trie);
    }

    #[test]
    fn trie_has_more_leaves_than_tree_for_same_data() {
        // The paper's occupancy argument: prefix splits -> sparse leaves ->
        // more leaves than median-based packing.
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 1000);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let tree = crate::tree::CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        assert!(
            trie.leaf_count() > tree.leaf_count(),
            "trie {} <= tree {}",
            trie.leaf_count(),
            tree.leaf_count()
        );
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 700);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 100..110 {
            let q = query(seed);
            let (ans, _) = trie.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn materialized_exact_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 400);
        let trie = CoconutTrie::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default().materialized(),
        )
        .unwrap();
        for seed in 200..206 {
            let q = query(seed);
            let (ans, _) = trie.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(ans.pos, expect.pos, "seed {seed}");
        }
    }

    #[test]
    fn approximate_never_beats_exact() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 500);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        for seed in 300..308 {
            let q = query(seed);
            let approx = trie.approximate_search(&q, 1).unwrap();
            let (exact, _) = trie.exact_search(&q).unwrap();
            assert!(exact.dist <= approx.dist + 1e-9);
        }
    }

    #[test]
    fn open_reloads_identically() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 300);
        let built =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTrie::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.node_count(), built.node_count());
        for seed in 400..405 {
            let q = query(seed);
            let (a, _) = built.exact_search(&q).unwrap();
            let (b, _) = reopened.exact_search(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn duplicate_keys_beyond_capacity_form_oversized_leaf() {
        // A constant dataset: every series has the same key.
        let dir = TempDir::new("ctrie").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("flat.bin");
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        for _ in 0..100 {
            w.append(&vec![0.0; LEN]).unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert_eq!(trie.leaf_count(), 1);
        assert_eq!(trie.leaves[0].count, 100);
        // Its fill counts the four capacities of 32 it needs.
        assert_eq!(trie.avg_fill(), 100.0 / 128.0);
        // Queries still work.
        let q = query(1);
        let (ans, _) = trie.exact_search(&q).unwrap();
        assert!(ans.is_some());
        // The multi-block leaf loads, cold, as the one key's symbols and
        // every position in order.
        let reopened = CoconutTrie::open(trie.index_path(), &ds, 1).unwrap();
        let block = reopened.summaries().block(0).unwrap();
        let sax = small_config().sax;
        let mut symbols = vec![0; 100 * sax.segments];
        SymbolDecoder::new(&sax).decode_into(&[trie.leaves[0].first_key; 100], &mut symbols);
        assert_eq!(block.symbols, symbols);
        let pos: Vec<u64> = (0..block.len()).map(|i| block.pos(i)).collect();
        assert_eq!(pos, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn trie_knn_matches_tree_knn() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 400);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let tree = crate::tree::CoconutTree::build(
            &ds,
            &small_config(),
            dir.path(),
            BuildOptions::default(),
        )
        .unwrap();
        for seed in 500..504 {
            let q = query(seed);
            let (a, _) = trie.exact_knn(&q, 4).unwrap();
            let (b, _) = tree.exact_knn(&q, 4).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x.dist - y.dist).abs() < 1e-9, "seed {seed}");
            }
        }
    }

    #[test]
    fn trie_range_matches_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 300);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let q = query(77);
        let mut dists: Vec<(u64, f64)> = (0..300)
            .map(|p| (p, euclidean(&q, &ds.get(p).unwrap())))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        let eps = dists[4].1;
        let (hits, _) = trie.exact_range(&q, eps).unwrap();
        let expected: Vec<u64> = dists
            .iter()
            .take_while(|&&(_, d)| d <= eps)
            .map(|&(p, _)| p)
            .collect();
        let mut got: Vec<u64> = hits.iter().map(|a| a.pos).collect();
        got.sort_unstable();
        let mut want = expected;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 900);
        for materialized in [false, true] {
            let base_opts = BuildOptions {
                materialized,
                memory_bytes: 1 << 20,
                ..BuildOptions::default()
            };
            let single =
                CoconutTrie::build(&ds, &small_config(), dir.path(), base_opts.clone()).unwrap();
            let single_bytes = std::fs::read(single.index_path()).unwrap();
            for shards in [3usize, 8] {
                let sharded = CoconutTrie::build(
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
                assert_eq!(sharded.node_count(), single.node_count());
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 0);
        let trie =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        assert!(trie.is_empty());
        let q = query(9);
        assert!(!trie.approximate_search(&q, 1).unwrap().is_some());
        let (ans, _) = trie.exact_search(&q).unwrap();
        assert!(!ans.is_some());
    }

    fn adaptive_config() -> IndexConfig {
        small_config().with_split_policy(crate::split::SplitPolicyKind::Adaptive)
    }

    /// A clustered dataset: `clusters` base shapes plus per-series noise, so
    /// z-keys share long prefixes and binary prefix splits leave leaves
    /// sparse — the regime the adaptive policy is built for.
    fn skewed_dataset(dir: &TempDir, n: u64, clusters: u64, seed: u64) -> Dataset {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join(format!("skew-{seed}.bin"));
        let bases: Vec<Vec<Value>> = (0..clusters)
            .map(|c| {
                let mut b = RandomWalkGen::new(seed * 1000 + c).generate(LEN);
                znormalize(&mut b);
                b
            })
            .collect();
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        let mut state = seed | 1;
        for i in 0..n {
            let base = &bases[(i % clusters) as usize];
            let mut s: Vec<Value> = base
                .iter()
                .map(|&v| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.02;
                    v + noise as Value
                })
                .collect();
            znormalize(&mut s);
            w.append(&s).unwrap();
        }
        w.finish().unwrap();
        Dataset::open(&path, stats).unwrap()
    }

    #[test]
    fn adaptive_answers_match_fixed_and_brute_force() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 600, 5, 11);
        let fixed =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let adaptive =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        for seed in 600..610 {
            let q = query(seed);
            let (a, _) = adaptive.exact_search(&q).unwrap();
            let (f, _) = fixed.exact_search(&q).unwrap();
            let expect = brute_force(&ds, &q);
            assert_eq!(a.pos, expect.pos, "seed {seed}: adaptive vs brute force");
            assert_eq!(a.pos, f.pos, "seed {seed}: adaptive vs fixed");
            assert!((a.dist - f.dist).abs() < 1e-9);

            let (ka, _) = adaptive.exact_knn(&q, 4).unwrap();
            let (kf, _) = fixed.exact_knn(&q, 4).unwrap();
            assert_eq!(ka.len(), kf.len());
            for (x, y) in ka.iter().zip(kf.iter()) {
                assert_eq!(x.pos, y.pos, "seed {seed}: kNN diverged");
            }

            let eps = expect.dist * 1.5;
            let (ra, _) = adaptive.exact_range(&q, eps).unwrap();
            let (rf, _) = fixed.exact_range(&q, eps).unwrap();
            let mut pa: Vec<u64> = ra.iter().map(|x| x.pos).collect();
            let mut pf: Vec<u64> = rf.iter().map(|x| x.pos).collect();
            pa.sort_unstable();
            pf.sort_unstable();
            assert_eq!(pa, pf, "seed {seed}: range diverged");
        }
    }

    #[test]
    fn adaptive_tightens_occupancy_on_skewed_data() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 2000, 6, 7);
        let fixed =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let adaptive =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        assert!(
            adaptive.avg_fill() > fixed.avg_fill(),
            "adaptive fill {:.3} should beat fixed {:.3} on clustered keys",
            adaptive.avg_fill(),
            fixed.avg_fill()
        );
        assert!(
            adaptive.leaf_count() < fixed.leaf_count(),
            "adaptive {} leaves vs fixed {}",
            adaptive.leaf_count(),
            fixed.leaf_count()
        );
        // Packing only overflows capacity where identical keys force it —
        // exactly the leaves the oversized counter reports — and both
        // policies bottom out on the same unsplittable key groups.
        let cap = adaptive.config().leaf_capacity;
        let over = adaptive
            .leaf_entry_counts()
            .iter()
            .filter(|&&n| n > cap)
            .count() as u64;
        assert_eq!(adaptive.oversized_leaf_count(), over);
        assert_eq!(adaptive.build_report().oversized_leaves, over);
        assert_eq!(
            adaptive.oversized_leaf_count(),
            fixed.oversized_leaf_count()
        );
    }

    #[test]
    fn old_tail_version_is_refused() {
        // Tail version 0 stored fixed-width 13-byte node records; a file
        // claiming it opens as a typed error naming the version.
        let dir = TempDir::new("ctrie").unwrap();
        let ds = make_dataset(&dir, 300);
        let built =
            CoconutTrie::build(&ds, &small_config(), dir.path(), BuildOptions::default()).unwrap();
        let path = built.index_path().to_path_buf();
        drop(built);
        let file = CountedFile::open_rw(&path, Arc::new(IoStats::new())).unwrap();
        let header = IndexHeader::read_from(&file).unwrap();
        assert_eq!(header.tail_version, TAIL_VERSION);
        IndexHeader {
            tail_version: 0,
            ..header
        }
        .write_to(&file)
        .unwrap();
        match CoconutTrie::open(&path, &ds, 1) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("tail version 0"), "{msg}"),
            Err(other) => panic!("{other}"),
            Ok(_) => panic!("a version-0 tail opened"),
        }
    }

    #[test]
    fn adaptive_open_reloads_identically() {
        // Exercises the multi-way node records end to end.
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 800, 4, 3);
        let built =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        let path = built.index_path().to_path_buf();
        let reopened = CoconutTrie::open(&path, &ds, 2).unwrap();
        assert_eq!(reopened.len(), built.len());
        assert_eq!(reopened.node_count(), built.node_count());
        assert_eq!(
            reopened.config().split_policy,
            crate::split::SplitPolicyKind::Adaptive,
            "policy must be recovered from the header"
        );
        assert_eq!(reopened.leaf_entry_counts(), built.leaf_entry_counts());
        for seed in 700..706 {
            let q = query(seed);
            let (a, _) = built.exact_search(&q).unwrap();
            let (b, _) = reopened.exact_search(&q).unwrap();
            assert_eq!(a.pos, b.pos);
        }
    }

    #[test]
    fn adaptive_sharded_build_is_bit_identical() {
        let dir = TempDir::new("ctrie").unwrap();
        let ds = skewed_dataset(&dir, 900, 5, 19);
        let single =
            CoconutTrie::build(&ds, &adaptive_config(), dir.path(), BuildOptions::default())
                .unwrap();
        let single_bytes = std::fs::read(single.index_path()).unwrap();
        for shards in [3usize, 8] {
            let sharded = CoconutTrie::build(
                &ds,
                &adaptive_config(),
                dir.path(),
                BuildOptions::default().with_shards(shards),
            )
            .unwrap();
            let sharded_bytes = std::fs::read(sharded.index_path()).unwrap();
            assert_eq!(
                single_bytes, sharded_bytes,
                "shards={shards}: adaptive index files differ"
            );
        }
    }

    #[test]
    fn oversized_leaves_are_counted_and_survive_reopen() {
        // A constant dataset forces one unsplittable over-capacity leaf;
        // the counter must be visible in the build report and recomputable
        // from a reopened index (which has no build report).
        let dir = TempDir::new("ctrie").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("flat.bin");
        let mut w =
            coconut_series::dataset::DatasetWriter::create(&path, LEN, true, Arc::clone(&stats))
                .unwrap();
        for _ in 0..100 {
            w.append(&vec![0.0; LEN]).unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&path, stats).unwrap();
        for config in [small_config(), adaptive_config()] {
            let trie =
                CoconutTrie::build(&ds, &config, dir.path(), BuildOptions::default()).unwrap();
            assert_eq!(trie.build_report().oversized_leaves, 1);
            assert_eq!(trie.oversized_leaf_count(), 1);
            let reopened = CoconutTrie::open(trie.index_path(), &ds, 2).unwrap();
            assert_eq!(reopened.oversized_leaf_count(), 1);
            assert_eq!(reopened.build_report().oversized_leaves, 0, "not rebuilt");
        }
    }

    /// The recursive carve under the fixed policy: its skeleton and leaf
    /// sizes.
    fn recursive_carve(keys: &[ZKey], total_bits: usize, capacity: usize) -> (Carved, Vec<usize>) {
        let mut dir = PrefixNodes {
            total_bits,
            nodes: Vec::new(),
            children: Vec::new(),
            root: None,
        };
        let mut carver = Carver {
            dir: &mut dir,
            keys,
            policy: &crate::split::FixedBinaryPolicy,
            capacity,
            leaf_sizes: Vec::new(),
            oversized: 0,
        };
        let root = (!keys.is_empty()).then(|| carver.carve(0, keys.len(), 0));
        let Carver {
            leaf_sizes,
            oversized,
            ..
        } = carver;
        let carved = Carved {
            nodes: dir.nodes,
            root,
            leaves: leaf_sizes.len() as u32,
            oversized,
        };
        (carved, leaf_sizes)
    }

    /// The streaming carve over the same sorted keys (key `i` at position
    /// `i`), asserting as it goes that it holds at most `capacity + 1`
    /// unwritten records outside a run of identical keys, and that the
    /// leaves arrive in order.
    fn streamed_carve(keys: &[ZKey], total_bits: usize, capacity: usize) -> (Carved, Vec<usize>) {
        let (pulled, written) = (Cell::new(0usize), Cell::new(0usize));
        let mut sizes = Vec::new();
        let carved = carve_stream(
            total_bits,
            capacity,
            || {
                let (i, w) = (pulled.get(), written.get());
                let Some(&key) = keys.get(i) else {
                    return Ok(None);
                };
                if i + 1 - w > capacity + 1 {
                    assert!(
                        keys[w..i].iter().all(|&k| k == keys[w]),
                        "read {} records ahead of the writer outside an identical-key run",
                        i + 1 - w
                    );
                }
                pulled.set(i + 1);
                Ok(Some(KeyPos { key, pos: i as u64 }))
            },
            |records| {
                let start = written.get();
                let pos: Vec<u64> = records.map(|r| r.pos).collect();
                assert_eq!(
                    pos,
                    (start as u64..(start + pos.len()) as u64).collect::<Vec<_>>()
                );
                written.set(start + pos.len());
                sizes.push(pos.len());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(written.get(), keys.len());
        (carved, sizes)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn streaming_carve_matches_the_recursive_carve() {
        let mut rng = 7u64;
        let mut cases: Vec<(usize, usize, Vec<u128>)> = Vec::new();
        for &total_bits in &[6usize, 12, 64, 128] {
            let mask = if total_bits == 128 {
                u128::MAX
            } else {
                (1u128 << total_bits) - 1
            };
            for &capacity in &[1usize, 2, 3, 7, 32] {
                let random = |n: usize, rng: &mut u64| -> Vec<u128> {
                    (0..n)
                        .map(|_| ((splitmix(rng) as u128) << 64 | splitmix(rng) as u128) & mask)
                        .collect()
                };
                cases.push((total_bits, capacity, Vec::new()));
                cases.push((total_bits, capacity, random(1, &mut rng)));
                cases.push((total_bits, capacity, random(500, &mut rng)));
                // Clustered: a few centres, each with noise in its low bits.
                let centres = random(4, &mut rng);
                let noise = mask >> (total_bits * 3 / 4);
                let clustered = (0..400)
                    .map(|i| centres[i % 4] ^ (splitmix(&mut rng) as u128 & noise))
                    .collect();
                cases.push((total_bits, capacity, clustered));
                // Duplicate-heavy: a handful of values, some in runs far
                // longer than a leaf.
                let values = random(5, &mut rng);
                let dups = (0..300)
                    .map(|_| values[splitmix(&mut rng) as usize % values.len()])
                    .collect();
                cases.push((total_bits, capacity, dups));
                cases.push((total_bits, capacity, vec![values[0]; 3 * capacity + 2]));
                // Pairs that differ only in their last bit, and one long
                // run of a key beside its last-bit neighbour.
                let pairs = random(60, &mut rng)
                    .into_iter()
                    .flat_map(|k| [k & !1, k | 1])
                    .collect();
                cases.push((total_bits, capacity, pairs));
                let mut run = vec![values[1] & !1; 2 * capacity + 1];
                run.extend(std::iter::repeat_n(values[1] | 1, capacity + 1));
                run.push(values[2]);
                cases.push((total_bits, capacity, run));
            }
        }
        for (i, (total_bits, capacity, mut raw)) in cases.into_iter().enumerate() {
            raw.sort_unstable();
            let keys: Vec<ZKey> = raw.into_iter().map(ZKey).collect();
            let expected = recursive_carve(&keys, total_bits, capacity);
            let streamed = streamed_carve(&keys, total_bits, capacity);
            assert_eq!(
                streamed,
                expected,
                "case {i}: {} keys of {total_bits} bits, capacity {capacity}",
                keys.len()
            );
        }
    }
}
