//! LSM-style Coconut: crash-safe streaming ingest over bulk-loaded runs.
//!
//! The paper's conclusion suggests that "ideas from LSM trees could be used
//! to enable efficient updates"; the follow-up work (*"Coconut: Sortable
//! Summarizations for Scalable Indexes over Static and Streaming Data
//! Series"*) makes streaming a first-class workload. [`LsmCoconut`] is that
//! subsystem:
//!
//! * **Ingest** ([`LsmCoconut::ingest_upto`]): every revealed batch of the
//!   growing raw file is bulk-loaded bottom-up into a fresh Coconut-Tree
//!   *run* in its own `run-<id>/` directory — all large sequential writes,
//!   exactly the paper's construction path.
//! * **Multi-writer group commit** ([`LsmCoconut::writer`]): N writer
//!   handles claim disjoint contiguous position ranges up front (so runs
//!   stay gap-free no matter which build finishes first), build and fsync
//!   their run files concurrently, and park the finished runs in a commit
//!   queue. Whichever writer finds the queue holding the run that extends
//!   the covered prefix becomes the *group committer*: it folds the whole
//!   contiguous chain into **one** atomic manifest commit, amortizing the
//!   fsync across the batch. A batch is acknowledged only after that
//!   commit is durable — a crash between a run-file fsync and the manifest
//!   commit leaves orphan directories for recovery to delete, never an
//!   acknowledged batch.
//! * **Compaction**: a [`CompactionPolicy`] (the size-tiered
//!   [`TieredPolicy`] unless [`LsmCoconut::set_policy`] installs another)
//!   decides which adjacent runs to merge; the merge itself is a K-way
//!   [`MergedStream`] over the runs' already-sorted leaf streams
//!   ([`CoconutTree::leaf_entries`]), bulk-loaded into a new run —
//!   **never** a re-sort of the raw range. Merges run one at a time on the
//!   index's one compaction thread, which plans over the whole run list
//!   after every merge; its manifest commits are serialized with ingest's
//!   under one commit lock. [`LsmCoconut::wait_for_compactions`] is the
//!   synchronization point.
//! * **Crash safety**: the live run set lives in a versioned, checksummed
//!   [`crate::manifest::Manifest`] written atomically on every run addition
//!   and compaction. [`LsmCoconut::open`] recovers the exact committed run
//!   set after a crash, deletes orphaned run directories (from interrupted
//!   ingests or compactions) and leftover manifest temp files, and resumes.
//!   A [`coconut_storage::FaultPlan`] (installed process-wide or on one
//!   index with [`LsmCoconut::set_fault_plan`]) simulates a crash at the
//!   three instants of a manifest commit — sites `manifest.before` /
//!   `manifest.torn` / `manifest.after` — and run directory creation
//!   failures (`run.create`) on deterministic seeds.
//! * **Corruption handling**: every run's leaves carry CRCs (see
//!   [`crate::layout`]); [`LsmCoconut::scrub`] re-reads and verifies all of
//!   them, and a run whose index file no longer decodes is *quarantined* at
//!   open time — moved to `quarantine/` together with the runs after it
//!   (the covered prefix must stay contiguous) and dropped from a freshly
//!   committed manifest, so the index keeps serving the reduced prefix
//!   instead of failing outright.
//! * **Queries**: exact / kNN / range answers are merged across runs with
//!   per-run [`QueryStats`] aggregated into one set of work counters; read
//!   amplification is the run count, which the policy bounds.
//! * **Snapshot isolation** ([`LsmCoconut::snapshot`]): a query pins an
//!   immutable [`Snapshot`] — the committed run set plus its manifest
//!   sequence number — under one brief lock acquisition, then executes
//!   entirely lock-free. Concurrent ingests and compactions never block a
//!   pinned reader, and a compaction that obsoletes a run a snapshot still
//!   references defers the run directory's deletion until the last snapshot
//!   drops (refcount-based garbage collection; see
//!   [`LsmCoconut::collect_garbage`]).
//!
//! A dropped (or killed) `LsmCoconut` never loses committed data: anything
//! acknowledged by a successful `ingest_upto` return is durable. An ingest
//! or compaction that *fails* (including simulated crashes) poisons the
//! instance — subsequent calls surface the error — mirroring a crashed
//! process; reopen from disk to continue.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use coconut_series::dataset::Dataset;
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::atomic::{atomic_write, atomic_write_torn, temp_path};
use coconut_storage::{fault, Deadline, Error, FaultAction, FaultPlan, MergedStream, Result};

use crate::compaction::{CompactionPolicy, CompactionPolicyKind, TieredPolicy};
use crate::config::{BuildOptions, IndexConfig};
use crate::layout::ScrubReport;
use crate::manifest::{run_dir_name, Manifest, RunMeta};
use crate::query::{first, Query};
use crate::records::{KeyPos, KeySeries};
use crate::tree::{CoconutTree, LeafEntryStream};

/// One live run and its open index.
struct Run {
    meta: RunMeta,
    tree: Arc<CoconutTree>,
}

/// Per-run outcome of [`LsmCoconut::scrub`].
#[derive(Debug, Clone)]
pub struct RunScrub {
    /// Manifest run id.
    pub id: u64,
    /// First raw-file position the run covers.
    pub start: u64,
    /// End (exclusive) of the run's position range.
    pub end: u64,
    /// Leaves verified when the scan succeeded.
    pub report: ScrubReport,
    /// The corruption the scan hit, if any (`None` = run is clean).
    pub error: Option<String>,
}

/// Mutable LSM state, guarded by one mutex (manifest commits happen under
/// it, so commits are serialized and always snapshot a consistent run set).
struct State {
    runs: Vec<Run>,
    covered_end: u64,
    next_run_id: u64,
    seq: u64,
    /// The freshest dataset handle seen; compactions build against it.
    dataset: Option<Dataset>,
}

/// A run retired by compaction whose directory may still be pinned by a
/// live [`Snapshot`]. The `tree` Arc doubles as the refcount: once the GC
/// list holds the only reference, no snapshot (or in-flight query) can
/// still read the run and its directory is safe to delete.
struct GcRun {
    tree: Arc<CoconutTree>,
    dir: PathBuf,
}

/// A writer's reservation of the contiguous position range `start..end`
/// (and the run id that will hold it), handed out by [`claim_range`].
/// Ranges are assigned at claim time, so however the concurrent builds
/// interleave, the finished runs always reassemble into a gap-free prefix.
struct Claim {
    start: u64,
    end: u64,
    run_id: u64,
}

/// A built, fsynced run waiting in the commit queue for the group
/// committer to fold it into a manifest commit.
struct PendingRun {
    meta: RunMeta,
    tree: CoconutTree,
}

/// Multi-writer ingest coordination: range claims, the queue of completed
/// runs, and the durable watermark writers block on. Uses the std mutex +
/// condvar pair (not `parking_lot`) because waiters need a condition
/// variable.
struct IngestQueue {
    inner: StdMutex<IngestState>,
    cv: Condvar,
}

struct IngestState {
    /// End (exclusive) of the highest range handed to any writer; always
    /// `>= durable_end`. New claims start here.
    claimed_end: u64,
    /// Claims whose runs are still building (claimed, not yet submitted).
    in_flight: usize,
    /// Completed runs awaiting the group committer, keyed by start
    /// position. The committer drains the maximal contiguous chain
    /// starting at `durable_end`.
    done: BTreeMap<u64, PendingRun>,
    /// End of the durably committed prefix — `state.covered_end` as of the
    /// last successful manifest commit. Writers are acknowledged once this
    /// passes their claim's end.
    durable_end: u64,
    /// Set when ingest can no longer make progress (a failed build left a
    /// coverage hole, or a commit failed); wakes every waiter to surface
    /// the poisoned state.
    failed: bool,
}

impl IngestQueue {
    fn new(covered_end: u64) -> Self {
        IngestQueue {
            inner: StdMutex::new(IngestState {
                claimed_end: covered_end,
                in_flight: 0,
                done: BTreeMap::new(),
                durable_end: covered_end,
                failed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IngestState> {
        // A writer thread that panics mid-ingest poisons the std mutex;
        // the instance is already unusable at that point, so propagate.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Monotone write-path counters backing the amplification gauges.
#[derive(Default)]
struct WriteCounters {
    /// Entries committed by ingest (the first write of each entry).
    ingested: AtomicU64,
    /// Entries rewritten by compaction merges.
    rewritten: AtomicU64,
    /// Manifest commits that folded at least one ingest run.
    ingest_commits: AtomicU64,
    /// Ingest runs folded across those commits; the excess over
    /// `ingest_commits` is the fsyncs group commit amortized away.
    runs_committed: AtomicU64,
}

/// A point-in-time copy of the write-path counters
/// ([`LsmCoconut::write_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Entries committed by ingest since this instance started.
    pub entries_ingested: u64,
    /// Entries rewritten by compaction merges.
    pub entries_rewritten: u64,
    /// Manifest commits that folded at least one ingest run.
    pub ingest_commits: u64,
    /// Ingest runs folded across those commits (`>= ingest_commits`; the
    /// gap is what group commit amortized).
    pub runs_committed: u64,
}

/// State shared with the compaction thread.
struct Shared {
    config: IndexConfig,
    opts: BuildOptions,
    dir: PathBuf,
    /// First raw-file position this index covers — 0 for a whole-dataset
    /// index, the slice start for a shard worker owning one key range.
    /// Fixed at creation and recorded in the manifest.
    base: u64,
    state: Mutex<State>,
    /// Serializes manifest commits *around* the state lock: a committer
    /// holds this across {mutate state, encode} and the manifest I/O, so
    /// commits hit disk in mutation order — while queries, which take only
    /// the brief `state` lock, never wait on an fsync.
    commit_order: Mutex<()>,
    /// Multi-writer ingest coordination: claims, the completed-run queue,
    /// and the durable watermark (see [`IngestQueue`]). Lock order:
    /// `commit_order` → `ingest.inner` → `state`.
    ingest: IngestQueue,
    /// Runs retired by compaction but possibly pinned by snapshots; swept
    /// by [`sweep_gc`] when snapshots drop.
    gc: Mutex<Vec<GcRun>>,
    policy: Mutex<Box<dyn CompactionPolicy>>,
    /// Write-path counters backing the amplification gauges.
    stats: WriteCounters,
    /// Instance-scoped fault plan consulted *before* the process-global one
    /// at the LSM's sites — lets one index (or one test) inject faults
    /// without perturbing neighbors in the same process.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// First commit/compaction error; sticky — it poisons the instance
    /// (in-memory state may be ahead of the durable manifest, exactly like
    /// a crashed process; reopen from disk to continue).
    poisoned: Mutex<Option<String>>,
}

/// Work items for the compaction thread, processed in order.
enum Job {
    /// Merge until the policy proposes nothing.
    Maintain,
    /// Merge every live run into a single run.
    CompactAll,
    /// Acknowledge once every previously queued job has finished.
    Sync(Sender<()>),
}

/// An LSM collection of bulk-loaded Coconut-Tree runs with tiered
/// compaction and a crash-safe manifest. See the module docs for the
/// design; see [`LsmCoconut::new`] / [`LsmCoconut::open`] for the two ways
/// in.
pub struct LsmCoconut {
    shared: Arc<Shared>,
    jobs: Option<Sender<Job>>,
    worker: Option<JoinHandle<()>>,
}

impl LsmCoconut {
    /// Create a **fresh** LSM index in `dir` (created if missing). Errors
    /// if `dir` already holds an LSM index — a `MANIFEST` or `run-*`
    /// directories from a previous process — instead of silently mixing
    /// stale runs into a new build; use [`LsmCoconut::open`] to recover an
    /// existing index.
    pub fn new(config: IndexConfig, opts: BuildOptions, dir: impl Into<PathBuf>) -> Result<Self> {
        Self::create(config, opts, dir, 0, CompactionPolicyKind::default())
    }

    /// [`LsmCoconut::new`] for an index that covers only the raw-file slice
    /// starting at `base` — the shard-worker flavor: a worker owning the
    /// key range `base..end` ingests and serves exactly that slice while
    /// the coordinator owns the partition map. `base` is recorded in the
    /// manifest, so [`LsmCoconut::open`] recovers it.
    pub fn new_based(
        config: IndexConfig,
        opts: BuildOptions,
        dir: impl Into<PathBuf>,
        base: u64,
    ) -> Result<Self> {
        Self::create(config, opts, dir, base, CompactionPolicyKind::default())
    }

    /// The full constructor: [`LsmCoconut::new_based`] with an explicit
    /// compaction policy family, whose default policy the index starts
    /// under.
    pub fn create(
        config: IndexConfig,
        opts: BuildOptions,
        dir: impl Into<PathBuf>,
        base: u64,
        compaction: CompactionPolicyKind,
    ) -> Result<Self> {
        config.validate()?;
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if Manifest::path_in(&dir).exists() {
            return Err(Error::invalid(format!(
                "{} already contains an LSM index (MANIFEST present); \
                 use LsmCoconut::open to recover it",
                dir.display()
            )));
        }
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if name.to_string_lossy().starts_with("run-") {
                return Err(Error::invalid(format!(
                    "{} contains stale run directory {:?} from a previous \
                     index; remove it or open the index it belongs to",
                    dir.display(),
                    name
                )));
            }
        }
        let shared = Arc::new(Shared {
            config,
            opts,
            dir,
            base,
            state: Mutex::new(State {
                runs: Vec::new(),
                covered_end: base,
                next_run_id: 0,
                seq: 0,
                dataset: None,
            }),
            commit_order: Mutex::new(()),
            ingest: IngestQueue::new(base),
            gc: Mutex::new(Vec::new()),
            policy: Mutex::new(compaction.policy()),
            stats: WriteCounters::default(),
            fault_plan: Mutex::new(None),
            poisoned: Mutex::new(None),
        });
        {
            // Commit the (empty) initial manifest so even a never-ingested
            // index can be reopened.
            let _order = shared.commit_order.lock();
            let bytes = {
                let mut st = shared.state.lock();
                st.seq += 1;
                encode_manifest(&shared, &st)
            };
            write_manifest(&shared, &bytes)?;
        }
        Self::spawn(shared)
    }

    /// Open (recover) the LSM index in `dir`: load the manifest, verify its
    /// checksum, reopen exactly the committed run set against `dataset`,
    /// and delete anything a crash left behind (orphaned `run-*`
    /// directories, a torn `MANIFEST.tmp`). The index configuration and
    /// materialization come from the manifest; `opts` supplies the runtime
    /// knobs (threads, memory budget, shards) for future builds.
    pub fn open(dir: impl Into<PathBuf>, dataset: &Dataset, opts: BuildOptions) -> Result<Self> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        if manifest.covered_end > dataset.len() {
            return Err(Error::corrupt(format!(
                "manifest covers {}..{} but the dataset holds only {} series",
                manifest.base,
                manifest.covered_end,
                dataset.len()
            )));
        }
        let mut opts = opts;
        opts.materialized = manifest.materialized;

        // Recovery cleanup: a torn manifest temp and run directories the
        // committed manifest does not reference.
        let _ = std::fs::remove_file(temp_path(&Manifest::path_in(&dir)));
        let live: HashSet<String> = manifest.runs.iter().map(|r| r.dir_name()).collect();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("run-") && !live.contains(&name) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }

        let mut manifest = manifest;
        let mut runs = Vec::with_capacity(manifest.runs.len());
        let metas = manifest.runs.clone();
        for (i, meta) in metas.iter().enumerate() {
            match CoconutTree::open_range(
                &dir.join(&meta.file),
                dataset,
                opts.threads,
                meta.start..meta.end,
            ) {
                Ok(tree) => runs.push(Run {
                    meta: meta.clone(),
                    tree: Arc::new(tree),
                }),
                // Verify-on-open found damage: quarantine this run and
                // every later one (the covered prefix must stay contiguous)
                // and serve the reduced prefix instead of failing.
                Err(e) if e.is_corrupt() => {
                    quarantine_runs(&dir, &metas[i..], &e)?;
                    manifest.covered_end = meta.start;
                    manifest.runs.truncate(i);
                    manifest.seq += 1;
                    manifest.store(&dir)?;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let shared = Arc::new(Shared {
            config: manifest.config,
            opts,
            dir,
            base: manifest.base,
            state: Mutex::new(State {
                runs,
                covered_end: manifest.covered_end,
                next_run_id: manifest.next_run_id,
                seq: manifest.seq,
                dataset: Some(dataset.clone()),
            }),
            commit_order: Mutex::new(()),
            ingest: IngestQueue::new(manifest.covered_end),
            gc: Mutex::new(Vec::new()),
            policy: Mutex::new(Box::new(TieredPolicy::default())),
            stats: WriteCounters::default(),
            fault_plan: Mutex::new(None),
            poisoned: Mutex::new(None),
        });
        Self::spawn(shared)
    }

    fn spawn(shared: Arc<Shared>) -> Result<Self> {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("coconut-lsm-compactor".into())
            .spawn(move || compaction_loop(worker_shared, rx))?;
        Ok(LsmCoconut {
            shared,
            jobs: Some(tx),
            worker: Some(worker),
        })
    }

    /// Replace the compaction policy (takes effect from the next
    /// decision). The policy lives in memory only: a reopened index starts
    /// under the default [`TieredPolicy`].
    pub fn set_policy(&self, policy: Box<dyn CompactionPolicy>) {
        *self.shared.policy.lock() = policy;
    }

    /// Bound read amplification: install a [`TieredPolicy`] that keeps at
    /// most `max_runs` live runs.
    pub fn set_max_runs(&self, max_runs: usize) {
        self.set_policy(Box::new(TieredPolicy::with_max_runs(max_runs)));
    }

    /// Install (or clear) an instance-scoped [`FaultPlan`], consulted
    /// before the process-global plan at this index's fault sites
    /// (`manifest.before` / `manifest.torn` / `manifest.after` /
    /// `run.create`). `manifest.torn=err@1` crashes the next manifest
    /// commit halfway through its write; the instance is then poisoned and
    /// must be reopened from disk, like a crashed process.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.shared.fault_plan.lock() = plan;
    }

    /// Surface a sticky worker error, mirroring a crashed process.
    fn check_poisoned(&self) -> Result<()> {
        if let Some(msg) = self.shared.poisoned.lock().clone() {
            return Err(Error::invalid(format!(
                "LSM instance poisoned by a failed commit (reopen the index \
                 from disk to recover): {msg}"
            )));
        }
        Ok(())
    }

    fn send(&self, job: Job) -> Result<()> {
        // `jobs` is only taken in Drop, but surface a typed error rather
        // than panicking if a send ever races shutdown.
        self.jobs
            .as_ref()
            .ok_or_else(|| Error::invalid("LSM index is shutting down"))?
            .send(job)
            .map_err(|_| Error::invalid("LSM compaction thread exited"))
    }

    /// Index every position of `dataset` not yet covered (the dataset must
    /// only ever grow) as one new run; compaction follows on the worker
    /// thread if the policy asks for it.
    pub fn ingest(&self, dataset: &Dataset) -> Result<()> {
        self.ingest_upto(dataset, dataset.len())
    }

    /// Index positions up to `upto` (exclusive) that are not yet covered —
    /// used by workloads that reveal an on-disk dataset in batches. On
    /// success the covered prefix reaches `upto` and is durable.
    ///
    /// Takes `&self`: a server can share one `LsmCoconut` behind an
    /// [`Arc`] and queries pin snapshots while a batch builds. Concurrent
    /// callers cooperate through the group-commit queue: each claims the
    /// unclaimed tail (if any), and all of them return once the covered
    /// prefix is durably committed past `upto` — by whichever writer
    /// became the group committer. For explicit N-writer ingest, use
    /// [`LsmCoconut::writer`] handles instead.
    pub fn ingest_upto(&self, dataset: &Dataset, upto: u64) -> Result<()> {
        self.check_poisoned()?;
        if upto > dataset.len() {
            return Err(Error::invalid("upto exceeds the dataset length"));
        }
        match claim_range(&self.shared, dataset, upto, u64::MAX)? {
            Some(claim) => {
                build_and_commit(&self.shared, dataset, claim)?;
                self.send(Job::Maintain)
            }
            // The tail up to `upto` is already claimed (possibly by a
            // concurrent writer still committing): wait until it is
            // durable.
            None => wait_durable(&self.shared, upto),
        }
    }

    /// A handle for one writer thread of a multi-writer ingest. All
    /// handles of one index feed the same group-commit queue: their runs
    /// build concurrently, and completed batches are folded into shared
    /// manifest commits (one fsync per group). Handles borrow the index,
    /// so spawn writer threads with `std::thread::scope`.
    pub fn writer(&self) -> IngestWriter<'_> {
        IngestWriter { lsm: self }
    }

    /// Merge every live run into one and wait for it to finish — the
    /// "defragment everything" operation (CLI `compact`). The resulting
    /// single run is bit-identical to a from-scratch bulk load over the
    /// covered range.
    pub fn compact(&self) -> Result<()> {
        self.check_poisoned()?;
        self.send(Job::CompactAll)?;
        self.wait_for_compactions()
    }

    /// Block until every queued compaction has completed, then surface any
    /// worker error. Queries never need this — they see consistent
    /// snapshots throughout — but tests and benchmarks use it to observe a
    /// settled run count.
    pub fn wait_for_compactions(&self) -> Result<()> {
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        self.send(Job::Sync(ack_tx))?;
        ack_rx
            .recv()
            .map_err(|_| Error::invalid("LSM compaction thread exited"))?;
        self.check_poisoned()
    }

    /// Number of live runs (the read amplification of the next query).
    pub fn run_count(&self) -> usize {
        self.shared.state.lock().runs.len()
    }

    /// End (exclusive) of the covered raw-file position range.
    pub fn covered_end(&self) -> u64 {
        self.shared.state.lock().covered_end
    }

    /// First raw-file position this index covers (0 unless created with
    /// [`LsmCoconut::new_based`]).
    pub fn base(&self) -> u64 {
        self.shared.base
    }

    /// Total entries across runs.
    pub fn len(&self) -> u64 {
        self.shared
            .state
            .lock()
            .runs
            .iter()
            .map(|r| r.tree.len())
            .sum()
    }

    /// True when no run holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The directory this index lives in.
    pub fn dir(&self) -> PathBuf {
        self.shared.dir.clone()
    }

    /// The index configuration every run is (and will be) built with —
    /// fixed at [`LsmCoconut::new`] time and recovered from the manifest by
    /// [`LsmCoconut::open`].
    pub fn config(&self) -> IndexConfig {
        self.shared.config
    }

    /// Whether runs embed raw series (the `-Full` layout; recorded in the
    /// manifest, so it survives reopening).
    pub fn is_materialized(&self) -> bool {
        self.shared.opts.materialized
    }

    /// Pin a consistent, immutable view of the committed run set. The state
    /// lock is held only for the duration of the Arc clones; everything the
    /// returned [`Snapshot`] does afterwards — exact, kNN, and range
    /// queries — is lock-free, so concurrent ingests and compactions never
    /// stall a pinned reader. Run directories a compaction obsoletes while
    /// the snapshot is live are garbage-collected after the snapshot drops.
    pub fn snapshot(&self) -> Snapshot {
        let st = self.shared.state.lock();
        Snapshot {
            runs: st.runs.iter().map(|r| Arc::clone(&r.tree)).collect(),
            base: self.shared.base,
            covered_end: st.covered_end,
            seq: st.seq,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Delete the directories of compacted-away runs that are no longer
    /// pinned by any [`Snapshot`]; returns how many were removed. Runs are
    /// swept automatically when snapshots drop — this is for callers that
    /// want a deterministic cleanup point (tests, shutdown paths).
    pub fn collect_garbage(&self) -> usize {
        sweep_gc(&self.shared)
    }

    /// Number of compacted-away runs whose directories are still pinned by
    /// live snapshots (observability: `coconut_gc_pinned_runs`).
    pub fn pinned_garbage(&self) -> usize {
        self.shared.gc.lock().len()
    }

    /// Point-in-time write-path counters (entries ingested/rewritten,
    /// ingest commits, runs folded) for the amplification gauges and the
    /// streaming benchmark. Counters start at zero per instance — they
    /// measure this process's work, not the on-disk history.
    pub fn write_stats(&self) -> WriteStats {
        WriteStats {
            entries_ingested: self.shared.stats.ingested.load(Ordering::Relaxed),
            entries_rewritten: self.shared.stats.rewritten.load(Ordering::Relaxed),
            ingest_commits: self.shared.stats.ingest_commits.load(Ordering::Relaxed),
            runs_committed: self.shared.stats.runs_committed.load(Ordering::Relaxed),
        }
    }

    /// Write amplification so far: entries written (first writes plus
    /// compaction rewrites) per entry ingested. 1.0 until the first merge;
    /// grows with compaction eagerness (observability:
    /// `coconut_write_amp`).
    pub fn write_amplification(&self) -> f64 {
        let s = self.write_stats();
        if s.entries_ingested == 0 {
            return 1.0;
        }
        (s.entries_ingested + s.entries_rewritten) as f64 / s.entries_ingested as f64
    }

    /// Space amplification: bytes held by all `run-*` directories on disk
    /// (live runs, snapshot-pinned garbage, in-flight builds) per byte of
    /// live run. 1.0 when nothing but the live runs exists (observability:
    /// `coconut_space_amp`).
    pub fn space_amplification(&self) -> f64 {
        let live: u64 = {
            let st = self.shared.state.lock();
            st.runs.iter().map(|r| r.tree.disk_bytes()).sum()
        };
        if live == 0 {
            return 1.0;
        }
        let mut total = 0u64;
        if let Ok(entries) = std::fs::read_dir(&self.shared.dir) {
            for entry in entries.flatten() {
                if !entry.file_name().to_string_lossy().starts_with("run-") {
                    continue;
                }
                if let Ok(files) = std::fs::read_dir(entry.path()) {
                    for f in files.flatten() {
                        total += f.metadata().map(|m| m.len()).unwrap_or(0);
                    }
                }
            }
        }
        total.max(live) as f64 / live as f64
    }

    /// Live runs bucketed by size level — level `L` holds runs with
    /// `fanout^L <= entries < fanout^(L+1)` for the default fanout of 4 —
    /// a policy-agnostic shape summary (observability:
    /// `coconut_runs_level_<L>`; the read amplification is the sum).
    pub fn level_run_counts(&self) -> Vec<usize> {
        let st = self.shared.state.lock();
        let mut counts = Vec::new();
        for run in &st.runs {
            let mut level = 0usize;
            let mut v = run.meta.entries().max(1);
            while v >= 4 {
                v /= 4;
                level += 1;
            }
            if counts.len() <= level {
                counts.resize(level + 1, 0);
            }
            counts[level] += 1;
        }
        counts
    }

    /// Re-read and checksum-verify every leaf of every live run (the
    /// `coconut scrub` command). Never fails as a whole: each run reports
    /// either its clean [`ScrubReport`] or the corruption the scan hit, so
    /// an operator sees *all* damaged runs, not just the first.
    ///
    /// Scrub reads leaves with `pread`, so a device error is reported as
    /// `Error::Io`. Queries borrow leaf blocks from a mapping of the index
    /// file, where the same error raises `SIGBUS` instead; scrub is how
    /// such a block is found before a query touches it.
    pub fn scrub(&self) -> Vec<RunScrub> {
        let runs: Vec<(RunMeta, Arc<CoconutTree>)> = {
            let st = self.shared.state.lock();
            st.runs
                .iter()
                .map(|r| (r.meta.clone(), Arc::clone(&r.tree)))
                .collect()
        };
        runs.into_iter()
            .map(|(meta, tree)| {
                let (report, error) = match tree.verify() {
                    Ok(rep) => (rep, None),
                    Err(e) => (ScrubReport::default(), Some(e.to_string())),
                };
                RunScrub {
                    id: meta.id,
                    start: meta.start,
                    end: meta.end,
                    report,
                    error,
                }
            })
            .collect()
    }

    /// Quarantine the live run `id` and every later run (the covered
    /// prefix must stay contiguous): commit a reduced manifest first, then
    /// move the evicted directories into [`QUARANTINE_DIR`] with a
    /// `.reason` file recording `reason`. Returns the new covered end.
    /// Pinned snapshots keep answering from the moved runs — their open
    /// file handles survive the rename — but new snapshots see only the
    /// reduced, verified prefix.
    pub fn quarantine_from(&self, id: u64, reason: &str) -> Result<u64> {
        self.check_poisoned()?;
        let _order = self.shared.commit_order.lock();
        // Hold the ingest queue lock for the whole eviction: truncating the
        // covered prefix under the feet of in-flight claims would leave
        // pending runs stranded beyond a hole, so quarantine requires a
        // quiesced write path (and blocks new claims while it runs).
        let mut q = self.shared.ingest.lock();
        if q.in_flight > 0 || !q.done.is_empty() || q.claimed_end != q.durable_end {
            return Err(Error::invalid(
                "cannot quarantine while ingest batches are in flight; \
                 wait for writers to finish and retry",
            ));
        }
        let (bytes, evicted, new_end) = {
            let mut st = self.shared.state.lock();
            let Some(first) = st.runs.iter().position(|r| r.meta.id == id) else {
                return Err(Error::invalid(format!("run {id} is not live")));
            };
            let evicted = st.runs.split_off(first);
            let new_end = evicted[0].meta.start;
            st.covered_end = new_end;
            st.seq += 1;
            (encode_manifest(&self.shared, &st), evicted, new_end)
        };
        if let Err(e) = write_manifest(&self.shared, &bytes) {
            *self.shared.poisoned.lock() = Some(e.to_string());
            q.failed = true;
            self.shared.ingest.cv.notify_all();
            return Err(e);
        }
        q.claimed_end = new_end;
        q.durable_end = new_end;
        let metas: Vec<RunMeta> = evicted.iter().map(|r| r.meta.clone()).collect();
        quarantine_runs(&self.shared.dir, &metas, &Error::corrupt(reason))?;
        Ok(new_end)
    }

    /// Bytes of index not yet merged into the largest run — the work a full
    /// compaction would perform now. Zero when at most one run is live;
    /// grows as ingest outpaces the policy (observability: the server
    /// exports this as `coconut_compaction_debt_bytes`).
    pub fn compaction_debt(&self) -> u64 {
        let snap = self.snapshot();
        let total: u64 = snap.runs.iter().map(|r| r.disk_bytes()).sum();
        let largest = snap.runs.iter().map(|r| r.disk_bytes()).max().unwrap_or(0);
        total - largest
    }

    /// Per-leaf fill fractions (entries / leaf capacity) across every live
    /// run, in run order. The server's `coconut_leaf_fill` histogram is
    /// rebuilt from this at scrape time.
    pub fn leaf_fill_fractions(&self) -> Vec<f64> {
        let cap = self.shared.config.leaf_capacity.max(1) as f64;
        self.snapshot()
            .runs
            .iter()
            .flat_map(|r| r.leaf_entry_counts())
            .map(|n| n as f64 / cap)
            .collect()
    }

    /// Leaves forced beyond the configured capacity because identical keys
    /// could not be split further, summed across live runs (observability:
    /// `coconut_oversized_leaves`). Always zero for the median-packed
    /// Coconut-Tree runs the LSM builds today; surfaced uniformly so the
    /// metric needs no per-layout special case.
    pub fn oversized_leaves(&self) -> u64 {
        self.snapshot()
            .runs
            .iter()
            .map(|r| r.oversized_leaf_count())
            .sum()
    }

    /// Answer `query` over a freshly pinned snapshot
    /// ([`Snapshot::search`]).
    pub fn search(&self, series: &[Value], query: &Query) -> Result<(Vec<Answer>, QueryStats)> {
        self.snapshot().search(series, query)
    }
}

/// One writer of a multi-writer ingest ([`LsmCoconut::writer`]).
///
/// Each call to [`IngestWriter::ingest_next`] claims the next unclaimed
/// contiguous slice of the dataset tail, builds and fsyncs its run
/// concurrently with the other writers, and returns once the slice is
/// durably committed — usually by a group commit that folded several
/// writers' runs into one manifest fsync.
pub struct IngestWriter<'a> {
    lsm: &'a LsmCoconut,
}

impl IngestWriter<'_> {
    /// Claim and durably ingest the next uncovered batch of at most
    /// `max_batch` series from `dataset`'s tail. Returns the committed
    /// position range, or `None` when the tail is fully claimed (this
    /// writer's loop is done; other writers may still be committing).
    pub fn ingest_next(
        &self,
        dataset: &Dataset,
        max_batch: u64,
    ) -> Result<Option<std::ops::Range<u64>>> {
        self.ingest_next_upto(dataset, dataset.len(), max_batch)
    }

    /// Like [`IngestWriter::ingest_next`] but bounds the claim frontier at
    /// `upto` (exclusive) instead of the dataset's current end — for phased
    /// workloads that reveal the raw file one prefix at a time.
    pub fn ingest_next_upto(
        &self,
        dataset: &Dataset,
        upto: u64,
        max_batch: u64,
    ) -> Result<Option<std::ops::Range<u64>>> {
        self.lsm.check_poisoned()?;
        if upto > dataset.len() {
            return Err(Error::invalid("upto exceeds the dataset length"));
        }
        let Some(claim) = claim_range(&self.lsm.shared, dataset, upto, max_batch.max(1))? else {
            return Ok(None);
        };
        let range = claim.start..claim.end;
        build_and_commit(&self.lsm.shared, dataset, claim)?;
        self.lsm.send(Job::Maintain)?;
        Ok(Some(range))
    }
}

/// An immutable, pinned view of an [`LsmCoconut`]'s committed run set.
///
/// Acquired by [`LsmCoconut::snapshot`] under one brief lock; every query
/// on it is lock-free and sees exactly the runs (and covered prefix) that
/// were committed at pin time, no matter how much ingest and compaction
/// churn happens meanwhile. Holding a snapshot pins the run files it
/// references: a compaction that obsoletes them defers directory deletion
/// until the last pinning snapshot is dropped.
pub struct Snapshot {
    runs: Vec<Arc<CoconutTree>>,
    base: u64,
    covered_end: u64,
    seq: u64,
    shared: Arc<Shared>,
}

impl Snapshot {
    /// End (exclusive) of the raw-file position range this snapshot covers.
    /// An oracle checking answers must brute-force exactly this prefix
    /// (from [`Snapshot::base`], which is 0 for a whole-dataset index).
    pub fn covered_end(&self) -> u64 {
        self.covered_end
    }

    /// First raw-file position this snapshot covers (the shard slice start;
    /// 0 unless the index was created with [`LsmCoconut::new_based`]).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The manifest sequence number this snapshot was pinned at.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of pinned runs (the read amplification of queries on this
    /// snapshot).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The pinned runs, in position order.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[Arc<CoconutTree>] {
        &self.runs
    }

    /// Total entries across the pinned runs.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// True when no pinned run holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answer `query` over the pinned runs with one scan, of which
    /// [`crate::SortedLeafIndex::search`] is the one-run case: one query
    /// key, one metric table and one collector; a probe of every run's
    /// target leaf ± `radius`, then every other leaf of every run in one
    /// best-box-first order.
    pub fn search(&self, series: &[Value], query: &Query) -> Result<(Vec<Answer>, QueryStats)> {
        let runs: Vec<&CoconutTree> = self.runs.iter().map(|r| &**r).collect();
        crate::leaves::search_runs(&runs, series, query, true)
    }

    /// [`Snapshot::search`] with the zones skipped
    /// ([`crate::SortedLeafIndex::search_unzoned`]): the reference it is
    /// tested against.
    #[doc(hidden)]
    pub fn search_unzoned(
        &self,
        series: &[Value],
        query: &Query,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let runs: Vec<&CoconutTree> = self.runs.iter().map(|r| &**r).collect();
        crate::leaves::search_runs(&runs, series, query, false)
    }

    /// Approximate 1-NN over the pinned runs (the best entry of every
    /// run's target leaf and its neighbors).
    pub fn approximate(&self, query: &[Value]) -> Result<Answer> {
        Ok(first(self.search(query, &Query::approx())?).0)
    }

    /// Exact 1-NN under a cooperative `deadline` ([`Deadline::NONE`] for no
    /// limit).
    pub fn exact(&self, query: &[Value], deadline: Deadline) -> Result<(Answer, QueryStats)> {
        self.exact_bounded(query, f64::INFINITY, deadline)
    }

    /// [`Snapshot::exact`] returning only an answer below `bound`; when
    /// nothing here beats it the answer has `is_some() == false` — the
    /// caller's candidate stands.
    pub fn exact_bounded(
        &self,
        query: &[Value],
        bound: f64,
        deadline: Deadline,
    ) -> Result<(Answer, QueryStats)> {
        let nearest = Query {
            bound,
            deadline,
            ..Query::nearest()
        };
        self.search(query, &nearest).map(first)
    }

    /// Exact k-NN under a cooperative `deadline`.
    pub fn exact_knn(
        &self,
        query: &[Value],
        k: usize,
        deadline: Deadline,
    ) -> Result<(Vec<Answer>, QueryStats)> {
        let knn = Query {
            deadline,
            ..Query::knn(k)
        };
        self.search(query, &knn)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Release the pins first, then sweep: runs this snapshot was the
        // last reader of become deletable in the same sweep.
        self.runs.clear();
        sweep_gc(&self.shared);
    }
}

/// Delete the run directories on the GC list whose trees nothing else
/// references anymore; returns how many directories were removed. The GC
/// lock is dropped before any filesystem work.
fn sweep_gc(shared: &Shared) -> usize {
    let doomed: Vec<GcRun> = {
        let mut gc = shared.gc.lock();
        // The GC list itself holds one reference; any second one is a
        // pinned snapshot or an in-flight query.
        let (doomed, keep) = std::mem::take(&mut *gc)
            .into_iter()
            .partition(|r| Arc::strong_count(&r.tree) == 1);
        *gc = keep;
        doomed
    };
    let n = doomed.len();
    for run in doomed {
        drop(run.tree); // close the file before unlinking its directory
        let _ = std::fs::remove_dir_all(&run.dir);
    }
    n
}

impl Drop for LsmCoconut {
    fn drop(&mut self) {
        // Close the job channel — the compaction thread finishes the jobs
        // already queued and exits — then join, so no compaction outlives
        // the index (its builds write into our directory).
        drop(self.jobs.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Subdirectory of the LSM dir where corrupt runs are moved aside. Never
/// touched by recovery's orphan cleanup (which only matches `run-*`), so a
/// quarantined run stays available for offline inspection or repair.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Move the given runs' directories into `quarantine/`, leaving a
/// `<run>.reason` file naming the corruption that evicted them. The caller
/// commits a reduced manifest afterwards so recovery never deletes the
/// moved directories' former names.
fn quarantine_runs(dir: &Path, metas: &[RunMeta], cause: &Error) -> Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    std::fs::create_dir_all(&qdir)?;
    for meta in metas {
        let name = meta.dir_name();
        let from = dir.join(&name);
        if from.exists() {
            std::fs::rename(&from, qdir.join(&name))?;
        }
        let _ = std::fs::write(qdir.join(format!("{name}.reason")), cause.to_string());
    }
    coconut_storage::atomic::sync_dir(&qdir)?;
    coconut_storage::atomic::sync_dir(dir)?;
    Ok(())
}

/// Compute the manifest-relative path of a run's index file.
fn relative_index_path(dir: &Path, index_path: &Path) -> Result<String> {
    let rel = index_path
        .strip_prefix(dir)
        .map_err(|_| Error::invalid("run index file escaped the LSM directory"))?;
    rel.to_str()
        .map(String::from)
        .ok_or_else(|| Error::invalid("run index path is not UTF-8"))
}

/// The injected I/O error of a manifest fault `site`, naming the crash
/// instant it simulates.
fn simulated_crash(site: &str, instant: &str) -> Error {
    match fault::injected_error(site) {
        Error::Io(e) => Error::Io(std::io::Error::other(format!(
            "{e}: simulated crash {instant}"
        ))),
        other => other,
    }
}

/// Consult the instance fault plan first, then the process-global one.
fn lsm_fires(shared: &Shared, site: &str) -> Option<FaultAction> {
    let plan = shared.fault_plan.lock().clone();
    if let Some(plan) = plan {
        if let Some(action) = plan.fires(site) {
            return Some(action);
        }
    }
    fault::fires(site)
}

/// [`lsm_fires`] mapped to a hard injected error, like [`fault::check`].
fn lsm_check(shared: &Shared, site: &str) -> Result<()> {
    match lsm_fires(shared, site) {
        Some(_) => Err(fault::injected_error(site)),
        None => Ok(()),
    }
}

/// Serialize the state to manifest bytes. The caller must have bumped
/// `st.seq` already, under the state lock and while holding `commit_order`.
fn encode_manifest(shared: &Shared, st: &State) -> Vec<u8> {
    Manifest {
        seq: st.seq,
        config: shared.config,
        materialized: shared.opts.materialized,
        base: shared.base,
        covered_end: st.covered_end,
        next_run_id: st.next_run_id,
        runs: st.runs.iter().map(|r| r.meta.clone()).collect(),
    }
    .encode()
}

/// The disk half of a commit: write the manifest atomically. Called while
/// holding `commit_order` but **not** the state lock, so queries never
/// wait on the fsyncs. Obsolete run directories are *not* deleted here —
/// the committer hands them to the GC list, where pinned snapshots keep
/// them alive until released.
///
/// Three fault sites simulate a crash at the instants of the journal
/// Coconut-LSM's crash model; each leaves the disk as that crash would and
/// fails the commit with the site's injected I/O error:
/// * `manifest.before` — nothing reaches disk; the new run directory is
///   an orphan;
/// * `manifest.torn` — half the temp file is written, the committed
///   manifest survives and recovery discards the torn `MANIFEST.tmp`;
/// * `manifest.after` — the new manifest is durable, but the caller's
///   cleanup never runs.
fn write_manifest(shared: &Shared, bytes: &[u8]) -> Result<()> {
    let path = Manifest::path_in(&shared.dir);
    if lsm_fires(shared, "manifest.before").is_some() {
        return Err(simulated_crash(
            "manifest.before",
            "before the manifest write",
        ));
    }
    if lsm_fires(shared, "manifest.torn").is_some() {
        atomic_write_torn(&path, bytes, bytes.len() / 2)?;
        return Err(simulated_crash("manifest.torn", "mid manifest write"));
    }
    let crash_after = lsm_fires(shared, "manifest.after").is_some();
    atomic_write(&path, bytes)?;
    if crash_after {
        return Err(simulated_crash(
            "manifest.after",
            "after the manifest commit",
        ));
    }
    Ok(())
}

/// A typed "instance is poisoned" error (same shape as
/// [`LsmCoconut::check_poisoned`] produces) for the ingest path.
fn poisoned_error(shared: &Shared) -> Error {
    let msg = shared
        .poisoned
        .lock()
        .clone()
        .unwrap_or_else(|| "a concurrent ingest writer failed".into());
    Error::invalid(format!(
        "LSM instance poisoned by a failed commit (reopen the index \
         from disk to recover): {msg}"
    ))
}

/// Reserve the next unclaimed contiguous slice of `base..upto`, at most
/// `max_batch` long, and allocate its run id. Assigning the covered range
/// here — not at commit time — is what keeps concurrently built runs
/// gap-free: whatever order the builds finish, the chain reassembles.
fn claim_range(
    shared: &Shared,
    dataset: &Dataset,
    upto: u64,
    max_batch: u64,
) -> Result<Option<Claim>> {
    let mut q = shared.ingest.lock();
    if q.failed {
        return Err(poisoned_error(shared));
    }
    if upto < q.durable_end {
        return Err(Error::invalid("dataset shrank below the covered range"));
    }
    // Refresh the dataset handle compactions build against.
    shared.state.lock().dataset = Some(dataset.clone());
    if q.claimed_end >= upto {
        return Ok(None);
    }
    let start = q.claimed_end;
    let end = upto.min(start.saturating_add(max_batch));
    let run_id = {
        let mut st = shared.state.lock();
        let id = st.next_run_id;
        st.next_run_id += 1;
        id
    };
    q.claimed_end = end;
    q.in_flight += 1;
    Ok(Some(Claim { start, end, run_id }))
}

/// Build and fsync the run for a claim — the expensive half of ingest,
/// executed without any lock so writers, compactions, and queries overlap.
fn build_run(shared: &Shared, dataset: &Dataset, claim: &Claim) -> Result<PendingRun> {
    let run_dir = shared.dir.join(run_dir_name(claim.run_id));
    lsm_check(shared, "run.create")?;
    std::fs::create_dir_all(&run_dir)?;
    let tree = CoconutTree::build_range(
        dataset,
        claim.start..claim.end,
        &shared.config,
        &run_dir,
        shared.opts.clone(),
    )?;
    // The index file is fsynced by the build; fsync the run directory
    // too, or a power loss after the manifest commit could lose the
    // file's directory entry and leave the manifest pointing nowhere.
    coconut_storage::atomic::sync_dir(&run_dir)?;
    let file = relative_index_path(&shared.dir, tree.index_path())?;
    Ok(PendingRun {
        meta: RunMeta {
            id: claim.run_id,
            start: claim.start,
            end: claim.end,
            file,
        },
        tree,
    })
}

/// Drive a claim through build → submit → durable group commit.
fn build_and_commit(shared: &Shared, dataset: &Dataset, claim: Claim) -> Result<()> {
    match build_run(shared, dataset, &claim) {
        Ok(pending) => submit_and_wait(shared, pending),
        Err(e) => {
            abort_claim(shared, &claim, &e);
            Err(e)
        }
    }
}

/// A claim's build failed before anything reached the manifest. If the
/// claim is still the frontier, hand the range back so a retry can
/// re-claim it; if later claims already extend past it, the coverage hole
/// can never be filled — poison the instance like a failed commit.
fn abort_claim(shared: &Shared, claim: &Claim, cause: &Error) {
    let mut q = shared.ingest.lock();
    q.in_flight -= 1;
    if q.claimed_end == claim.end {
        q.claimed_end = claim.start;
    } else if !q.failed {
        q.failed = true;
        *shared.poisoned.lock() = Some(format!(
            "ingest writer failed leaving an uncovered hole at {}..{}: {cause}",
            claim.start, claim.end
        ));
    }
    shared.ingest.cv.notify_all();
}

/// Park a completed run in the commit queue and block until it is durably
/// committed. Whichever writer finds the chain head (the run starting at
/// the durable watermark) becomes the group committer and folds the whole
/// contiguous chain into **one** manifest commit; everyone else sleeps on
/// the condvar. A writer is only ever acknowledged (returns `Ok`) after
/// the manifest referencing its run is on disk.
fn submit_and_wait(shared: &Shared, pending: PendingRun) -> Result<()> {
    let my_end = pending.meta.end;
    {
        let mut q = shared.ingest.lock();
        if q.failed {
            // The group can no longer commit; this run directory becomes
            // an orphan for recovery to delete.
            q.in_flight -= 1;
            return Err(poisoned_error(shared));
        }
        q.done.insert(pending.meta.start, pending);
        q.in_flight -= 1;
        shared.ingest.cv.notify_all();
    }
    loop {
        // Try to become the group committer. `commit_order` is acquired
        // before the queue lock (lock order: commit_order → ingest →
        // state) and held across {drain chain, mutate state, manifest
        // I/O}, so commits hit disk serialized in mutation order.
        {
            let _order = shared.commit_order.lock();
            let chain: Vec<PendingRun> = {
                let mut q = shared.ingest.lock();
                if q.failed {
                    return Err(poisoned_error(shared));
                }
                if q.durable_end >= my_end {
                    return Ok(());
                }
                let mut chain = Vec::new();
                let mut next = q.durable_end;
                while let Some(run) = q.done.remove(&next) {
                    next = run.meta.end;
                    chain.push(run);
                }
                chain
            };
            if !chain.is_empty() {
                match commit_group(shared, chain) {
                    Ok(new_end) => {
                        let mut q = shared.ingest.lock();
                        q.durable_end = new_end;
                        shared.ingest.cv.notify_all();
                        if new_end >= my_end {
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        // In-memory state is ahead of the durable manifest
                        // — the situation a crash leaves behind. Poison so
                        // every waiter and subsequent call fails until the
                        // index is reopened from disk.
                        *shared.poisoned.lock() = Some(e.to_string());
                        let mut q = shared.ingest.lock();
                        q.failed = true;
                        shared.ingest.cv.notify_all();
                        return Err(e);
                    }
                }
            }
        }
        // Not durable yet and nothing to commit (a gap below us is still
        // building): sleep until the watermark passes us, a committable
        // chain head appears (then race for the committer role), or the
        // group fails.
        let mut q = shared.ingest.lock();
        while !q.failed && q.durable_end < my_end && !q.done.contains_key(&q.durable_end) {
            q = shared.ingest.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.failed {
            return Err(poisoned_error(shared));
        }
        if q.durable_end >= my_end {
            return Ok(());
        }
    }
}

/// Fold a contiguous chain of completed runs into one atomic manifest
/// commit (one fsync for the whole group). The caller holds
/// `commit_order`; on error the in-memory state is ahead of disk and the
/// caller must poison the instance.
fn commit_group(shared: &Shared, chain: Vec<PendingRun>) -> Result<u64> {
    let entries: u64 = chain.iter().map(|r| r.meta.entries()).sum();
    let folded = chain.len() as u64;
    let (bytes, new_end) = {
        let mut st = shared.state.lock();
        let mut new_end = st.covered_end;
        for run in chain {
            debug_assert_eq!(
                run.meta.start, new_end,
                "group chains are contiguous from the covered prefix"
            );
            new_end = run.meta.end;
            st.runs.push(Run {
                meta: run.meta,
                tree: Arc::new(run.tree),
            });
        }
        st.covered_end = new_end;
        st.seq += 1;
        (encode_manifest(shared, &st), new_end)
    };
    write_manifest(shared, &bytes)?;
    shared.stats.ingested.fetch_add(entries, Ordering::Relaxed);
    shared.stats.ingest_commits.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .runs_committed
        .fetch_add(folded, Ordering::Relaxed);
    Ok(new_end)
}

/// Block until the durable covered prefix reaches `upto` (a concurrent
/// writer holds the claim) or ingest fails.
fn wait_durable(shared: &Shared, upto: u64) -> Result<()> {
    let mut q = shared.ingest.lock();
    while !q.failed && q.durable_end < upto {
        q = shared.ingest.cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    if q.failed {
        return Err(poisoned_error(shared));
    }
    Ok(())
}

/// The compaction thread: runs the jobs in the order they were sent. Every
/// job but a full compaction plans over the whole run list and merges until
/// the policy proposes nothing, so a `Sync` is acknowledged on a settled
/// run set even when runs arrived without a maintain job. The first merge
/// error is sticky (poisons the instance), after which only syncs are
/// acknowledged so waiters can observe it. The thread exits once
/// [`LsmCoconut`]'s drop closes the channel and the queue is drained.
fn compaction_loop(shared: Arc<Shared>, jobs: Receiver<Job>) {
    for job in jobs {
        if shared.poisoned.lock().is_none() {
            let result = match job {
                Job::CompactAll => {
                    let ids: Vec<u64> =
                        shared.state.lock().runs.iter().map(|r| r.meta.id).collect();
                    compact_ids(&shared, &ids)
                }
                Job::Maintain | Job::Sync(_) => maintain(&shared),
            };
            if let Err(e) = result {
                *shared.poisoned.lock() = Some(e.to_string());
            }
        }
        if let Job::Sync(ack) = job {
            let _ = ack.send(());
        }
    }
}

/// Merge the windows the policy proposes, re-planning over the whole run
/// list after each merge, until it proposes nothing.
fn maintain(shared: &Arc<Shared>) -> Result<()> {
    loop {
        let ids: Vec<u64> = {
            let st = shared.state.lock();
            let entries: Vec<u64> = st.runs.iter().map(|r| r.meta.entries()).collect();
            match shared.policy.lock().plan(&entries) {
                Some(w) if w.len() >= 2 && w.end <= st.runs.len() => {
                    st.runs[w].iter().map(|r| r.meta.id).collect()
                }
                _ => return Ok(()),
            }
        };
        compact_ids(shared, &ids)?;
    }
}

/// Where the adjacent runs `ids` start in `runs`, or `None` once any of
/// them has left the live set.
fn window_start(runs: &[Run], ids: &[u64]) -> Option<usize> {
    let first = runs.iter().position(|r| r.meta.id == ids[0])?;
    let window = runs.get(first..first + ids.len())?;
    window
        .iter()
        .zip(ids)
        .all(|(r, id)| r.meta.id == *id)
        .then_some(first)
}

/// Merge the adjacent runs with the given ids into one new run: K-way merge
/// of their sorted leaf streams, bulk-loaded into a fresh `run-<id>/`,
/// swapped into the run set under the lock, committed to the manifest, and
/// only then are the old run directories deleted.
///
/// Merges run only on the compaction thread, but [`LsmCoconut::quarantine_from`]
/// can evict runs from another thread: a window it touched before the
/// merge starts is skipped, and a merge it overtakes is abandoned.
fn compact_ids(shared: &Arc<Shared>, ids: &[u64]) -> Result<()> {
    if ids.len() < 2 {
        return Ok(());
    }
    let (trees, start, end, new_id, dataset) = {
        let mut st = shared.state.lock();
        let Some(first) = window_start(&st.runs, ids) else {
            return Ok(());
        };
        let window = &st.runs[first..first + ids.len()];
        let start = window[0].meta.start;
        let end = window[ids.len() - 1].meta.end;
        let trees: Vec<Arc<CoconutTree>> = window.iter().map(|r| Arc::clone(&r.tree)).collect();
        let dataset = st
            .dataset
            .clone()
            .ok_or_else(|| Error::invalid("no dataset attached to the LSM index"))?;
        let id = st.next_run_id;
        st.next_run_id += 1;
        (trees, start, end, id, dataset)
    };

    // The expensive part runs without the lock: ingest and queries proceed.
    let run_dir = shared.dir.join(run_dir_name(new_id));
    lsm_check(shared, "run.create")?;
    std::fs::create_dir_all(&run_dir)?;
    let merged_tree = if shared.opts.materialized {
        merge_runs::<KeySeries>(shared, &trees, start..end, &dataset, &run_dir)?
    } else {
        merge_runs::<KeyPos>(shared, &trees, start..end, &dataset, &run_dir)?
    };
    // As in ingest: make the new run's directory entry durable before the
    // manifest can reference it.
    coconut_storage::atomic::sync_dir(&run_dir)?;
    let file = relative_index_path(&shared.dir, merged_tree.index_path())?;

    let _order = shared.commit_order.lock();
    let mut st = shared.state.lock();
    let Some(first) = window_start(&st.runs, ids) else {
        // A quarantine evicted part of the window while it merged: the
        // merged run would cover evicted positions, so drop it.
        drop(st);
        drop(merged_tree);
        let _ = std::fs::remove_dir_all(&run_dir);
        return Ok(());
    };
    let replacement = Run {
        meta: RunMeta {
            id: new_id,
            start,
            end,
            file,
        },
        tree: Arc::new(merged_tree),
    };
    // `splice` removes the old runs from the live set; their trees stay
    // open (we still hold `trees`) so pinned snapshots keep reading them.
    drop(
        st.runs
            .splice(first..first + ids.len(), std::iter::once(replacement)),
    );
    st.seq += 1;
    let bytes = encode_manifest(shared, &st);
    drop(st); // queries proceed while the commit hits disk
    write_manifest(shared, &bytes)?;
    // Every entry in the window was rewritten into the merged run: that
    // is exactly the write-amplification cost of this compaction.
    shared
        .stats
        .rewritten
        .fetch_add(end - start, Ordering::Relaxed);
    // The commit is durable: retire the old runs to the GC list (snapshots
    // pinned before the swap keep their directories alive) and sweep
    // whatever is already unpinned. On commit *failure* nothing is queued —
    // recovery deletes the unreferenced directories, same as a crash.
    {
        let mut gc = shared.gc.lock();
        for (tree, id) in trees.into_iter().zip(ids.iter()) {
            gc.push(GcRun {
                tree,
                dir: shared.dir.join(run_dir_name(*id)),
            });
        }
    }
    sweep_gc(shared);
    Ok(())
}

/// K-way merge `trees`' sorted leaf streams and bulk-load the result as one
/// new run in `run_dir`. `R` selects the record flavor and must match
/// `shared.opts.materialized`.
fn merge_runs<R: crate::records::SortedRecord>(
    shared: &Shared,
    trees: &[Arc<CoconutTree>],
    range: std::ops::Range<u64>,
    dataset: &Dataset,
    run_dir: &Path,
) -> Result<CoconutTree> {
    let streams: Vec<LeafEntryStream<'_, R>> = trees.iter().map(|t| t.leaf_entries()).collect();
    let mut merged = MergedStream::new(streams)?;
    CoconutTree::build_range_from_stream(
        dataset,
        range,
        &shared.config,
        run_dir,
        shared.opts.clone(),
        &mut merged,
    )
}

impl SeriesIndex for LsmCoconut {
    fn name(&self) -> String {
        "CTree-LSM".into()
    }

    fn approximate(&self, query: &[Value]) -> Result<Answer> {
        self.snapshot().approximate(query)
    }

    fn exact(&self, query: &[Value]) -> Result<(Answer, QueryStats)> {
        self.search(query, &Query::nearest()).map(first)
    }

    fn disk_bytes(&self) -> u64 {
        self.snapshot().runs.iter().map(|r| r.disk_bytes()).sum()
    }

    fn leaf_count(&self) -> u64 {
        self.snapshot().runs.iter().map(|r| r.leaf_count()).sum()
    }

    fn avg_leaf_fill(&self) -> f64 {
        let snap = self.snapshot();
        let leaves: u64 = snap.runs.iter().map(|r| r.leaf_count()).sum();
        if leaves == 0 {
            return 0.0;
        }
        snap.runs
            .iter()
            .map(|r| r.avg_leaf_fill() * r.leaf_count() as f64)
            .sum::<f64>()
            / leaves as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::dataset::DatasetWriter;
    use coconut_series::distance::{euclidean, znormalize};
    use coconut_series::gen::{Generator, RandomWalkGen};
    use coconut_storage::{IoStats, TempDir};

    const LEN: usize = 64;

    fn small_config() -> IndexConfig {
        let mut c = IndexConfig::default_for_len(LEN);
        c.leaf_capacity = 32;
        c
    }

    /// Append `n` series to the dataset file at `path` (creating it if
    /// needed) and reopen it.
    fn grow_dataset(
        path: &std::path::Path,
        stats: &Arc<IoStats>,
        gen: &mut RandomWalkGen,
        existing: &[Vec<Value>],
        n: usize,
    ) -> (Dataset, Vec<Vec<Value>>) {
        let mut all = existing.to_vec();
        for _ in 0..n {
            let mut s = gen.generate(LEN);
            znormalize(&mut s);
            all.push(s);
        }
        let mut w = DatasetWriter::create(path, LEN, true, Arc::clone(stats)).unwrap();
        for s in &all {
            w.append(s).unwrap();
        }
        w.finish().unwrap();
        (Dataset::open(path, Arc::clone(stats)).unwrap(), all)
    }

    fn brute_force(all: &[Vec<Value>], q: &[Value]) -> Answer {
        let mut best = Answer::none();
        for (i, s) in all.iter().enumerate() {
            best.merge(Answer {
                pos: i as u64,
                dist: euclidean(q, s),
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
    fn ingest_batches_and_query_exactly() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(31);
        let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.set_max_runs(3);

        let mut all = Vec::new();
        for round in 0..6 {
            let (ds, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 150);
            all = new_all;
            lsm.ingest(&ds).unwrap();
            assert_eq!(lsm.len(), all.len() as u64, "round {round}");
            let (ans, stats_q) = lsm.exact(&query(100 + round)).unwrap();
            let expect = brute_force(&all, &query(100 + round));
            assert_eq!(ans.pos, expect.pos, "round {round}");
            // Every record of every run is accounted for: fetched or pruned.
            let accounted = stats_q.pruned + stats_q.records_fetched;
            assert!(accounted >= all.len() as u64, "round {round}");
        }
        lsm.wait_for_compactions().unwrap();
        assert!(
            lsm.run_count() <= 3,
            "{} runs after settling",
            lsm.run_count()
        );
        // Queries stay exact after compaction settles too.
        let q = query(999);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    #[test]
    fn approximate_over_runs_is_upper_bound_of_exact() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(77);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 300);
        lsm.ingest(&ds).unwrap();
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &all, 100);
        lsm.ingest(&ds).unwrap();
        assert_eq!(all.len(), 400);
        let q = query(5);
        let approx = lsm.approximate(&q).unwrap();
        let (exact, _) = lsm.exact(&q).unwrap();
        assert!(exact.dist <= approx.dist + 1e-9);
    }

    #[test]
    fn empty_and_noop_ingest() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(1);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        assert!(lsm.is_empty());
        let (ds, _) = grow_dataset(&path, &stats, &mut gen, &[], 50);
        lsm.ingest(&ds).unwrap();
        let runs = lsm.run_count();
        lsm.ingest(&ds).unwrap(); // nothing new
        assert_eq!(lsm.run_count(), runs);
        assert_eq!(lsm.len(), 50);
        assert_eq!(lsm.covered_end(), 50);
    }

    #[test]
    fn compaction_reduces_runs_and_removes_directories() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(13);
        let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.set_max_runs(2);
        let mut all = Vec::new();
        for _ in 0..5 {
            let (ds, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 60);
            all = new_all;
            lsm.ingest(&ds).unwrap();
        }
        lsm.wait_for_compactions().unwrap();
        assert!(lsm.run_count() <= 2, "{} runs", lsm.run_count());
        // Only the live runs' directories remain on disk.
        let run_dirs = std::fs::read_dir(&idx_dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("run-")
            })
            .count();
        assert_eq!(run_dirs, lsm.run_count());
        // Answers survive the merges.
        let q = query(44);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    #[test]
    fn full_compaction_is_bit_identical_to_direct_bulk_load() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(5);
        for materialized in [false, true] {
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let idx_dir = dir.path().join(format!("idx-{materialized}"));
            let lsm = LsmCoconut::new(small_config(), opts.clone(), &idx_dir).unwrap();
            let mut all = Vec::new();
            let mut ds = None;
            for _ in 0..4 {
                let (d, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 110);
                all = new_all;
                lsm.ingest(&d).unwrap();
                ds = Some(d);
            }
            lsm.compact().unwrap();
            assert_eq!(lsm.run_count(), 1);
            // The single surviving run's file equals a from-scratch build.
            let run_file = {
                let st = lsm.shared.state.lock();
                lsm.shared.dir.join(&st.runs[0].meta.file)
            };
            let lsm_bytes = std::fs::read(run_file).unwrap();
            let ref_dir = dir.path().join(format!("ref-{materialized}"));
            std::fs::create_dir_all(&ref_dir).unwrap();
            let reference =
                CoconutTree::build(ds.as_ref().unwrap(), &small_config(), &ref_dir, opts).unwrap();
            let ref_bytes = std::fs::read(reference.index_path()).unwrap();
            assert_eq!(lsm_bytes, ref_bytes, "materialized={materialized}");
        }
    }

    #[test]
    fn runs_straddling_position_256_store_positions_at_their_own_width() {
        // Run 0..256 stores 1-byte positions and run 256..400 2-byte ones;
        // the merge of both covers 0..400 and stores 2-byte positions. Every
        // layout answers exactly like a scan.
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        for materialized in [false, true] {
            let path = dir.path().join(format!("data-{materialized}.bin"));
            let mut gen = RandomWalkGen::new(256);
            let opts = BuildOptions {
                materialized,
                ..BuildOptions::default()
            };
            let idx_dir = dir.path().join(format!("idx-{materialized}"));
            let lsm = LsmCoconut::new(small_config(), opts.clone(), &idx_dir).unwrap();
            let mut all = Vec::new();
            let mut ds = None;
            for n in [256, 144] {
                let (d, grown) = grow_dataset(&path, &stats, &mut gen, &all, n);
                all = grown;
                lsm.ingest(&d).unwrap();
                ds = Some(d);
            }
            let widths = |lsm: &LsmCoconut| -> Vec<usize> {
                let snapshot = lsm.snapshot();
                let runs = snapshot.runs();
                runs.iter().map(|r| r.store.codec().pos_bytes()).collect()
            };
            let answers_exactly = |lsm: &LsmCoconut| {
                for seed in 0..6 {
                    // Members of either run, and random walks.
                    let q = match seed {
                        0 => all[255].clone(),
                        1 => all[256].clone(),
                        2 => all[399].clone(),
                        _ => query(600 + seed),
                    };
                    let mut want: Vec<(u64, f64)> = all
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (i as u64, euclidean(&q, s)))
                        .collect();
                    want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    let (top, _) = lsm.search(&q, &Query::knn(10)).unwrap();
                    let got: Vec<(u64, f64)> = top.iter().map(|a| (a.pos, a.dist)).collect();
                    assert_eq!(got, want[..10], "seed {seed}, materialized={materialized}");
                }
            };
            assert_eq!(widths(&lsm), [1, 2], "materialized={materialized}");
            answers_exactly(&lsm);
            lsm.compact().unwrap();
            assert_eq!(widths(&lsm), [2], "materialized={materialized}");
            answers_exactly(&lsm);
            drop(lsm);
            let reopened = LsmCoconut::open(&idx_dir, ds.as_ref().unwrap(), opts).unwrap();
            assert_eq!(widths(&reopened), [2], "materialized={materialized}");
            answers_exactly(&reopened);
        }
    }

    #[test]
    fn knn_and_range_merge_across_runs() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(21);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let mut all = Vec::new();
        for _ in 0..3 {
            let (ds, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 120);
            all = new_all;
            lsm.ingest(&ds).unwrap();
        }
        let q = query(7);
        // kNN: matches the brute-force top-k.
        let mut dists: Vec<(u64, f64)> = all
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, euclidean(&q, s)))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (top, stats_q) = lsm.search(&q, &Query::knn(5)).unwrap();
        assert_eq!(top.len(), 5);
        for (got, want) in top.iter().zip(dists.iter()) {
            assert_eq!(got.pos, want.0);
        }
        assert!(stats_q.pruned + stats_q.records_fetched >= all.len() as u64);
        // Range: every series within the 8th-nearest distance.
        let eps = dists[7].1;
        let (hits, _) = lsm.search(&q, &Query::range(eps)).unwrap();
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
    fn new_refuses_stale_directories_and_open_recovers() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(3);
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 200);
        {
            let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
            lsm.ingest(&ds).unwrap();
            lsm.wait_for_compactions().unwrap();
        }
        // The satellite fix: a fresh `new` over a stale index errors...
        let err = match LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir) {
            Ok(_) => panic!("new over a stale index must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("LsmCoconut::open"), "{err}");
        // ...while `open` recovers it with answers intact.
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.len(), 200);
        let q = query(17);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    /// A crash at each of the three manifest fault sites, armed on the
    /// instance, recovers to a consistent, oracle-exact prefix.
    #[test]
    fn kill_points_crash_then_open_recovers_consistently() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(9);
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 240);

        for (i, site) in ["manifest.before", "manifest.torn", "manifest.after"]
            .into_iter()
            .enumerate()
        {
            let idx_dir = dir.path().join(format!("idx-{i}"));
            let committed_end;
            {
                let lsm =
                    LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
                lsm.ingest_upto(&ds, 120).unwrap();
                lsm.wait_for_compactions().unwrap();
                committed_end = lsm.covered_end();
                // Crash while committing the second run (an instance plan,
                // so parallel tests are unaffected).
                let plan = FaultPlan::parse(&format!("{site}=err@1"), 0).unwrap();
                lsm.set_fault_plan(Some(Arc::new(plan)));
                let err = lsm.ingest_upto(&ds, 240).unwrap_err();
                assert!(matches!(err, Error::Io(_)), "{err}");
                assert!(err.to_string().contains(site), "{err}");
                // The instance is poisoned from here on — like a dead
                // process, everything else must go through recovery. In
                // particular the "failed" batch can never be silently
                // committed by a later call.
                let err = lsm.ingest_upto(&ds, 240).unwrap_err();
                assert!(err.to_string().contains("poisoned"), "{err}");
                assert!(lsm.compact().unwrap_err().to_string().contains("poisoned"));
            }
            let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
            // Before or torn, the commit never reached disk: the second run
            // is lost and recovery restores the first commit exactly. After
            // it, the commit is durable; only cleanup was skipped.
            let expect = if site == "manifest.after" {
                240
            } else {
                committed_end
            };
            assert_eq!(lsm.covered_end(), expect, "{site}");
            // No orphan run directories survive recovery, and no manifest
            // temp file either.
            let on_disk: Vec<String> = std::fs::read_dir(&idx_dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("run-"))
                .collect();
            assert_eq!(on_disk.len(), lsm.run_count(), "{site}: {on_disk:?}");
            assert!(!temp_path(&Manifest::path_in(&idx_dir)).exists());
            // Queries over the recovered prefix match the oracle.
            let covered = lsm.covered_end() as usize;
            let q = query(60 + i as u64);
            let (ans, _) = lsm.exact(&q).unwrap();
            assert_eq!(ans.pos, brute_force(&all[..covered], &q).pos, "{site}");
        }
    }

    #[test]
    fn snapshot_pins_run_set_and_covered_prefix_across_churn() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(51);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let (ds, all_1) = grow_dataset(&path, &stats, &mut gen, &[], 200);
        lsm.ingest(&ds).unwrap();

        let snap = lsm.snapshot();
        assert_eq!(snap.covered_end(), 200);
        let pinned_seq = snap.seq();

        // Churn after the pin: more ingest and a full compaction.
        let (ds, all_2) = grow_dataset(&path, &stats, &mut gen, &all_1, 200);
        lsm.ingest(&ds).unwrap();
        lsm.compact().unwrap();
        assert_eq!(lsm.covered_end(), 400);

        // The pinned snapshot still answers over exactly its 200-prefix.
        let q = query(23);
        let (ans, _) = snap.exact(&q, Deadline::NONE).unwrap();
        assert_eq!(ans.pos, brute_force(&all_1, &q).pos);
        assert_eq!(snap.covered_end(), 200);
        assert_eq!(snap.seq(), pinned_seq);

        // A fresh snapshot sees the full 400.
        let snap2 = lsm.snapshot();
        let (ans, _) = snap2.exact(&q, Deadline::NONE).unwrap();
        assert_eq!(ans.pos, brute_force(&all_2, &q).pos);
        assert!(snap2.seq() > pinned_seq);
    }

    #[test]
    fn gc_defers_run_deletion_until_snapshot_drops() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(61);
        let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
        let mut all = Vec::new();
        for _ in 0..3 {
            let (ds, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 80);
            all = new_all;
            lsm.ingest(&ds).unwrap();
        }
        lsm.wait_for_compactions().unwrap();
        let run_dirs = |d: &std::path::Path| {
            std::fs::read_dir(d)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with("run-")
                })
                .count()
        };
        let before = run_dirs(&idx_dir);
        assert!(before >= 2, "need multiple runs to compact, got {before}");

        // Pin, then compact everything: the pinned runs' directories must
        // survive as long as the snapshot does.
        let snap = lsm.snapshot();
        let pinned_runs = snap.run_count();
        lsm.compact().unwrap();
        assert_eq!(lsm.run_count(), 1);
        assert_eq!(lsm.pinned_garbage(), pinned_runs);
        assert_eq!(run_dirs(&idx_dir), before + 1, "old dirs + the merged run");

        // The pinned snapshot still reads the retired runs.
        let q = query(31);
        let (ans, _) = snap.exact(&q, Deadline::NONE).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);

        // Dropping the snapshot sweeps them.
        drop(snap);
        assert_eq!(lsm.pinned_garbage(), 0);
        assert_eq!(run_dirs(&idx_dir), 1);
        assert_eq!(lsm.collect_garbage(), 0, "nothing left to sweep");
    }

    #[test]
    fn expired_deadline_fails_snapshot_queries_with_typed_error() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(71);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let (ds, _) = grow_dataset(&path, &stats, &mut gen, &[], 150);
        lsm.ingest(&ds).unwrap();
        let snap = lsm.snapshot();
        let q = query(3);
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(snap.exact(&q, expired).unwrap_err().is_deadline());
        assert!(snap.exact_knn(&q, 3, expired).unwrap_err().is_deadline());
        let range = Query {
            deadline: expired,
            ..Query::range(1.0)
        };
        assert!(snap.search(&q, &range).unwrap_err().is_deadline());
        // And an unexpired one leaves answers intact.
        let far = Deadline::after(std::time::Duration::from_secs(3600));
        let (a1, _) = snap.exact(&q, far).unwrap();
        let (a2, _) = snap.exact(&q, Deadline::NONE).unwrap();
        assert_eq!(a1.pos, a2.pos);
    }

    #[test]
    fn compaction_debt_shrinks_after_compaction() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(81);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let mut all = Vec::new();
        for _ in 0..3 {
            let (ds, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 70);
            all = new_all;
            lsm.ingest(&ds).unwrap();
        }
        lsm.wait_for_compactions().unwrap();
        if lsm.run_count() > 1 {
            assert!(lsm.compaction_debt() > 0);
        }
        lsm.compact().unwrap();
        assert_eq!(lsm.run_count(), 1);
        assert_eq!(lsm.compaction_debt(), 0);
    }

    /// Ingest three batches without compaction so three runs stay live.
    fn three_run_index(dir: &TempDir, seed: u64) -> (std::path::PathBuf, Dataset, Vec<Vec<Value>>) {
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(seed);
        let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
        lsm.set_max_runs(100); // no compaction: keep all three runs
        let mut all = Vec::new();
        let mut ds = None;
        for _ in 0..3 {
            let (d, new_all) = grow_dataset(&path, &stats, &mut gen, &all, 80);
            all = new_all;
            lsm.ingest(&d).unwrap();
            ds = Some(d);
        }
        lsm.wait_for_compactions().unwrap();
        assert_eq!(lsm.run_count(), 3);
        (idx_dir, ds.unwrap(), all)
    }

    #[test]
    fn corrupt_run_is_quarantined_on_open_and_prefix_serves() {
        let dir = TempDir::new("lsm").unwrap();
        let (idx_dir, ds, all) = three_run_index(&dir, 101);
        // Corrupt the middle run's index file header region.
        let manifest = Manifest::load(&idx_dir).unwrap();
        assert_eq!(manifest.runs.len(), 3);
        let victim = &manifest.runs[1];
        let victim_start = victim.start;
        let victim_file = idx_dir.join(&victim.file);
        let bytes = std::fs::read(&victim_file).unwrap();
        let mut broken = bytes.clone();
        broken[8] ^= 0xFF; // header payload byte -> header CRC mismatch
        std::fs::write(&victim_file, &broken).unwrap();

        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        // Runs 1 and 2 are gone; the index serves the reduced prefix.
        assert_eq!(lsm.run_count(), 1);
        assert_eq!(lsm.covered_end(), victim_start);
        let q = query(55);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all[..victim_start as usize], &q).pos);
        // The evicted runs sit in quarantine/ with reason files.
        let qdir = idx_dir.join(QUARANTINE_DIR);
        let mut names: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 4, "2 run dirs + 2 reason files: {names:?}");
        assert!(names.iter().any(|n| n.ends_with(".reason")));
        // Reopen works without further quarantine (manifest was reduced).
        drop(lsm);
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.covered_end(), victim_start);
        // And ingest resumes from the reduced prefix.
        lsm.ingest(&ds).unwrap();
        assert_eq!(lsm.covered_end(), all.len() as u64);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    #[test]
    fn merge_skips_a_window_that_quarantine_evicted() {
        let dir = TempDir::new("lsm").unwrap();
        let (idx_dir, ds, all) = three_run_index(&dir, 105);
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        let ids: Vec<u64> = Manifest::load(&idx_dir)
            .unwrap()
            .runs
            .iter()
            .map(|r| r.id)
            .collect();
        // A window planned over all three runs, whose last run is
        // quarantined before the merge starts: the merge is skipped.
        let new_end = lsm.quarantine_from(ids[2], "evicted by a test").unwrap();
        let next_run_id = lsm.shared.state.lock().next_run_id;
        compact_ids(&lsm.shared, &ids).unwrap();
        assert_eq!(lsm.run_count(), 2, "the stale window merged");
        assert_eq!(lsm.shared.state.lock().next_run_id, next_run_id);
        // The window that survived still merges.
        compact_ids(&lsm.shared, &ids[..2]).unwrap();
        assert_eq!(lsm.run_count(), 1);
        assert_eq!(lsm.covered_end(), new_end);
        let q = query(79);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all[..new_end as usize], &q).pos);
    }

    #[test]
    fn scrub_reports_bit_rot_and_quarantine_reduces_prefix() {
        let dir = TempDir::new("lsm").unwrap();
        let (idx_dir, ds, all) = three_run_index(&dir, 103);
        {
            let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
            let clean = lsm.scrub();
            assert_eq!(clean.len(), 3);
            assert!(clean.iter().all(|r| r.error.is_none()), "{clean:?}");
            assert!(clean.iter().all(|r| r.report.checked > 0), "{clean:?}");
        }
        // Flip one byte inside the last run's leaf region (bit rot the
        // header/directory checks cannot see).
        let manifest = Manifest::load(&idx_dir).unwrap();
        let victim = manifest.runs[2].clone();
        let victim_file = idx_dir.join(&victim.file);
        let mut bytes = std::fs::read(&victim_file).unwrap();
        bytes[crate::layout::LEAF_REGION_OFFSET as usize + 7] ^= 0x20;
        std::fs::write(&victim_file, &bytes).unwrap();

        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.run_count(), 3, "leaf rot is invisible to open");
        let outcomes = lsm.scrub();
        let bad: Vec<&RunScrub> = outcomes.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].id, victim.id);
        assert!(
            bad[0].error.as_deref().unwrap().contains("failed checksum"),
            "{:?}",
            bad[0].error
        );
        // Quarantine from the damaged run: the prefix keeps serving.
        let new_end = lsm
            .quarantine_from(victim.id, bad[0].error.as_deref().unwrap())
            .unwrap();
        assert_eq!(new_end, victim.start);
        assert_eq!(lsm.run_count(), 2);
        let q = query(77);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all[..new_end as usize], &q).pos);
        // Scrub is clean again.
        assert!(lsm.scrub().iter().all(|r| r.error.is_none()));
    }

    #[test]
    fn mid_compaction_crash_recovers_and_reingests() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let idx_dir = dir.path().join("idx");
        let mut gen = RandomWalkGen::new(29);
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 300);
        {
            let lsm = LsmCoconut::new(small_config(), BuildOptions::default(), &idx_dir).unwrap();
            for upto in [100, 200, 300] {
                lsm.ingest_upto(&ds, upto).unwrap();
            }
            lsm.wait_for_compactions().unwrap();
            // Crash inside the compaction's manifest commit.
            let plan = FaultPlan::parse("manifest.torn=err@1", 0).unwrap();
            lsm.set_fault_plan(Some(Arc::new(plan)));
            let err = lsm.compact().unwrap_err();
            assert!(err.to_string().contains("manifest.torn"), "{err}");
        }
        // Recovery: the pre-compaction run set answers exactly; the torn
        // temp and the half-built merged run are gone.
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.covered_end(), 300);
        let q = query(88);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
        let run_dirs = std::fs::read_dir(&idx_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("run-"))
            .count();
        assert_eq!(run_dirs, lsm.run_count());
        // And the recovered index keeps working: compact for real this time.
        lsm.compact().unwrap();
        assert_eq!(lsm.run_count(), 1);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    /// Claim and build `k` equal slices of `ds` concurrently-buildable
    /// runs, park every run *except* the chain head in the commit queue,
    /// then submit the head last — deterministically forcing one writer to
    /// become the group committer for the whole chain. Returns the built
    /// head run once all tails are parked.
    fn park_tail_runs(
        lsm: &LsmCoconut,
        ds: &Dataset,
        k: u64,
        slice: u64,
    ) -> (PendingRun, Vec<std::thread::JoinHandle<Result<()>>>) {
        let claims: Vec<Claim> = (0..k)
            .map(|i| {
                claim_range(&lsm.shared, ds, (i + 1) * slice, slice)
                    .unwrap()
                    .unwrap()
            })
            .collect();
        let mut head = None;
        let mut tails = Vec::new();
        for claim in claims {
            let run = build_run(&lsm.shared, ds, &claim).unwrap();
            if run.meta.start == 0 {
                head = Some(run);
                continue;
            }
            let shared = Arc::clone(&lsm.shared);
            tails.push(std::thread::spawn(move || submit_and_wait(&shared, run)));
        }
        // Wait until every tail run is parked awaiting the chain head.
        loop {
            if lsm.shared.ingest.lock().done.len() == (k - 1) as usize {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (head.unwrap(), tails)
    }

    #[test]
    fn group_commit_folds_concurrent_runs_into_one_manifest_commit() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(9);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 200);

        const K: u64 = 4;
        let seq_before = lsm.snapshot().seq();
        let (head, tails) = park_tail_runs(&lsm, &ds, K, 50);
        // The head run completes the chain: whoever wakes first folds all
        // K runs into ONE atomic manifest commit.
        submit_and_wait(&lsm.shared, head).unwrap();
        for t in tails {
            t.join().unwrap().unwrap();
        }

        let ws = lsm.write_stats();
        assert_eq!(ws.ingest_commits, 1, "one fsync for the whole group");
        assert_eq!(ws.runs_committed, K, "all runs landed in that commit");
        assert_eq!(ws.entries_ingested, 200);
        assert_eq!(
            lsm.snapshot().seq(),
            seq_before + 1,
            "one seq bump for the fold"
        );
        assert_eq!(lsm.len(), 200);
        let q = query(4242);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);

        // A reopen sees exactly the folded state: the group was atomic.
        drop(lsm);
        let lsm = LsmCoconut::open(dir.path().join("i"), &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.covered_end(), 200);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    /// Regression (ISSUE 10): `TieredPolicy::with_max_runs` read-amp cap
    /// must be re-checked after a group commit lands K runs in a single
    /// manifest commit — the planner only ever saw one new run per commit
    /// before group commit existed.
    #[test]
    fn max_runs_cap_recovers_after_k_run_group_commit() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(17);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        lsm.set_max_runs(3);
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 250);

        const K: u64 = 5;
        let (head, tails) = park_tail_runs(&lsm, &ds, K, 50);
        submit_and_wait(&lsm.shared, head).unwrap();
        for t in tails {
            t.join().unwrap().unwrap();
        }
        assert_eq!(lsm.write_stats().ingest_commits, 1);
        assert_eq!(lsm.run_count(), K as usize, "group landed K runs at once");

        // The compaction thread must notice the K-run pile-up and compact
        // it back under the cap (the sync job itself re-plans on arrival).
        lsm.wait_for_compactions().unwrap();
        assert!(
            lsm.run_count() <= 3,
            "{} runs still live after a K-run group commit",
            lsm.run_count()
        );
        let q = query(71);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    #[test]
    fn concurrent_writers_cover_contiguously_and_answer_exactly() {
        let dir = TempDir::new("lsm").unwrap();
        let stats = Arc::new(IoStats::new());
        let path = dir.path().join("data.bin");
        let mut gen = RandomWalkGen::new(23);
        let lsm = LsmCoconut::new(
            small_config(),
            BuildOptions::default(),
            dir.path().join("i"),
        )
        .unwrap();
        let (ds, all) = grow_dataset(&path, &stats, &mut gen, &[], 240);

        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let w = lsm.writer();
                    while w.ingest_next(&ds, 40).unwrap().is_some() {}
                });
            }
        });

        assert_eq!(lsm.len(), 240);
        assert_eq!(lsm.covered_end(), 240);
        let ws = lsm.write_stats();
        assert_eq!(ws.entries_ingested, 240, "every entry acknowledged once");
        assert!(
            ws.ingest_commits <= ws.runs_committed,
            "group commit can only fold, never split"
        );
        for seed in [301, 302, 303] {
            let q = query(seed);
            let (ans, _) = lsm.exact(&q).unwrap();
            assert_eq!(ans.pos, brute_force(&all, &q).pos, "seed {seed}");
        }
        // Full compaction after concurrent ingest still collapses to the
        // single-run, bit-identical-to-bulk-load shape.
        lsm.compact().unwrap();
        assert_eq!(lsm.run_count(), 1);
        let q = query(304);
        let (ans, _) = lsm.exact(&q).unwrap();
        assert_eq!(ans.pos, brute_force(&all, &q).pos);
    }

    #[test]
    fn leveled_manifest_is_refused_at_open() {
        let dir = TempDir::new("lsm").unwrap();
        let (idx_dir, ds, _) = three_run_index(&dir, 107);
        // Rewrite the manifest as an index grown under the removed leveled
        // policy left it: compaction byte 1 (after the 28-byte header and
        // 51 payload bytes), checksum intact.
        let path = Manifest::path_in(&idx_dir);
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[28 + 51], 0, "size-tiered is byte 0");
        bytes[28 + 51] = 1;
        let crc = coconut_storage::atomic::crc64(&bytes[28..]);
        bytes[20..28].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()) {
            Err(Error::InvalidArg(msg)) => assert!(msg.contains("leveled"), "{msg}"),
            other => panic!("{:?}", other.err()),
        }
        // Refused before recovery touches the directory.
        assert!(idx_dir.join(run_dir_name(0)).exists());
    }
}
