//! The traced run: per-layer numbers by timing public calls.
//!
//! This links the crates and drives every layer from one thread, a span
//! around each call into a layer's public function (layer = crate.module).
//! End-to-end numbers never come from here — they come from the real
//! binary with tracing off — and nothing inside the crates is instrumented
//! (that is a later change). The spans are written to
//! `benchmarks/out/trace-<workload>.jsonl` when the run ends.
//!
//! One invocation measures every layer, whatever the workload: the driver
//! wants each per-layer metric from each workload. The workload names the
//! trace file and picks the self-time account printed at the end.

use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::builder::sorted_key_pos;
use coconut_core::compaction::{CompactionPolicy, CompactionPolicyKind};
use coconut_core::records::{KeyPos, KeyPosCodec, KeySeries, KeySeriesCodec};
use coconut_core::shard::sorted_key_pos_sharded;
use coconut_core::sims::parallel_mindists;
use coconut_core::{
    BuildOptions, CoconutTree, CoconutTrie, Deadline, IndexConfig, LocalShard, LsmCoconut, ShardSet,
};
use coconut_series::dataset::Dataset;
use coconut_series::distance::euclidean_sq_early_abandon;
use coconut_series::index::QueryStats;
use coconut_server::protocol::{parse, QuerySpec, Request};
use coconut_server::{ClientConfig, CoordinatorEngine, Engine, Server, ServerConfig};
use coconut_storage::{atomic_write, ExternalSorter, IoStats, RecordStream, SortReport};
use coconut_summary::sax::Summarizer;
use coconut_summary::{QueryDistTable, ZKey};

use crate::client::Conn;
use crate::common::{Env, Measured, LEAF, MEMORY_MB, WORKERS};
use crate::proc::{self, Proc};
use crate::sched::{Class, Op, Schedule, KNN_K};
use crate::stats;
use crate::trace::Tracer;

fn s<T>(r: coconut_storage::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Run `f` inside a span; return its value and its seconds.
fn timed<T>(tr: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = tr.span(name);
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Time `a` and `b` on the same request in the order a b b a and return
/// each side's mean seconds. Whichever runs second finds the request's
/// candidates cached, so each side takes both places once and the
/// difference of the means is free of that bias.
fn paired<E>(
    mut a: impl FnMut() -> Result<f64, E>,
    mut b: impl FnMut() -> Result<f64, E>,
) -> Result<(f64, f64), E> {
    let (a1, b1, b2, a2) = (a()?, b()?, b()?, a()?);
    Ok(((a1 + a2) / 2.0, (b1 + b2) / 2.0))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A pre-sorted in-memory record stream: what a bulk loader sees once the
/// sort is done.
struct VecStream {
    items: std::vec::IntoIter<KeyPos>,
    report: SortReport,
}

impl RecordStream for VecStream {
    type Item = KeyPos;

    fn next_item(&mut self) -> coconut_storage::Result<Option<KeyPos>> {
        Ok(self.items.next())
    }

    fn report(&self) -> SortReport {
        self.report
    }
}

/// Keeps every run, so read amplification can be measured run by run.
struct NeverMerge;

impl CompactionPolicy for NeverMerge {
    fn name(&self) -> &'static str {
        "never"
    }

    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::Tiered
    }

    fn plan(&self, _run_entries: &[u64]) -> Option<Range<usize>> {
        None
    }
}

fn drain<S: RecordStream>(stream: &mut S) -> coconut_storage::Result<u64> {
    let mut count = 0;
    while let Some(item) = stream.next_item()? {
        black_box(&item);
        count += 1;
    }
    Ok(count)
}

/// What the build-side sections hand to the query-side ones.
struct Built {
    /// `keys[i]` is the sortable summarization of series `i`.
    keys: Vec<ZKey>,
    tree: CoconutTree,
}

/// What every section of the traced run works with.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    env: &'a Env,
    tr: &'a Tracer,
    ds: &'a Dataset,
    io: &'a Arc<IoStats>,
    cfg: &'a IndexConfig,
    opts: &'a BuildOptions,
    /// The far / near / KNN requests every query-side section replays.
    ops: &'a [Op],
}

pub fn run(env: &Env, workload: &str) -> Result<Measured, String> {
    let p = &env.params;
    let tr = Tracer::new();
    let mut m = Measured::default();
    let io = Arc::new(IoStats::new());
    let ds = s(Dataset::open(&env.data, Arc::clone(&io)))?;
    let cfg = IndexConfig {
        leaf_capacity: LEAF,
        ..IndexConfig::default_for_len(p.len)
    };
    // Single-sorter builds: with one worker the I/O counts repeat exactly.
    let opts = BuildOptions {
        memory_bytes: MEMORY_MB << 20,
        materialized: false,
        threads: WORKERS,
        shards: 1,
    };
    m.put(
        "series.simd.dispatch",
        f64::from(u8::from(coconut_series::simd::active().name() == "avx2")),
        1,
    );

    let ops = request_ops(env);
    let cx = Ctx {
        env,
        tr: &tr,
        ds: &ds,
        io: &io,
        cfg: &cfg,
        opts: &opts,
        ops: &ops,
    };
    let root = tr.span("workload");
    let built = build_side(cx, &mut m)?;
    let lsm = query_side(cx, &mut m, &built)?;
    lsm_side(cx, &mut m)?;
    server_side(cx, &mut m, &lsm)?;
    drop(root);

    // Every span is one call into a layer; a call that fails ends the run.
    m.attempted = tr.len() as u64;
    m.put("trace.spans_recorded", tr.len() as f64, tr.len());
    let out = Path::new("benchmarks/out").join(format!("trace-{workload}.jsonl"));
    tr.flush(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    m.note(format!("{} spans written to {}", tr.len(), out.display()));
    account(&mut m, workload);
    Ok(m)
}

fn request_ops(env: &Env) -> Vec<Op> {
    let p = &env.params;
    let count = if p.quick { 16 } else { 48 };
    let mut sched = Schedule::new(p.seed, 0, p.len, p.n);
    (0..count).map(|_| sched.next_op()).collect()
}

/// series / summary / storage / core build path: scan, summarize, external
/// sort, bulk load — each alone, then the whole `CoconutTree::build`.
fn build_side(cx: Ctx, m: &mut Measured) -> Result<Built, String> {
    let Ctx {
        env,
        tr,
        ds,
        io,
        cfg,
        opts,
        ..
    } = cx;
    let p = &env.params;
    let n = p.n;
    let tmp = env.scratch.fresh("layers-tmp")?;
    let memory = opts.memory_bytes;

    // Two passes over the raw file, as the builder reads it: the scan alone,
    // then scan + summarize. `zkey` cannot be timed per call (a million
    // spans), so its cost is the difference between the passes.
    let (res, scan_s) = timed(
        tr,
        "series.dataset.scan_range",
        || -> coconut_storage::Result<()> {
            let mut scan = ds.scan_range(0..n);
            while let Some((_, series)) = scan.next_series()? {
                black_box(series);
            }
            Ok(())
        },
    );
    s(res)?;
    let mut keys: Vec<ZKey> = Vec::with_capacity(n as usize);
    let mut summarizer = Summarizer::new(cfg.sax);
    let (res, both_s) = timed(
        tr,
        "summary.sax.zkey_over_scan",
        || -> coconut_storage::Result<()> {
            let mut scan = ds.scan_range(0..n);
            while let Some((_, series)) = scan.next_series()? {
                keys.push(summarizer.zkey(series));
            }
            Ok(())
        },
    );
    s(res)?;
    let zkey_s = (both_s - scan_s).max(0.0);
    m.put(
        "series.dataset.scan_mb_per_s",
        ds.payload_bytes() as f64 / 1e6 / scan_s,
        1,
    );
    m.put(
        "summary.zkey_ns_per_series",
        zkey_s * 1e9 / n as f64,
        n as usize,
    );

    // External sort of (key, pos) records under the build budget.
    let (res, sort_s) = timed(
        tr,
        "storage.extsort.keypos",
        || -> coconut_storage::Result<(Vec<KeyPos>, SortReport)> {
            let mut sorter = ExternalSorter::new(KeyPosCodec, memory, &tmp, Arc::clone(io))?;
            for (pos, &key) in keys.iter().enumerate() {
                sorter.push(KeyPos {
                    key,
                    pos: pos as u64,
                })?;
            }
            let mut stream = sorter.finish()?;
            let report = stream.report();
            let mut out = Vec::with_capacity(keys.len());
            while let Some(r) = stream.next_item()? {
                out.push(r);
            }
            Ok((out, report))
        },
    );
    let (sorted, report) = s(res)?;
    m.put("storage.extsort.keypos_records_per_s", n as f64 / sort_s, 1);
    m.put("storage.extsort.runs_spilled", report.runs as f64, 1);

    // External sort of whole records: the materialized build's cost.
    let part = (n / 8).max(1);
    let (res, full_s) = timed(
        tr,
        "storage.extsort.full",
        || -> coconut_storage::Result<u64> {
            let mut sorter =
                ExternalSorter::new(KeySeriesCodec::new(p.len), memory, &tmp, Arc::clone(io))?;
            let mut scan = ds.scan_range(0..part);
            while let Some((pos, series)) = scan.next_series()? {
                sorter.push(KeySeries {
                    key: keys[pos as usize],
                    pos,
                    series: series.to_vec(),
                })?;
            }
            drain(&mut sorter.finish()?)
        },
    );
    s(res)?;
    m.put(
        "storage.extsort.full_mb_per_s",
        (part * p.len as u64 * 4) as f64 / 1e6 / full_s,
        1,
    );

    // The crate's own scan -> summarize -> sort pipeline, one sorter and two.
    let (res, skp_s) = timed(tr, "core.builder.sorted_key_pos", || {
        sorted_key_pos(ds, 0..n, &cfg.sax, memory, &tmp, io).and_then(|mut st| drain(&mut st))
    });
    s(res)?;
    m.put("core.builder.sorted_key_pos_s", skp_s, 1);
    let mut sharded_s = [0.0; 2];
    for (slot, k) in sharded_s.iter_mut().zip([1, 2]) {
        let (res, secs) = timed(tr, "core.shard.sorted_key_pos_sharded", || {
            sorted_key_pos_sharded(ds, 0..n, &cfg.sax, memory, &tmp, io, k)
                .and_then(|mut st| drain(&mut st))
        });
        s(res)?;
        *slot = secs;
    }
    m.put("core.shard.speedup_k2", sharded_s[0] / sharded_s[1], 1);

    // Bulk load alone, from the pre-sorted stream.
    let bulk_dir = env.scratch.fresh("layers-bulk")?;
    let mut stream = VecStream {
        items: sorted.into_iter(),
        report,
    };
    let (res, bulk_s) = timed(tr, "core.tree.build_range_from_stream", || {
        CoconutTree::build_range_from_stream(ds, 0..n, cfg, &bulk_dir, opts.clone(), &mut stream)
    });
    drop(s(res)?);
    m.put("core.tree.bulk_load_s", bulk_s, 1);

    // The whole build, with its exact I/O.
    let tree_dir = env.scratch.fresh("layers-tree")?;
    let before = io.snapshot();
    let (res, build_s) = timed(tr, "core.tree.build", || {
        CoconutTree::build(ds, cfg, &tree_dir, opts.clone())
    });
    let tree = s(res)?;
    let delta = io.snapshot().since(&before);
    m.put("core.tree.build_s", build_s, 1);
    m.put("core.tree.avg_fill", tree.avg_fill(), 1);
    m.put(
        "storage.io.build_bytes_read_per_series",
        delta.bytes_read as f64 / n as f64,
        1,
    );
    m.put(
        "storage.io.build_bytes_written_per_series",
        delta.bytes_written as f64 / n as f64,
        1,
    );
    m.put(
        "storage.io.build_rand_ops",
        (delta.rand_reads + delta.rand_writes) as f64,
        1,
    );
    m.put(
        "trace.build.explained_share",
        (scan_s + zkey_s + sort_s + bulk_s) / build_s,
        1,
    );

    // The trie sorts the same records, then carves prefix leaves: its bulk
    // load is its build minus the shared pipeline (it has no stream entry).
    let trie_dir = env.scratch.fresh("layers-trie")?;
    let (res, trie_s) = timed(tr, "core.trie.build", || {
        CoconutTrie::build(ds, cfg, &trie_dir, opts.clone())
    });
    let trie = s(res)?;
    m.put("core.trie.bulk_load_s", trie_s - skp_s, 1);
    m.put("core.trie.avg_fill", trie.avg_fill(), 1);
    drop(trie);

    // Open: what every `coconut query` pays before it can answer — the
    // directory, then the summaries loaded by the first exact search.
    let probe = crate::datagen::far_query(p.seed, u64::MAX, p.len);
    let path = tree.index_path().to_path_buf();
    let (res, cold_s) = timed(tr, "core.tree.open", || {
        CoconutTree::open(&path, ds, WORKERS).and_then(|t| t.exact_search(&probe).map(|_| t))
    });
    let opened = s(res)?;
    let (res, warm_s) = timed(tr, "core.tree.exact_search", || opened.exact_search(&probe));
    s(res)?;
    m.put("core.tree.open_s", cold_s - warm_s, 1);

    // A manifest-sized atomic replace (write temp, fsync, rename, fsync dir).
    let target = tmp.join("manifest.bin");
    let payload = vec![0x5Au8; 4096];
    let mut replace_us = Vec::new();
    for _ in 0..if p.quick { 11 } else { 51 } {
        let (res, secs) = timed(tr, "storage.atomic.atomic_write", || {
            atomic_write(&target, &payload)
        });
        s(res)?;
        replace_us.push(secs * 1e6);
    }
    m.put(
        "storage.atomic.replace_us",
        stats::median(&replace_us),
        replace_us.len(),
    );
    Ok(Built { keys, tree })
}

/// The read path over one fully ingested run: pin, approximate, MINDIST
/// scan, raw fetch, true distance, exact and k-NN — each alone.
fn query_side(cx: Ctx, m: &mut Measured, built: &Built) -> Result<Arc<LsmCoconut>, String> {
    let Ctx {
        env,
        tr,
        ds,
        io,
        cfg,
        opts,
        ops,
    } = cx;
    let p = &env.params;
    let dir = env.scratch.fresh("layers-lsm")?;
    let lsm = Arc::new(s(LsmCoconut::create(
        *cfg,
        opts.clone(),
        &dir,
        0,
        CompactionPolicyKind::default(),
    ))?);
    s(timed(tr, "core.lsm.ingest_upto", || lsm.ingest_upto(ds, p.n)).0)?;

    let mut summarizer = Summarizer::new(cfg.sax);
    let (mut pin_us, mut approx_us, mut exact_us, mut knn_us) = (vec![], vec![], vec![], vec![]);
    let (mut scan_ns, mut par_us, mut fetch_us, mut ed_ns) = (vec![], vec![], vec![], vec![]);
    let mut far_stats = QueryStats::default();
    let mut approx_records = 0u64;
    let mut far_count = 0u64;
    let mut mindists = vec![0.0f64; built.keys.len()];
    let before = io.snapshot();
    for op in ops {
        tr.next_request();
        let (snap, secs) = timed(tr, "core.lsm.snapshot", || lsm.snapshot());
        pin_us.push(secs * 1e6);
        if op.class == Class::Knn {
            let (res, secs) = timed(tr, "core.snapshot.exact_knn", || {
                snap.exact_knn(&op.query, KNN_K, Deadline::NONE)
            });
            s(res)?;
            knn_us.push(secs * 1e6);
            continue;
        }
        let (res, secs) = timed(tr, "core.snapshot.approximate", || {
            snap.approximate(&op.query)
        });
        let bsf = s(res)?;
        approx_us.push(secs * 1e6);
        let (res, secs) = timed(tr, "core.snapshot.exact", || {
            snap.exact(&op.query, Deadline::NONE)
        });
        let (_, qstats) = s(res)?;
        if op.class != Class::Far {
            continue;
        }
        exact_us.push(secs * 1e6);
        far_stats.add(&qstats);
        far_count += 1;
        approx_records += s(built.tree.approximate_search_with_stats(&op.query, 1))?
            .1
            .records_fetched;

        // The scan alone: every key's lower bound, one thread then two.
        let paa = summarizer.paa(&op.query).to_vec();
        let table = QueryDistTable::new(&paa, &cfg.sax);
        let ((), secs) = timed(tr, "summary.mindist.mindist_batch_into", || {
            table.mindist_batch_into(&built.keys, &mut mindists)
        });
        scan_ns.push(secs * 1e9 / built.keys.len() as f64);
        let (par, secs) = timed(tr, "core.sims.parallel_mindists", || {
            parallel_mindists(&paa, &built.keys, &cfg.sax, WORKERS)
        });
        black_box(par);
        par_us.push(secs * 1e6);

        // Raw fetch and true distance over a real skip-sequential candidate
        // list: every position the approximate answer cannot prune.
        let cands: Vec<u64> = (0..built.keys.len() as u64)
            .filter(|&i| mindists[i as usize] < bsf.dist)
            .take(20_000)
            .collect();
        if cands.is_empty() {
            continue;
        }
        let mut raw = vec![0.0f32; cands.len() * p.len];
        let (res, secs) = timed(
            tr,
            "series.dataset.read_into",
            || -> coconut_storage::Result<()> {
                for (pos, out) in cands.iter().zip(raw.chunks_exact_mut(p.len)) {
                    ds.read_into(*pos, out)?;
                }
                Ok(())
            },
        );
        s(res)?;
        fetch_us.push(secs * 1e6 / cands.len() as f64);
        let cutoff = bsf.dist * bsf.dist;
        let ((), secs) = timed(tr, "series.distance.early_abandon", || {
            for series in raw.chunks_exact(p.len) {
                black_box(euclidean_sq_early_abandon(&op.query, series, cutoff));
            }
        });
        ed_ns.push(secs * 1e9 / cands.len() as f64);
    }
    let delta = io.snapshot().since(&before);
    if exact_us.is_empty() || knn_us.is_empty() || fetch_us.is_empty() {
        return Err("the request sample has no far or KNN query to trace".into());
    }
    m.put(
        "core.lsm.snapshot_pin_us",
        stats::median(&pin_us),
        pin_us.len(),
    );
    m.put("core.approx_us", stats::median(&approx_us), approx_us.len());
    m.put("core.exact_us", stats::median(&exact_us), exact_us.len());
    m.put("core.knn_us", stats::median(&knn_us), knn_us.len());
    m.put(
        "summary.mindist.scan_ns_per_key",
        stats::median(&scan_ns),
        scan_ns.len(),
    );
    m.put(
        "core.sims.parallel_mindists_us",
        stats::median(&par_us),
        par_us.len(),
    );
    m.put(
        "series.dataset.raw_fetch_us_per_record",
        stats::median(&fetch_us),
        fetch_us.len(),
    );
    m.put(
        "series.distance.ed_ns_per_series",
        stats::median(&ed_ns),
        ed_ns.len(),
    );
    let far = far_count as usize;
    m.put(
        "core.exact.records_fetched",
        far_stats.records_fetched as f64,
        far,
    );
    m.put(
        "core.exact.leaves_visited",
        far_stats.leaves_visited as f64,
        far,
    );
    m.put(
        "core.exact.pruned_share",
        far_stats.pruned as f64 / far_stats.lower_bounds.max(1) as f64,
        far,
    );
    m.put(
        "storage.io.query_bytes_read",
        delta.bytes_read as f64,
        ops.len(),
    );
    m.put(
        "storage.io.query_rand_reads",
        delta.rand_reads as f64,
        ops.len(),
    );
    // Records the scan phase fetched per far query, beyond the approximate
    // answer's leaves: what raw fetch and true distance are charged for.
    let sims_records =
        far_stats.records_fetched.saturating_sub(approx_records) as f64 / far_count as f64;
    m.put("sims_records_per_far_query", sims_records, far);
    Ok(lsm)
}

/// The write path: ingest in batches under the default policy, then merge
/// everything; and what each extra live run costs a query.
fn lsm_side(cx: Ctx, m: &mut Measured) -> Result<(), String> {
    let Ctx {
        env,
        tr,
        ds,
        cfg,
        opts,
        ops,
        ..
    } = cx;
    let p = &env.params;
    let n = p.n;
    let dir = env.scratch.fresh("layers-stream")?;
    let lsm = s(LsmCoconut::create(
        *cfg,
        opts.clone(),
        &dir,
        0,
        CompactionPolicyKind::default(),
    ))?;
    let batches: u64 = if p.quick { 20 } else { 40 };
    let mut batch_ms = Vec::new();
    let mut run_max = 0;
    for b in 1..=batches {
        let (res, secs) = timed(tr, "core.lsm.ingest_upto", || {
            lsm.ingest_upto(ds, n * b / batches)
        });
        s(res)?;
        batch_ms.push(secs * 1e3);
        run_max = run_max.max(lsm.run_count());
    }
    s(lsm.wait_for_compactions())?;
    m.put(
        "core.lsm.ingest_batch_ms",
        stats::median(&batch_ms),
        batch_ms.len(),
    );
    m.put("core.lsm.run_count_max", run_max as f64, batch_ms.len());
    m.put("core.lsm.write_amp", lsm.write_amplification(), 1);
    m.put("core.lsm.space_amp", lsm.space_amplification(), 1);
    lsm.collect_garbage();
    let merged_bytes = proc::dir_bytes(&dir);
    let (res, compact_s) = timed(tr, "core.lsm.compact", || lsm.compact());
    s(res)?;
    m.put("core.lsm.compact_s", compact_s, 1);
    m.put(
        "core.lsm.merge_mb_per_s",
        merged_bytes as f64 / 1e6 / compact_s,
        1,
    );
    drop(lsm);

    // Read amplification: the same far queries over one to six live runs.
    let dir = env.scratch.fresh("layers-runs")?;
    let lsm = s(LsmCoconut::create(
        *cfg,
        opts.clone(),
        &dir,
        0,
        CompactionPolicyKind::default(),
    ))?;
    lsm.set_policy(Box::new(NeverMerge));
    let far: Vec<&Op> = ops
        .iter()
        .filter(|o| o.class == Class::Far)
        .take(8)
        .collect();
    let (mut runs, mut us) = (Vec::new(), Vec::new());
    for r in 1..=6u64 {
        s(lsm.ingest_upto(ds, n * r / 6))?;
        s(lsm.wait_for_compactions())?;
        let snap = lsm.snapshot();
        let mut sample = Vec::new();
        for op in &far {
            let (res, secs) = timed(tr, "core.snapshot.exact", || {
                snap.exact(&op.query, Deadline::NONE)
            });
            s(res)?;
            sample.push(secs * 1e6);
        }
        runs.push(snap.run_count() as f64);
        us.push(mean(&sample));
    }
    if runs != [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
        return Err(format!("expected one to six live runs, saw {runs:?}"));
    }
    // Each step also adds a sixth of the data; a single run grown the same
    // way would pay only the scan of those keys, which this slope includes.
    m.put(
        "core.lsm.exact_us_per_extra_run",
        stats::slope(&runs, &us),
        runs.len() * far.len(),
    );
    Ok(())
}

/// A shard worker served from a thread of this process.
fn shard_server(
    ds: &Dataset,
    dir: &Path,
    cfg: &IndexConfig,
    opts: &BuildOptions,
) -> Result<Server, String> {
    let engine = Arc::new(Engine::new_shard(
        ds.clone(),
        dir,
        *cfg,
        opts.clone(),
        None,
        None,
    ));
    s(Server::start(
        engine,
        &ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    ))
}

/// Protocol, engine, socket and coordinator, on the same far requests.
fn server_side(cx: Ctx, m: &mut Measured, lsm: &Arc<LsmCoconut>) -> Result<(), String> {
    let Ctx {
        env,
        tr,
        ds,
        cfg,
        opts,
        ops,
        ..
    } = cx;
    let p = &env.params;
    let far: Vec<&Op> = ops.iter().filter(|o| o.class == Class::Far).collect();
    let lines: Vec<String> = far.iter().map(|o| o.line()).collect();
    let engine = Arc::new(Engine::new(Arc::clone(lsm), ds.clone(), None));

    // Parse alone (a 2.5 KB `q=v:` line at full scale).
    let mut parse_us = Vec::new();
    for line in &lines {
        let (res, secs) = timed(tr, "server.protocol.parse", || parse(line));
        res.map_err(|e| e.to_string())?;
        parse_us.push(secs * 1e6);
    }
    m.put(
        "server.protocol.parse_us",
        stats::median(&parse_us),
        parse_us.len(),
    );

    // The engine's whole request (parse + pin + search + encode, no socket)
    // and the same line over one idle loopback connection to a server in
    // this process, paired per request: the difference is what pool,
    // admission and TCP add.
    let server = s(Server::start(
        Arc::clone(&engine),
        &ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    ))?;
    let mut conn = Conn::connect(&server.addr().to_string(), Duration::from_secs(5))?;
    let (mut execute_us, mut wire_us) = (Vec::new(), Vec::new());
    for line in &lines {
        tr.next_request();
        let (direct, socket) = paired(
            || {
                let (out, secs) = timed(tr, "server.engine.execute_line", || {
                    engine.execute_line(line)
                });
                if out.reply.starts_with("OK exact") {
                    Ok(secs)
                } else {
                    Err(format!("engine answered: {}", out.reply))
                }
            },
            || {
                let (reply, secs) = timed(tr, "server.socket.request", || conn.request(line));
                match reply? {
                    r if r.starts_with("OK exact") => Ok(secs),
                    r => Err(format!("server answered: {r}")),
                }
            },
        )?;
        execute_us.push(direct * 1e6);
        wire_us.push((socket - direct) * 1e6);
    }
    m.put(
        "server.engine.execute_us",
        stats::median(&execute_us),
        execute_us.len(),
    );
    m.put("server.wire_us", stats::median(&wire_us), wire_us.len());
    drop(conn);
    drop(server);
    let mut rejected = engine.metrics().rejected.get();

    // The same request taken apart with public calls, so each step gets a
    // span and the request span's self time is resolve + encode. Run once
    // with the recorder off, once on: the difference is tracing overhead.
    let mirror = |tr: &Tracer, line: &str| -> Result<f64, String> {
        let t = Instant::now();
        tr.next_request();
        let _request = tr.span("server.request");
        let request = tr
            .time("server.protocol.parse", || parse(line))
            .map_err(|e| e.to_string())?;
        let Request::Exact {
            query: QuerySpec::Values(values),
            ..
        } = request
        else {
            return Err("the replayed line is not EXACT q=v:".into());
        };
        let snap = tr.time("core.lsm.snapshot", || lsm.snapshot());
        let q = values.clone();
        let (answer, qstats) = s(tr.time("core.snapshot.exact_bounded", || {
            snap.exact_bounded(&q, f64::INFINITY, Deadline::NONE)
        }))?;
        black_box(format!(
            "OK exact pos={} dist={} covered={} seq={} fetched={}",
            answer.pos,
            answer.dist,
            snap.covered_end(),
            snap.seq(),
            qstats.records_fetched
        ));
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for line in &lines {
        tr.set_enabled(false);
        off_s += mirror(tr, line)?;
        tr.set_enabled(true);
        on_s += mirror(tr, line)?;
    }
    m.put("trace.overhead_share", (on_s - off_s) / off_s, lines.len());
    let totals = tr.totals();
    let requests = totals.get("server.request").copied().unwrap_or_default();
    let encode_us = requests.self_ns as f64 / 1e3 / requests.count.max(1) as f64;
    m.put("server.reply_encode_us", encode_us, requests.count as usize);

    // K = 2 without the wire: two local shards behind the same merge logic.
    let halves = coconut_core::backend::partition(p.n, 2);
    let mut shards = Vec::new();
    for (i, range) in halves.iter().enumerate() {
        let dir = env.scratch.fresh(&format!("layers-local{i}"))?;
        let lsm = Arc::new(s(LsmCoconut::new_based(
            *cfg,
            opts.clone(),
            &dir,
            range.start,
        ))?);
        shards.push(s(LocalShard::new(lsm, ds.clone(), range.clone()))?);
    }
    let set = s(ShardSet::new(shards))?;
    s(set.build(p.n))?;

    // K = 2 over the wire: a coordinator against two live shard servers,
    // each request paired with its in-process twin.
    let mut workers = Vec::new();
    for i in 0..2 {
        let dir = env.scratch.fresh(&format!("layers-shard{i}"))?;
        workers.push(shard_server(ds, &dir, cfg, opts)?);
    }
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coord = s(CoordinatorEngine::new(
        &addrs,
        ds.clone(),
        ClientConfig::default(),
        None,
    ))?;
    let built = coord.execute_line(&format!("INGEST upto={}", p.n));
    if !built.reply.starts_with("OK ingest") {
        return Err(format!("coordinator INGEST answered: {}", built.reply));
    }
    let sent = |c: &CoordinatorEngine| {
        c.metrics()
            .shards
            .iter()
            .map(|s| s.requests.get())
            .sum::<u64>()
    };
    let before = sent(&coord);
    let (mut local_us, mut coord_us, mut client_wire_us) = (Vec::new(), Vec::new(), Vec::new());
    for (op, line) in far.iter().zip(&lines) {
        tr.next_request();
        let (local, remote) = paired(
            || {
                let (res, secs) = timed(tr, "core.backend.shardset_exact", || {
                    set.exact(&op.query, Deadline::NONE)
                });
                s(res).map(|_| secs)
            },
            || {
                let (out, secs) = timed(tr, "server.coordinator.execute_line", || {
                    coord.execute_line(line)
                });
                if out.reply.starts_with("OK exact") {
                    Ok(secs)
                } else {
                    Err(format!("coordinator answered: {}", out.reply))
                }
            },
        )?;
        local_us.push(local * 1e6);
        coord_us.push(remote * 1e6);
        client_wire_us.push((remote - local) * 1e6);
    }
    m.put(
        "core.backend.shardset_exact_us",
        stats::median(&local_us),
        local_us.len(),
    );
    m.put(
        "server.coordinator.execute_us",
        stats::median(&coord_us),
        coord_us.len(),
    );
    m.put(
        "server.client.wire_us",
        stats::median(&client_wire_us),
        client_wire_us.len(),
    );
    m.put(
        "server.client.requests_per_query",
        (sent(&coord) - before) as f64 / (2 * lines.len()) as f64,
        lines.len(),
    );
    drop(set);
    rejected += coord.metrics().rejected.get();
    drop(coord);
    drop(workers);
    m.put("server.pool.rejected_total", rejected as f64, 1);

    // The real binary: spawn -> first HEALTH, on an empty index.
    let mut starts = Vec::new();
    for i in 0..3 {
        let dir = env.scratch.fresh(&format!("layers-start{i}"))?;
        let args: Vec<String> = [
            "serve",
            "--data",
            &env.data.to_string_lossy(),
            "--index-dir",
            &dir.to_string_lossy(),
            "--addr",
            "127.0.0.1:0",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let (res, secs) = timed(tr, "cli.serve_start", || -> Result<(), String> {
            let mut child = Proc::spawn(&env.coconut, &args, "serve", &env.log)?;
            let addr = child.wait_for_addr("serving on ", Duration::from_secs(30))?;
            let health = Conn::connect(&addr, Duration::from_secs(5))?.request("HEALTH")?;
            if health.starts_with("OK healthy") {
                Ok(())
            } else {
                Err(format!("HEALTH answered: {health}"))
            }
        });
        res?;
        starts.push(secs);
    }
    m.put("cli.serve_start_s", stats::median(&starts), starts.len());
    Ok(())
}

/// Check the layers' times against the in-process end-to-end span they
/// should add up to, and say which account belongs to `workload`.
fn account(m: &mut Measured, workload: &str) {
    let v = |m: &Measured, name: &str| m.get(name).unwrap_or(f64::NAN);
    // A far request = parse + pin + approximate + scan + (fetch + distance)
    // per record the scan could not prune + encode.
    let per_record_us = v(m, "series.dataset.raw_fetch_us_per_record")
        + v(m, "series.distance.ed_ns_per_series") / 1e3;
    let parts = [
        ("parse", v(m, "server.protocol.parse_us")),
        ("snapshot pin", v(m, "core.lsm.snapshot_pin_us")),
        ("approximate", v(m, "core.approx_us")),
        ("MINDIST scan", v(m, "core.sims.parallel_mindists_us")),
        (
            "raw fetch + distance",
            v(m, "sims_records_per_far_query") * per_record_us,
        ),
        ("reply encode", v(m, "server.reply_encode_us")),
    ];
    let execute = v(m, "server.engine.execute_us");
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    m.put(
        "trace.query.explained_share",
        explained / execute,
        parts.len(),
    );
    let shares: Vec<String> = parts
        .iter()
        .map(|(name, us)| format!("{name} {:.0}%", us / execute * 100.0))
        .collect();
    m.note(format!(
        "a far request through the engine takes {execute:.0} us: {} ({:.0}% explained)",
        shares.join(", "),
        explained / execute * 100.0
    ));
    let (single, local, remote) = (
        execute,
        v(m, "core.backend.shardset_exact_us"),
        v(m, "server.coordinator.execute_us"),
    );
    m.note(format!(
        "K=2: the in-process two-shard merge takes {local:.0} us ({:.2}x the single engine's {single:.0} us) and the coordinator \
         over TCP {remote:.0} us; paired per request, the two shard round trips add {:.0} us and one client socket adds {:.0} us",
        local / single,
        v(m, "server.client.wire_us"),
        v(m, "server.wire_us"),
    ));
    m.note(format!(
        "each extra live run adds {:.0} us to a far request (the approximate descent alone is {:.0} us per run)",
        v(m, "core.lsm.exact_us_per_extra_run"),
        v(m, "core.approx_us"),
    ));
    m.note(format!(
        "CoconutTree::build takes {:.2} s, of which scan + zkey + sort + bulk load measured alone explain {:.0}%",
        v(m, "core.tree.build_s"),
        v(m, "trace.build.explained_share") * 100.0
    ));
    let which = match workload {
        "build_static" => "the build account (core.tree.build_s) is this workload's",
        "distributed_k2" => "the coordinator account (server.coordinator.execute_us) is this workload's",
        "ingest_query_mix" => "the request account plus core.lsm.exact_us_per_extra_run per live run is this workload's",
        _ => "the request account (server.engine.execute_us) is this workload's",
    };
    m.note(which);
}
