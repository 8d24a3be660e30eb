//! Command implementations for the `coconut` CLI.

use std::io::{ErrorKind, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coconut_core::layout::IndexHeader;
use coconut_core::manifest::Manifest;
use coconut_core::query::nearest_of;
use coconut_core::{
    BuildOptions, CoconutTree, CoconutTrie, IndexConfig, Kind, LsmCoconut, Metric, Query,
    SplitPolicyKind,
};
use coconut_series::dataset::{write_dataset, Dataset};
use coconut_series::distance::znormalize;
use coconut_series::gen::{AstronomyGen, Generator, RandomWalkGen, SeismicGen};
use coconut_series::index::{Answer, QueryStats, SeriesIndex};
use coconut_series::Value;
use coconut_storage::{CountedFile, Error, IoStats, Result};
use coconut_summary::SaxConfig;

use crate::args::Command;

/// Standard output of the one-shot commands; `None` once its reader has
/// gone. A closed pipe (`coconut info d.ds | head -1`) ends the output,
/// not the command: the rest is dropped, and the command finishes and
/// exits as it would have, without a panic or an error message. `serve`
/// prints its startup lines with `println!`.
struct Out(Option<std::io::Stdout>);

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(stdout) = &mut self.0 {
            match stdout.write(buf) {
                Err(e) if e.kind() == ErrorKind::BrokenPipe => self.0 = None,
                written => return written,
            }
        }
        // Dropped bytes count as written, so `write_all` moves on.
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.as_mut().map_or(Ok(()), |stdout| stdout.flush())
    }
}

/// Leaf capacity of an LSM index created without `--leaf`.
const LSM_LEAF: usize = 2000;

/// The index configuration and build options every command builds with:
/// the default SAX shape for the dataset's series length, full leaves, a
/// 64-way directory, and the machine's parallelism as the thread budget.
fn build_setup(
    ds: &Dataset,
    leaf: usize,
    split_policy: SplitPolicyKind,
    materialized: bool,
    memory_mb: u64,
    shards: usize,
) -> (IndexConfig, BuildOptions) {
    let config = IndexConfig {
        sax: SaxConfig::default_for_len(ds.series_len()),
        leaf_capacity: leaf,
        fill_factor: 1.0,
        internal_fanout: 64,
        split_policy,
    };
    let opts = BuildOptions {
        memory_bytes: memory_mb << 20,
        materialized,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        shards,
    };
    (config, opts)
}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<()> {
    let mut out = Out(Some(std::io::stdout()));
    /// `println!` through [`Out`].
    macro_rules! say {
        ($($arg:tt)*) => {
            writeln!(out, $($arg)*)?
        };
    }
    match cmd {
        Command::Help => {
            say!("{}", crate::args::USAGE);
            Ok(())
        }
        Command::Gen {
            kind,
            count,
            len,
            seed,
            out: path,
        } => {
            let stats = Arc::new(IoStats::new());
            let mut generator: Box<dyn Generator> = match kind.as_str() {
                "randomwalk" => Box::new(RandomWalkGen::new(seed)),
                "seismic" => Box::new(SeismicGen::new(seed)),
                "astronomy" => Box::new(AstronomyGen::new(seed)),
                other => {
                    return Err(Error::invalid(format!(
                        "unknown generator '{other}' (randomwalk|seismic|astronomy)"
                    )))
                }
            };
            let t0 = Instant::now();
            write_dataset(&path, generator.as_mut(), count, len, &stats)?;
            say!(
                "wrote {count} {kind} series of {len} points to {} in {:.2}s",
                path.display(),
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Command::Info { path } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&path, stats)?;
            say!("dataset       {}", path.display());
            say!("series        {}", ds.len());
            say!("series length {}", ds.series_len());
            say!("z-normalized  {}", ds.znormalized());
            say!(
                "payload bytes {} ({:.1} MiB)",
                ds.payload_bytes(),
                ds.payload_bytes() as f64 / (1 << 20) as f64
            );
            Ok(())
        }
        Command::Build {
            index,
            materialized,
            leaf,
            split_policy,
            memory_mb,
            shards,
            out_dir,
            data,
        } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            std::fs::create_dir_all(&out_dir)?;
            let (config, opts) = build_setup(
                &ds,
                leaf,
                split_policy,
                materialized,
                memory_mb,
                shards.max(1),
            );
            let shard_count = opts.shards;
            let t0 = Instant::now();
            let (name, path, leaves, fill, oversized, bytes): (String, _, _, _, _, _) =
                match index.as_str() {
                    "ctree" => {
                        let t = CoconutTree::build(&ds, &config, &out_dir, opts)?;
                        (
                            t.name(),
                            t.index_path().to_path_buf(),
                            t.leaf_count(),
                            t.avg_leaf_fill(),
                            t.oversized_leaf_count(),
                            t.disk_bytes(),
                        )
                    }
                    "ctrie" => {
                        let t = CoconutTrie::build(&ds, &config, &out_dir, opts)?;
                        (
                            t.name(),
                            t.index_path().to_path_buf(),
                            t.leaf_count(),
                            t.avg_leaf_fill(),
                            t.oversized_leaf_count(),
                            t.disk_bytes(),
                        )
                    }
                    other => {
                        return Err(Error::invalid(format!(
                            "unknown index '{other}' (ctree|ctrie)"
                        )))
                    }
                };
            let io = stats.snapshot();
            say!(
                "built {name} in {:.2}s ({} build shard{})",
                t0.elapsed().as_secs_f64(),
                shard_count,
                if shard_count == 1 { "" } else { "s" }
            );
            say!("index file    {}", path.display());
            say!(
                "leaves        {leaves} (avg fill {:.0}%, {oversized} oversized, {} split)",
                fill * 100.0,
                config.split_policy
            );
            say!("size          {:.1} MiB", bytes as f64 / (1 << 20) as f64);
            say!(
                "io            {} sequential / {} random ops, {:.1} MiB moved",
                io.total_ops() - io.random_ops(),
                io.random_ops(),
                io.total_bytes() as f64 / (1 << 20) as f64
            );
            if let Some(peak) = peak_resident_bytes() {
                say!(
                    "memory        {:.1} MiB peak resident ({memory_mb} MiB build budget)",
                    peak as f64 / (1 << 20) as f64
                );
            }
            Ok(())
        }
        Command::Query {
            index,
            data,
            seed,
            pos,
            k,
            radius,
            dtw_band,
            range_eps,
            approximate,
        } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            let series = make_query(&ds, seed, pos)?;
            // `args::parse` refuses the combinations a mode would drop.
            let kind = if let Some(eps) = range_eps {
                Kind::Range(eps)
            } else if approximate {
                Kind::Approx
            } else if k > 1 {
                Kind::Knn(k)
            } else {
                Kind::Nearest
            };
            let metric = dtw_band.map_or(Metric::Ed, Metric::Dtw);
            let query = Query {
                metric,
                radius,
                ..Query::new(kind)
            };
            let search = open_index(&index, &ds)?;
            let t0 = Instant::now();
            let (hits, qstats) = search(&series, &query)?;
            write!(out, "{}", answer_lines(&query, &hits))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if kind == Kind::Approx {
                say!("time {ms:.1} ms");
            } else {
                say!(
                    "time {ms:.1} ms  (fetched {} records, pruned {}, {} lower bounds)",
                    qstats.records_fetched,
                    qstats.pruned,
                    qstats.lower_bounds
                );
            }
            Ok(())
        }
        Command::Ingest {
            data,
            index_dir,
            materialized,
            leaf,
            writers,
            memory_mb,
            batch,
            max_runs,
        } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            let (lsm, fresh) = open_or_create_lsm(&ds, &index_dir, materialized, leaf, memory_mb)?;
            if let Some(n) = max_runs {
                lsm.set_max_runs(n);
            }
            let already = lsm.covered_end();
            if already > ds.len() {
                return Err(Error::invalid(format!(
                    "index already covers {already} series but the dataset holds {}",
                    ds.len()
                )));
            }
            let t0 = Instant::now();
            let tail = ds.len().saturating_sub(already).max(1);
            if writers > 1 {
                // Multi-writer: each thread claims the next uncovered batch
                // and builds its run concurrently; completed runs are group
                // committed (one manifest fsync per fold).
                let step = batch.unwrap_or_else(|| (tail / (writers as u64 * 4)).max(1));
                let lsm_ref = &lsm;
                let ds_ref = &ds;
                std::thread::scope(|s| -> Result<()> {
                    let handles: Vec<_> = (0..writers)
                        .map(|_| {
                            s.spawn(move || -> Result<()> {
                                let w = lsm_ref.writer();
                                while w.ingest_next(ds_ref, step)?.is_some() {}
                                Ok(())
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join()
                            .map_err(|_| Error::invalid("an ingest writer panicked"))??;
                    }
                    Ok(())
                })?;
            } else {
                let step = batch.unwrap_or(tail);
                let mut upto = already;
                while upto < ds.len() {
                    upto = (upto + step).min(ds.len());
                    lsm.ingest_upto(&ds, upto)?;
                }
            }
            lsm.wait_for_compactions()?;
            let secs = t0.elapsed().as_secs_f64();
            let new = ds.len() - already;
            say!(
                "{} {} series into {} in {secs:.2}s ({:.0} series/s, {} writer{})",
                if fresh { "created;" } else { "recovered;" },
                new,
                index_dir.display(),
                if secs > 0.0 { new as f64 / secs } else { 0.0 },
                writers,
                if writers == 1 { "" } else { "s" }
            );
            say!(
                "covered       0..{} in {} run{}",
                lsm.covered_end(),
                lsm.run_count(),
                if lsm.run_count() == 1 { "" } else { "s" }
            );
            let ws = lsm.write_stats();
            say!(
                "commits       {} run{} in {} manifest commit{}; write-amp {:.2}",
                ws.runs_committed,
                if ws.runs_committed == 1 { "" } else { "s" },
                ws.ingest_commits,
                if ws.ingest_commits == 1 { "" } else { "s" },
                lsm.write_amplification()
            );
            say!(
                "size          {:.1} MiB",
                lsm.disk_bytes() as f64 / (1 << 20) as f64
            );
            Ok(())
        }
        Command::Compact { data, index_dir } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            let lsm = LsmCoconut::open(&index_dir, &ds, BuildOptions::default())?;
            let before = lsm.run_count();
            let t0 = Instant::now();
            lsm.compact()?;
            say!(
                "compacted {before} run{} into {} in {:.2}s ({} entries)",
                if before == 1 { "" } else { "s" },
                lsm.run_count(),
                t0.elapsed().as_secs_f64(),
                lsm.len()
            );
            Ok(())
        }
        Command::Scrub {
            data,
            index_dir,
            quarantine,
        } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            let lsm = LsmCoconut::open(&index_dir, &ds, BuildOptions::default())?;
            let t0 = Instant::now();
            let outcomes = lsm.scrub();
            let mut first_bad: Option<(u64, String)> = None;
            for o in &outcomes {
                match &o.error {
                    None => say!(
                        "run {:>3}  [{}..{})  ok: {} leaves verified",
                        o.id,
                        o.start,
                        o.end,
                        o.report.checked,
                    ),
                    Some(e) => {
                        say!("run {:>3}  [{}..{})  CORRUPT: {e}", o.id, o.start, o.end);
                        if first_bad.is_none() {
                            first_bad = Some((o.id, e.clone()));
                        }
                    }
                }
            }
            say!(
                "scrubbed {} run{} in {:.2}s",
                outcomes.len(),
                if outcomes.len() == 1 { "" } else { "s" },
                t0.elapsed().as_secs_f64()
            );
            match first_bad {
                None => Ok(()),
                Some((id, reason)) if quarantine => {
                    let new_end = lsm.quarantine_from(id, &reason)?;
                    say!(
                        "quarantined run {id} and its suffix; index now covers ..{new_end} \
                         (moved to {}/quarantine)",
                        index_dir.display()
                    );
                    Ok(())
                }
                Some((id, reason)) => Err(Error::corrupt(format!(
                    "run {id}: {reason} (rerun with --quarantine to move it aside)"
                ))),
            }
        }
        Command::Serve {
            data,
            index_dir,
            addr,
            workers,
            queue,
            deadline_ms,
            idle_timeout_ms,
            initial,
            leaf,
            memory_mb,
            shard,
            shards,
        } => {
            let stats = Arc::new(IoStats::new());
            let ds = Dataset::open(&data, Arc::clone(&stats))?;
            let default_deadline = deadline_ms.map(std::time::Duration::from_millis);
            let config = coconut_server::ServerConfig {
                addr,
                workers,
                queue,
                default_deadline_ms: deadline_ms,
                idle_timeout_ms,
            };
            if !shards.is_empty() {
                // Coordinator: no local index, just the partition map and
                // the shard clients.
                let engine = Arc::new(coconut_server::CoordinatorEngine::new(
                    &shards,
                    ds,
                    coconut_server::ClientConfig::default(),
                    default_deadline,
                )?);
                let server = coconut_server::Server::start(engine, &config)?;
                println!(
                    "coordinating {} shard{} ({}); serving on {} ({} workers, queue {})",
                    shards.len(),
                    if shards.len() == 1 { "" } else { "s" },
                    shards.join(", "),
                    server.addr(),
                    workers,
                    queue
                );
                println!(
                    "try: printf 'INGEST\\nSHARD-INFO\\n' | nc {} {}",
                    server.addr().ip(),
                    server.addr().port()
                );
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            let index_dir =
                index_dir.expect("parser requires --index-dir outside coordinator mode");
            if shard {
                // Shard worker: recover the slice index if one exists,
                // otherwise wait for the coordinator's BUILD to assign it.
                let (idx_config, opts) = build_setup(
                    &ds,
                    leaf.unwrap_or(LSM_LEAF),
                    SplitPolicyKind::default(),
                    false,
                    memory_mb,
                    1,
                );
                let fresh = !Manifest::path_in(&index_dir).exists();
                let recovered = if fresh {
                    None
                } else {
                    Some(Arc::new(LsmCoconut::open(&index_dir, &ds, opts.clone())?))
                };
                let status = match &recovered {
                    Some(lsm) => format!(
                        "recovered slice {}..{} (covered {})",
                        lsm.base(),
                        lsm.covered_end().max(lsm.base()),
                        lsm.covered_end()
                    ),
                    None => "unassigned (waiting for BUILD)".to_string(),
                };
                let engine = Arc::new(coconut_server::Engine::new_shard(
                    ds,
                    &index_dir,
                    idx_config,
                    opts,
                    recovered,
                    default_deadline,
                ));
                let server = coconut_server::Server::start(engine, &config)?;
                // A parseable line so launch scripts can scrape the port.
                println!("SHARD LISTENING {}", server.addr());
                println!("shard worker in {}; {status}", index_dir.display());
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            let (lsm, fresh) = open_or_create_lsm(&ds, &index_dir, false, leaf, memory_mb)?;
            if let Some(n) = initial {
                lsm.ingest_upto(&ds, n.min(ds.len()))?;
            }
            let lsm = Arc::new(lsm);
            let engine = Arc::new(coconut_server::Engine::new(
                Arc::clone(&lsm),
                ds,
                default_deadline,
            ));
            let server = coconut_server::Server::start(engine, &config)?;
            println!(
                "{} index in {}; serving on {} ({} workers, queue {})",
                if fresh { "created" } else { "recovered" },
                index_dir.display(),
                server.addr(),
                workers,
                queue
            );
            println!(
                "covered 0..{} in {} run{}; try: printf 'HEALTH\\n' | nc {} {}",
                lsm.covered_end(),
                lsm.run_count(),
                if lsm.run_count() == 1 { "" } else { "s" },
                server.addr().ip(),
                server.addr().port()
            );
            // Serve until the process is killed; `server` stays in scope
            // (its Drop would shut the listener down on unwind).
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// Open an existing LSM index directory (recovering its manifest) or
/// create a fresh one. Explicit flags that contradict a recovered
/// manifest's configuration are errors rather than silently ignored.
fn open_or_create_lsm(
    ds: &Dataset,
    index_dir: &std::path::Path,
    materialized: bool,
    leaf: Option<usize>,
    memory_mb: u64,
) -> Result<(LsmCoconut, bool)> {
    // LSM runs are built by one sort worker each; writers and the
    // compaction thread supply the parallelism.
    let (config, opts) = build_setup(
        ds,
        leaf.unwrap_or(LSM_LEAF),
        SplitPolicyKind::default(),
        materialized,
        memory_mb,
        1,
    );
    // First use creates the index; later uses recover the manifest (and
    // tolerate a crash of the previous process).
    let fresh = !Manifest::path_in(index_dir).exists();
    let lsm = if fresh {
        LsmCoconut::new(config, opts, index_dir)?
    } else {
        let lsm = LsmCoconut::open(index_dir, ds, opts)?;
        if materialized && !lsm.is_materialized() {
            return Err(Error::invalid(format!(
                "--materialized conflicts with the recovered index in {} \
                 (built non-materialized); use a fresh --index-dir",
                index_dir.display()
            )));
        }
        if let Some(l) = leaf {
            let have = lsm.config().leaf_capacity;
            if l != have {
                return Err(Error::invalid(format!(
                    "--leaf {l} conflicts with the recovered index in {} \
                     (built with leaf capacity {have}); omit --leaf or use \
                     a fresh --index-dir",
                    index_dir.display()
                )));
            }
        }
        lsm
    };
    Ok((lsm, fresh))
}

fn make_query(ds: &Dataset, seed: Option<u64>, pos: Option<u64>) -> Result<Vec<Value>> {
    match (seed, pos) {
        (_, Some(p)) => ds.get(p),
        (Some(s), None) => {
            let mut q = RandomWalkGen::new(s).generate(ds.series_len());
            znormalize(&mut q);
            Ok(q)
        }
        (None, None) => Err(Error::invalid("need --seed or --pos")),
    }
}

/// A [`SortedLeafIndex::search`] over whichever index kind a file holds.
///
/// [`SortedLeafIndex::search`]: coconut_core::SortedLeafIndex::search
type Search = Box<dyn Fn(&[Value], &Query) -> Result<(Vec<Answer>, QueryStats)>>;

/// Open the index file at `path` as the flavor its header's kind byte
/// names, so a damaged file fails with that flavor's own error.
fn open_index(path: &Path, ds: &Dataset) -> Result<Search> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let file = CountedFile::open(path, Arc::clone(ds.file().stats()))?;
    let kind = IndexHeader::read_from(&file)?.kind;
    drop(file);
    Ok(match kind {
        CoconutTree::KIND => {
            let tree = CoconutTree::open(path, ds, threads)?;
            Box::new(move |series, query| tree.search(series, query))
        }
        CoconutTrie::KIND => {
            let trie = CoconutTrie::open(path, ds, threads)?;
            Box::new(move |series, query| trie.search(series, query))
        }
        other => return Err(Error::corrupt(format!("unknown index kind {other}"))),
    })
}

/// The answer part of `coconut query`'s output for `query`'s mode.
fn answer_lines(query: &Query, hits: &[Answer]) -> String {
    let best = nearest_of(hits);
    let mut out = String::new();
    match (query.kind, query.metric) {
        (Kind::Range(eps), _) => {
            out += &format!("{} series within distance {eps}:\n", hits.len());
            for h in hits.iter().take(50) {
                out += &format!("  #{:<10} dist {:.4}\n", h.pos, h.dist);
            }
        }
        (Kind::Knn(k), metric) => {
            if let Metric::Dtw(band) = metric {
                out += &format!("DTW(band {band}) ");
            }
            out += &format!("top-{k} nearest:\n");
            for (rank, h) in hits.iter().enumerate() {
                out += &format!("  {}. #{:<10} dist {:.4}\n", rank + 1, h.pos, h.dist);
            }
        }
        (Kind::Approx, _) => {
            out += &format!(
                "approximate nearest (radius {}): #{} at {:.4}\n",
                query.radius, best.pos, best.dist
            );
        }
        (Kind::Nearest, Metric::Dtw(band)) => {
            out += &format!(
                "DTW(band {band}) nearest: #{} at {:.4}\n",
                best.pos, best.dist
            );
        }
        (Kind::Nearest, Metric::Ed) => {
            out += &format!("exact nearest: #{} at {:.4}\n", best.pos, best.dist);
        }
    }
    out
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), or
/// `None` where that file is missing.
fn peak_resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib << 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_storage::TempDir;

    fn gen_cmd(dir: &TempDir, name: &str, count: u64) -> std::path::PathBuf {
        let out = dir.path().join(name);
        run(Command::Gen {
            kind: "randomwalk".into(),
            count,
            len: 64,
            seed: 3,
            out: out.clone(),
        })
        .unwrap();
        out
    }

    #[test]
    fn gen_info_build_query_pipeline() {
        let dir = TempDir::new("cli").unwrap();
        let data = gen_cmd(&dir, "d.ds", 300);
        run(Command::Info { path: data.clone() }).unwrap();

        for index_kind in ["ctree", "ctrie"] {
            let out_dir = dir.path().join(index_kind);
            run(Command::Build {
                index: index_kind.into(),
                materialized: false,
                leaf: 32,
                split_policy: Default::default(),
                memory_mb: 1,
                out_dir: out_dir.clone(),
                data: data.clone(),
                shards: 3,
            })
            .unwrap();
            let idx = std::fs::read_dir(&out_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "idx"))
                .expect("index file created");
            // Exact, approximate, and member queries all succeed.
            run(Command::Query {
                index: idx.clone(),
                data: data.clone(),
                seed: Some(9),
                pos: None,
                k: 1,
                radius: 1,
                dtw_band: None,
                range_eps: None,
                approximate: false,
            })
            .unwrap();
            run(Command::Query {
                index: idx.clone(),
                data: data.clone(),
                seed: None,
                pos: Some(7),
                k: 1,
                radius: 0,
                dtw_band: None,
                range_eps: None,
                approximate: true,
            })
            .unwrap();
        }
    }

    #[test]
    fn every_query_mode_answers_the_same_on_tree_and_trie() {
        let dir = TempDir::new("cli").unwrap();
        let data = gen_cmd(&dir, "d.ds", 200);
        let build = |index: &str| {
            let out_dir = dir.path().join(index);
            run(Command::Build {
                index: index.into(),
                materialized: false,
                leaf: 32,
                split_policy: Default::default(),
                memory_mb: 1,
                out_dir: out_dir.clone(),
                data: data.clone(),
                shards: 1,
            })
            .unwrap();
            std::fs::read_dir(&out_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "idx"))
                .unwrap()
        };
        let (tree_idx, trie_idx) = (build("ctree"), build("ctrie"));
        let q = |index: &std::path::Path, k, dtw, range| Command::Query {
            index: index.to_path_buf(),
            data: data.clone(),
            seed: Some(5),
            pos: None,
            k,
            radius: 1,
            dtw_band: dtw,
            range_eps: range,
            approximate: false,
        };
        for idx in [&tree_idx, &trie_idx] {
            run(q(idx, 5, None, None)).unwrap(); // k-NN
            run(q(idx, 1, Some(4), None)).unwrap(); // DTW
            run(q(idx, 5, Some(4), None)).unwrap(); // DTW k-NN
            run(q(idx, 1, None, Some(10.0))).unwrap(); // range
        }

        let ds = Dataset::open(&data, Arc::new(IoStats::new())).unwrap();
        let series = make_query(&ds, Some(5), None).unwrap();
        let (tree, trie) = (
            open_index(&tree_idx, &ds).unwrap(),
            open_index(&trie_idx, &ds).unwrap(),
        );
        let dtw = Query {
            metric: Metric::Dtw(4),
            ..Query::nearest()
        };
        let dtw_knn = Query {
            metric: Metric::Dtw(4),
            ..Query::knn(5)
        };
        for query in [
            Query::nearest(),
            Query::knn(5),
            Query::range(10.0),
            dtw,
            dtw_knn,
        ] {
            let (on_tree, _) = tree(&series, &query).unwrap();
            let (on_trie, _) = trie(&series, &query).unwrap();
            assert!(!on_tree.is_empty(), "{query:?}");
            assert_eq!(
                answer_lines(&query, &on_trie),
                answer_lines(&query, &on_tree),
                "{query:?}"
            );
            assert_eq!(on_trie, on_tree, "{query:?}");
        }
    }

    #[test]
    fn a_damaged_tree_fails_with_the_trees_own_error() {
        let dir = TempDir::new("cli-damaged").unwrap();
        let data = gen_cmd(&dir, "d.ds", 200);
        let out_dir = dir.path().join("ctree");
        run(Command::Build {
            index: "ctree".into(),
            materialized: false,
            leaf: 32,
            split_policy: Default::default(),
            memory_mb: 1,
            out_dir: out_dir.clone(),
            data: data.clone(),
            shards: 1,
        })
        .unwrap();
        let idx = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "idx"))
            .unwrap();
        let ds = Dataset::open(&data, Arc::new(IoStats::new())).unwrap();
        assert!(open_index(&idx, &ds).is_ok());
        // Flip one byte of the leaf directory's first record.
        let header =
            IndexHeader::read_from(&CountedFile::open(&idx, Arc::new(IoStats::new())).unwrap())
                .unwrap();
        let mut bytes = std::fs::read(&idx).unwrap();
        bytes[header.dir_offset as usize + 12] ^= 0x40;
        std::fs::write(&idx, &bytes).unwrap();

        let Err(tree_err) = CoconutTree::open(&idx, &ds, 1) else {
            panic!("the damaged tree opened");
        };
        let Err(err) = open_index(&idx, &ds) else {
            panic!("the damaged tree opened through the CLI");
        };
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert_eq!(err.to_string(), tree_err.to_string());
        let query = Command::Query {
            index: idx.clone(),
            data: data.clone(),
            seed: Some(5),
            pos: None,
            k: 1,
            radius: 1,
            dtw_band: None,
            range_eps: None,
            approximate: false,
        };
        let err = run(query).unwrap_err();
        assert_eq!(err.to_string(), tree_err.to_string());
    }

    #[test]
    fn ingest_then_recover_then_compact_pipeline() {
        let dir = TempDir::new("cli-lsm").unwrap();
        let idx_dir = dir.path().join("lsm");
        let data = gen_cmd(&dir, "d.ds", 240);
        // First ingest creates the index, batching into multiple runs.
        run(Command::Ingest {
            data: data.clone(),
            index_dir: idx_dir.clone(),
            materialized: false,
            leaf: Some(32),
            writers: 1,
            memory_mb: 1,
            batch: Some(60),
            max_runs: Some(3),
        })
        .unwrap();
        // A grown dataset: the second ingest recovers and covers the tail
        // (an explicit matching --leaf is fine; a conflicting one is not).
        let data2 = gen_cmd(&dir, "d2.ds", 300);
        assert!(run(Command::Ingest {
            data: data2.clone(),
            index_dir: idx_dir.clone(),
            materialized: false,
            leaf: Some(64),
            writers: 1,
            memory_mb: 1,
            batch: None,
            max_runs: None,
        })
        .is_err());
        assert!(run(Command::Ingest {
            data: data2.clone(),
            index_dir: idx_dir.clone(),
            materialized: true,
            leaf: None,
            writers: 1,
            memory_mb: 1,
            batch: None,
            max_runs: None,
        })
        .is_err());
        run(Command::Ingest {
            data: data2.clone(),
            index_dir: idx_dir.clone(),
            materialized: false,
            leaf: Some(32),
            writers: 1,
            memory_mb: 1,
            batch: None,
            max_runs: None,
        })
        .unwrap();
        // Compact everything into one run.
        run(Command::Compact {
            data: data2.clone(),
            index_dir: idx_dir.clone(),
        })
        .unwrap();
        let stats = Arc::new(IoStats::new());
        let ds = Dataset::open(&data2, Arc::clone(&stats)).unwrap();
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.run_count(), 1);
        assert_eq!(lsm.len(), 300);
    }

    #[test]
    fn scrub_reports_clean_then_detects_and_quarantines_rot() {
        let dir = TempDir::new("cli-scrub").unwrap();
        let idx_dir = dir.path().join("lsm");
        let data = gen_cmd(&dir, "d.ds", 240);
        run(Command::Ingest {
            data: data.clone(),
            index_dir: idx_dir.clone(),
            materialized: false,
            leaf: Some(32),
            writers: 1,
            memory_mb: 1,
            batch: Some(80),
            max_runs: Some(10),
        })
        .unwrap();
        let scrub = |quarantine| {
            run(Command::Scrub {
                data: data.clone(),
                index_dir: idx_dir.clone(),
                quarantine,
            })
        };
        scrub(false).unwrap();
        // Flip a byte in the last run's leaf region.
        let manifest = Manifest::load(&idx_dir).unwrap();
        let victim = manifest.runs.last().unwrap().clone();
        let file = idx_dir.join(&victim.file);
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[4096 + 11] ^= 0x04;
        std::fs::write(&file, &bytes).unwrap();
        // Without --quarantine the scrub fails with a typed error...
        let err = scrub(false).unwrap_err();
        assert!(err.to_string().contains("--quarantine"), "{err}");
        // ...with it the run is moved aside and the index keeps serving.
        scrub(true).unwrap();
        let stats = Arc::new(IoStats::new());
        let ds = Dataset::open(&data, Arc::clone(&stats)).unwrap();
        let lsm = LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap();
        assert_eq!(lsm.covered_end(), victim.start);
        assert!(idx_dir
            .join(coconut_core::QUARANTINE_DIR)
            .join(format!("run-{}", victim.id))
            .exists());
        scrub(false).unwrap();
    }

    #[test]
    fn adaptive_trie_builds_and_answers() {
        let dir = TempDir::new("cli-policy").unwrap();
        let data = gen_cmd(&dir, "d.ds", 240);

        // An adaptive trie build works end-to-end through the CLI.
        let out_dir = dir.path().join("adaptive");
        run(Command::Build {
            index: "ctrie".into(),
            materialized: false,
            leaf: 32,
            split_policy: coconut_core::SplitPolicyKind::Adaptive,
            memory_mb: 1,
            out_dir: out_dir.clone(),
            data: data.clone(),
            shards: 2,
        })
        .unwrap();
        let idx = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "idx"))
            .unwrap();
        run(Command::Query {
            index: idx,
            data: data.clone(),
            seed: Some(9),
            pos: None,
            k: 1,
            radius: 1,
            dtw_band: None,
            range_eps: None,
            approximate: false,
        })
        .unwrap();
    }

    #[test]
    fn compaction_policy_and_multi_writer_ingest() {
        let dir = TempDir::new("cli-compaction").unwrap();
        let idx_dir = dir.path().join("lsm");
        let ingest = |data: &Path, writers, max_runs| Command::Ingest {
            data: data.to_path_buf(),
            index_dir: idx_dir.clone(),
            materialized: false,
            leaf: Some(32),
            writers,
            memory_mb: 1,
            batch: Some(40),
            max_runs,
        };
        let open = |data: &Path| {
            let ds = Dataset::open(data, Arc::new(IoStats::new())).unwrap();
            LsmCoconut::open(&idx_dir, &ds, BuildOptions::default()).unwrap()
        };
        // A multi-writer ingest under a tight run cap creates the index...
        let data = gen_cmd(&dir, "d.ds", 240);
        run(ingest(&data, 4, Some(2))).unwrap();
        let lsm = open(&data);
        assert_eq!(lsm.covered_end(), 240);
        assert!(lsm.run_count() <= 2, "{} runs", lsm.run_count());
        drop(lsm);
        // ...and recovery grows it under the default size-tiered ladder.
        let data2 = gen_cmd(&dir, "d2.ds", 400);
        run(ingest(&data2, 2, None)).unwrap();
        let lsm = open(&data2);
        assert_eq!(lsm.covered_end(), 400);
        assert_eq!(lsm.len(), 400);
    }

    #[test]
    fn bad_inputs_fail_cleanly() {
        let dir = TempDir::new("cli").unwrap();
        // Unknown generator.
        assert!(run(Command::Gen {
            kind: "weather".into(),
            count: 1,
            len: 8,
            seed: 1,
            out: dir.path().join("x.ds"),
        })
        .is_err());
        // Missing dataset.
        assert!(run(Command::Info {
            path: dir.path().join("nope.ds")
        })
        .is_err());
        // Unknown index kind.
        let data = gen_cmd(&dir, "d.ds", 10);
        assert!(run(Command::Build {
            index: "btree".into(),
            materialized: false,
            leaf: 8,
            split_policy: Default::default(),
            memory_mb: 1,
            out_dir: dir.path().to_path_buf(),
            data,
            shards: 1,
        })
        .is_err());
    }

    #[test]
    fn peak_resident_set_is_read_where_proc_exists() {
        let peak = peak_resident_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            // At least the pages this test binary has touched.
            assert!(peak.is_some_and(|b| b >= 1 << 20), "{peak:?}");
        } else {
            assert_eq!(peak, None);
        }
    }
}
