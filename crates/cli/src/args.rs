//! Argument parsing for the `coconut` CLI (no external crates).

use std::collections::HashMap;
use std::path::PathBuf;

use coconut_core::{CompactionPolicyKind, SplitPolicyKind};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  coconut gen   --kind <randomwalk|seismic|astronomy> --count N --len L [--seed S] <out.ds>
  coconut info  <data.ds>
  coconut build --index <ctree|ctrie> [--materialized] [--leaf N]
                [--split-policy <fixed|adaptive>]
                [--memory-mb M] [--shards N] [--out-dir DIR] <data.ds>
  coconut query --index <path.idx> --data <data.ds>
                (--seed S | --pos P) [--k K] [--radius R]
                [--dtw BAND] [--range EPS] [--approximate]
  coconut ingest  --data <data.ds> --index-dir DIR [--materialized]
                  [--leaf N] [--compaction <tiered|leveled>] [--writers N]
                  [--memory-mb M] [--batch N] [--max-runs N]
  coconut compact --data <data.ds> --index-dir DIR
  coconut scrub   --data <data.ds> --index-dir DIR [--quarantine]
  coconut serve   --data <data.ds> --index-dir DIR [--addr HOST:PORT]
                  [--workers N] [--queue N] [--deadline-ms MS]
                  [--idle-timeout-ms MS] [--initial N] [--leaf N]
                  [--compaction P] [--shard] [--memory-mb M]
  coconut serve   --data <data.ds> --coordinator --shards H:P,H:P,...
                  [--addr HOST:PORT] [--workers N] [--queue N]
                  [--deadline-ms MS] [--idle-timeout-ms MS]

  --faults SPEC (any command) installs a deterministic fault plan, e.g.
  --faults atomic.fsync=err@2 --fault-seed 7; COCONUT_FAULTS /
  COCONUT_FAULT_SEED do the same from the environment.";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset file.
    Gen {
        kind: String,
        count: u64,
        len: usize,
        seed: u64,
        out: PathBuf,
    },
    /// Describe a dataset file.
    Info { path: PathBuf },
    /// Build an index over a dataset.
    Build {
        index: String,
        materialized: bool,
        leaf: usize,
        /// Trie node-splitting policy (`fixed` keeps the paper's binary
        /// splits; `adaptive` packs leaves by measured density). Ignored by
        /// `ctree`, whose median packing has no split decision.
        split_policy: SplitPolicyKind,
        memory_mb: u64,
        /// Parallel build shards; defaults to the machine's available
        /// parallelism.
        shards: usize,
        out_dir: PathBuf,
        data: PathBuf,
    },
    /// Query an index.
    Query {
        index: PathBuf,
        data: PathBuf,
        seed: Option<u64>,
        pos: Option<u64>,
        k: usize,
        radius: usize,
        dtw_band: Option<usize>,
        range_eps: Option<f64>,
        approximate: bool,
    },
    /// Stream new series of a growing dataset into an LSM index directory
    /// (creating the index on first use, recovering it afterwards).
    Ingest {
        data: PathBuf,
        index_dir: PathBuf,
        materialized: bool,
        /// Leaf capacity for a *fresh* index (defaults to 2000); an
        /// explicit value that conflicts with a recovered index's manifest
        /// is an error rather than silently ignored.
        leaf: Option<usize>,
        /// Compaction policy family for a *fresh* index; like `leaf`, an
        /// explicit value conflicting with a recovered manifest is an
        /// error.
        compaction: Option<CompactionPolicyKind>,
        /// Number of concurrent ingest writers (group-committed); 1 keeps
        /// the classic single-writer path.
        writers: usize,
        memory_mb: u64,
        /// Ingest the uncovered tail in batches of this many series (one
        /// run per batch); `None` means one run for the whole tail.
        batch: Option<u64>,
        /// Cap on live runs (tiered-policy read-amplification bound).
        max_runs: Option<usize>,
    },
    /// Merge every run of an LSM index directory into one.
    Compact { data: PathBuf, index_dir: PathBuf },
    /// Checksum-verify every leaf of every run of an LSM index directory,
    /// reporting per-run results; `--quarantine` moves damaged runs (and
    /// their suffix, to keep the covered prefix contiguous) aside so the
    /// index keeps serving the verified prefix.
    Scrub {
        data: PathBuf,
        index_dir: PathBuf,
        quarantine: bool,
    },
    /// Serve queries over TCP from an LSM index directory (creating the
    /// index on first use, recovering it afterwards), as a single node, a
    /// shard worker, or a coordinator over shard workers.
    Serve {
        data: PathBuf,
        /// Index directory; required except in coordinator mode, which
        /// holds no local index.
        index_dir: Option<PathBuf>,
        /// Bind address; port 0 picks a free port.
        addr: String,
        workers: usize,
        queue: usize,
        /// Default per-query deadline when a request sets none.
        deadline_ms: Option<u64>,
        /// Close connections that send nothing for this long (`None` =
        /// keep idle connections open indefinitely).
        idle_timeout_ms: Option<u64>,
        /// Ingest this dataset prefix before accepting connections
        /// (`None` = serve whatever the recovered index already covers).
        initial: Option<u64>,
        leaf: Option<usize>,
        /// Compaction policy family for a *fresh* index (see
        /// `Ingest::compaction`).
        compaction: Option<CompactionPolicyKind>,
        memory_mb: u64,
        /// Shard-worker mode: serve one key-range slice, assigned by a
        /// coordinator's `BUILD` request (recovered from the index
        /// directory after a restart).
        shard: bool,
        /// Coordinator mode: the shard workers' addresses in slice order
        /// (non-empty enables the mode).
        shards: Vec<String>,
    },
    /// Print usage.
    Help,
}

/// Split argv into `--key value` / `--flag` options and positionals.
fn split(argv: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    const FLAGS: &[&str] = &[
        "--materialized",
        "--approximate",
        "--shard",
        "--coordinator",
        "--quarantine",
        "--help",
        "-h",
    ];
    let mut opts = HashMap::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if FLAGS.contains(&a.as_str()) {
            opts.insert(a.clone(), String::from("true"));
            i += 1;
        } else if let Some(key) = a.strip_prefix("--") {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{key}"))?;
            opts.insert(a.clone(), value.clone());
            i += 2;
        } else {
            pos.push(a.clone());
            i += 1;
        }
    }
    Ok((opts, pos))
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required option {key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

/// Parse `--split-policy`, surfacing the typed core error (which lists the
/// valid options) as the parse failure.
fn parse_policy(opts: &HashMap<String, String>) -> Result<SplitPolicyKind, String> {
    opts.get("--split-policy")
        .map_or(Ok(SplitPolicyKind::default()), |s| {
            s.parse::<SplitPolicyKind>().map_err(|e| e.to_string())
        })
}

/// Parse `--compaction` the same way: the typed core error names the valid
/// policy families.
fn parse_compaction(
    opts: &HashMap<String, String>,
) -> Result<Option<CompactionPolicyKind>, String> {
    opts.get("--compaction")
        .map(|s| s.parse::<CompactionPolicyKind>().map_err(|e| e.to_string()))
        .transpose()
}

/// Strip `--faults SPEC` / `--fault-seed N` (valid before any command)
/// from `argv`, returning the spec and seed when a spec was given. Kept
/// separate from [`parse`] so the fault plan installs once in `main`
/// before command dispatch.
pub fn take_fault_options(argv: &mut Vec<String>) -> Result<Option<(String, u64)>, String> {
    let mut spec = None;
    let mut seed = 0u64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--faults" => {
                spec = Some(
                    argv.get(i + 1)
                        .cloned()
                        .ok_or("missing value for --faults")?,
                );
                argv.drain(i..i + 2);
            }
            "--fault-seed" => {
                let v = argv
                    .get(i + 1)
                    .cloned()
                    .ok_or("missing value for --fault-seed")?;
                seed = parse_num(&v, "fault-seed")?;
                argv.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(spec.map(|s| (s, seed)))
}

/// Parse a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(verb) = argv.first() else {
        return Err("no command given".into());
    };
    if verb == "--help" || verb == "-h" || verb == "help" {
        return Ok(Command::Help);
    }
    let rest = &argv[1..];
    let (opts, pos) = split(rest)?;
    if opts.contains_key("--help") || opts.contains_key("-h") {
        return Ok(Command::Help);
    }
    match verb.as_str() {
        "gen" => {
            let out = pos.first().ok_or("gen: missing output path")?;
            Ok(Command::Gen {
                kind: req(&opts, "--kind")?.to_string(),
                count: parse_num(req(&opts, "--count")?, "count")?,
                len: parse_num(req(&opts, "--len")?, "len")?,
                seed: opts.get("--seed").map_or(Ok(1), |s| parse_num(s, "seed"))?,
                out: PathBuf::from(out),
            })
        }
        "info" => {
            let path = pos.first().ok_or("info: missing dataset path")?;
            Ok(Command::Info {
                path: PathBuf::from(path),
            })
        }
        "build" => {
            let data = pos.first().ok_or("build: missing dataset path")?;
            Ok(Command::Build {
                index: req(&opts, "--index")?.to_string(),
                materialized: opts.contains_key("--materialized"),
                leaf: opts
                    .get("--leaf")
                    .map_or(Ok(2000), |s| parse_num(s, "leaf"))?,
                split_policy: parse_policy(&opts)?,
                memory_mb: opts
                    .get("--memory-mb")
                    .map_or(Ok(256), |s| parse_num(s, "memory-mb"))?,
                shards: match opts.get("--shards") {
                    Some(s) => {
                        let n: usize = parse_num(s, "shards")?;
                        if n == 0 {
                            return Err("shards must be at least 1".into());
                        }
                        n
                    }
                    None => std::thread::available_parallelism().map_or(1, |n| n.get()),
                },
                out_dir: PathBuf::from(opts.get("--out-dir").map_or(".", |s| s.as_str())),
                data: PathBuf::from(data),
            })
        }
        "query" => {
            let seed = opts
                .get("--seed")
                .map(|s| parse_num(s, "seed"))
                .transpose()?;
            let pos_opt = opts.get("--pos").map(|s| parse_num(s, "pos")).transpose()?;
            if seed.is_none() && pos_opt.is_none() {
                return Err("query: need --seed or --pos".into());
            }
            Ok(Command::Query {
                index: PathBuf::from(req(&opts, "--index")?),
                data: PathBuf::from(req(&opts, "--data")?),
                seed,
                pos: pos_opt,
                k: opts.get("--k").map_or(Ok(1), |s| parse_num(s, "k"))?,
                radius: opts
                    .get("--radius")
                    .map_or(Ok(1), |s| parse_num(s, "radius"))?,
                dtw_band: opts
                    .get("--dtw")
                    .map(|s| parse_num(s, "dtw band"))
                    .transpose()?,
                range_eps: opts
                    .get("--range")
                    .map(|s| parse_num(s, "range eps"))
                    .transpose()?,
                approximate: opts.contains_key("--approximate"),
            })
        }
        "ingest" => Ok(Command::Ingest {
            data: PathBuf::from(req(&opts, "--data")?),
            index_dir: PathBuf::from(req(&opts, "--index-dir")?),
            materialized: opts.contains_key("--materialized"),
            leaf: opts
                .get("--leaf")
                .map(|s| parse_num(s, "leaf"))
                .transpose()?,
            compaction: parse_compaction(&opts)?,
            writers: match opts.get("--writers") {
                Some(s) => {
                    let n: usize = parse_num(s, "writers")?;
                    if n == 0 {
                        return Err("writers must be at least 1".into());
                    }
                    n
                }
                None => 1,
            },
            memory_mb: opts
                .get("--memory-mb")
                .map_or(Ok(256), |s| parse_num(s, "memory-mb"))?,
            batch: match opts.get("--batch") {
                Some(s) => {
                    let n: u64 = parse_num(s, "batch")?;
                    if n == 0 {
                        return Err("batch must be at least 1".into());
                    }
                    Some(n)
                }
                None => None,
            },
            max_runs: match opts.get("--max-runs") {
                Some(s) => {
                    let n: usize = parse_num(s, "max-runs")?;
                    if n == 0 {
                        return Err("max-runs must be at least 1".into());
                    }
                    Some(n)
                }
                None => None,
            },
        }),
        "compact" => Ok(Command::Compact {
            data: PathBuf::from(req(&opts, "--data")?),
            index_dir: PathBuf::from(req(&opts, "--index-dir")?),
        }),
        "scrub" => Ok(Command::Scrub {
            data: PathBuf::from(req(&opts, "--data")?),
            index_dir: PathBuf::from(req(&opts, "--index-dir")?),
            quarantine: opts.contains_key("--quarantine"),
        }),
        "serve" => {
            let shard = opts.contains_key("--shard");
            let coordinator = opts.contains_key("--coordinator");
            if shard && coordinator {
                return Err("serve: --shard and --coordinator are mutually exclusive".into());
            }
            let shards: Vec<String> = opts
                .get("--shards")
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default();
            if coordinator && shards.is_empty() {
                return Err("serve: --coordinator needs --shards host:port,...".into());
            }
            if !coordinator && !shards.is_empty() {
                return Err("serve: --shards only makes sense with --coordinator".into());
            }
            let index_dir = if coordinator {
                if opts.contains_key("--index-dir") {
                    return Err(
                        "serve: a coordinator holds no local index; drop --index-dir".into(),
                    );
                }
                None
            } else {
                Some(PathBuf::from(req(&opts, "--index-dir")?))
            };
            if shard && opts.contains_key("--initial") {
                return Err(
                    "serve: a shard worker's slice is assigned by the coordinator's BUILD; \
                     drop --initial"
                        .into(),
                );
            }
            Ok(Command::Serve {
                data: PathBuf::from(req(&opts, "--data")?),
                index_dir,
                addr: opts
                    .get("--addr")
                    .map_or("127.0.0.1:6381", |s| s.as_str())
                    .to_string(),
                workers: match opts.get("--workers") {
                    Some(s) => {
                        let n: usize = parse_num(s, "workers")?;
                        if n == 0 {
                            return Err("workers must be at least 1".into());
                        }
                        n
                    }
                    None => std::thread::available_parallelism().map_or(4, |n| n.get()),
                },
                queue: opts
                    .get("--queue")
                    .map_or(Ok(64), |s| parse_num(s, "queue"))?,
                deadline_ms: opts
                    .get("--deadline-ms")
                    .map(|s| parse_num(s, "deadline-ms"))
                    .transpose()?,
                idle_timeout_ms: opts
                    .get("--idle-timeout-ms")
                    .map(|s| parse_num(s, "idle-timeout-ms"))
                    .transpose()?,
                initial: opts
                    .get("--initial")
                    .map(|s| parse_num(s, "initial"))
                    .transpose()?,
                leaf: opts
                    .get("--leaf")
                    .map(|s| parse_num(s, "leaf"))
                    .transpose()?,
                compaction: parse_compaction(&opts)?,
                memory_mb: opts
                    .get("--memory-mb")
                    .map_or(Ok(256), |s| parse_num(s, "memory-mb"))?,
                shard,
                shards,
            })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_gen() {
        let c = parse(&argv(
            "gen --kind seismic --count 100 --len 64 --seed 9 out.ds",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Gen {
                kind: "seismic".into(),
                count: 100,
                len: 64,
                seed: 9,
                out: PathBuf::from("out.ds"),
            }
        );
    }

    #[test]
    fn gen_defaults_seed() {
        let c = parse(&argv("gen --kind randomwalk --count 5 --len 8 o.ds")).unwrap();
        let Command::Gen { seed, .. } = c else {
            panic!()
        };
        assert_eq!(seed, 1);
    }

    #[test]
    fn parses_build_with_flags() {
        let c = parse(&argv(
            "build --index ctree --materialized --leaf 100 --out-dir /tmp x.ds",
        ))
        .unwrap();
        let Command::Build {
            index,
            materialized,
            leaf,
            shards,
            out_dir,
            data,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(index, "ctree");
        assert!(materialized);
        assert_eq!(leaf, 100);
        assert!(shards >= 1, "defaults to available parallelism");
        assert_eq!(out_dir, PathBuf::from("/tmp"));
        assert_eq!(data, PathBuf::from("x.ds"));
    }

    #[test]
    fn parses_build_shards() {
        let c = parse(&argv("build --index ctree --shards 4 x.ds")).unwrap();
        let Command::Build { shards, .. } = c else {
            panic!()
        };
        assert_eq!(shards, 4);
        assert!(parse(&argv("build --index ctree --shards 0 x.ds")).is_err());
        assert!(parse(&argv("build --index ctree --shards nope x.ds")).is_err());
    }

    #[test]
    fn parses_query_variants() {
        let c = parse(&argv(
            "query --index i.idx --data d.ds --seed 3 --k 5 --dtw 10",
        ))
        .unwrap();
        let Command::Query {
            seed,
            k,
            dtw_band,
            range_eps,
            approximate,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(seed, Some(3));
        assert_eq!(k, 5);
        assert_eq!(dtw_band, Some(10));
        assert_eq!(range_eps, None);
        assert!(!approximate);

        let c = parse(&argv(
            "query --index i.idx --data d.ds --pos 7 --range 2.5 --approximate",
        ))
        .unwrap();
        let Command::Query {
            pos,
            range_eps,
            approximate,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(pos, Some(7));
        assert_eq!(range_eps, Some(2.5));
        assert!(approximate);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("gen --kind x --count abc --len 8 o.ds")).is_err());
        assert!(parse(&argv("gen --kind x --count 5 o.ds")).is_err()); // missing --len
        assert!(parse(&argv("query --index i --data d")).is_err()); // no seed/pos
        assert!(parse(&argv("gen --kind")).is_err()); // dangling option
    }

    #[test]
    fn parses_ingest_and_compact() {
        let c = parse(&argv(
            "ingest --data d.ds --index-dir ./lsm --batch 500 --max-runs 4 --leaf 64",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Ingest {
                data: PathBuf::from("d.ds"),
                index_dir: PathBuf::from("./lsm"),
                materialized: false,
                leaf: Some(64),
                compaction: None,
                writers: 1,
                memory_mb: 256,
                batch: Some(500),
                max_runs: Some(4),
            }
        );
        let c = parse(&argv("ingest --data d.ds --index-dir ./lsm --materialized")).unwrap();
        let Command::Ingest {
            materialized,
            batch,
            max_runs,
            leaf,
            ..
        } = c
        else {
            panic!()
        };
        assert!(materialized);
        assert_eq!(batch, None);
        assert_eq!(max_runs, None);
        assert_eq!(leaf, None);

        let c = parse(&argv("compact --data d.ds --index-dir ./lsm")).unwrap();
        assert_eq!(
            c,
            Command::Compact {
                data: PathBuf::from("d.ds"),
                index_dir: PathBuf::from("./lsm"),
            }
        );

        // Missing/invalid options fail cleanly.
        assert!(parse(&argv("ingest --data d.ds")).is_err()); // no --index-dir
        assert!(parse(&argv("ingest --index-dir x")).is_err()); // no --data
        assert!(parse(&argv("ingest --data d --index-dir x --batch 0")).is_err());
        assert!(parse(&argv("ingest --data d --index-dir x --max-runs 0")).is_err());
        assert!(parse(&argv("compact --data d.ds")).is_err());
    }

    #[test]
    fn parses_serve() {
        let c = parse(&argv(
            "serve --data d.ds --index-dir ./lsm --addr 0.0.0.0:7000 \
             --workers 8 --queue 32 --deadline-ms 250 --idle-timeout-ms 30000 \
             --initial 5000",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                data: PathBuf::from("d.ds"),
                index_dir: Some(PathBuf::from("./lsm")),
                addr: "0.0.0.0:7000".into(),
                workers: 8,
                queue: 32,
                deadline_ms: Some(250),
                idle_timeout_ms: Some(30000),
                initial: Some(5000),
                leaf: None,
                compaction: None,
                memory_mb: 256,
                shard: false,
                shards: vec![],
            }
        );
        let c = parse(&argv("serve --data d.ds --index-dir ./lsm")).unwrap();
        let Command::Serve {
            addr,
            workers,
            queue,
            deadline_ms,
            initial,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:6381");
        assert!(workers >= 1, "defaults to available parallelism");
        assert_eq!(queue, 64);
        assert_eq!(deadline_ms, None);
        assert_eq!(initial, None);

        assert!(parse(&argv("serve --data d.ds")).is_err()); // no --index-dir
        assert!(parse(&argv("serve --index-dir x")).is_err()); // no --data
        assert!(parse(&argv("serve --data d --index-dir x --workers 0")).is_err());
        assert!(parse(&argv("serve --data d --index-dir x --workers abc")).is_err());
    }

    #[test]
    fn parses_serve_shard_and_coordinator() {
        let c = parse(&argv("serve --data d.ds --index-dir ./s0 --shard")).unwrap();
        let Command::Serve { shard, shards, .. } = c else {
            panic!()
        };
        assert!(shard);
        assert!(shards.is_empty());

        let c = parse(&argv(
            "serve --data d.ds --coordinator --shards 127.0.0.1:7001,127.0.0.1:7002",
        ))
        .unwrap();
        let Command::Serve {
            shard,
            shards,
            index_dir,
            ..
        } = c
        else {
            panic!()
        };
        assert!(!shard);
        assert_eq!(shards, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(index_dir, None);

        // Conflicting or incomplete mode selections fail cleanly.
        assert!(parse(&argv(
            "serve --data d --index-dir x --shard --coordinator y"
        ))
        .is_err());
        assert!(parse(&argv("serve --data d --coordinator")).is_err()); // no --shards
        assert!(parse(&argv("serve --data d --index-dir x --shards 1.2.3.4:1")).is_err());
        assert!(parse(&argv(
            "serve --data d --coordinator --shards 1.2.3.4:1 --index-dir x"
        ))
        .is_err());
        assert!(parse(&argv("serve --data d --index-dir x --shard --initial 100")).is_err());
    }

    #[test]
    fn parses_split_policy() {
        // Build defaults to fixed; an explicit value is honoured.
        let c = parse(&argv("build --index ctrie x.ds")).unwrap();
        let Command::Build { split_policy, .. } = c else {
            panic!()
        };
        assert_eq!(split_policy, SplitPolicyKind::Fixed);
        let c = parse(&argv("build --index ctrie --split-policy adaptive x.ds")).unwrap();
        let Command::Build { split_policy, .. } = c else {
            panic!()
        };
        assert_eq!(split_policy, SplitPolicyKind::Adaptive);

        // Unknown values fail with a message naming the valid options.
        let err = parse(&argv("build --index ctrie --split-policy median x.ds")).unwrap_err();
        assert!(err.contains("median"), "{err}");
        assert!(err.contains("fixed") && err.contains("adaptive"), "{err}");
    }

    #[test]
    fn parses_compaction_and_writers() {
        // "Not given" stays distinct from "tiered" so the
        // recovered-manifest conflict check only fires on explicit flags.
        let c = parse(&argv("ingest --data d.ds --index-dir ./lsm")).unwrap();
        let Command::Ingest {
            compaction,
            writers,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(compaction, None);
        assert_eq!(writers, 1);

        let c = parse(&argv(
            "ingest --data d.ds --index-dir ./lsm --compaction leveled --writers 4",
        ))
        .unwrap();
        let Command::Ingest {
            compaction,
            writers,
            ..
        } = c
        else {
            panic!()
        };
        assert_eq!(compaction, Some(CompactionPolicyKind::Leveled));
        assert_eq!(writers, 4);

        let c = parse(&argv(
            "serve --data d.ds --index-dir ./lsm --compaction tiered",
        ))
        .unwrap();
        let Command::Serve { compaction, .. } = c else {
            panic!()
        };
        assert_eq!(compaction, Some(CompactionPolicyKind::Tiered));

        // Unknown values fail with a message naming the valid families.
        let err = parse(&argv("ingest --data d --index-dir x --compaction lazy")).unwrap_err();
        assert!(err.contains("lazy"), "{err}");
        assert!(err.contains("tiered") && err.contains("leveled"), "{err}");
        assert!(parse(&argv("ingest --data d --index-dir x --writers 0")).is_err());
    }

    #[test]
    fn help_everywhere() {
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("build --help")).unwrap(), Command::Help);
    }
}
