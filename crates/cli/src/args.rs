//! Argument parsing for the `coconut` CLI (no external crates).

use std::collections::HashMap;
use std::path::PathBuf;

use coconut_core::SplitPolicyKind;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  coconut gen   --kind <randomwalk|seismic|astronomy> --count N --len L [--seed S] <out.ds>
  coconut info  <data.ds>
  coconut build --index <ctree|ctrie> [--materialized] [--leaf N]
                [--split-policy <fixed|adaptive>]
                [--memory-mb M] [--shards N] [--out-dir DIR] <data.ds>
  coconut query --index <path.idx> --data <data.ds>
                (--seed S | --pos P) [--radius R]
                ([--k K] [--dtw BAND] | --approximate | --range EPS)
  coconut ingest  --data <data.ds> --index-dir DIR [--materialized]
                  [--leaf N] [--writers N]
                  [--memory-mb M] [--batch N] [--max-runs N]
  coconut compact --data <data.ds> --index-dir DIR
  coconut scrub   --data <data.ds> --index-dir DIR [--quarantine]
  coconut serve   --data <data.ds> --index-dir DIR [--addr HOST:PORT]
                  [--workers N] [--queue N] [--deadline-ms MS]
                  [--idle-timeout-ms MS] [--initial N] [--leaf N]
                  [--shard] [--memory-mb M]
  coconut serve   --data <data.ds> --coordinator --shards H:P,H:P,...
                  [--addr HOST:PORT] [--workers N] [--queue N]
                  [--deadline-ms MS] [--idle-timeout-ms MS]

  COCONUT_FAULTS=SPEC (any command) installs a deterministic fault plan,
  e.g. COCONUT_FAULTS=atomic.fsync=err@2 COCONUT_FAULT_SEED=7.";

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
        /// Number of concurrent ingest writers (group-committed); 1 keeps
        /// the classic single-writer path.
        writers: usize,
        memory_mb: u64,
        /// Ingest the uncovered tail in batches of this many series (one
        /// run per batch); `None` means one run for the whole tail.
        batch: Option<u64>,
        /// Cap on live runs (the size-tiered policy's read-amplification
        /// bound).
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

/// Options that take no value.
const FLAGS: &[&str] = &[
    "--materialized",
    "--approximate",
    "--shard",
    "--coordinator",
    "--quarantine",
    "--help",
    "-h",
];

/// The options each command reads (`--help` and `-h` are read by all).
const OPTIONS: &[(&str, &[&str])] = &[
    ("gen", &["--kind", "--count", "--len", "--seed"]),
    ("info", &[]),
    (
        "build",
        &[
            "--index",
            "--materialized",
            "--leaf",
            "--split-policy",
            "--memory-mb",
            "--shards",
            "--out-dir",
        ],
    ),
    (
        "query",
        &[
            "--index",
            "--data",
            "--seed",
            "--pos",
            "--radius",
            "--k",
            "--dtw",
            "--approximate",
            "--range",
        ],
    ),
    (
        "ingest",
        &[
            "--data",
            "--index-dir",
            "--materialized",
            "--leaf",
            "--writers",
            "--memory-mb",
            "--batch",
            "--max-runs",
        ],
    ),
    ("compact", &["--data", "--index-dir"]),
    ("scrub", &["--data", "--index-dir", "--quarantine"]),
    (
        "serve",
        &[
            "--data",
            "--index-dir",
            "--addr",
            "--workers",
            "--queue",
            "--deadline-ms",
            "--idle-timeout-ms",
            "--initial",
            "--leaf",
            "--shard",
            "--memory-mb",
            "--coordinator",
            "--shards",
        ],
    ),
];

/// Split `verb`'s argv into `--key value` / `--flag` options and
/// positionals; an option `verb` does not read is an error naming it.
fn split(verb: &str, argv: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let accepted = OPTIONS
        .iter()
        .find(|(v, _)| *v == verb)
        .map(|(_, accepted)| *accepted)
        .ok_or_else(|| format!("unknown command '{verb}'"))?;
    let mut opts = HashMap::new();
    let mut pos = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if a.starts_with("--") && a != "--help" && !accepted.contains(&a.as_str()) {
            return Err(format!("{verb}: unknown option {a}"));
        }
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

/// Parse a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(verb) = argv.first() else {
        return Err("no command given".into());
    };
    if verb == "--help" || verb == "-h" || verb == "help" {
        return Ok(Command::Help);
    }
    let rest = &argv[1..];
    let (opts, pos) = split(verb, rest)?;
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
            let k = opts.get("--k").map_or(Ok(1), |s| parse_num(s, "k"))?;
            if k == 0 {
                return Err("query: --k must be at least 1".into());
            }
            let range_eps: Option<f64> = opts
                .get("--range")
                .map(|s| parse_num(s, "range eps"))
                .transpose()?;
            if let Some(eps) = range_eps {
                if !eps.is_finite() || eps < 0.0 {
                    return Err(format!(
                        "query: --range must be finite and non-negative, got {eps}"
                    ));
                }
                // A range query would silently drop these modes.
                if let Some(flag) = ["--dtw", "--approximate", "--k"]
                    .into_iter()
                    .find(|f| opts.contains_key(*f))
                {
                    return Err(format!("query: --range cannot be combined with {flag}"));
                }
            }
            // So would an approximate one: it is a Euclidean 1-NN.
            if opts.contains_key("--approximate") {
                if let Some(flag) = ["--dtw", "--k"].into_iter().find(|f| opts.contains_key(*f)) {
                    return Err(format!(
                        "query: --approximate cannot be combined with {flag}"
                    ));
                }
            }
            Ok(Command::Query {
                index: PathBuf::from(req(&opts, "--index")?),
                data: PathBuf::from(req(&opts, "--data")?),
                seed,
                pos: pos_opt,
                k,
                radius: opts
                    .get("--radius")
                    .map_or(Ok(1), |s| parse_num(s, "radius"))?,
                dtw_band: opts
                    .get("--dtw")
                    .map(|s| parse_num(s, "dtw band"))
                    .transpose()?,
                range_eps,
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
        // A DTW k-NN: both modes are kept.
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

        let c = parse(&argv("query --index i.idx --data d.ds --pos 7 --range 2.5")).unwrap();
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
        assert!(!approximate);

        let c = parse(&argv(
            "query --index i.idx --data d.ds --pos 7 --approximate",
        ))
        .unwrap();
        let Command::Query { approximate, .. } = c else {
            panic!()
        };
        assert!(approximate);
    }

    #[test]
    fn query_refuses_what_it_would_not_run() {
        let query = |rest: &str| parse(&argv(&format!("query --index i --data d --seed 1 {rest}")));
        for eps in ["nan", "NaN", "inf", "-inf", "-1", "-0.5"] {
            let err = query(&format!("--range {eps}")).unwrap_err();
            assert!(err.contains("--range must be finite"), "{eps}: {err}");
        }
        assert!(query("--k 0")
            .unwrap_err()
            .contains("--k must be at least 1"));
        for (mode, flags) in [
            (
                "--range 2",
                &["--dtw 4", "--approximate", "--k 5", "--k 1"][..],
            ),
            ("--approximate", &["--dtw 4", "--k 5", "--k 1"][..]),
        ] {
            for flag in flags {
                let err = query(&format!("{mode} {flag}")).unwrap_err();
                let (mode, name) = (
                    mode.split(' ').next().unwrap(),
                    flag.split(' ').next().unwrap(),
                );
                assert!(
                    err.contains(&format!("{mode} cannot be combined with {name}")),
                    "{err}"
                );
            }
        }
        // What a mode does run still parses.
        for ok in [
            "--range 0",
            "--range 2.5",
            "--k 1",
            "--k 7",
            "--dtw 4",
            "--dtw 4 --k 7",
            "--approximate",
        ] {
            assert!(query(ok).is_ok(), "{ok}");
        }
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
        let c = parse(&argv("ingest --data d.ds --index-dir ./lsm")).unwrap();
        let Command::Ingest {
            writers, max_runs, ..
        } = c
        else {
            panic!()
        };
        assert_eq!((writers, max_runs), (1, None));

        let c = parse(&argv(
            "ingest --data d.ds --index-dir ./lsm --max-runs 3 --writers 4",
        ))
        .unwrap();
        let Command::Ingest {
            writers, max_runs, ..
        } = c
        else {
            panic!()
        };
        assert_eq!((writers, max_runs), (4, Some(3)));

        assert!(parse(&argv("ingest --data d --index-dir x --writers 0")).is_err());
        assert!(parse(&argv("ingest --data d --index-dir x --max-runs 0")).is_err());
    }

    #[test]
    fn refuses_options_the_command_does_not_read() {
        for (line, option) in [
            (
                "ingest --data s.ds --index-dir s-lsm --compaction leveled --leaf-size 7",
                "--compaction",
            ),
            (
                "ingest --data s.ds --index-dir s-lsm --leaf-size 7",
                "--leaf-size",
            ),
            ("build --index ctree --bogus 3 x.ds", "--bogus"),
            // Options of another command are not this one's.
            ("build --index ctree --writers 2 x.ds", "--writers"),
            (
                "query --index i --data d --seed 1 --materialized",
                "--materialized",
            ),
            (
                "compact --data d --index-dir x --quarantine",
                "--quarantine",
            ),
            ("info --seed 3 d.ds", "--seed"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            let verb = line.split(' ').next().unwrap();
            assert_eq!(err, format!("{verb}: unknown option {option}"), "{line}");
        }
    }

    /// Each `(command, option)` pair the usage text lists, in order.
    fn usage_options() -> Vec<(&'static str, &'static str)> {
        let mut verb = "";
        let mut pairs = Vec::new();
        for line in USAGE.lines() {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"coconut") {
                words.next();
                verb = words.next().unwrap();
            } else if !line.starts_with("    ") {
                continue;
            }
            for word in words {
                let option = word.trim_start_matches(['[', '(']);
                if let Some(end) = option.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                    pairs.push((verb, &option[..end]));
                } else {
                    pairs.push((verb, option));
                }
            }
        }
        pairs.retain(|(_, option)| option.starts_with("--"));
        pairs
    }

    #[test]
    fn every_usage_option_parses_for_its_command() {
        let listed = usage_options();
        assert!(listed.len() > 40, "{listed:?}");
        for &(verb, option) in &listed {
            let value = if FLAGS.contains(&option) { "" } else { "1" };
            let line = format!("{verb} {option} {value}");
            if let Err(err) = parse(&argv(&line)) {
                assert!(!err.contains("unknown option"), "{line}: {err}");
            }
        }
        // And every option a command reads is in its usage.
        for (verb, accepted) in OPTIONS {
            for option in *accepted {
                assert!(listed.contains(&(verb, option)), "{verb} {option}");
            }
        }
    }

    #[test]
    fn help_everywhere() {
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("build --help")).unwrap(), Command::Help);
    }
}
