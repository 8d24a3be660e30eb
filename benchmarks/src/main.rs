//! `coconut-perf`: the repository's one performance record.
//!
//! * `coconut-perf run --workload W --seed S --seconds N --trace 0|1` runs
//!   one workload once and ends with one JSON result line (what the driver
//!   of `BENCHMARK.json` calls, through `benchmarks/run.sh`);
//! * `coconut-perf run [--workload W] [--seed S] [--quick] [--repeat N]`
//!   runs every workload end to end and traced, prints every metric and
//!   writes a run set for `compare`;
//! * `coconut-perf trace <workload>` is the traced run alone;
//! * `coconut-perf compare <a.json> <b.json>` judges two run sets.
//!
//! See `benchmarks/README.md` for the workloads, the metrics and how they
//! are expected to move each other.

mod build_static;
mod client;
mod common;
mod compare;
mod datagen;
mod json;
mod layers;
mod metrics;
mod oracle;
mod proc;
mod sched;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Env, Measured, Params};
use json::Json;
use metrics::{Def, GATED, INFO, PER_LAYER, WORKLOADS};

const USAGE: &str = "\
usage:
  coconut-perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                   [--quick] [--repeat N] [--out FILE]
                   [--coconut PATH] [--work-dir DIR]
  coconut-perf trace <workload> [--seed S] [--seconds N] [--quick] ...
  coconut-perf compare <a.json> <b.json>
  coconut-perf benchmark-json

workloads: build_static query_static ingest_query_mix distributed_k2
With --trace the run measures one workload and ends with one JSON result
line; without it every workload runs end to end and traced, and a run set
is written under benchmarks/out/.";

const DEFAULT_SEED: u64 = 20180801;
const DEFAULT_SECONDS: f64 = 20.0;
/// Up to three cached dataset files (1.0 GB each) + indexes + sort scratch.
const DISK_NEEDED: u64 = 3_500_000_000;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    coconut: PathBuf,
    work_dir: PathBuf,
    break_oracle: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
        coconut: Path::new(&target).join("release/coconut"),
        work_dir: PathBuf::from(&target),
        break_oracle: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {what}"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value(a)?),
            "--seed" => o.seed = value(a)?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                o.seconds = value(a)?.parse().map_err(|_| "--seconds wants a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                })
            }
            "--quick" => o.quick = true,
            "--repeat" => {
                o.repeat = value(a)?.parse().map_err(|_| "--repeat wants an integer")?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value(a)?)),
            "--coconut" => o.coconut = PathBuf::from(value(a)?),
            "--work-dir" => o.work_dir = PathBuf::from(value(a)?),
            // The acceptance check that a wrong answer fails the run.
            "--break-oracle" => o.break_oracle = true,
            other if o.workload.is_none() && !other.starts_with('-') => {
                o.workload = Some(other.to_string())
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(o)
}

fn params(o: &Options) -> Params {
    let mut p = if o.quick {
        Params::quick(o.seed)
    } else {
        Params::full(o.seed, o.seconds)
    };
    p.break_oracle = o.break_oracle;
    p
}

/// Generate (or find cached) the inputs and lay out the scratch root.
fn prepare(o: &Options, m: &mut Measured) -> Result<Env, String> {
    let p = params(o);
    if !o.coconut.is_file() {
        return Err(format!(
            "{} not found: build it first (benchmarks/run.sh does)",
            o.coconut.display()
        ));
    }
    std::fs::create_dir_all(&o.work_dir)
        .map_err(|e| format!("creating {}: {e}", o.work_dir.display()))?;
    if !p.quick {
        match proc::free_disk_bytes(&o.work_dir) {
            Some(free) if free < DISK_NEEDED => {
                return Err(format!(
                    "{} has {:.1} GB free; a full run needs about {:.1} GB",
                    o.work_dir.display(),
                    free as f64 / 1e9,
                    DISK_NEEDED as f64 / 1e9
                ))
            }
            Some(_) => {}
            None => eprintln!("note: could not read free disk space with df; continuing"),
        }
    }
    let cache = o.work_dir.join("perf-data");
    let (data, gen_s) = datagen::ensure_dataset(&cache, &p.dataset_key(), proc::nproc())
        .map_err(|e| format!("generating the dataset: {e}"))?;
    let (data_part, part_s) = if o.workload.as_deref() == Some("build_static") {
        datagen::ensure_dataset(&cache, &p.part_key(), proc::nproc())
            .map_err(|e| format!("generating the part dataset: {e}"))?
    } else {
        (PathBuf::new(), 0.0)
    };
    // Input generation is the benchmark's cost, not the program's set-up.
    m.put("datagen_s", gen_s + part_s, 1);
    let scratch = proc::Scratch::create(&o.work_dir)?;
    let log = scratch.path().join("children.stderr");
    Ok(Env {
        coconut: std::fs::canonicalize(&o.coconut)
            .map_err(|e| format!("{}: {e}", o.coconut.display()))?,
        scratch,
        data,
        data_part,
        log,
        params: p,
    })
}

/// One workload, end to end or traced. The scratch root is removed when
/// `env` drops, whatever happened.
fn measure(o: &Options, workload: &str, traced: bool) -> Result<Measured, String> {
    let mut m = Measured::default();
    let env = prepare(o, &mut m)?;
    let body = if traced {
        layers::run(&env, workload)
    } else {
        match workload {
            "build_static" => build_static::run(&env),
            "query_static" => serving::run(&env, serving::Kind::QueryStatic),
            "ingest_query_mix" => serving::run(&env, serving::Kind::IngestQueryMix),
            "distributed_k2" => serving::run(&env, serving::Kind::DistributedK2),
            other => Err(format!("unknown workload {other}")),
        }
    };
    let body = body.inspect_err(|_| {
        if let Ok(log) = std::fs::read_to_string(&env.log) {
            let tail: Vec<&str> = log.lines().rev().take(20).collect();
            for line in tail.into_iter().rev() {
                eprintln!("child stderr: {line}");
            }
        }
    })?;
    m.attempted += body.attempted;
    m.failed += body.failed;
    m.values.extend(body.values);
    m.failures.extend(body.failures);
    m.notes.extend(body.notes);
    if proc::interrupted() {
        return Err("interrupted".into());
    }
    if !traced {
        // Every child has been reaped by now (guards dropped in `run`).
        let (rss_mb, cpu_s) = proc::children_rusage();
        m.put("peak_rss_mb", rss_mb, 1);
        m.put("child_cpu_s", cpu_s, 1);
    }
    Ok(m)
}

fn context_lines(o: &Options, p: &Params) -> Vec<(&'static str, String)> {
    vec![
        ("seed", o.seed.to_string()),
        (
            "dataset",
            format!(
                "{} ({} series x {} f32, {:.2} GB)",
                p.dataset_key().file_name(),
                p.n,
                p.len,
                p.dataset_key().bytes() as f64 / 1e9
            ),
        ),
        (
            "window_s",
            format!(
                "{} (+{} warm-up), {} set-ups per run",
                p.window,
                p.warmup,
                common::SETUP_REPS
            ),
        ),
        ("nproc", proc::nproc().to_string()),
        ("cpu", proc::cpu_model()),
        ("simd", coconut_series::simd::active().name().to_string()),
        ("commit", proc::git_commit(Path::new("."))),
        (
            "storage",
            "the dataset fits the OS page cache: latencies are this sandbox's, not a device's"
                .to_string(),
        ),
    ]
}

fn print_values(m: &Measured, tables: &[&[Def]]) {
    for v in &m.values {
        let def = tables
            .iter()
            .flat_map(|t| t.iter())
            .find(|d| d.name == v.name);
        let unit = def.map_or("", |d| d.unit);
        let gate = match def.and_then(|d| d.bound) {
            Some(b) => format!(
                "  [{} is better, bound {:.0}%]",
                def.map_or("", |d| d.better.name()),
                b * 100.0
            ),
            None => String::new(),
        };
        println!(
            "  {:<44} {:>16.6} {:<9} n={}{}",
            v.name, v.value, unit, v.n, gate
        );
    }
    for note in &m.notes {
        println!("  note: {note}");
    }
    for f in &m.failures {
        println!("  FAILED: {f}");
    }
}

/// The metrics object of the result line: exactly the names in `defs`.
fn result_metrics(m: &Measured, defs: &[Def]) -> Result<Json, String> {
    let mut pairs = Vec::new();
    for d in defs {
        let v = m
            .get(d.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        pairs.push((
            d.name,
            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
        ));
    }
    Ok(Json::obj(pairs))
}

/// Everything measured, with sample counts: what run sets are made of.
fn detail_json(m: &Measured) -> Json {
    Json::Obj(
        m.values
            .iter()
            .map(|v| {
                (
                    v.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(v.value)),
                        ("n", Json::Num(v.n as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Driver mode: one workload, one result line.
fn run_one(o: &Options, traced: bool) -> Result<bool, String> {
    let workload = o.workload.as_deref().ok_or("--trace needs --workload")?;
    let p = params(o);
    println!(
        "coconut-perf {workload} ({})",
        if traced {
            "traced, per-layer"
        } else {
            "end to end"
        }
    );
    for (k, v) in context_lines(o, &p) {
        println!("  {k:<10} {v}");
    }
    let m = measure(o, workload, traced)?;
    print_values(&m, &[&GATED, &INFO, &PER_LAYER]);
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;
    println!(
        "  {:<44} {:>16.6} {:<9} ({} failed of {} attempted)",
        "error_rate", error_rate, "share", m.failed, m.attempted
    );
    let metrics = result_metrics(&m, if traced { &PER_LAYER } else { &GATED })?;
    println!("detail: {}", detail_json(&m).emit());
    let line = Json::obj(vec![
        ("correct", Json::Bool(m.failed == 0)),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.emit());
    Ok(m.failed == 0)
}

/// Re-run this executable in driver mode and collect its `detail:` line, so
/// each workload's peak memory and CPU are its own children's.
fn run_child(o: &Options, workload: &str, traced: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--coconut")
    .arg(&o.coconut)
    .arg("--work-dir")
    .arg(&o.work_dir);
    if o.quick {
        cmd.arg("--quick");
    }
    if o.break_oracle {
        cmd.arg("--break-oracle");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in text.lines() {
        match line.strip_prefix("detail: ") {
            Some(d) => detail = Some(Json::parse(d)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or_else(|| format!("{workload}: the run printed no result"))?;
    Ok((detail, out.status.success()))
}

/// Human mode: every workload end to end and traced, `repeat` times; writes
/// the run set `compare` reads.
fn run_all(o: &Options) -> Result<bool, String> {
    let p = params(o);
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| o.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut all_ok = true;
    // workload -> metric -> values over the repetitions
    type MetricValues = Vec<(String, Vec<f64>)>;
    let mut sets: Vec<(String, MetricValues)> = selected
        .iter()
        .map(|w| (w.to_string(), Vec::new()))
        .collect();
    for rep in 0..o.repeat {
        for (w, set) in selected.iter().zip(sets.iter_mut()) {
            for traced in [false, true] {
                if o.repeat > 1 {
                    println!("-- repetition {} of {}", rep + 1, o.repeat);
                }
                let (detail, ok) = run_child(o, w, traced)?;
                all_ok &= ok;
                for (name, v) in detail.as_obj().unwrap_or(&[]) {
                    let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    match set.1.iter_mut().find(|(n, _)| n == name) {
                        Some((_, values)) => values.push(value),
                        None => set.1.push((name.clone(), vec![value])),
                    }
                }
            }
        }
    }
    let context = Json::Obj(
        context_lines(o, &p)
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v)))
            .chain([
                ("repeat".to_string(), Json::Num(o.repeat as f64)),
                ("quick".to_string(), Json::Bool(o.quick)),
            ])
            .collect(),
    );
    let workloads = Json::Obj(
        sets.into_iter()
            .map(|(w, metrics)| {
                let obj = metrics
                    .into_iter()
                    .map(|(name, values)| {
                        (name, Json::Arr(values.into_iter().map(Json::Num).collect()))
                    })
                    .collect();
                (w, Json::Obj(obj))
            })
            .collect(),
    );
    let doc = Json::obj(vec![("context", context), ("workloads", workloads)]);
    let out = match &o.out {
        Some(p) => p.clone(),
        None => {
            let stamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            Path::new("benchmarks/out").join(format!("runs-s{}-{stamp}.json", o.seed))
        }
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.emit() + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("run set written to {}", out.display());
    Ok(all_ok)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn benchmark_json() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n  \"paths\": [\"benchmarks\"],\n",
    );
    s += &format!(
        "  \"run_seconds\": {},\n  \"workloads\": [\n",
        DEFAULT_SECONDS
    );
    let rows = |rows: Vec<String>| rows.join(",\n") + "\n";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {}",
                    Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]).emit()
                )
            })
            .collect(),
    );
    s += "  ],\n  \"end_to_end\": [\n";
    s += &rows(
        GATED
            .iter()
            .map(|d| {
                let row = Json::obj(vec![
                    ("name", Json::str(d.name)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.name())),
                    ("bound", Json::Num(d.bound.unwrap_or(0.25))),
                ]);
                format!("    {}", row.emit())
            })
            .collect(),
    );
    s += "  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|d| {
                let row = Json::obj(vec![
                    ("name", Json::str(d.name)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.name())),
                ]);
                format!("    {}", row.emit())
            })
            .collect(),
    );
    s + "  ]\n}\n"
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args.first() else {
        return Err(USAGE.into());
    };
    match verb.as_str() {
        "run" => {
            let o = parse_options(&args[1..])?;
            proc::install_signal_handlers();
            match o.trace {
                Some(traced) => run_one(&o, traced),
                None => run_all(&o),
            }
        }
        "trace" => {
            let o = parse_options(&args[1..])?;
            proc::install_signal_handlers();
            run_one(&o, true)
        }
        "compare" => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("compare wants two run-set files".into()),
        },
        "benchmark-json" => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("coconut-perf: {e}");
            ExitCode::from(2)
        }
    }
}
