//! `repro` — regenerate every table and figure of the Coconut paper.
//!
//! ```text
//! repro <experiment>... [--full] [--work-dir DIR] [--results-dir DIR]
//!
//! experiments: fig7 fig8a fig8b fig8c fig8d fig8e fig8f
//!              fig9a fig9b fig9c fig9d fig9e fig9f
//!              fig10a fig10b fig10c ablation bench_distance
//!              fig8 fig9 fig10 all
//! ```
//!
//! `--full` uses the larger reporting scale (slower, smoother curves);
//! the default quick scale finishes the whole suite in minutes.

use std::path::PathBuf;
use std::process::ExitCode;

use coconut_bench::experiments::{self, Env, Scale};
use coconut_storage::TempDir;

const ALL: &[&str] = &[
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig8e",
    "fig8f",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig9f",
    "fig10a",
    "fig10b",
    "fig10c",
    "ablation",
    "bench_distance",
];

fn expand(arg: &str) -> Vec<&'static str> {
    match arg {
        "all" => ALL.to_vec(),
        "fig8" => ALL
            .iter()
            .copied()
            .filter(|e| e.starts_with("fig8"))
            .collect(),
        "fig9" => ALL
            .iter()
            .copied()
            .filter(|e| e.starts_with("fig9"))
            .collect(),
        "fig10" => ALL
            .iter()
            .copied()
            .filter(|e| e.starts_with("fig10"))
            .collect(),
        other => ALL.iter().copied().filter(|&e| e == other).collect(),
    }
}

fn run_experiment(name: &str, env: &Env) -> coconut_storage::Result<()> {
    match name {
        "fig7" => experiments::fig7::run(env),
        "fig8a" => experiments::fig8::run_8a(env),
        "fig8b" => experiments::fig8::run_8b(env),
        "fig8c" => experiments::fig8::run_8c(env),
        "fig8d" => experiments::fig8::run_8d(env),
        "fig8e" => experiments::fig8::run_8e(env),
        "fig8f" => experiments::fig8::run_8f(env),
        "fig9a" => experiments::fig9::run_9a(env),
        "fig9b" => experiments::fig9::run_9b(env),
        "fig9c" => experiments::fig9::run_9c(env),
        "fig9d" => experiments::fig9::run_9d(env),
        "fig9e" => experiments::fig9::run_9e(env),
        "fig9f" => experiments::fig9::run_9f(env),
        "fig10a" => experiments::fig10::run_10a(env),
        "fig10b" => experiments::fig10::run_10b(env),
        "fig10c" => experiments::fig10::run_10c(env),
        "ablation" => experiments::ablation::run(env),
        "bench_distance" => experiments::bench_distance::run(env),
        _ => unreachable!("expand() only yields known names"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments_to_run: Vec<&str> = Vec::new();
    let mut scale = Scale::quick();
    let mut work_dir: Option<PathBuf> = None;
    let mut results_dir = PathBuf::from("results");

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => scale = Scale::full(),
            "--work-dir" => {
                work_dir = it.next().map(PathBuf::from);
            }
            "--results-dir" => {
                if let Some(d) = it.next() {
                    results_dir = PathBuf::from(d);
                }
            }
            "-h" | "--help" => {
                println!(
                    "usage: repro <experiment>... [--full] [--work-dir DIR] [--results-dir DIR]\n\
                     experiments: {} fig8 fig9 fig10 all",
                    ALL.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                let expanded = expand(other);
                if expanded.is_empty() {
                    eprintln!("unknown experiment '{other}' (try --help)");
                    return ExitCode::FAILURE;
                }
                experiments_to_run.extend(expanded);
            }
        }
    }
    if experiments_to_run.is_empty() {
        eprintln!("no experiment given (try --help, or 'repro all')");
        return ExitCode::FAILURE;
    }

    // Scratch space: reused across experiments so datasets are generated
    // once; deleted at exit unless the caller chose a directory.
    let _tmp_guard;
    let work_dir = match work_dir {
        Some(d) => {
            if let Err(e) = std::fs::create_dir_all(&d) {
                eprintln!("cannot create work dir: {e}");
                return ExitCode::FAILURE;
            }
            d
        }
        None => {
            let tmp = TempDir::new("repro").expect("temp dir");
            let path = tmp.path().to_path_buf();
            _tmp_guard = tmp;
            path
        }
    };

    let env = Env {
        work_dir,
        results_dir,
        scale,
    };
    println!(
        "# Coconut reproduction — scale: {} series x {} points, {} queries\n",
        env.scale.n, env.scale.series_len, env.scale.queries
    );
    for name in experiments_to_run {
        println!("## running {name}\n");
        if let Err(e) = run_experiment(name, &env) {
            eprintln!("{name} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
