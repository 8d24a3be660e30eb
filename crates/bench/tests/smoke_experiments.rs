//! Smoke tests: every figure runner executes end-to-end at a micro scale
//! and produces its CSV. (The real numbers come from the `repro` binary;
//! these tests guard the harness itself.)

use coconut_bench::experiments::{self, Env, Scale};
use coconut_storage::TempDir;

fn micro_env(work: &TempDir, results: &TempDir) -> Env {
    Env {
        work_dir: work.path().to_path_buf(),
        results_dir: results.path().to_path_buf(),
        scale: Scale {
            n: 400,
            series_len: 64,
            queries: 3,
            leaf_capacity: 32,
            threads: 2,
        },
    }
}

fn csv_exists(results: &TempDir, name: &str) -> bool {
    results.path().join(format!("{name}.csv")).is_file()
}

#[test]
fn fig7_runs() {
    let (w, r) = (
        TempDir::new("smoke-w").unwrap(),
        TempDir::new("smoke-r").unwrap(),
    );
    experiments::fig7::run(&micro_env(&w, &r)).unwrap();
    assert!(csv_exists(&r, "fig7"));
}

#[test]
fn fig8_family_runs() {
    let (w, r) = (
        TempDir::new("smoke-w").unwrap(),
        TempDir::new("smoke-r").unwrap(),
    );
    let env = micro_env(&w, &r);
    experiments::fig8::run_8c(&env).unwrap();
    experiments::fig8::run_8e(&env).unwrap();
    assert!(csv_exists(&r, "fig8c"));
    assert!(csv_exists(&r, "fig8e"));
    // The CSV has the expected header.
    let csv = std::fs::read_to_string(r.path().join("fig8c.csv")).unwrap();
    assert!(csv.starts_with("algorithm,index_bytes,raw_ratio,leaves,avg_fill"));
}

#[test]
fn fig9_family_runs() {
    let (w, r) = (
        TempDir::new("smoke-w").unwrap(),
        TempDir::new("smoke-r").unwrap(),
    );
    let env = micro_env(&w, &r);
    experiments::fig9::run_9d(&env).unwrap();
    experiments::fig9::run_9f(&env).unwrap();
    assert!(csv_exists(&r, "fig9d"));
    assert!(csv_exists(&r, "fig9f"));
}

#[test]
fn fig10a_runs() {
    let (w, r) = (
        TempDir::new("smoke-w").unwrap(),
        TempDir::new("smoke-r").unwrap(),
    );
    let env = micro_env(&w, &r);
    experiments::fig10::run_10a(&env).unwrap();
    assert!(csv_exists(&r, "fig10a"));
    let csv = std::fs::read_to_string(r.path().join("fig10a.csv")).unwrap();
    // Two algorithms (CTree-LSM, ADS+) x three batch sizes.
    assert_eq!(csv.lines().count(), 1 + 6, "{csv}");
}
