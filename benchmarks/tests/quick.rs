//! `--quick` end-to-end smoke: 20k series, 3 s windows, all four workloads
//! through real `coconut` child processes, end to end and traced — so the
//! harness is exercised without the long run. Also the two acceptance
//! checks that need real runs: a deliberately wrong oracle fails the run,
//! and a run set compares clean against itself.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmarks/ has a parent")
        .to_path_buf()
}

/// The cargo target directory shared with the workspace build.
fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) if Path::new(&t).is_absolute() => PathBuf::from(t),
        Some(t) => Path::new(env!("CARGO_MANIFEST_DIR")).join(t),
        None => repo_root().join("target"),
    }
}

/// Build the real `coconut` binary (release) and return its path.
fn coconut() -> PathBuf {
    let target = target_dir();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "coconut-cli",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building coconut-cli failed");
    target.join("release/coconut")
}

fn perf(args: &[&str], work: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_coconut-perf"))
        .args(args)
        .arg("--coconut")
        .arg(coconut())
        .arg("--work-dir")
        .arg(work)
        .current_dir(repo_root())
        .output()
        .expect("coconut-perf runs")
}

fn work_dir(name: &str) -> PathBuf {
    let dir = target_dir().join(format!("perf-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn quick_run_of_all_four_workloads_then_compare() {
    let work = work_dir("quick");
    let set = work.join("runs.json");
    let out = perf(
        &[
            "run",
            "--quick",
            "--seed",
            "7",
            "--out",
            &set.to_string_lossy(),
        ],
        &work,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in [
        "build_static",
        "query_static",
        "ingest_query_mix",
        "distributed_k2",
    ] {
        assert!(
            stdout.contains(&format!("coconut-perf {workload} (end to end)")),
            "{workload} did not run"
        );
        assert!(
            stdout.contains(&format!("coconut-perf {workload} (traced, per-layer)")),
            "{workload} was not traced"
        );
    }
    assert!(stdout.contains("process crash (SIGKILL), not power loss"));
    assert!(!stdout.contains("FAILED"), "{stdout}");

    // The run set names every workload, and each holds the end-to-end and
    // the per-layer metrics (spot-checked; the unit tests pin the tables).
    let text = std::fs::read_to_string(&set).unwrap();
    for name in [
        "setup_s",
        "build_series_per_s",
        "query_qps",
        "knn_p50_ms",
        "peak_rss_mb",
        "write_amp",
        "build_full_series_per_s",
    ] {
        assert!(
            text.contains(&format!("\"{name}\":[")),
            "run set lacks {name}"
        );
    }
    for name in [
        "summary.mindist.scan_ns_per_key",
        "core.lsm.exact_us_per_extra_run",
        "server.wire_us",
        "trace.query.explained_share",
    ] {
        assert_eq!(
            text.matches(&format!("\"{name}\":[")).count(),
            4,
            "{name} should appear once per workload"
        );
    }

    // A run set compared with itself has no regression.
    let cmp = Command::new(env!("CARGO_BIN_EXE_coconut-perf"))
        .args(["compare", &set.to_string_lossy(), &set.to_string_lossy()])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(
        table.contains("query_static") && table.contains(" ok") && table.contains(" same"),
        "{table}"
    );
    assert!(
        !table.contains("regressed") && !table.contains("differs"),
        "{table}"
    );
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn a_wrong_oracle_fails_the_run() {
    let work = work_dir("oracle");
    let out = perf(
        &[
            "run",
            "--quick",
            "--workload",
            "query_static",
            "--seed",
            "8",
            "--trace",
            "0",
            "--break-oracle",
        ],
        &work,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "an off-by-one oracle must fail the run:\n{stdout}"
    );
    let last = stdout.lines().last().unwrap_or("");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(stdout.contains("FAILED"), "{stdout}");
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let work = work_dir("line");
    let out = perf(
        &[
            "run",
            "--quick",
            "--workload",
            "distributed_k2",
            "--seed",
            "9",
            "--trace",
            "0",
        ],
        &work,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(
        last.contains("\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":"),
        "{last}"
    );
    assert!(last.ends_with("\"unit\":\"ms\"}}}"), "{last}");
    std::fs::remove_dir_all(&work).unwrap();
}
