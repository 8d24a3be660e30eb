//! End-to-end smoke test of `repro distributed`: drives the real binary
//! (which re-execs itself as shard worker processes) at a micro scale and
//! checks its exit status and printed oracle verdict. This is the same path
//! CI runs on every push.

use std::process::Command;

use coconut_storage::TempDir;

#[test]
fn repro_distributed_runs_and_verifies() {
    let work = TempDir::new("dist-smoke-w").unwrap();
    let results = TempDir::new("dist-smoke-r").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "distributed",
            "--n",
            "700",
            "--len",
            "64",
            "--queries",
            "3",
            "--work-dir",
        ])
        .arg(work.path())
        .arg("--results-dir")
        .arg(results.path())
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "repro distributed failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // 3 queries x EXACT/KNN/RANGE per shard count; nothing written.
    for shards in [1, 2, 4] {
        assert!(
            stdout.contains(&format!("k={shards}: 9 requests, 0 divergences")),
            "{stdout}"
        );
    }
    assert!(
        stdout.contains("oracle check: every EXACT/KNN/RANGE answer bit-identical"),
        "{stdout}"
    );
    assert!(std::fs::read_dir(results.path()).unwrap().next().is_none());
}
