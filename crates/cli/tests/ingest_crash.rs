//! The group-commit crash schedule through the `coconut` binary: a seeded
//! fault plan tears a four-writer ingest's manifest commit mid-write (the
//! window between the run fsyncs and the manifest rename), so the process
//! must exit non-zero; a clean re-run must recover the orphaned runs and
//! catch up, and a full scrub must pass. The same fault sites
//! (`manifest.{before,torn,after}`) are property-tested across random
//! interleavings in `crates/core/tests/prop_compaction.rs`; this pins one
//! schedule on the CLI path.

use std::path::Path;
use std::process::{Command, Output};

use coconut_storage::TempDir;

/// Run `coconut args...` with no inherited fault plan, plus `faults` as
/// `COCONUT_FAULTS` (seed 7) when given.
fn coconut(args: &[&str], dir: &Path, faults: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_coconut"));
    cmd.args(args)
        .current_dir(dir)
        .env_remove("COCONUT_FAULTS")
        .env_remove("COCONUT_FAULT_SEED");
    if let Some(spec) = faults {
        cmd.env("COCONUT_FAULTS", spec)
            .env("COCONUT_FAULT_SEED", "7");
    }
    cmd.output().expect("run coconut")
}

fn describe(out: &Output) -> String {
    format!(
        "{}\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn torn_manifest_ingest_fails_then_recovers_and_scrubs_clean() {
    let dir = TempDir::new("ingest-crash").unwrap();
    let gen = [
        "gen",
        "--kind",
        "randomwalk",
        "--count",
        "2000",
        "--len",
        "64",
        "--seed",
        "7",
        "data.ds",
    ];
    let out = coconut(&gen, dir.path(), None);
    assert!(out.status.success(), "gen: {}", describe(&out));

    let ingest = [
        "ingest",
        "--data",
        "data.ds",
        "--index-dir",
        "idx",
        "--writers",
        "4",
        "--batch",
        "200",
    ];
    let out = coconut(&ingest, dir.path(), Some("manifest.torn=err@2"));
    assert!(
        !out.status.success() && String::from_utf8_lossy(&out.stderr).contains("manifest.torn"),
        "the armed manifest.torn fault never fired: {}",
        describe(&out)
    );

    let out = coconut(&ingest, dir.path(), None);
    assert!(
        out.status.success() && String::from_utf8_lossy(&out.stdout).contains("0..2000"),
        "clean re-run did not catch up: {}",
        describe(&out)
    );

    let scrub = ["scrub", "--data", "data.ds", "--index-dir", "idx"];
    let out = coconut(&scrub, dir.path(), None);
    assert!(out.status.success(), "scrub: {}", describe(&out));
}
