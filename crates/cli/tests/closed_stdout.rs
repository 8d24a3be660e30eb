//! A one-shot command whose reader has gone away (`coconut info d.ds |
//! true`) exits quietly: no "failed printing to stdout" panic, no error
//! message, exit status 0 — and it still does its work.

use std::path::Path;
use std::process::{Command, Stdio};

use coconut_storage::TempDir;

/// Run `coconut args...` in `dir` with stdout on a pipe whose read end is
/// closed before the child starts, so its first write meets a closed pipe,
/// and require a quiet success.
fn coconut_into_closed_pipe(args: &str, dir: &Path) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_coconut"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .env_remove("COCONUT_FAULTS")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run coconut");
    assert!(
        out.status.success() && out.stderr.is_empty(),
        "{args}: {}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn commands_exit_quietly_when_stdout_is_closed() {
    let dir = TempDir::new("closed-stdout").unwrap();
    let gen = "gen --kind randomwalk --count 500 --len 32 data.ds";
    coconut_into_closed_pipe(gen, dir.path());
    coconut_into_closed_pipe("info data.ds", dir.path());
    coconut_into_closed_pipe("help", dir.path());
}

#[test]
fn build_finishes_its_index_when_stdout_is_closed() {
    let dir = TempDir::new("closed-stdout-build").unwrap();
    let gen = "gen --kind randomwalk --count 500 --len 32 data.ds";
    coconut_into_closed_pipe(gen, dir.path());
    let build = "build --index ctree --leaf 50 --out-dir idx data.ds";
    coconut_into_closed_pipe(build, dir.path());
    let files: Vec<_> = std::fs::read_dir(dir.path().join("idx"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        files
            .iter()
            .any(|p| p.extension().is_some_and(|x| x == "idx")),
        "the build left no index file: {files:?}"
    );
}
