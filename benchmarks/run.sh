#!/usr/bin/env bash
# The one command of the performance record.
#
#   benchmarks/run.sh [--seed S] [--workload W] [--quick] [--repeat N] [--out FILE]
#       builds `coconut` (release) and `coconut-perf`, runs every workload end
#       to end and traced, checks answers, prints every metric by name with
#       its unit, and writes a run set for `coconut-perf compare`.
#
#   benchmarks/run.sh --workload W --seed S --seconds N --trace 0|1
#       what the driver of BENCHMARK.json calls: one workload, one run, one
#       JSON result line last.
#
# Run from the repository root or anywhere else; everything it writes lands
# in the cargo target directory and in benchmarks/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both packages: the driver's CARGO_TARGET_DIR
# (made absolute, since the two manifests live in different directories),
# or the workspace's own target/.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --quiet -p coconut-cli >&2
cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml >&2

# Not `exec`: a process keeps its reaped children's rusage across exec, and
# rustc's memory would be reported as the program's `peak_rss_mb`.
"$target/release/coconut-perf" run \
    --coconut "$target/release/coconut" --work-dir "$target" "$@"
