#!/usr/bin/env bash
# Builds stay inside their memory budget, through the real `coconut` binary.
#
#   scripts/build_memory.sh [path/to/coconut]
#
# Generates 400,000 x 128 random-walk series (195 MiB raw) and builds a
# pointer ctree and a pointer ctrie from them with `--memory-mb 4 --shards 2`.
# `coconut build` prints its peak resident set (VmHWM); the script fails if
# either build peaks above the budget plus 12 MiB of slack for the binary,
# the merge's read buffers and the one leaf being written. Both builds spill
# sorted runs into their --out-dir, so the script also fails if that
# directory holds anything but the index file afterwards.
set -euo pipefail

coconut="${1:-target/release/coconut}"
budget_mb=4
slack_mb=12
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$coconut" gen --kind randomwalk --count 400000 --len 128 --seed 1 "$work/data.ds" >/dev/null

status=0
for index in ctree ctrie; do
    out="$("$coconut" build --index "$index" --memory-mb "$budget_mb" --shards 2 \
        --out-dir "$work/$index" "$work/data.ds")"
    line="$(grep '^memory ' <<<"$out" || true)"
    if [ -z "$line" ]; then
        echo "$index: coconut build printed no peak resident set" >&2
        exit 1
    fi
    peak="$(awk '{print $2}' <<<"$line")"
    if awk -v p="$peak" -v lim="$((budget_mb + slack_mb))" 'BEGIN { exit !(p > lim) }'; then
        echo "$index: peak resident $peak MiB exceeds the $budget_mb MiB budget + $slack_mb MiB" >&2
        status=1
    else
        echo "$index: peak resident $peak MiB (budget $budget_mb MiB + $slack_mb MiB)"
    fi
    left="$(find "$work/$index" -mindepth 1 ! -name '*.idx')"
    if [ -n "$left" ] || [ "$(find "$work/$index" -name '*.idx' | wc -l)" -ne 1 ]; then
        echo "$index: --out-dir holds more than its index file:" >&2
        ls -la "$work/$index" >&2
        status=1
    fi
    rm -rf "${work:?}/$index"
done
exit "$status"
