#!/usr/bin/env bash
# Builds stay inside their memory budget, and their files inside their
# entries' bytes, through the real `coconut` binary.
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
#
# A pointer entry stores 16 symbol bytes and a position of the fewest bytes
# that hold the largest position (3 at 400,000 series), and leaves are packed
# back to back. So the script prints each index file's bytes per series and
# fails above 16 + pos_bytes + 1: the one byte per series left over covers
# the header, the leaf directory and the trie's nodes, but not a part-full
# leaf padded to its capacity.
#
# Each index is then built again with COCONUT_FORCE_SCALAR=1, which pins the
# portable kernels in place of the AVX2 and BMI2 ones (PAA sums, the PDEP
# interleave of each key), and the script fails unless `cmp` finds the two
# index files byte-identical: the file must not depend on the host CPU.
set -euo pipefail

coconut="${1:-target/release/coconut}"
budget_mb=4
slack_mb=12
count=400000
pos_bytes=1
while (((count - 1) >> (8 * pos_bytes))); do
    pos_bytes=$((pos_bytes + 1))
done
max_bytes_per_series=$((16 + pos_bytes + 1))
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$coconut" gen --kind randomwalk --count "$count" --len 128 --seed 1 "$work/data.ds" >/dev/null

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
    for idx in "$work/$index"/*.idx; do
        bytes="$(wc -c <"$idx")"
        per_series="$(awk -v b="$bytes" -v n="$count" 'BEGIN { printf "%.3f", b / n }')"
        if awk -v p="$per_series" -v lim="$max_bytes_per_series" 'BEGIN { exit !(p > lim) }'; then
            echo "$index: $(basename "$idx") takes $per_series B/series, above $max_bytes_per_series (16 + $pos_bytes + 1)" >&2
            status=1
        else
            echo "$index: $(basename "$idx") takes $per_series B/series (at most $max_bytes_per_series)"
        fi
    done
    COCONUT_FORCE_SCALAR=1 "$coconut" build --index "$index" --memory-mb "$budget_mb" \
        --shards 2 --out-dir "$work/$index-scalar" "$work/data.ds" >/dev/null
    for idx in "$work/$index"/*.idx; do
        if cmp "$idx" "$work/$index-scalar/$(basename "$idx")"; then
            echo "$index: $(basename "$idx") is byte-identical under COCONUT_FORCE_SCALAR=1"
        else
            echo "$index: $(basename "$idx") differs under COCONUT_FORCE_SCALAR=1" >&2
            status=1
        fi
    done
    rm -rf "${work:?}/$index" "${work:?}/$index-scalar"
done
exit "$status"
