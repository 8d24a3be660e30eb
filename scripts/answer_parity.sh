#!/usr/bin/env bash
# Answer parity across index layouts, through the real `coconut` binary.
#
#   scripts/answer_parity.sh [path/to/coconut]
#
# Builds five indexes over one 20,000 x 128 random-walk dataset: ctree and
# ctrie, each pointer and materialized, plus an adaptive-split ctrie. It then
# runs an exact 1-NN, a 10-NN, a range, a DTW and a DTW 10-NN query for
# three seeds against each file, and a 1-NN and a 10-NN query for three
# members (`--pos`: near queries, whose tight cutoffs prune the most inside
# leaves). Every file must print the same answer lines; only the
# `time` line (with its fetched/pruned counters) may differ. Exits non-zero
# on the first divergence, printing the diff.
set -euo pipefail

coconut="${1:-target/release/coconut}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$coconut" gen --kind randomwalk --count 20000 --len 128 --seed 1 "$work/data.ds" >/dev/null

layouts=(
    "ctree-ptr:--index ctree"
    "ctree-full:--index ctree --materialized"
    "ctrie-ptr:--index ctrie"
    "ctrie-full:--index ctrie --materialized"
    "ctrie-adaptive:--index ctrie --split-policy adaptive"
)
modes=("" "--k 10" "--range 9" "--dtw 6" "--dtw 10 --k 10")
near_modes=("" "--k 10")

for layout in "${layouts[@]}"; do
    name="${layout%%:*}"
    mkdir -p "$work/$name"
    # shellcheck disable=SC2086 # the build flags are word-split on purpose
    "$coconut" build ${layout#*:} --leaf 500 --out-dir "$work/$name" "$work/data.ds" >/dev/null
    index=("$work/$name"/*.idx)
    {
        for seed in 7 42 1234; do
            for mode in "${modes[@]}"; do
                # shellcheck disable=SC2086
                "$coconut" query --index "${index[0]}" --data "$work/data.ds" --seed "$seed" $mode
            done
        done
        for pos in 3 9876 19999; do
            for mode in "${near_modes[@]}"; do
                # shellcheck disable=SC2086
                "$coconut" query --index "${index[0]}" --data "$work/data.ds" --pos "$pos" $mode
            done
        done
    } | grep -v '^time ' >"$work/$name.answers"
done

reference="${layouts[0]%%:*}"
for layout in "${layouts[@]:1}"; do
    name="${layout%%:*}"
    if ! diff -u "$work/$reference.answers" "$work/$name.answers"; then
        echo "answer lines of $name differ from $reference" >&2
        exit 1
    fi
done
echo "answer parity: ${#layouts[@]} layouts x (3 seeds x ${#modes[@]} + 3 members x ${#near_modes[@]}) queries agree ($(wc -l <"$work/$reference.answers") lines each)"
