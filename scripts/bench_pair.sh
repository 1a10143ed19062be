#!/bin/sh
# bench_pair.sh <parent-ref> <workload> [pairs=10]
#
# Paired end-to-end comparison of a parent commit and the working tree with
# the committed benchmark (go run -C bench .), per the choosing-metrics guide
# §8: <pairs> pairs of timed runs, the side that runs first flipped each pair,
# both sides of pair p on seed p, then per-metric medians, quartiles, pair
# wins and a verdict against the BENCHMARK.json bounds (scripts/benchpair).
#
# The parent is exported with `git archive` into a temporary directory (under
# $TMPDIR), so nothing is registered in .git and each side builds and runs
# from its own checkout with its own .bench_build, as the PR gate does. One
# pair takes about a minute; the parent's first run also generates its corpus
# and model. Opt-in tier-2 tooling: too slow and too host-dependent for
# tier-1.
#
#   sh scripts/bench_pair.sh HEAD~1 router-closed
#   sh scripts/bench_pair.sh db0158d scan-closed 12
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"

mkdir -p "$root/.bench_build/pairs"
results="$root/.bench_build/pairs/${workload}_$(date +%Y%m%dT%H%M%S).txt"
: > "$results"

# run <side> <dir> <pair>: one timed run; its result line joins $results. A
# run with failed requests still prints one ("correct": false), and the
# summary counts it.
run() {
    echo "pair $3/$pairs: $1" >&2
    line=$(cd "$2" && go run -C bench . --workload "$workload" --seed "$3" --trace 0 | tail -n 1)
    case $line in
    \{*) echo "$1 $3 $line" >> "$results" ;;
    *) echo "pair $3: the $1 run printed no result line" >&2 ;;
    esac
}

p=1
while [ "$p" -le "$pairs" ]; do
    if [ $((p % 2)) -eq 1 ]; then
        run parent "$tmp/parent" "$p"
        run change "$root" "$p"
    else
        run change "$root" "$p"
        run parent "$tmp/parent" "$p"
    fi
    p=$((p + 1))
done

echo "workload $workload, parent $commit, $pairs pairs; result lines in $results"
cd "$root" && go run ./scripts/benchpair -benchmark BENCHMARK.json < "$results"
