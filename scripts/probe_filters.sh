#!/bin/sh
# probe_filters.sh [N]
#
# Server-side latency of /v1/similar by filter shape at N companies (default
# 100000; the paper's corpus is 860000). Builds ibgen, ibtrain and ibserve,
# generates a corpus (seed 1), trains LDA-4 on it, starts one ibserve, then
# sends the same 200 seeded ids, top-10, one request at a time, under each
# filter shape:
#
#   none, country=US, sic2=73, country=US&sic2=73, min_employees=100
#
# and prints p50 / p90 / max of the access log's dur_ms per shape (nearest
# rank). Offline apart from localhost; every artefact lives in a temporary
# directory under $TMPDIR and is removed on exit. At 860000 companies the
# corpus and the model take about a minute to make on two cores.
#
#   TMPDIR=/path/to/scratch sh scripts/probe_filters.sh 860000
set -eu

if [ $# -gt 1 ]; then
    echo "usage: $0 [N]" >&2
    exit 2
fi
n=${1:-100000}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/probe_filters.XXXXXX")
pid=
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cd "$root"
go build -o "$work/" ./cmd/ibgen ./cmd/ibtrain ./cmd/ibserve
"$work/ibgen" -companies "$n" -seed 1 -out "$work/corpus.jsonl" -stats=false >/dev/null
"$work/ibtrain" -model lda -topics 4 -seed 1 -corpus "$work/corpus.jsonl" -out "$work/lda.gob" >/dev/null
"$work/ibserve" -corpus "$work/corpus.jsonl" -model "$work/lda.gob" -addr localhost:0 >"$work/stdout" 2>"$work/log" &
pid=$!

addr=
tries=0
while [ -z "$addr" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "probe_filters: ibserve exited" >&2
        cat "$work/log" >&2
        exit 1
    fi
    tries=$((tries + 1))
    if [ "$tries" -gt 1200 ]; then
        echo "probe_filters: ibserve not serving after 120 s" >&2
        exit 1
    fi
    sleep 0.1
    addr=$(sed -n 's/^serving on //p' "$work/stdout")
done

awk -v n="$n" 'BEGIN { srand(7); for (i = 0; i < 200; i++) print int(rand() * n) }' >"$work/ids"
shapes="none country=US sic2=73 country=US&sic2=73 min_employees=100"
for shape in $shapes; do
    query="k=10"
    [ "$shape" = none ] || query="k=10&$shape"
    while read -r id; do
        curl -sf -o /dev/null "http://$addr/v1/similar/$id?$query"
    done <"$work/ids"
done

# The requests went one at a time, so the log holds their lines in send
# order; wait for the last one to be written.
want=$((200 * $(echo "$shapes" | wc -w)))
tries=0
while [ "$(grep -c 'path=/v1/similar/' "$work/log")" -lt "$want" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
        echo "probe_filters: the access log holds fewer than $want request lines" >&2
        exit 1
    fi
    sleep 0.1
done

echo "/v1/similar at $n companies, LDA-4, top-10, 200 ids per shape, server dur_ms"
printf '%-22s %8s %8s %8s\n' filter p50 p90 max
i=0
for shape in $shapes; do
    grep 'path=/v1/similar/' "$work/log" | sed -n 's/.*dur_ms=\([0-9.e+-]*\).*/\1/p' |
        awk -v lo=$((i * 200)) 'NR > lo && NR <= lo + 200' | sort -g |
        awk -v shape="$shape" '{ v[NR] = $1 }
            END {
                p50 = v[int((NR * 50 + 99) / 100)]; p90 = v[int((NR * 90 + 99) / 100)]
                printf "%-22s %8.3f %8.3f %8.3f\n", shape, p50, p90, v[NR]
            }'
    i=$((i + 1))
done
