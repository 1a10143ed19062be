#!/bin/sh
# check_reproducible.sh checks that every file the binaries write is a
# function of their inputs: it builds ./cmd/... once, runs each command below
# twice with the same arguments into two directories, and compares each pair
# of outputs with cmp. The byte-identity pins of the tests rest on this, and a
# payload that holds a Go map (gob writes maps in random order) breaks it.
#
#   ibgen                                  the corpus
#   ibtrain -model lda -checkpoint-every 1 the served model and its checkpoint
#   ibtrain -topics 2,3,4                  the model selection writes
#   ibtrain -model lstm|gru (tiny)         models and checkpoints
#   ibeval -exp all -scale quick           the paper record (stdout, -time=false)
#
# About 10 s on two cores with a warm build cache, offline.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d "${TMPDIR:-/tmp}/reproducible.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
go build -o "$tmp/bin/" ./cmd/...

# run <dir>: every command once, in <dir>, so that the paths printed are the
# same on both runs. Both train on the first run's corpus.
run() {
    mkdir -p "$1"
    (
        cd "$1"
        b=$tmp/bin c=$tmp/a/corpus.jsonl
        "$b/ibgen" -companies 300 -seed 3 -out corpus.jsonl > /dev/null
        "$b/ibtrain" -model lda -topics 3 -checkpoint-every 1 -corpus "$c" -out lda.gob > /dev/null 2>&1
        "$b/ibtrain" -topics 2,3,4 -corpus "$c" -out selected.gob > selected.txt
        for m in lstm gru; do
            "$b/ibtrain" -model $m -layers 1 -hidden 10 -epochs 2 -checkpoint-every 1 \
                -corpus "$c" -out $m.gob > /dev/null 2>&1
        done
        "$b/ibeval" -exp all -scale quick -time=false > ibeval.txt
    )
}
run "$tmp/a"
run "$tmp/b"

bad=0
n=0
for f in corpus.jsonl lda.gob lda.gob.ckpt selected.gob selected.txt \
    lstm.gob lstm.gob.ckpt gru.gob gru.gob.ckpt ibeval.txt; do
    n=$((n + 1))
    if ! cmp "$tmp/a/$f" "$tmp/b/$f"; then
        bad=$((bad + 1))
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "FAIL: $bad of $n outputs differ between two identical runs" >&2
    exit 1
fi
echo "reproducible OK ($n outputs)"
