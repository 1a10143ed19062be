#!/bin/sh
# check_fuzz.sh gives every fuzzer of internal/core, internal/serve and
# internal/corpus a short live run: each Fuzz* target, listed from the
# packages' test sources, so that a new fuzzer cannot be left out. In
# internal/core they are the lemmas the exact scan skips rows on:
# FuzzConeBound (no member of a cone-tree node scores above the node's bound),
# FuzzRejectBound (the floor test drops only rows that score below the floor)
# and FuzzZoneBound (no row of a node the zone test skips passes the filter).
# In internal/serve they are the handlers' untrusted input: FuzzSimilarQuery,
# FuzzWhitespaceBody and FuzzInferBody (no panic, no 5xx, exactly one of the
# endpoint's requests and errors counters ticked). In internal/corpus they are
# the corpus file: FuzzReadJSONL (the chunk-parallel reader and its column
# sink against the line-by-line reference) and FuzzCompanyLine (the fast path
# against encoding/json). Their seeds already run under `go test ./...`; this
# spends four seconds on each hunting a new counter-example (about 40 s for
# eight, offline). A failing input is written under
# <package>/testdata/fuzz/<target>/: commit it as a seed with the fix.
set -eu
cd "$(dirname "$0")/.."

all=""
for pkg in internal/core internal/serve internal/corpus; do
    targets=$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $pkg/*_test.go)
    if [ -z "$targets" ]; then
        echo "check_fuzz: no Fuzz targets found in $pkg" >&2
        exit 1
    fi
    for target in $targets; do
        go test -run '^$' -fuzz "^$target\$" -fuzztime 4s -parallel 2 ./$pkg
    done
    all="$all $targets"
done
echo "fuzz OK:$(echo $all | sed 's/^/ /')"
