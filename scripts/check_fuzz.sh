#!/bin/sh
# check_fuzz.sh gives every lemma the exact scan skips rows on a short live
# fuzz run: each Fuzz* target of internal/core, listed from the test sources,
# so that a new lemma's fuzzer cannot be left out. Today these are
# FuzzConeBound (no member of a cone-tree node scores above the node's bound)
# and FuzzRejectBound (the floor test drops only rows that score below the
# floor). Their committed seeds already run under `go test ./...`; this spends
# four seconds on each hunting a new counter-example (about 10 s for two,
# offline). A failing input is written under
# internal/core/testdata/fuzz/<target>/: commit it as a seed with the fix.
set -eu
cd "$(dirname "$0")/.."

targets=$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' internal/core/*_test.go)
if [ -z "$targets" ]; then
    echo "check_fuzz: no Fuzz targets found in internal/core" >&2
    exit 1
fi
for target in $targets; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 4s -parallel 2 ./internal/core
done
echo "fuzz OK: $(echo $targets)"
