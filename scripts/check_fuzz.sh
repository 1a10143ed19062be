#!/bin/sh
# check_fuzz.sh gives the two lemmas the exact scan skips rows on a short
# live fuzz run: FuzzConeBound (no member of a leaf scores above the leaf's
# bound) and FuzzRejectBound (the floor test drops only rows that score below
# the floor). Their committed seeds already run under `go test ./...`; this
# spends four seconds on each hunting a new counter-example (about 10 s in
# all, offline). A failing input is written under
# internal/core/testdata/fuzz/<target>/: commit it as a seed with the fix.
set -eu
cd "$(dirname "$0")/.."

for target in FuzzConeBound FuzzRejectBound; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 4s -parallel 2 ./internal/core
done
echo "fuzz OK"
