#!/bin/sh
# check_bench_builds.sh keeps the yardstick compiling. bench/ is a module of
# its own (replace repro => ../), so `go build ./...`, `go vet ./...` and
# `go test ./...` at the root never reach it — yet bench/probe.go and
# bench/artefacts.go call core.NewScorer(...).ScoreBlock, Index.TopK,
# Index.Whitespace and Index.RecommendFromSimilar, so a refactor of
# internal/core can break the benchmark while every other tier-1 leg stays
# green. This vets the module and runs its own unit tests (about two seconds,
# offline); it reads bench/ and changes nothing in it.
set -eu
cd "$(dirname "$0")/.."

go vet -C bench .
go test -C bench .
echo "bench builds OK"
