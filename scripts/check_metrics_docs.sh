#!/bin/sh
# check_metrics_docs.sh asserts that every metric name the serving stack can
# register is documented in README.md or DESIGN.md. The name list comes from
# scripts/metricnames, which constructs real instances (server with its SLO
# tracker and reload guard, router with its SLO tracker, runtime sampler)
# against the shared obs registry and prints Registry.Names() — so a PR that adds a
# metric without documenting it fails tier-1. Per-shard series are normalized
# to the router_shard{i}_* family the docs describe.
set -eu
cd "$(dirname "$0")/.."

names=$(go run ./scripts/metricnames | sed 's/shard[0-9][0-9]*/shard{i}/' | sort -u)

missing=0
for n in $names; do
    if ! grep -qF "$n" README.md DESIGN.md; then
        echo "undocumented metric: $n" >&2
        missing=1
    fi
done

if [ "$missing" -ne 0 ]; then
    echo "FAIL: metrics registered but not documented in README.md or DESIGN.md" >&2
    exit 1
fi
echo "metrics docs check OK"
