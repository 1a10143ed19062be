#!/bin/sh
# check_snapshot_compat.sh gates cross-version snapshot compatibility: the
# committed IBSNAP v1 and v2 model fixtures under internal/lda/testdata must
# keep loading through today's readers and decoding to gob-byte-identical
# models, and the deterministic trainer must still reproduce them. A failure
# here means a reader change silently broke fleet-rollout compatibility
# (old v1 snapshots in production, new v2-writing trainers) — fix the reader,
# or regenerate the fixtures deliberately with LDA_REGEN_FIXTURES=1 and call
# the format break out in the PR.
#
# The v1 fixtures (model_v1.ibsnap, model_v1_k3v38.ibsnap) are frozen
# history: nothing in the repository writes v1 any more, so they can be read
# but never regenerated. LDA_REGEN_FIXTURES=1 rewrites only model_v2.ibsnap.
set -eu
cd "$(dirname "$0")/.."

go test ./internal/lda/ -run 'TestCompatFixtures|TestV1V2LoadIdentical' -count=1
go test ./internal/ann/ -run 'TestCompatFixture|TestSaveLoadRoundTrip' -count=1
echo "snapshot compat OK"
