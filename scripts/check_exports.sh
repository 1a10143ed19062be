#!/bin/sh
# check_exports.sh keeps the exported surface of internal/ from growing back:
# every exported function or method declared in a non-test file under
# internal/ must be named by some non-test file of the repository (bench/
# included) outside its own declaration, or be listed with a reason in
# scripts/exportcheck/allow.txt. scripts/exportcheck does the work with
# go/parser alone — offline, well under two seconds. The remedy for a finding
# is to delete the name (with the tests that only it served), give it a
# caller, or allow-list it with a one-line reason.
set -eu
cd "$(dirname "$0")/.."

if ! go run ./scripts/exportcheck; then
    echo "FAIL: exported names under internal/ that no non-test file names" >&2
    exit 1
fi
echo "exports check OK"
