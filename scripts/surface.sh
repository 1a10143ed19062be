#!/bin/sh
# surface.sh [<git-ref>]
#
# The deletion accounting ROADMAP asks of a simplification PR, as one
# command: for the working tree, or for a commit exported with `git archive`
# into a temporary directory (under $TMPDIR), print
#
#   - non-test Go lines outside bench/ (*.go minus *_test.go, blank lines and
#     comments included: a line moved into a _test.go or testdata file is not
#     counted as removed twice, it just leaves this number),
#   - test Go lines outside bench/ (*_test.go, counted the same way), so a
#     deletion in tests shows beside one in the program,
#   - exported top-level symbols (func, type, var, const) and exported
#     methods in those files,
#   - flag definitions per binary (flag.X( in cmd/<binary>), plus the shared
#     flag sets internal packages bind (fs.X( in internal/).
#
# Run it on both sides and subtract:
#
#   sh scripts/surface.sh HEAD~1; sh scripts/surface.sh
set -eu

if [ $# -gt 1 ]; then
    echo "usage: $0 [<git-ref>]" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
dir=$root
label="working tree"
if [ $# -eq 1 ]; then
    commit=$(git -C "$root" rev-parse --verify "$1^{commit}")
    tmp=$(mktemp -d "${TMPDIR:-/tmp}/surface.XXXXXX")
    trap 'rm -rf "$tmp"' EXIT
    trap 'exit 130' INT TERM
    git -C "$root" archive "$commit" | tar -x -C "$tmp"
    dir=$tmp
    label=$commit
fi
cd "$dir"

# Skip the benchmark's module and, in a working tree, what it builds.
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort)
tests=$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort)

echo "surface of $label"
# shellcheck disable=SC2086
echo "non-test Go lines outside bench/: $(cat $files | wc -l | tr -d ' ')"
# shellcheck disable=SC2086
echo "test Go lines outside bench/: $(cat $tests | wc -l | tr -d ' ')"

# Exported names: one-line declarations, names inside top-level const/var/type
# blocks (one tab deep), and methods whose name is exported.
# shellcheck disable=SC2086
awk '
    /^(const|var|type) \($/ { block = 1; next }
    block && /^\)/          { block = 0; next }
    block && /^\t[A-Z][A-Za-z0-9_]*/ { syms++; next }
    /^func [A-Z]/           { syms++; next }
    /^func \([^)]*\) [A-Z]/ { methods++; next }
    /^(type|var|const) [A-Z]/ { syms++; next }
    END { printf "exported top-level symbols: %d\nexported methods: %d\n", syms, methods }
' $files

# defs <receiver>: how many flags standard input defines on that flag set.
defs() {
    grep -cE "$1\.(String|Int|Int64|Uint|Uint64|Bool|Float64|Duration|Func|Var)(Var)?\(" || true
}

echo "flag definitions:"
for d in cmd/*/; do
    printf '  %-12s %s\n' "$(basename "$d")" "$(cat "$d"*.go | defs flag)"
done
printf '  %-12s %s\n' "shared sets" "$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | defs fs)"
