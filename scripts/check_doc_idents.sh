#!/bin/sh
# check_doc_idents.sh checks the code names the documents cite against the
# code. Every inline code span of README.md, DESIGN.md and the verify recipe
# (.claude/skills/verify/SKILL.md) that is an identifier, or a dotted path of
# them such as `core.NewIndex` or `par.ForEach()`, is looked at outside fenced
# blocks; each part of it in mixed case must occur as a word in some tracked
# .go file (outside a git checkout: some .go file on disk). All-caps names (`GOAMD64`, `IBSNAP`) and all-lowercase ones (English
# words as often as code) are not checked. A name renamed or deleted in the code
# otherwise stays in the documents until a reader trips over it. Under a
# second, offline; the remedy for a finding is to correct the document.
set -eu
cd "$(dirname "$0")/.."

words=$(mktemp "${TMPDIR:-/tmp}/doc_idents.XXXXXX")
files=$(mktemp "${TMPDIR:-/tmp}/doc_idents.XXXXXX")
trap 'rm -f "$words" "$files"' EXIT
git ls-files -z '*.go' >"$files" 2>/dev/null || :
if [ ! -s "$files" ]; then
    # No git index (a `git archive` export, as bench_pair.sh makes): read the
    # .go files on disk instead, minus the benchmark's build output.
    find . -path ./.bench_build -prune -o -type f -name '*.go' -print0 >"$files"
fi
xargs -0 cat <"$files" | tr -cs 'A-Za-z0-9_' '\n' | sort -u >"$words"
if [ ! -s "$words" ]; then
    echo "FAIL: no tracked .go file to read names from" >&2
    exit 1
fi

awk -v words="$words" '
FILENAME == words { have[$0] = 1; next }
FNR == 1 { inside = 0 }
/^[ \t]*```/ { inside = !inside; next }
inside { next }
{
    line = $0
    while (match(line, /`[^`]+`/)) {
        span = substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
        name = span
        sub(/\(\)$/, "", name)
        if (name !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$/) continue
        n = split(name, part, ".")
        for (i = 1; i <= n; i++) {
            if (part[i] !~ /[a-z]/ || part[i] !~ /[A-Z]/) continue
            checked++
            if (!(part[i] in have)) {
                printf "%s:%d: `%s`: %s occurs in no tracked .go file\n", FILENAME, FNR, span, part[i]
                bad++
            }
        }
    }
}
END {
    if (bad) { print "FAIL: " bad " code names in the documents that the code does not have"; exit 1 }
    if (!checked) { print "FAIL: no code name found in the documents; the extraction is broken"; exit 1 }
    print "doc identifiers check OK (" checked " names)"
}' "$words" README.md DESIGN.md .claude/skills/verify/SKILL.md
