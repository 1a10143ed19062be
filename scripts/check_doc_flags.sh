#!/bin/sh
# check_doc_flags.sh checks the documents that name command-line flags against
# the binaries that define them. In every fenced code block of README.md and
# DESIGN.md and in the doc comment of every cmd/*/main.go, each -flag that
# follows a command word on the same command (continuation lines joined; &&,
# ||, |, ; and & end a command) must be defined by that binary, as
# `go run ./cmd/<name> -h` lists it. The command words are the directories
# under cmd/; a word shaped like one (ib + lowercase letters) that names no
# directory there is a binary that is gone, and is reported too. A flag or a
# binary renamed or deleted in the code otherwise waits for a reader to trip
# over it. A few seconds, offline; the remedy for a finding is to correct the
# document, not to add the flag.
set -eu
cd "$(dirname "$0")/.."

cmds=$(for d in cmd/*/; do basename "$d"; done | tr "\n" " ")

defined=""
for c in $cmds; do
    flags=$(go run "./cmd/$c" -h 2>&1 | sed -n 's/^  -\([A-Za-z0-9_-]*\).*/\1/p')
    if [ -z "$flags" ]; then
        echo "FAIL: go run ./cmd/$c -h lists no flags" >&2
        exit 1
    fi
    for f in $flags; do
        defined="$defined $c:$f"
    done
done

# Stage one prints "file:line<TAB>text" for the lines to check; stage two joins
# continuations, cuts commands apart and looks each flag up.
for doc in README.md DESIGN.md cmd/*/main.go; do
    case $doc in
    *.md) awk -v doc="$doc" '/^```/ { inside = !inside; next } inside { print doc ":" NR "\t" $0 }' "$doc" ;;
    *) awk -v doc="$doc" '/^package / { exit } /^\/\// { sub(/^\/\/ ?/, ""); print doc ":" NR "\t" $0 }' "$doc" ;;
    esac
done | awk -F '\t' -v cmds="$cmds" -v defined="$defined" '
BEGIN {
    n = split(cmds, c, " ");    for (i = 1; i <= n; i++) iscmd[c[i]] = 1
    n = split(defined, d, " "); for (i = 1; i <= n; i++) isdef[d[i]] = 1
}
{
    if (pending == "") where = $1
    line = pending $2
    if (line ~ /\\$/) { sub(/\\$/, " ", line); pending = line; next }
    pending = ""
    gsub(/&&|\|\||[|;&]/, "\n", line)
    ncmd = split(line, command, "\n")
    for (j = 1; j <= ncmd; j++) {
        bin = ""
        nw = split(command[j], w, /[ \t]+/)
        for (i = 1; i <= nw; i++) {
            word = w[i]
            gsub(/^[`"\047(]+|[`"\047),.:]+$/, "", word)
            if (bin == "") {
                sub(/^.*\//, "", word)
                if (word in iscmd) bin = word
                else if (word ~ /^ib[a-z]+$/) {
                    printf "%s: %s is not a binary (no cmd/%s)\n", where, word, word
                    bad++
                }
            } else if (word ~ /^--?[A-Za-z]/) {
                sub(/^--?/, "", word); sub(/=.*/, "", word)
                checked++
                if (!((bin ":" word) in isdef)) {
                    printf "%s: %s defines no flag -%s\n", where, bin, word
                    bad++
                }
            }
        }
    }
}
END {
    if (bad) { print "FAIL: " bad " documented flags or binaries that no binary defines"; exit 1 }
    if (!checked) { print "FAIL: no flag found in the documents; the extraction is broken"; exit 1 }
    print "doc flags check OK (" checked " flags)"
}'
