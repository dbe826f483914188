#!/usr/bin/env bash
# Count code lines in Rust source files: scripts/code_lines.sh FILE...
#
# A code line is a non-blank line that does not start with `//` after its
# indentation (so `//!` and `///` docs are not code). Counting stops at the
# first line that starts with `#[cfg(test)]`: a module's unit tests are not
# counted. Prints one "COUNT FILE" line per argument, then "TOTAL total".
# A file that does not exist counts 0 and is marked "(missing)", so one file
# list can be counted before and after a change that deletes some of them.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: scripts/code_lines.sh FILE..." >&2
    exit 2
fi

total=0
for f in "$@"; do
    if [ ! -e "$f" ]; then
        echo "0 $f (missing)"
        continue
    fi
    n=$(awk '
        { line = $0; sub(/^[ \t]+/, "", line) }
        line ~ /^#\[cfg\(test\)\]/ { exit }
        line == "" { next }
        line ~ /^\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$f")
    echo "$n $f"
    total=$((total + n))
done
echo "$total total"
