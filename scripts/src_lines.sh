#!/usr/bin/env bash
# Line counts of the library sources: .cpp, .h and CMakeLists.txt lines
# per src/ subdirectory, then the total over src/ (top-level files
# included).  Informational; run it on two commits to compare sizes.
#
# Usage: scripts/src_lines.sh [repo-root]
set -euo pipefail

SRC=${1:-.}/src

count() {
    find "$@" -type f \( -name '*.cpp' -o -name '*.h' \
        -o -name CMakeLists.txt \) -print0 |
        xargs -0 -r cat | wc -l
}

for dir in "$SRC"/*/; do
    printf '%-14s %6d\n' "src/$(basename "$dir")" "$(count "$dir")"
done
printf '%-14s %6d\n' "src" "$(count "$SRC")"
