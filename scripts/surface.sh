#!/usr/bin/env bash
# Print the size of each crate's public surface and non-test source.
#
#   scripts/surface.sh [TREE]
#
# TREE is a checkout of this repository (default: the one holding this
# script). For every crate under TREE/crates it reads the .rs files
# under src/ (binaries included) and counts, per file, the lines above
# the first `#[cfg(test)]` that starts in column 0:
#   * lines: every such line, blank and comment lines included;
#   * pub:   the lines among them that begin, after indentation, with
#            `pub fn|struct|enum|mod|use|const|static|trait|type`.
#            `pub(crate)` and other restricted items are not counted.
# It prints one `crate lines pub` row per crate, then the totals.
set -euo pipefail

tree=${1:-"$(dirname "$0")/.."}
cd "$tree"

printf '%-12s %7s %5s\n' crate lines pub
for dir in crates/*/; do
    crate=$(basename "$dir")
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$crate" '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut {
            lines++
            if ($0 ~ /^[ \t]*pub (fn|struct|enum|mod|use|const|static|trait|type)[ \t(<]/) pub++
        }
        END { printf "%-12s %7d %5d\n", crate, lines, pub }'
done | awk '{ print; lines += $2; pub += $3 } END { printf "%-12s %7d %5d\n", "total", lines, pub }'
