#!/usr/bin/env bash
# Non-test, non-comment lines per crate, the count ROADMAP's "a PR may not be net
# positive in non-test lines without naming what the lines buy" is judged by: in each
# `crates/*/src/*.rs`, the lines before the first `#[cfg(test)]` that are neither blank
# nor comment. Prints the count in BASE, in HEAD and the difference, per crate and for
# the compile side (analysis + codegen + core + ir + partition).
#
# Usage: .github/lines_per_crate.sh BASE [HEAD]
#   BASE and HEAD are checked-out trees; HEAD defaults to the current directory.
set -euo pipefail
base=$1
head=${2:-.}

count() {
  for c in "$1"/crates/*/; do
    n=0
    for f in "$c"src/*.rs; do
      k=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
      n=$((n + k))
    done
    echo "$(basename "$c") $n"
  done
}

{ count "$base" | sed 's/^/base /'; count "$head" | sed 's/^/head /'; } | awk '
  { n[$1, $2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++m] = $2 } }
  END {
    printf "%-12s %7s %7s %7s\n", "crate", "base", "head", "delta"
    split("analysis codegen core ir partition", side)
    for (i in side) compile[side[i]] = 1
    for (i = 1; i <= m; i++) {
      c = order[i]; b = n["base", c] + 0; h = n["head", c] + 0
      printf "%-12s %7d %7d %+7d\n", c, b, h, h - b
      if (c in compile) { sb += b; sh += h }
    }
    printf "%-12s %7d %7d %+7d\n", "compile side", sb, sh, sh - sb
  }'
