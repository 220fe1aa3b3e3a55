#!/usr/bin/env bash
# Prints lines added, removed and net per directory between <base-ref>
# and the working tree, from `git diff --numstat` (tracked files only:
# `git add` new files first). Binary files are skipped; a moved file
# counts as removed lines in its old directory and added lines in its new
# one.
#
# Usage: scripts/net_lines.sh <base-ref> [depth]
#   depth  path components that name a directory (default 1: top level;
#          2 splits src/ into src/core, src/math, ...)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/net_lines.sh <base-ref> [depth]" >&2
  exit 2
fi
base="$1"
depth="${2:-1}"
if ! [[ "$depth" =~ ^[1-9][0-9]*$ ]]; then
  echo "net_lines.sh: depth must be a positive integer (got '$depth')" >&2
  exit 2
fi

git diff --numstat --no-renames "$base" -- |
  awk -F'\t' -v depth="$depth" '
    $1 == "-" { next }  # binary
    {
      n = split($3, part, "/")
      dir = (n == 1) ? "(root)" : part[1]
      for (i = 2; i <= depth && i < n; ++i) dir = dir "/" part[i]
      added[dir] += $1
      removed[dir] += $2
      total_added += $1
      total_removed += $2
    }
    END {
      printf "%-24s %8s %8s %8s\n", "directory", "added", "removed", "net"
      for (dir in added) {
        printf "%-24s %8d %8d %+8d\n", dir, added[dir], removed[dir],
               added[dir] - removed[dir] | "sort"
      }
      close("sort")
      printf "%-24s %8d %8d %+8d\n", "total", total_added, total_removed,
             total_added - total_removed
    }'
