#!/usr/bin/env bash
# Lines added, removed and net of a change, per source directory.
#
# Usage: scripts/net_loc.sh [base-ref]      (default: HEAD~1)
#
# Compares base-ref with the working tree via `git diff --numstat`, so it
# counts committed, staged and unstaged edits to tracked files (`git add`
# new files first). Covers src, tools, tests, bench and scripts; documents
# (*.md) and data files (*.json) are not counted, nor are binary files.
set -euo pipefail

base="${1:-HEAD~1}"
dirs=(src tools tests bench scripts)
cd "$(git rev-parse --show-toplevel)"

git diff --numstat --no-renames "$base" -- "${dirs[@]}" \
    ':(exclude)*.md' ':(exclude)*.json' |
  awk -v dirs="${dirs[*]}" '
    BEGIN { n = split(dirs, order, " ") }
    $1 ~ /^[0-9]+$/ {
      split($3, parts, "/")
      added[parts[1]] += $1
      removed[parts[1]] += $2
    }
    END {
      printf "%-8s %8s %8s %8s\n", "dir", "added", "removed", "net"
      for (i = 1; i <= n; ++i) {
        d = order[i]
        printf "%-8s %8d %8d %+8d\n", d, added[d], removed[d],
               added[d] - removed[d]
        total_added += added[d]
        total_removed += removed[d]
      }
      printf "%-8s %8d %8d %+8d\n", "total", total_added, total_removed,
             total_added - total_removed
    }'
