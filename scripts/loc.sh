#!/usr/bin/env bash
# Lines of Rust under each crates/*/src, and their total: the number a
# deletion PR records before and after in CHANGES.md (see ROADMAP).
#
# Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for src in crates/*/src; do
  printf '%7d %s\n' "$(find "$src" -name '*.rs' -print0 | xargs -0 cat | wc -l)" "$src"
done
printf '%7d %s\n' "$(find crates/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)" 'crates/*/src'
