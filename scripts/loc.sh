#!/usr/bin/env bash
# Lines of Rust under each crates/*/src, and their total: the number a
# deletion PR records before and after in CHANGES.md (see ROADMAP). A
# second total counts the Rust outside any crate's src (root tests and
# examples, crate tests and benches, the in-tree shims), so deletions
# there show too.
#
# Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
for src in crates/*/src; do
  printf '%7d %s\n' "$(count "$src")" "$src"
done
printf '%7d %s\n' "$(count crates/*/src)" 'crates/*/src'
outside=(tests examples crates/*/tests crates/*/benches crates/support)
printf '%7d %s\n' "$(count "${outside[@]}")" 'tests, examples, crates/*/{tests,benches}, crates/support'
