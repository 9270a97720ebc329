#!/usr/bin/env bash
# Fails when shipped code waits by sleeping: any `thread::sleep(` in
# crates/*/src outside `#[cfg(test)]` modules, the test utilities in
# crates/mpi/src/testutil/ and the crates/bench harness. A wait belongs in
# poll(2), a condvar or a channel that the awaited event itself wakes.
#
# Run from anywhere: scripts/sleep_guard.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
found=$(find crates/*/src -name '*.rs' -not -path 'crates/mpi/src/testutil/*' \
    -not -path 'crates/bench/*' -print0 | xargs -0 awk '
  FNR == 1 { skip = 0; pending = 0 }
  # Inside a test module: count braces until it closes.
  skip {
    depth += gsub(/\{/, "{") - gsub(/\}/, "}")
    if (depth <= 0) skip = 0
    next
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
  pending && /^[[:space:]]*#\[/ { next }
  pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/ {
    pending = 0
    depth = gsub(/\{/, "{") - gsub(/\}/, "}")
    skip = depth > 0
    next
  }
  { pending = 0 }
  /^[[:space:]]*\/\// { next }
  /thread::sleep\(/ { print FILENAME ":" FNR ": " $0 }
')
if [ -n "$found" ]; then
  echo "sleep_guard: thread::sleep outside tests and test utilities:" >&2
  echo "$found" >&2
  exit 1
fi
echo "sleep_guard: no thread::sleep in crates/*/src outside tests"
