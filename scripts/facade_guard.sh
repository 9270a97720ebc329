#!/usr/bin/env bash
# Policy guard: concurrency primitives in the migrated damaris_shm sources
# must go through the damaris_sync facade (crates/check), never through
# core/std atomics or parking_lot directly — otherwise the model checker
# silently stops seeing them. See README "Concurrency correctness".
#
# Run from the repo root: scripts/facade_guard.sh
set -u

MIGRATED=(
  crates/shm/src/spsc.rs
  crates/shm/src/arena.rs
  crates/shm/src/segment.rs
  crates/shm/src/transport.rs
)

status=0
for f in "${MIGRATED[@]}"; do
  if grep -nE '(core|std)::sync::atomic|parking_lot|std::hint::spin_loop' "$f"; then
    echo "error: $f bypasses the damaris_sync facade (matches above)" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo >&2
  echo "Import atomics/Mutex/Condvar/spin_loop from damaris_sync instead," >&2
  echo "so new synchronization stays visible to the model checker." >&2
  exit 1
fi
echo "facade guard passed: migrated files use damaris_sync exclusively."
