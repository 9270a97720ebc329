#!/usr/bin/env bash
# Run the damaris_shm stress tests, the damaris_serve tests (publisher
# against poll thread) and the mini_mpi unit tests (application threads
# against the mesh thread: command queue, waker and mailbox hand-off)
# under ThreadSanitizer.
#
# Needs nightly with the rust-src component (TSan instruments std via
# -Zbuild-std). If either is missing the script says so and exits 0, so
# it is safe to call from environments without the components (CI treats
# the step as report-only in that case).
#
# Usage: scripts/tsan.sh [extra cargo test args...]
set -u

if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
  echo "tsan: nightly toolchain not installed; skipping (report-only)."
  exit 0
fi
if ! rustup component list --toolchain nightly --installed 2>/dev/null \
    | grep -q rust-src; then
  echo "tsan: rust-src component missing on nightly; skipping (report-only)."
  echo "      rustup component add --toolchain nightly rust-src"
  exit 0
fi

HOST=$(rustc -vV | sed -n 's/^host: //p')
echo "tsan: running damaris_shm, damaris_serve and mini_mpi tests with ThreadSanitizer on $HOST"
# halt_on_error so a race fails the run rather than scrolling past.
export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
cargo +nightly test -p damaris_shm -p damaris_serve \
  -Zbuild-std --target "$HOST" "$@" || exit
# mini_mpi's integration tests spawn rank processes; its library tests
# drive the mesh thread in-process.
exec cargo +nightly test -p mini_mpi --lib \
  -Zbuild-std --target "$HOST" "$@"
