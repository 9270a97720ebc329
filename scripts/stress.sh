#!/usr/bin/env bash
# Run the workspace test suite under CPU load and list the tests that fail.
#
# Each of the N rounds (default 3) runs `cargo test --workspace
# --no-fail-fast` beside `nproc` + 1 busy-loop burners, so timing-dependent
# tests get the starved scheduling a loaded CI runner gives them. The suite
# is compiled once before the burners start. The burners are killed on exit,
# whatever the exit path.
#
# Output, under target/stress/: round-<i>.log (each round's full output) and
# failures.txt, one "<count> <binary>::<test>" line per test that failed at
# least once, most frequent first. The list is printed too. The exit status
# is 1 when the list is not empty.
#
# Run from anywhere: scripts/stress.sh [rounds]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
rounds="${1:-3}"
out=target/stress
mkdir -p "$out"
: >"$out/failed-runs.txt"

cargo test --workspace --no-run --quiet

burners=()
cleanup() {
  if ((${#burners[@]})); then
    kill "${burners[@]}" 2>/dev/null || true
    wait "${burners[@]}" 2>/dev/null || true
  fi
}
trap cleanup EXIT INT TERM
for _ in $(seq $(($(nproc) + 1))); do
  bash -c 'while :; do :; done' &
  burners+=($!)
done

for round in $(seq "$rounds"); do
  log="$out/round-$round.log"
  status=0
  cargo test --workspace --no-fail-fast >"$log" 2>&1 || status=$?
  # "Running <source> (<path>/<binary>-<hash>)" names the test binary;
  # each "test <name> ... FAILED" line under it is one failure this round.
  awk '
    /^ *Running / { bin = $NF; gsub(/[()]/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin) }
    /^ *Doc-tests / { bin = "doc:" $2 }
    /^test .* \.\.\. FAILED$/ {
      name = $0; sub(/^test /, "", name); sub(/ \.\.\. FAILED$/, "", name)
      print bin "::" name; found = 1
    }
    END { exit !found }
  ' "$log" >>"$out/failed-runs.txt" || if ((status != 0)); then
    echo "round-$round:cargo-test-exited-$status-without-a-failing-test" >>"$out/failed-runs.txt"
  fi
  echo "round $round/$rounds: cargo test exit $status"
done

sort "$out/failed-runs.txt" | uniq -c | sort -rn >"$out/failures.txt"
rm "$out/failed-runs.txt"
if [[ -s "$out/failures.txt" ]]; then
  echo "failing tests over $rounds loaded rounds (count, test):"
  cat "$out/failures.txt"
  exit 1
fi
echo "no test failed in $rounds loaded rounds"
