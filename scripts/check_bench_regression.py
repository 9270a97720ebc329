#!/usr/bin/env python3
"""Fail CI when a benchmark JSON regresses against its committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json
                              [--threshold 0.25] [--strict]
                              [--bound "metric<=1.10"] [--bound "metric>=4.0"]

Both files must be records produced by the `damaris_bench` bench targets
(`BENCH_storage.json`, `BENCH_serve.json`, …): an object with a
"samples" array of flat objects. Samples are matched on their identity
keys (strings and integers, e.g. series + pipeline); floats
are metrics.

Gating tiers — absolute timings are machine-dependent (a committed
baseline usually comes from a different box than the CI runner), so:

* metrics ending in `_ratio` (within-run comparisons such as the
  store-on/off write cost) are machine-independent and always gated at
  THRESHOLD;
* absolute metrics (`…_ns…`, `…_seconds…` lower-better; `…_meps…`,
  `…_throughput…` higher-better) are gated only with `--strict` — use it
  when baseline and current run came from the same machine;
* tail latencies (`_p90`/`_p99`) and hit fractions (`_frac…`) are
  recorded for trend reading but never gated.

Missing samples and missing metrics (layout changes) always fail, so a
bench cannot silently drop coverage. Metrics measured as 0 in the
baseline are skipped. A file whose "samples" array carries no measured
metric at all (a bench that crashed mid-write, or an empty baseline)
makes every comparison vacuous: that is a hard failure.

`--bound "metric<=VAL"` / `--bound "metric>=VAL"` (repeatable) add
absolute acceptance bounds checked against CURRENT only — for
machine-independent invariants such as a deterministic compression
factor or a within-run overhead ratio, where the claim itself (not
drift from a baseline) is what CI must enforce. A bound whose metric
appears in no current sample fails, so a renamed metric cannot
silently disarm its gate.

Stdlib only; exit code 0 = pass, 1 = regression, 2 = usage/parse error.
"""

import argparse
import json
import sys

LOWER_IS_BETTER = ("_ns", "_seconds", "_ratio")
HIGHER_IS_BETTER = ("_meps", "_throughput")
# Too scheduler/machine-sensitive to gate on at all.
UNGATED = ("_p90", "_p99", "_frac")


def is_metric(value):
    # JSON integers are identity coordinates (clients, producers, sizes);
    # measured values are emitted with decimals and parse as floats.
    return isinstance(value, float)


def sample_key(sample):
    return tuple(sorted((k, v) for k, v in sample.items() if not is_metric(v)))


def direction(metric, strict):
    if any(s in metric for s in UNGATED):
        return None
    if not strict and not metric.endswith("_ratio"):
        return None  # absolute metric, cross-machine comparison
    if any(s in metric for s in LOWER_IS_BETTER):
        return "lower"
    if any(s in metric for s in HIGHER_IS_BETTER):
        return "higher"
    return None  # uninterpreted metric: informational only


def parse_bound(spec):
    """Split "metric<=1.10" / "metric>=4.0" into (metric, op, limit)."""
    for op in ("<=", ">="):
        if op in spec:
            metric, _, limit = spec.partition(op)
            try:
                return metric.strip(), op, float(limit)
            except ValueError:
                break
    raise argparse.ArgumentTypeError(
        f"bound must look like 'metric<=1.10' or 'metric>=4.0', got {spec!r}"
    )


def check_bounds(bounds, samples, failures):
    for metric, op, limit in bounds:
        found = False
        for sample in samples:
            if metric not in sample:
                continue
            found = True
            val = sample[metric]
            ok = val <= limit if op == "<=" else val >= limit
            if not ok:
                ident = ", ".join(
                    f"{k}={v}" for k, v in sample_key(sample)
                )
                failures.append(
                    f"{ident}: bound violated: {metric} = {val:g}, "
                    f"required {op} {limit:g}"
                )
        if not found:
            failures.append(f"bound has no matching metric: {metric} {op} {limit:g}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON against its committed baseline."
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate absolute metrics (same-machine baselines only)",
    )
    parser.add_argument(
        "--bound",
        action="append",
        default=[],
        type=parse_bound,
        metavar="METRIC<=VAL",
        help="absolute acceptance bound on the current JSON (repeatable)",
    )
    args = parser.parse_args(argv[1:])

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load bench JSON: {e}", file=sys.stderr)
        return 2

    # An empty sample set passes every per-sample check below by never
    # running any of them — catch that before it reads as a green gate.
    def has_metrics(samples):
        return any(is_metric(v) for s in samples for v in s.values())

    name = current.get("benchmark", args.current)
    vacuous = []
    if not has_metrics(current.get("samples", [])):
        vacuous.append(f"current '{args.current}' contains no measured samples")
    if not has_metrics(baseline.get("samples", [])):
        vacuous.append(f"baseline '{args.baseline}' contains no measured samples")
    if vacuous:
        for msg in vacuous:
            print(
                f"WARNING: {msg} — every regression check on '{name}' is vacuous",
                file=sys.stderr,
            )
        print(f"bench '{name}': an empty sample set fails")
        return 1

    base_by_key = {sample_key(s): s for s in baseline.get("samples", [])}
    cur_by_key = {sample_key(s): s for s in current.get("samples", [])}

    failures = []
    checked = 0
    for key, base in base_by_key.items():
        cur = cur_by_key.get(key)
        ident = ", ".join(f"{k}={v}" for k, v in key)
        if cur is None:
            failures.append(f"sample disappeared: {ident}")
            continue
        for metric, base_val in base.items():
            if not is_metric(base_val):
                continue
            if metric not in cur:
                # A renamed/dropped metric silently loses coverage the
                # same way a dropped sample would — fail loudly.
                failures.append(f"{ident}: metric disappeared: {metric}")
                continue
            sense = direction(metric, args.strict)
            if sense is None or base_val == 0:
                continue
            cur_val = cur[metric]
            delta = (
                (cur_val - base_val) / base_val
                if sense == "lower"
                else (base_val - cur_val) / base_val
            )
            checked += 1
            if delta > args.threshold:
                failures.append(
                    f"{ident}: {metric} {base_val:g} -> {cur_val:g} "
                    f"({delta * 100:+.0f}% worse, limit {args.threshold * 100:.0f}%)"
                )

    check_bounds(args.bound, current.get("samples", []), failures)
    checked += len(args.bound)

    if failures:
        print(f"bench regression in '{name}' ({len(failures)} failures):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"bench '{name}': {checked} metrics within "
        f"{args.threshold * 100:.0f}% of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
