#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the timed benchmark ten times per workload, each with another --seed,
and prints for every end-to-end metric the distance between the first and
the third quartile of its ten values (statistics.quantiles(values, n=4))
as a share of their median, next to the metric's bound. A second set
compares its medians against the first. This is the check the acceptance
driver makes, extended to the end-to-end metrics only some workloads have
(read from benchmark/out/result-<workload>.json); the widest spread per
metric is what metrics.rs records as `recorded_spread`.

    python3 benchmark/spread.py [--sets 2] [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S] [--values]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={line['correct']} failed={line['failed']}")
    with open(HERE / "out" / f"result-{workload}.json") as f:
        return json.load(f)["end_to_end"]


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    medians = []  # per set: {(workload, metric): (median, definition)}
    worst = {}    # metric -> widest spread seen
    ok = True
    for s in range(args.sets):
        medians.append({})
        for w in workloads:
            seeds = [args.first_seed + s * args.runs + i for i in range(args.runs)]
            runs = [run_once(spec["command"], w, seed, args.seconds) for seed in seeds]
            print(f"set {s} {w} seeds {seeds[0]}..{seeds[-1]}")
            for name, m in runs[0].items():
                values = [r[name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                medians[s][(w, name)] = (med, m)
                worst[name] = max(worst.get(name, 0.0), spread)
                note = ""
                if name != "setup_s" and spread > m["bound"]:
                    # Only the metrics BENCHMARK.json lists as end_to_end
                    # are held to this by the acceptance driver.
                    if m["contract"]:
                        note, ok = "  SPREAD EXCEEDS BOUND", False
                    else:
                        note = "  spread exceeds bound (not in the contract)"
                elif spread > m["bound"] / 3:
                    note = "  (above a third of the bound)"
                print(f"  {name:<24} median {med:>14.6g} {m['unit']:<6}"
                      f" spread {spread * 100:6.2f} %  bound {m['bound'] * 100:5.1f} %{note}")
                if args.values:
                    print("      " + " ".join(f"{v:.6g}" for v in values))
            sys.stdout.flush()
    for s in range(1, args.sets):
        print(f"set {s} medians against set 0")
        for (w, name), (first, m) in medians[0].items():
            second = medians[s][(w, name)][0]
            delta = second - first if m["better"] == "lower" else first - second
            worse = delta / abs(first) if first else 0.0
            note = ""
            if worse > m["bound"]:
                note = "  WORSE THAN BOUND"
                ok = ok and not m["contract"]
            print(f"  {w:<22} {name:<24} {first:>14.6g} -> {second:>14.6g}"
                  f"  {worse * 100:+6.2f} %{note}")
    print("widest spread per metric (record in metrics.rs):")
    for name, spread in worst.items():
        print(f"  {name:<24} {spread:.4f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
