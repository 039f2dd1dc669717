#!/usr/bin/env python3
"""Runs the benchmark in sets of runs on one workload and reports, for
each end-to-end metric, every set's median, quartiles and spread (the
distance between the quartiles as a share of the median, by
statistics.quantiles(values, n=4)), and how far each later set's median
lies from the first set's, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload bulk-1m [--runs 10] [--sets 2]
                                [--first-seed 1] [--fixed-seed]
                                [--out results.json]

Run it from the repository root.  Set k uses seeds first-seed + k * runs
upwards, one per run; with --fixed-seed every run uses first-seed, so the
spread shows timing noise alone, without the spread of the inputs.  A
metric passes when every set's spread (setup_s excepted) is within its
bound and no later set's median is worse than the first's by more than the
bound -- the rule two sets of runs of the same code must meet.  The exit
status is 1 when a metric does not pass.  The host block of the first run
is repeated in the report, so a spread always names the machine it was
measured on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        sys.exit("perfbench: run with seed %d failed (status %d)"
                 % (seed, out.returncode))
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')),
                None)
    return host, json.loads(lines[-1])


def summarize(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": vals}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true",
                        help="use --first-seed for every run")
    parser.add_argument("--out", help="also write the report here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    sets, host = [], None
    for k in range(args.sets):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.fixed_seed
                                      else k * args.runs + i)
            run_host, result = run_once(args.workload, seed,
                                        bench["run_seconds"])
            host = host or run_host
            if not result["correct"] or result["failed"]:
                sys.exit("perfbench: seed %d failed its output checks" % seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("set %d seed %d: %s" % (k + 1, seed, {
                n: round(m["value"], 6) for n, m in result["metrics"].items()}),
                  file=sys.stderr, flush=True)
        sets.append({name: summarize(vals) for name, vals in values.items()})

    report = {"host": host, "workload": args.workload, "runs": args.runs,
              "fixed_seed": args.fixed_seed, "metrics": {}}
    passed = True
    for name in sorted(sets[0]):
        bound, better = spec[name]["bound"], spec[name]["better"]
        rows = [s[name] for s in sets]
        shift = max((worse_by(rows[0]["median"], r["median"], better)
                     for r in rows[1:]), default=0.0)
        ok = shift <= bound and (name == "setup_s" or
                                 all(r["spread"] <= bound for r in rows))
        passed = passed and ok
        report["metrics"][name] = {"bound": bound, "sets": rows,
                                   "worse_by": shift, "ok": ok}
        print("%-12s bound %.2f  %s  worse by %+.3f  %s" % (
            name, bound, "  ".join("median %-11.5g spread %.3f" %
                                   (r["median"], r["spread"]) for r in rows),
            shift, "ok" if ok else "FAIL"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
