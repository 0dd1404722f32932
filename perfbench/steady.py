#!/usr/bin/env python3
"""Steadiness and comparison tool for the repository benchmark.

Run each workload N times, each with another seed, and print every metric's
median and quartiles next to the bound BENCHMARK.json fixes for it; a metric
whose spread (Q3 - Q1) / median exceeds its bound is flagged:

    python3 perfbench/steady.py --workload paper-seq --runs 10
    python3 perfbench/steady.py --workload tight-par --runs 5 --first-seed 101

Every run's output (host block + result) is appended to a JSONL file
(default .bench_build/steady/<workload>.jsonl), which --compare reads:

    python3 perfbench/steady.py --compare before.jsonl after.jsonl

Comparison refuses result sets taken on different hosts (nproc, CPU model,
compiler or build type differ): numbers from another host say nothing about
a change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, bench, trace):
    metrics = bench["end_to_end"] if not trace else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    print("%-36s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3",
                                          "spread", "bound"))
    flagged = 0
    for m in metrics:
        name = m["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in records
                if name in r["result"]["metrics"]]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
            flagged += 1
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print("%-36s %12.6g %12.6g %12.6g %8.4f %7s%s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, flag))
    bad = [r for r in records if not r["result"]["correct"]]
    print("runs: %d, incorrect: %d, metrics over bound: %d"
          % (len(records), len(bad), flagged))
    return flagged == 0 and not bad


def host_of(records):
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True)
             for r in records}
    if len(hosts) != 1:
        sys.exit("refusing: the result set mixes hosts: %s" % sorted(hosts))
    return hosts.pop()


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(l) for l in f if l.strip()]


def compare(a_path, b_path, bench):
    a, b = read_jsonl(a_path), read_jsonl(b_path)
    if host_of(a) != host_of(b):
        sys.exit("refusing: %s and %s were measured on different hosts"
                 % (a_path, b_path))
    print("%-16s %-20s %12s %12s %8s %7s" % ("workload", "metric", "before",
                                          "after", "change", "bound"))
    worse = 0
    for wl in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        for m in bench["end_to_end"]:
            name = m["name"]
            va = [r["result"]["metrics"][name]["value"] for r in a
                  if r["workload"] == wl and not r["trace"]]
            vb = [r["result"]["metrics"][name]["value"] for r in b
                  if r["workload"] == wl and not r["trace"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            regress = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += regress
            print("%-16s %-20s %12.6g %12.6g %+8.3f %7s%s" % (
                wl, name, ma, mb, change, m["bound"],
                "  WORSE THAN BOUND" if regress else ""))
    return worse == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        return 0 if compare(args.compare[0], args.compare[1], bench) else 1
    if not args.workload:
        ap.error("--workload or --compare is required")

    seconds = args.seconds or bench["run_seconds"]
    out = args.out or os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "steady",
        args.workload + ".jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    records = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if len(lines) < 2:
            sys.exit("run with seed %d printed no result (exit %d)"
                     % (seed, proc.returncode))
        rec = {"workload": args.workload, "seed": seed, "trace": args.trace,
               "host": json.loads(lines[-2])["host"],
               "result": json.loads(lines[-1])}
        records.append(rec)
        with open(out, "a", encoding="utf-8") as f:
            f.write(json.dumps(rec) + "\n")
        print("seed %d: correct=%s %s" % (
            seed, rec["result"]["correct"],
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in rec["result"]["metrics"].items()
                     if not args.trace)), flush=True)
    host_of(records)
    return 0 if summarize(records, bench, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
