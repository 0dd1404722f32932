#!/usr/bin/env python3
"""gprof cross-check of the traced run's computed bnb.* shares.

Configures a separate -pg build of the program and the harness through CMake
command-line flags only (no build-file edits), runs paper-seq once with it,
and prints gprof's flat-profile shares of bound evaluation, place/unplace
and the active set (self time as a share of the time inside solve_bnb) next
to the shares a traced run of the regular Release build computes from unit
costs x exact counts (bnb.lb_share, bnb.place_unplace_share,
bnb.activeset_share). Run from the root of a checkout:

    python3 perfbench/gprof_check.py [--seed 1] [--seconds 8]
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

# Flat-profile functions that make up each layer. Names are demangled.
CATEGORIES = {
    "bound evaluation": ("IncrementalLB::evaluate", "lower_bound_cost"),
    "place/unplace": ("IncrementalLB::place", "IncrementalLB::unplace",
                      "PartialSchedule::place", "PartialSchedule::unplace",
                      "PartialSchedule::earliest_start"),
    "active set": ("ActiveSet::",),
}
COMPUTED = {"bound evaluation": "bnb.lb_share",
            "place/unplace": "bnb.place_unplace_share",
            "active set": "bnb.activeset_share"}


def harness_cmd(harness, serve, root, args, trace):
    return [harness, "--data", os.path.join(HERE, "data"), "--serve-bin", serve,
            "--out", os.path.join(root, "traces"), "--workload", "paper-seq",
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]


def flat_profile(text):
    """Yields (self_seconds, name) rows of gprof's flat profile."""
    for line in text.splitlines():
        m = re.match(r"\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$",
                     line)
        if m:
            yield float(m.group(1)), m.group(2)


def search_seconds(text):
    """self + children of solve_bnb's primary call-graph line."""
    for line in text.splitlines():
        m = re.match(r"\[\d+\]\s+[\d.]+\s+([\d.]+)\s+([\d.]+)\s+\S+\s+"
                     r"parabb::solve_bnb\(", line)
        if m:
            return float(m.group(1)) + float(m.group(2))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    args = ap.parse_args()
    if not os.path.isdir("src/parabb"):
        sys.exit("run from the root of a parabb checkout")

    root = bench.build_root()
    pg_harness, pg_serve = bench.build(root, cxx_flags="-pg", tag="gprof")
    run_dir = os.path.join(root, "gprof", "run")
    os.makedirs(run_dir, exist_ok=True)
    subprocess.run(harness_cmd(pg_harness, pg_serve, root, args, 0), cwd=run_dir,
                   stdout=subprocess.DEVNULL, check=True)
    gmon = os.path.join(run_dir, "gmon.out")
    flat = subprocess.run(["gprof", "-b", "-p", pg_harness, gmon],
                          capture_output=True, text=True, check=True).stdout
    graph = subprocess.run(["gprof", "-b", "-q", pg_harness, gmon],
                           capture_output=True, text=True, check=True).stdout
    search = search_seconds(graph)
    rows = list(flat_profile(flat))
    if not search or not rows:
        sys.exit("gprof produced no usable profile")

    harness, serve = bench.build(root)
    traced = subprocess.run(harness_cmd(harness, serve, root, args, 1),
                            stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(traced.stdout.splitlines()[-1])["metrics"]

    print("paper-seq seed %d: solve_bnb and callees %.2f s in the -pg run"
          % (args.seed, search))
    print("%-18s %14s %16s" % ("layer", "gprof share", "computed share"))
    ranks = []
    for cat, needles in CATEGORIES.items():
        secs = sum(s for s, name in rows if any(n in name for n in needles))
        share = secs / search
        computed = metrics[COMPUTED[cat]]["value"]
        ranks.append((cat, share, computed))
        print("%-18s %14.3f %16.3f" % (cat, share, computed))
    by_gprof = [c for c, _, _ in sorted(ranks, key=lambda r: -r[1])]
    by_computed = [c for c, _, _ in sorted(ranks, key=lambda r: -r[2])]
    print("ranking by gprof:    " + " > ".join(by_gprof))
    print("ranking by computed: " + " > ".join(by_computed))
    print("rankings agree" if by_gprof == by_computed else "RANKINGS DISAGREE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
