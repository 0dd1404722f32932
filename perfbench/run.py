#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-seq --seed 1 --seconds 30 --trace 0

It builds the program from source (root CMake project, Release, installed
into the build directory) and the benchmark harness (perfbench/CMakeLists.txt)
against it, then runs the harness. Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The line before it is the
host block {"host": {...}} that every result carries.

Extra modes (not used by timed runs):
    --selftest         show that the oracle rejects a corrupted cost,
                       schedule and certificate
    --screen FAMILY    re-run the frozen tight-par screening rule (dev or
                       heldout) and print the pool; never run at bench time
    --write-expected   print expected costs for the workload and seed
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paper-seq", "tight-par", "serve-mix")
HERE = os.path.dirname(os.path.abspath(__file__))


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, log):
    """Runs a build step with its output sent to stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    log.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(root, cxx_flags="", tag="release", log=sys.stderr):
    """Builds and installs the program, then the harness. Returns the paths of
    the harness and of parabb_serve. `cxx_flags` and `tag` let the gprof
    cross-check configure a separate instrumented tree."""
    src = os.getcwd()
    prog_build = os.path.join(root, tag, "parabb")
    prefix = os.path.join(root, tag, "prefix")
    bench_build = os.path.join(root, tag, "perfbench")
    flags = []
    if cxx_flags:
        flags = ["-DCMAKE_CXX_FLAGS=" + cxx_flags,
                 "-DCMAKE_EXE_LINKER_FLAGS=" + cxx_flags]
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(prog_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", src, "-B", prog_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DPARABB_BUILD_TESTS=OFF", "-DPARABB_BUILD_BENCH=OFF",
                    "-DPARABB_BUILD_EXAMPLES=OFF",
                    "-DCMAKE_INSTALL_PREFIX=" + prefix,
                    "-DCMAKE_INSTALL_LIBDIR=lib"] + flags, log)
    run_logged(["cmake", "--build", prog_build, "-j", jobs], log)
    run_logged(["cmake", "--install", prog_build], log)
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DPARABB_PREFIX=" + prefix] + flags, log)
    run_logged(["cmake", "--build", bench_build, "-j", jobs], log)
    return (os.path.join(bench_build, "perfbench"),
            os.path.join(prefix, "bin", "parabb_serve"))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program's sources, so results can be tied to code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_block(harness):
    info = json.loads(subprocess.run([harness, "--host"], capture_output=True,
                                     text=True, check=True).stdout)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    info.update({"nproc": nproc, "cpu_model": cpu_model(),
                 "git_commit": git_commit(), "source_digest": source_digest()})
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--screen", choices=("dev", "heldout"))
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    # The benchmark builds the program it measures from the checkout it is
    # run in; without the program's sources there is nothing to measure.
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src/parabb")):
        print("perfbench: run from the root of a parabb checkout "
              "(CMakeLists.txt and src/parabb not found)", file=sys.stderr)
        return 2
    if not (args.workload or args.selftest or args.screen):
        ap.error("--workload is required")

    root = build_root()
    try:
        harness, serve = build(root)
    except RuntimeError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2

    cmd = [harness, "--data", os.path.join(HERE, "data"), "--serve-bin", serve,
           "--out", os.path.join(root, "traces")]
    if args.selftest:
        return subprocess.run(cmd + ["--selftest"], check=False).returncode
    if args.screen:
        return subprocess.run(cmd + ["--screen", args.screen], check=False).returncode
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.write_expected:
        return subprocess.run(cmd + ["--write-expected"], check=False).returncode

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        print("perfbench: harness printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps({"host": host_block(harness)}))
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
