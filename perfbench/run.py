#!/usr/bin/env python3
"""Builds the benchmark program from the checked-out source and runs it.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, seed 1
    python3 perfbench/run.py --selfcheck     # each check must catch a corruption

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, in a perfbench/ subdirectory, and
is reused by later runs. With --workload the last line of standard output is
the program's JSON result; build output goes to standard error. A traced run
(--trace 1) also writes its spans as Chrome trace-event JSON under
<build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "train", "scale", "stream")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/; run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def run_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10.0


def program_args(build_dir, workload, seed, seconds, trace):
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    return [os.path.join(build_dir, "giph_perfbench"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--snapshot", os.path.join(HERE, "policy.snapshot"),
            "--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]


def run_all(build_dir, seed, seconds):
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run(program_args(build_dir, w, seed, seconds, 0), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%-8s FAILED (exit %d)" % (w, proc.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        print("%-8s attempted %d  failed %d  correct %s"
              % (w, res["attempted"], res["failed"], res["correct"]))
        for name, m in sorted(res["metrics"].items()):
            print("  %-20s %14.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    build_dir = build()
    if args.selfcheck:
        return subprocess.run([os.path.join(build_dir, "giph_perfbench"), "--selfcheck"],
                              cwd=ROOT).returncode
    seconds = args.seconds if args.seconds is not None else run_seconds()
    if args.workload is None:
        return run_all(build_dir, args.seed, seconds)
    sys.stdout.flush()
    return subprocess.run(program_args(build_dir, args.workload, args.seed, seconds,
                                       args.trace), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
