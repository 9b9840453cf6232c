#!/usr/bin/env python3
"""Build and run the paichar end-to-end benchmark.

Run from the root of a paichar checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles the
libraries under src/) into .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Inputs are generated under
.bench_build/perfbench-work and removed when the run ends; the span
trace of a --trace 1 run is kept there.

Exits non-zero without a result when the paichar sources are missing,
the build fails, or the benchmark fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
# Leaves room under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("paichar sources not found under " + ROOT + "/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20181201)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR]
    # Its own process group, so a timeout also stops the fresh
    # processes the benchmark spawns.
    proc = subprocess.Popen(cmd, preexec_fn=os.setpgrp)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        rc = 3
    finally:
        for name in os.listdir(WORK_DIR):
            if name.endswith(".paib"):
                os.remove(os.path.join(WORK_DIR, name))
    sys.exit(rc)


if __name__ == "__main__":
    main()
