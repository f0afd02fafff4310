#!/usr/bin/env python3
"""Builds the ecdb benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload threaded-ycsb --seed 1 --seconds 10 --trace 0

The benchmark binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) the first time it is needed. Its standard
output is passed through unchanged: human-readable report lines, then one
JSON object as the last line. The exit code is the binary's: nonzero when a
correctness check fails, the build fails, or the run times out.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("threaded-ycsb", "socket-wal", "sim-ycsb", "sim-crash")

# Seed reserved for confirming a performance claim on inputs that were not
# used while the change was written. Tune and iterate on other seeds.
HELD_OUT_SEED = 9173

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root, out):
    """Configures and builds the binary; returns its path or None."""
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        print("perfbench: ecdb sources not found (%s)" % src, file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "ecdb_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = repo_root()
    out = build_dir(root)
    binary = build(root, out)
    if binary is None:
        return 2

    # Relative to the checkout (the run's working directory): the socket
    # host hands this path to its node processes, which split on spaces.
    runs = os.path.relpath(os.path.join(out, "runs"), root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", runs]
    # Own process group, so a timeout also stops the node processes the
    # socket workload forks.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
