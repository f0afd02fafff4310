#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

1. A seconds-long run of every workload the command knows (run.py's
   WORKLOADS: those in BENCHMARK.json, threaded-ycsb and socket-wal), with
   --trace 0 and --trace 1: the run passes its checks, and every metric BENCHMARK.json
   names for that mode prints, in the report and in the JSON result, with
   its unit and a finite value.
2. The checker's negative cases (perfbench_checker_test): it rejects a
   non-conserving ledger, a reported safety violation and the rest.
3. sim-crash repeats exactly: two runs with one seed print identical counts
   and simulated latencies; another seed prints different ones.
4. Without the program's sources (only BENCHMARK.json and the benchmark's
   directory) the command exits nonzero and prints no result.

Exits 0 when every test passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS, build_dir, repo_root  # noqa: E402

ROOT = repo_root()
SECONDS = "2"


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


class Failures:
    def __init__(self):
        self.count = 0

    def expect(self, ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            self.count += 1


def check_metrics(f, label, proc, expected):
    f.expect(proc.returncode == 0, "%s exits 0 (got %d)" % (label, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        f.expect(False, "%s prints a result" % label)
        return
    try:
        result = json.loads(lines[-1])
    except ValueError:
        f.expect(False, "%s last line is JSON" % label)
        return
    f.expect(result.get("correct") is True, "%s reports correct" % label)
    f.expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
             "%s attempted >= 1" % label)
    metrics = result.get("metrics", {})
    f.expect(sorted(metrics) == sorted(m["name"] for m in expected),
             "%s prints exactly the metrics BENCHMARK.json names" % label)
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        value = metrics.get(m["name"], {}).get("value")
        unit = metrics.get(m["name"], {}).get("unit")
        ok = (isinstance(value, (int, float)) and math.isfinite(value)
              and unit == m["unit"] and printed.get(m["name"]) == m["unit"])
        f.expect(ok, "%s %s = %r %s" % (label, m["name"], value, unit))


def exact_line(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("info exact:"):
            return line
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    f = Failures()

    for name in WORKLOADS:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            check_metrics(f, label, run_bench(name, 7, trace), expected)

    checker = os.path.join(build_dir(ROOT), "perfbench_checker_test")
    proc = subprocess.run([checker], capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    f.expect(proc.returncode == 0, "checker rejects every bad input it is shown")

    names = [w["name"] for w in bench["workloads"]]
    if "sim-crash" in WORKLOADS:
        first = exact_line(run_bench("sim-crash", 5, 0))
        second = exact_line(run_bench("sim-crash", 5, 0))
        other = exact_line(run_bench("sim-crash", 6, 0))
        f.expect(first is not None and first == second,
                 "sim-crash repeats exactly on one seed: %s" % first)
        f.expect(other is not None and other != first,
                 "sim-crash differs on another seed: %s" % other)

    bare = os.path.join(build_dir(ROOT), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", names[0], "--seed",
         "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
        check=False)
    f.expect(proc.returncode != 0 and "{" not in proc.stdout,
             "without the sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % f.count)
    return 0 if f.count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
