#!/usr/bin/env python3
"""Run the engine benchmark harness and record results in BENCH_engine.json.

BENCH_engine.json is the repository's perf-trajectory file: an append-only
list of labeled benchmark snapshots, one per recorded run (e.g. "seed",
"pr1", ...). Comparing the latest entry against its predecessors is how a PR
proves it did not regress the simulator hot paths (docs/PERFORMANCE.md).

Usage:
    scripts/bench_to_json.py --label pr1 [--build build] [--out BENCH_engine.json]
    scripts/bench_to_json.py --compare seed pr1   # print speedup table

An entry may carry an optional "retired" list of benchmark names its change
deleted on purpose; --compare lists those rows as retired instead of
failing on them.

The benchmark binary must already be built:
    cmake -B build -S . && cmake --build build --target bench_engine -j
"""

import argparse
import json
import math
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_commit():
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            text=True).strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


#: Benchmark binaries recorded into each snapshot. bench_engine (simulator
#: hot paths) is required; bench_threaded (wall-clock threaded runtime),
#: bench_open_loop (offered-load latency tails) and bench_socket (loopback
#: TCP multi-process runtime) are skipped with a warning when the build
#: predates them.
BINARIES = [("bench_engine", True), ("bench_threaded", False),
            ("bench_open_loop", False), ("bench_socket", False)]

#: google-benchmark time_unit -> nanosecond multiplier. Benchmarks choose
#: their display unit (the 4096-node rounds report in us); the trajectory
#: file always stores ns so entries stay comparable across unit changes.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_one_binary(binary, repetitions):
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=true",
    ]
    raw = json.loads(subprocess.check_output(cmd, text=True))
    results = {}
    for bench in raw.get("benchmarks", []):
        # With aggregates, keep the median; without, the single run.
        if bench.get("aggregate_name", "median") != "median":
            continue
        name = bench["run_name"] if "run_name" in bench else bench["name"]
        unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            sys.exit(f"{name}: unknown time_unit "
                     f"'{bench.get('time_unit')}' in benchmark output")
        results[name] = {
            "real_time_ns": bench["real_time"] * unit,
            "cpu_time_ns": bench["cpu_time"] * unit,
            "items_per_second": bench.get("items_per_second"),
        }
        # Custom counters (e.g. termination_rounds on the threaded cluster
        # runs, latency tails on the open-loop runs, telemetry_slices when
        # a run exports a time-series) ride along when the binary reports
        # them.
        for counter in ("messages_per_txn",
                        "termination_rounds", "acceptor_rounds",
                        "ballots_promoted", "quorum_lost_rounds",
                        "dropped_at_crashed",
                        "frames_sent", "messages_coalesced",
                        "duplicate_decisions_suppressed",
                        "wal_group_flushes",
                        "offered_per_sec", "committed_per_sec",
                        "rejected_per_sec", "p50_us", "p99_us", "p999_us",
                        "worker_mailbox_msgs", "worker_local_msgs",
                        "telemetry_slices",
                        "frames_per_writev", "msgs_per_frame",
                        "syscalls_per_txn", "eagain_stalls",
                        "overflow_drops", "reconnects"):
            if counter in bench:
                results[name][counter] = bench[counter]
        # A NaN or null here (e.g. a percentile computed over an empty
        # histogram, or a counter the binary failed to fill) would be
        # serialized into the trajectory file and silently poison every
        # later --compare — refuse to record it.
        for key, value in results[name].items():
            if value is None and key == "items_per_second":
                continue  # absent by design on pure-timing benchmarks
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                sys.exit(f"{name}: counter '{key}' is non-finite or missing "
                         f"({value!r}); refusing to record")
    if not results:
        sys.exit(f"{binary} produced no parseable benchmark results")
    return {"context": raw.get("context", {}), "results": results}


def run_benchmarks(build_dir, repetitions):
    context, results = {}, {}
    for name, required in BINARIES:
        binary = os.path.join(REPO_ROOT, build_dir, "bench", name)
        if not os.path.exists(binary):
            if required:
                sys.exit(f"benchmark binary not found: {binary} "
                         f"(build the {name} target first)")
            print(f"note: {binary} not built, skipping", file=sys.stderr)
            continue
        snapshot = run_one_binary(binary, repetitions)
        context = context or snapshot["context"]
        results.update(snapshot["results"])
    return {"context": context, "results": results}


def load(path):
    if os.path.exists(path):
        with open(path) as f:
            content = f.read().strip()
            if content:
                return json.loads(content)
    return {"description":
            "Perf trajectory of the simulator engine hot paths; entries are "
            "appended by scripts/bench_to_json.py (see docs/PERFORMANCE.md).",
            "entries": []}


def pr_number(label):
    """pr-style labels ('pr3') order by number; 'seed' sorts first."""
    if label == "seed":
        return -1
    if label.startswith("pr") and label[2:].isdigit():
        return int(label[2:])
    return None


def validate_entries(entries):
    """The trajectory file is append-only history: labels must be unique
    and pr-numbered labels must appear in increasing order. A violation
    means a snapshot was recorded out of sequence (or hand-edited), which
    silently corrupts every later --compare."""
    seen = set()
    last_ordered = None
    for entry in entries:
        label = entry.get("label")
        if not label:
            sys.exit("trajectory entry without a label")
        if label in seen:
            sys.exit(f"duplicate trajectory label '{label}'")
        seen.add(label)
        number = pr_number(label)
        if number is None:
            continue  # ad-hoc labels (e.g. 'wip') carry no order
        if last_ordered is not None and number <= last_ordered:
            sys.exit(f"trajectory label '{label}' out of order: recorded "
                     f"after pr{last_ordered}")
        last_ordered = number


def retired_between(entries, base_label, new_label):
    """Benchmarks marked retired by any entry after `base_label` up to and
    including `new_label` (file order)."""
    labels = [e["label"] for e in entries]
    lo, hi = labels.index(base_label), labels.index(new_label)
    retired = set()
    for entry in entries[lo + 1:hi + 1]:
        retired.update(entry.get("retired", []))
    return retired


def cmd_record(args):
    out_path = os.path.join(REPO_ROOT, args.out)
    data = load(out_path)
    snapshot = run_benchmarks(args.build, args.repetitions)
    entry = {
        "label": args.label,
        "commit": git_commit(),
        "host": snapshot["context"].get("host_name", "unknown"),
        "num_cpus": snapshot["context"].get("num_cpus"),
        "benchmarks": snapshot["results"],
    }
    data["entries"] = [e for e in data["entries"] if e["label"] != args.label]
    data["entries"].append(entry)
    validate_entries(data["entries"])
    with open(out_path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"recorded {len(entry['benchmarks'])} benchmarks as "
          f"'{args.label}' in {args.out}")


def cmd_compare(args):
    data = load(os.path.join(REPO_ROOT, args.out))
    validate_entries(data["entries"])
    by_label = {e["label"]: e for e in data["entries"]}
    for label in (args.base, args.new):
        if label not in by_label:
            sys.exit(f"no entry labeled '{label}' in {args.out}")
    base = by_label[args.base]["benchmarks"]
    new = by_label[args.new]["benchmarks"]
    # A benchmark present in the base but missing from the new snapshot is
    # the classic silent regression (binary dropped from BINARIES, bench
    # renamed, run truncated) — fail loudly instead of shrinking the table.
    # The one exception is a deliberate deletion: an entry's optional
    # "retired" list names the benchmarks that change removed on purpose.
    retired = retired_between(data["entries"], args.base, args.new)
    missing = set(base) - set(new)
    unmarked = sorted(missing - retired)
    if unmarked:
        sys.exit(f"benchmarks in '{args.base}' but missing from "
                 f"'{args.new}': {', '.join(unmarked)}")
    for name in sorted(set(new) - set(base)):
        print(f"note: {name} is new in '{args.new}' (no baseline)",
              file=sys.stderr)
    print(f"{'benchmark':<40} {args.base:>12} {args.new:>12} {'speedup':>9}")
    for name in sorted(missing):
        print(f"{name:<40} {'':>12} {'retired':>12}")
    for name in sorted(set(base) & set(new)):
        bi = base[name].get("items_per_second")
        ni = new[name].get("items_per_second")
        if bi and ni:
            # Throughput benchmarks (e.g. the fixed-window cluster runs):
            # items/s is the metric, elapsed time is constant by design.
            print(f"{name:<40} {bi:>10.0f}/s {ni:>10.0f}/s {ni / bi:>8.2f}x")
        else:
            b = base[name]["real_time_ns"]
            n = new[name]["real_time_ns"]
            print(f"{name:<40} {b:>10.0f}ns {n:>10.0f}ns {b / n:>8.2f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", help="label for this snapshot (e.g. pr1)")
    parser.add_argument("--build", default="build", help="build directory")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print a speedup table between two entries")
    args = parser.parse_args()
    if args.compare:
        args.base, args.new = args.compare
        cmd_compare(args)
    elif args.label:
        cmd_record(args)
    else:
        parser.error("either --label or --compare is required")


if __name__ == "__main__":
    main()
