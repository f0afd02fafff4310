// The repository benchmark. Runs one workload through the public
// API of its host and prints, one per line, every metric with its unit,
// then the correctness checks, then one JSON result object as the last
// line. Exits 1 when a correctness check fails, 2 on bad arguments.
//
//   ecdb_perfbench --workload threaded-ycsb|socket-wal|sim-ycsb|sim-crash
//                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: an untraced and a traced cluster run of S/2 seconds each,
// then the layer walk; it prints the per-layer metrics. Spans are kept in
// memory and written to DIR/spans-<workload>-seed<N>-trace<T>.jsonl at
// the end.
//
// This binary is also the socket host's node executable: the supervisor
// re-execs it with a marker argument, handled first in main().

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/socket_cluster.h"
#include "hosts.h"
#include "layer_walk.h"
#include "report.h"
#include "spans.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0), as BENCHMARK.json lists them.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},           {"committed_per_s", "1/s"},
    {"commit_p50_us", "us"},    {"commit_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics (--trace 1), as BENCHMARK.json lists them. A
// metric whose layer the workload's host does not exercise (socket
// counters on the in-process hosts, recovery without a crash, ...)
// reads 0.
constexpr MetricName kPerLayer[] = {
    {"workload.next_txn_ns", "ns"},
    {"storage.op_ns", "ns"},
    {"cc.acquire_ns", "ns"},
    {"cc.release_all_ns", "ns"},
    {"cc.conflict_frac", "frac"},
    {"txn.attempts_per_commit", "ratio"},
    {"commit.round_ns", "ns"},
    {"commit.msgs_per_txn", "count"},
    {"commit.dup_decisions_per_txn", "count"},
    {"commit.vote_p50_us", "us"},
    {"commit.transmit_p50_us", "us"},
    {"commit.apply_p50_us", "us"},
    {"commit.termination_rounds", "count"},
    {"commit.blocked_txns", "count"},
    {"net.encode_ns_per_msg", "ns"},
    {"net.decode_ns_per_msg", "ns"},
    {"net.bytes_per_msg", "B"},
    {"net.channel_ns_per_msg", "ns"},
    {"net.frames_per_txn", "count"},
    {"net.msgs_per_frame", "count"},
    {"net.syscalls_per_txn", "count"},
    {"net.frames_per_writev", "count"},
    {"net.eagain_stalls", "count"},
    {"net.redials", "count"},
    {"net.overflow_drops", "count"},
    {"wal.append_ns", "ns"},
    {"wal.flush_ns", "ns"},
    {"wal.records_per_txn", "count"},
    {"wal.flushes_per_txn", "count"},
    {"wal.file_bytes_per_txn", "B"},
    {"wal.open_ms", "ms"},
    {"cluster.recover_ms", "ms"},
    {"cluster.worker_busy_frac", "frac"},
    {"cluster.mailbox_msgs_per_txn", "count"},
    {"sim.event_ns", "ns"},
    {"path.execution_us", "us"},
    {"path.queueing_us", "us"},
    {"path.network_us", "us"},
    {"path.transmit_us", "us"},
    {"path.wal_us", "us"},
    {"obs.trace_overhead_frac", "frac"},
};

// Set-ups timed outside the window in an end-to-end run (RunOptions::
// setups); threaded-ycsb adds one per episode.
constexpr int kTimedSetups = 8;

// Per-layer metrics only the socket host has. socket-wal is not a listed
// workload (its latency is not steady on a shared 4-core host), so the
// traced run of every other workload reads these from a short socket-wal
// run.
constexpr const char* kSocketOnly[] = {
    "net.syscalls_per_txn", "net.frames_per_writev", "net.eagain_stalls",
    "net.redials",          "net.overflow_drops",    "wal.file_bytes_per_txn",
    "wal.open_ms",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         (args->trace == 0 || args->trace == 1);
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

/// Copies the metrics named in `names` out of `source` in table order; a
/// name the source lacks reads 0. A unit disagreement is a benchmark bug and
/// fails the run.
std::vector<Metric> Select(const MetricSet& source,
                           const MetricName* names, size_t count,
                           CheckList* checks) {
  std::vector<Metric> out;
  for (size_t i = 0; i < count; ++i) {
    const Metric* m = source.Find(names[i].name);
    if (m != nullptr && m->unit != names[i].unit) {
      checks->Expect(false, std::string("benchmark: unit of ") + names[i].name);
    }
    out.push_back({names[i].name, m != nullptr ? m->value : 0.0,
                   names[i].unit});
  }
  return out;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const std::string scratch =
      args.out_dir + "/tmp-" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch);
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::fflush(stdout);

  SpanLog spans;
  CheckList checks;
  RunOptions run;
  run.spec = spec;
  run.seed = args.seed;
  run.scratch_dir = scratch;
  run.spans = &spans;

  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  uint64_t attempted = 0, failed = 0;
  auto absorb = [&](const HostRun& r) {
    checks.Merge(r.checks);
    notes.insert(notes.end(), r.notes.begin(), r.notes.end());
  };

  if (args.trace == 0) {
    run.window_s = args.seconds;
    run.setups = kTimedSetups;
    const HostRun r = RunHost(run);
    absorb(r);
    attempted = r.attempted;
    failed = r.failed;
    MetricSet e2e;
    e2e.Set("setup_s", r.setup_s, "s");
    e2e.Set("committed_per_s", r.committed_per_s, "1/s");
    e2e.Set("commit_p50_us", r.commit_p50_us, "us");
    e2e.Set("commit_p99_us", r.commit_p99_us, "us");
    e2e.Set("peak_rss_mb", r.peak_rss_mb, "MB");
    metrics = Select(e2e, kEndToEnd, std::size(kEndToEnd), &checks);
    notes.push_back("failed_frac " +
                    std::to_string(Ratio(static_cast<double>(failed),
                                         static_cast<double>(attempted))) +
                    " frac (" + std::to_string(failed) + " of " +
                    std::to_string(attempted) + ")");
  } else {
    run.window_s = std::max(1.0, args.seconds / 2.0);
    run.setups = 1;
    const HostRun plain = RunHost(run);
    absorb(plain);
    attempted = plain.attempted;
    failed = plain.failed;
    MetricSet layer = plain.layer;
    if (HostSupportsTracing(*spec)) {
      run.traced = true;
      HostRun traced = RunHost(run);
      // The traced run repeats the plain run's notes; keep only its own.
      std::erase_if(traced.notes, [](const std::string& n) {
        return n.rfind("trace:", 0) != 0;
      });
      absorb(traced);
      for (const Metric& m : traced.layer.all()) {
        if (m.name.rfind("path.", 0) == 0) layer.Set(m.name, m.value, m.unit);
      }
      layer.Set("obs.trace_overhead_frac",
                1.0 - Ratio(traced.committed_per_s, plain.committed_per_s),
                "frac");
    } else {
      notes.push_back("trace: the socket supervisor collects no per-process "
                      "trace rings; path.* and obs.* read 0");
    }
    if (spec->host != Host::kSocket) {
      // The socket transport's and FileWal's own counters, from a short
      // socket-wal run: the only host that has them.
      RunOptions probe = run;
      probe.spec = FindWorkload("socket-wal");
      probe.traced = false;
      probe.window_s = std::max(1.0, args.seconds / 4.0);
      const HostRun sock = RunHost(probe);
      checks.Merge(sock.checks);
      for (const char* name : kSocketOnly) {
        if (const Metric* m = sock.layer.Find(name)) {
          layer.Set(m->name, m->value, m->unit);
        }
      }
      notes.push_back("socket probe: " + std::to_string(probe.window_s) +
                      " s of socket-wal supply the net.* socket counters and "
                      "wal.file_bytes_per_txn, wal.open_ms");
    }
    WalkOptions walk;
    walk.spec = spec;
    walk.seed = args.seed;
    walk.budget_s = std::max(2.0, args.seconds / 2.0);
    walk.scratch_dir = scratch;
    walk.spans = &spans;
    uint32_t walked = 0;
    RunLayerWalk(walk, &layer, &checks, &walked);
    notes.push_back("walk: " + std::to_string(walked) + " transactions");
    metrics = Select(layer, kPerLayer, std::size(kPerLayer), &checks);
  }

  checks.Expect(attempted >= 1, "run: at least one transaction attempted");
  for (const Metric& m : metrics) PrintMetric(m);
  for (const std::string& n : notes) std::printf("info %s\n", n.c_str());
  for (const std::string& s : checks.passed()) {
    std::printf("check ok   %s\n", s.c_str());
  }
  for (const std::string& s : checks.failures()) {
    std::printf("check FAIL %s\n", s.c_str());
  }
  const std::string span_path = args.out_dir + "/spans-" + spec->name +
                                "-seed" + std::to_string(args.seed) +
                                "-trace" + std::to_string(args.trace) +
                                ".jsonl";
  if (!spans.WriteJsonl(span_path)) {
    std::printf("info could not write %s\n", span_path.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::printf("%s\n",
              ResultJson(checks.ok(), attempted, failed, metrics).c_str());
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
