#ifndef ECDB_OBS_METRICS_REGISTRY_H_
#define ECDB_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "stats/metrics.h"

namespace ecdb {

/// Settings of the time-series sampler. The metrics registry records on
/// every host whatever this says; `enabled` runs a sampler over it. Off by
/// default: benchmarks and tools opt in (e.g. `bench_open_loop
/// --metrics-out`).
struct TelemetryConfig {
  bool enabled = false;

  /// Sampling period. On the simulator this is virtual time (the sampler
  /// is a scheduler event chain, byte-deterministic); on the threaded
  /// runtime it is wall time on a dedicated sampler thread.
  Micros sample_interval_us = 100'000;

  /// Bounded ring of timeslices: when more intervals elapse than this,
  /// the oldest slices are discarded and counted in slices_dropped().
  size_t max_slices = 4096;
};

/// Typed metric handles. Separate id spaces per kind so the record path
/// indexes a flat array with no kind dispatch.
using CounterId = uint32_t;
using GaugeId = uint32_t;
using HistId = uint32_t;

/// One cumulative view of all shards (Snapshot) or of one (ShardSnapshot).
/// Histogram state is raw bucket counts in Histogram's geometry, so two
/// snapshots difference into an interval's distribution. An empty
/// snapshot stands for "nothing recorded yet".
struct MetricsSnapshot {
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<std::vector<uint64_t>> hist_buckets;  // [hist][bucket]
  std::vector<uint64_t> hist_counts;
  std::vector<uint64_t> hist_sums;
};

/// The one record path of every host: typed counters, gauges and
/// histograms, allocation-free and sharded.
///
/// Registration and Activate happen single-threaded at setup. Each shard
/// then has one writer — the thread hosting the node that owns
/// it — so a record is a relaxed load and store of that thread's own
/// cells: no read-modify-write, no shared cache line. Reads (a sampler
/// thread's Snapshot) use relaxed loads and see a torn-in-time but
/// per-cell-consistent view. Gauges are global.
///
/// Each histogram also keeps the exact min and max of its shard's samples
/// since ResetExtremes(shard), so a window read back as a Histogram clamps
/// its percentiles like one recorded directly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (setup time, single-threaded) ---

  CounterId Counter(std::string name) {
    counter_names_.push_back(std::move(name));
    return static_cast<CounterId>(counter_names_.size() - 1);
  }
  GaugeId Gauge(std::string name) {
    gauge_names_.push_back(std::move(name));
    return static_cast<GaugeId>(gauge_names_.size() - 1);
  }
  HistId Hist(std::string name) {
    hist_names_.push_back(std::move(name));
    return static_cast<HistId>(hist_names_.size() - 1);
  }

  /// Allocates per-shard storage for everything registered so far. Call
  /// once, after registration, before anything records.
  void Activate(uint32_t shards);

  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  const std::vector<std::string>& hist_names() const { return hist_names_; }

  // --- Record path (the shard's one writer) ---

  void Add(uint32_t shard, CounterId id, uint64_t delta = 1) {
    Bump(counters_[shard * counter_names_.size() + id], delta);
  }
  void Set(GaugeId id, uint64_t value) {
    gauges_[id].store(value, std::memory_order_relaxed);
  }
  void Observe(uint32_t shard, HistId id, uint64_t value) {
    std::atomic<uint64_t>* h = HistCells(shard, id);
    Bump(h[Histogram::BucketFor(value)], 1);
    Bump(h[kCountCell], 1);
    Bump(h[kSumCell], value);
    if (value < h[kMinCell].load(std::memory_order_relaxed)) {
      h[kMinCell].store(value, std::memory_order_relaxed);
    }
    if (value > h[kMaxCell].load(std::memory_order_relaxed)) {
      h[kMaxCell].store(value, std::memory_order_relaxed);
    }
  }

  /// Restarts every histogram's min/max tracking on `shard` (a window
  /// mark). Call from the shard's writer.
  void ResetExtremes(uint32_t shard);

  // --- Reads (any thread) ---

  /// One shard's cumulative count of counter `id`.
  uint64_t Count(uint32_t shard, CounterId id) const {
    return counters_[shard * counter_names_.size() + id].load(
        std::memory_order_relaxed);
  }

  /// Aggregates all shards into one cumulative snapshot.
  MetricsSnapshot Snapshot() const;

  /// One shard's cumulative counters and histograms (no gauges).
  MetricsSnapshot ShardSnapshot(uint32_t shard) const;

  /// Histogram `id` as recorded on `shard` since `base` (a ShardSnapshot of
  /// the same shard, or an empty snapshot for "since Activate"), with the
  /// exact min and max since the shard's last ResetExtremes.
  Histogram ShardHistogram(uint32_t shard, HistId id,
                           const MetricsSnapshot& base) const;

 private:
  // Per-(shard, histogram) cells: the geometric buckets, then count, sum,
  // min and max.
  static constexpr size_t kCountCell = Histogram::kNumBuckets;
  static constexpr size_t kSumCell = kCountCell + 1;
  static constexpr size_t kMinCell = kCountCell + 2;
  static constexpr size_t kMaxCell = kCountCell + 3;
  static constexpr size_t kHistCells = kCountCell + 4;

  static void Bump(std::atomic<uint64_t>& cell, uint64_t delta) {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
  std::atomic<uint64_t>* HistCells(uint32_t shard, HistId id) const {
    return &hists_[(shard * hist_names_.size() + id) * kHistCells];
  }
  MetricsSnapshot ZeroSnapshot() const;
  void AddShard(uint32_t shard, MetricsSnapshot* snap) const;

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  uint32_t num_shards_ = 0;

  std::unique_ptr<std::atomic<uint64_t>[]> counters_;  // [shard][counter]
  std::unique_ptr<std::atomic<uint64_t>[]> gauges_;
  std::unique_ptr<std::atomic<uint64_t>[]> hists_;  // [shard][hist][cell]
};

/// The metric set every host records, registered by its Telemetry so the
/// export schema is the same on all of them. Nodes and workers record on
/// their own shards; gauges are polled from cumulative sources (network
/// stats, trace-ring drops) just before each sample.
struct CoreMetrics {
  CounterId txns_committed = 0;
  CounterId txns_aborted = 0;        // aborted attempts (may retry)
  CounterId open_loop_offered = 0;
  CounterId open_loop_rejected = 0;
  CounterId open_loop_aborted = 0;   // terminal aborts
  CounterId wal_appends = 0;
  CounterId wal_flushes = 0;
  CounterId worker_iterations = 0;   // threaded runtime event-loop turns
  CounterId worker_mailbox_msgs = 0;
  CounterId worker_local_msgs = 0;
  CounterId worker_timers_fired = 0;
  CounterId txns_blocked = 0;
  CounterId commit_protocol_runs = 0;
  /// Worker microseconds per Figure 12 category; kIdle has no counter
  /// (idle is derived from a window's capacity).
  std::array<CounterId, kNumTimeCategories> time_us{};
  CounterId worker_mailbox_batches = 0;
  CounterId worker_busy_us = 0;      // event-loop time outside the wait

  GaugeId net_messages_sent = 0;
  GaugeId net_messages_delivered = 0;
  GaugeId net_messages_dropped = 0;
  GaugeId net_bytes_sent = 0;
  GaugeId trace_events_dropped = 0;  // trace ring overwrites
  GaugeId clients_in_flight = 0;

  // Socket-runtime transport (zero elsewhere), polled like net_*.
  GaugeId sock_bytes_in = 0;
  GaugeId sock_bytes_out = 0;
  GaugeId sock_writev_calls = 0;
  GaugeId sock_partial_writes = 0;
  GaugeId sock_eagain_stalls = 0;
  GaugeId sock_reconnects = 0;

  HistId latency_us = 0;       // end-to-end committed-txn latency
  HistId wal_flush_us = 0;     // device round-trip per group flush
  /// Commit-protocol phase latencies (see CommitPhase).
  HistId phase_vote_us = 0;
  HistId phase_transmit_us = 0;
  HistId phase_apply_us = 0;
};

/// Registers the CoreMetrics set in declaration order (stable export
/// schema) and returns the handles.
CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry);

/// Where a node or worker records: its host's registry and its shard.
struct MetricsHandle {
  MetricsRegistry* registry = nullptr;
  const CoreMetrics* ids = nullptr;
  uint32_t shard = 0;

  void Add(CounterId CoreMetrics::*counter, uint64_t delta = 1) const {
    registry->Add(shard, ids->*counter, delta);
  }
  void Observe(HistId CoreMetrics::*hist, uint64_t value) const {
    registry->Observe(shard, ids->*hist, value);
  }
  uint64_t Count(CounterId CoreMetrics::*counter) const {
    return registry->Count(shard, ids->*counter);
  }
};

}  // namespace ecdb

#endif  // ECDB_OBS_METRICS_REGISTRY_H_
