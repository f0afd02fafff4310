#include "obs/metrics_registry.h"

#include <limits>
#include <utility>

namespace ecdb {

void MetricsRegistry::Activate(uint32_t shards) {
  if (shards == 0) shards = 1;
  num_shards_ = shards;
  // make_unique value-initializes: every cell starts at 0.
  using Cells = std::atomic<uint64_t>[];
  counters_ = std::make_unique<Cells>(counter_names_.size() * shards);
  gauges_ = std::make_unique<Cells>(gauge_names_.size());
  hists_ = std::make_unique<Cells>(hist_names_.size() * shards * kHistCells);
  for (uint32_t s = 0; s < shards; ++s) ResetExtremes(s);
}

void MetricsRegistry::ResetExtremes(uint32_t shard) {
  for (HistId h = 0; h < hist_names_.size(); ++h) {
    std::atomic<uint64_t>* cells = HistCells(shard, h);
    cells[kMinCell].store(std::numeric_limits<uint64_t>::max(),
                          std::memory_order_relaxed);
    cells[kMaxCell].store(0, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap = ZeroSnapshot();
  for (uint32_t s = 0; s < num_shards_; ++s) AddShard(s, &snap);
  for (GaugeId g = 0; g < gauge_names_.size(); ++g) {
    snap.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::ShardSnapshot(uint32_t shard) const {
  MetricsSnapshot snap = ZeroSnapshot();
  AddShard(shard, &snap);
  return snap;
}

MetricsSnapshot MetricsRegistry::ZeroSnapshot() const {
  MetricsSnapshot snap;
  snap.counters.assign(counter_names_.size(), 0);
  snap.gauges.assign(gauge_names_.size(), 0);
  snap.hist_buckets.assign(hist_names_.size(),
                           std::vector<uint64_t>(Histogram::kNumBuckets, 0));
  snap.hist_counts.assign(hist_names_.size(), 0);
  snap.hist_sums.assign(hist_names_.size(), 0);
  return snap;
}

void MetricsRegistry::AddShard(uint32_t shard, MetricsSnapshot* snap) const {
  for (CounterId c = 0; c < counter_names_.size(); ++c) {
    snap->counters[c] += Count(shard, c);
  }
  for (HistId h = 0; h < hist_names_.size(); ++h) {
    const std::atomic<uint64_t>* cells = HistCells(shard, h);
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      snap->hist_buckets[h][b] += cells[b].load(std::memory_order_relaxed);
    }
    snap->hist_counts[h] += cells[kCountCell].load(std::memory_order_relaxed);
    snap->hist_sums[h] += cells[kSumCell].load(std::memory_order_relaxed);
  }
}

Histogram MetricsRegistry::ShardHistogram(uint32_t shard, HistId id,
                                          const MetricsSnapshot& base) const {
  const std::atomic<uint64_t>* cells = HistCells(shard, id);
  const bool has_base = id < base.hist_buckets.size();
  std::vector<uint64_t> buckets(Histogram::kNumBuckets);
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    buckets[b] = cells[b].load(std::memory_order_relaxed) -
                 (has_base ? base.hist_buckets[id][b] : 0);
  }
  const uint64_t sum = cells[kSumCell].load(std::memory_order_relaxed) -
                       (has_base ? base.hist_sums[id] : 0);
  const uint64_t min = cells[kMinCell].load(std::memory_order_relaxed);
  const uint64_t max = cells[kMaxCell].load(std::memory_order_relaxed);
  return Histogram::FromBuckets(std::move(buckets), sum, min, max);
}

CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry) {
  CoreMetrics m;
  m.txns_committed = registry->Counter("txns_committed");
  m.txns_aborted = registry->Counter("txns_aborted");
  m.open_loop_offered = registry->Counter("open_loop_offered");
  m.open_loop_rejected = registry->Counter("open_loop_rejected");
  m.open_loop_aborted = registry->Counter("open_loop_aborted");
  m.wal_appends = registry->Counter("wal_appends");
  m.wal_flushes = registry->Counter("wal_flushes");
  m.worker_iterations = registry->Counter("worker_iterations");
  m.worker_mailbox_msgs = registry->Counter("worker_mailbox_msgs");
  m.worker_local_msgs = registry->Counter("worker_local_msgs");
  m.worker_timers_fired = registry->Counter("worker_timers_fired");
  m.txns_blocked = registry->Counter("txns_blocked");
  m.commit_protocol_runs = registry->Counter("commit_protocol_runs");
  auto time = [&](TimeCategory c, const char* name) {
    m.time_us[static_cast<size_t>(c)] = registry->Counter(name);
  };
  time(TimeCategory::kUsefulWork, "time_useful_work_us");
  time(TimeCategory::kTxnManager, "time_txn_manager_us");
  time(TimeCategory::kIndex, "time_index_us");
  time(TimeCategory::kAbort, "time_abort_us");
  time(TimeCategory::kCommit, "time_commit_us");
  time(TimeCategory::kOverhead, "time_overhead_us");
  m.worker_mailbox_batches = registry->Counter("worker_mailbox_batches");
  m.worker_busy_us = registry->Counter("worker_busy_us");
  m.net_messages_sent = registry->Gauge("net_messages_sent");
  m.net_messages_delivered = registry->Gauge("net_messages_delivered");
  m.net_messages_dropped = registry->Gauge("net_messages_dropped");
  m.net_bytes_sent = registry->Gauge("net_bytes_sent");
  m.trace_events_dropped = registry->Gauge("trace_events_dropped");
  m.clients_in_flight = registry->Gauge("clients_in_flight");
  m.sock_bytes_in = registry->Gauge("sock_bytes_in");
  m.sock_bytes_out = registry->Gauge("sock_bytes_out");
  m.sock_writev_calls = registry->Gauge("sock_writev_calls");
  m.sock_partial_writes = registry->Gauge("sock_partial_writes");
  m.sock_eagain_stalls = registry->Gauge("sock_eagain_stalls");
  m.sock_reconnects = registry->Gauge("sock_reconnects");
  m.latency_us = registry->Hist("latency_us");
  m.wal_flush_us = registry->Hist("wal_flush_us");
  m.phase_vote_us = registry->Hist("phase_vote_us");
  m.phase_transmit_us = registry->Hist("phase_transmit_us");
  m.phase_apply_us = registry->Hist("phase_apply_us");
  return m;
}

}  // namespace ecdb
