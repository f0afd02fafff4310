#ifndef ECDB_OBS_TELEMETRY_H_
#define ECDB_OBS_TELEMETRY_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "obs/metrics_registry.h"

namespace ecdb {

/// Per-interval summary of one histogram: the delta distribution between
/// two consecutive cumulative snapshots, reduced to the quantiles the
/// paper's figures use. `max_us` is the upper bound of the highest
/// non-empty bucket (bounded ~4.4% relative error, like every Histogram
/// percentile).
struct HistSlice {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
};

/// One sampling interval: counter deltas over [start_us, end_us), gauge
/// values as of end_us, and per-interval histogram summaries. Metric order
/// matches the registry's registration order (see the exporter meta line).
struct Timeslice {
  Micros start_us = 0;
  Micros end_us = 0;
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<HistSlice> hists;
};

/// Periodic sampler turning the registry's cumulative state into a bounded
/// ring of per-interval timeslices.
///
/// Driving model: the sampler itself has no clock and no thread — the host
/// runtime calls Sample(now) on its own cadence. SimCluster drives it from
/// a scheduler event chain (virtual time: two identically-seeded runs
/// produce byte-identical exports), the wall-clock hosts from Telemetry's
/// sampler thread. All sampler state is therefore single-writer; the
/// only cross-thread traffic is the registry's relaxed atomics and
/// whatever the poll hook reads (which must itself be atomic or otherwise
/// safe — ThreadNetwork's counters are).
///
/// The optional poll hook runs at the top of every Sample() and is where
/// cumulative values owned elsewhere (network stats, trace-ring drop
/// counts) get copied into registry gauges so they appear in the same
/// timeslice stream.
class TelemetrySampler {
 public:
  TelemetrySampler(MetricsRegistry* registry, TelemetryConfig config)
      : registry_(registry), config_(config) {}

  void SetPollHook(std::function<void()> hook) { poll_ = std::move(hook); }

  /// Takes the baseline snapshot at `now_us` and clears any prior slices.
  /// Call once when measurement starts: Sample() requires a baseline.
  void Reset(Micros now_us);

  /// Closes the interval [prev, now_us): runs the poll hook, snapshots the
  /// registry, and appends the delta slice. Oldest slices fall off once
  /// the ring holds config.max_slices.
  void Sample(Micros now_us);

  const std::deque<Timeslice>& slices() const { return slices_; }
  uint64_t slices_dropped() const { return slices_dropped_; }
  const MetricsRegistry* registry() const { return registry_; }

  /// JSONL time-series: one meta line naming every metric in order, then
  /// one fixed-key-order object per timeslice. Byte-deterministic for a
  /// given slice ring (pinned by tests/obs_test.cc on the simulator).
  /// `label` tags the meta line so several runs can share one file.
  void WriteTimeseriesJsonl(const std::string& label, std::ostream& out) const;
  bool AppendTimeseriesJsonlFile(const std::string& label,
                                 const std::string& path) const;

  /// Prometheus text exposition (version 0.0.4) of the cumulative
  /// snapshot: counters/gauges as-is, histograms as summaries with
  /// quantile labels.
  void WritePrometheusText(std::ostream& out) const;
  bool WritePrometheusTextFile(const std::string& path) const;

  /// Quantile helpers over raw bucket-count arrays in Histogram geometry
  /// (shared by the exporters and tests).
  static uint64_t BucketPercentile(const std::vector<uint64_t>& buckets,
                                   uint64_t count, double q);
  static HistSlice SummarizeBuckets(const std::vector<uint64_t>& buckets,
                                    uint64_t count, uint64_t sum);

 private:
  MetricsRegistry* registry_;
  TelemetryConfig config_;
  std::function<void()> poll_;

  MetricsSnapshot last_;
  Micros last_at_us_ = 0;
  std::deque<Timeslice> slices_;
  uint64_t slices_dropped_ = 0;
};

struct NetworkStats;

/// A host's metrics, one owner for all three hosts: the always-on registry
/// with the CoreMetrics schema and one shard per node, plus —
/// with config.enabled — the sampler. Wall-clock hosts drive it with the
/// sampler thread below; the simulator samples from scheduler events.
class Telemetry {
 public:
  Telemetry(const TelemetryConfig& config, uint32_t shards);
  ~Telemetry();

  MetricsRegistry& registry() { return registry_; }
  const CoreMetrics& ids() const { return ids_; }

  MetricsHandle Shard(uint32_t shard) {
    return MetricsHandle{&registry_, &ids_, shard};
  }

  /// The sampler, or nullptr when config.enabled is false.
  TelemetrySampler* sampler() { return sampler_.get(); }

  /// Copies sources into gauges before every sample, on the sampling
  /// thread: on wall-clock hosts it may read only atomics.
  void SetPoll(std::function<void()> poll);

  /// The poll every host has: network counters into the net_* gauges.
  void SetNetworkGauges(const NetworkStats& stats);

  /// Starts a thread sampling every config.sample_interval_us of wall
  /// time. No-op without a sampler.
  void StartSamplerThread();

  /// Joins the thread, runs `final_poll` (sources that are safe to read
  /// once the host's workers stopped) and takes one last sample.
  void StopSamplerThread(const std::function<void()>& final_poll = {});

 private:
  Micros WallNowUs() const;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  CoreMetrics ids_;
  std::unique_ptr<TelemetrySampler> sampler_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace ecdb

#endif  // ECDB_OBS_TELEMETRY_H_
