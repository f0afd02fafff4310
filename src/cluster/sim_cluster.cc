#include "cluster/sim_cluster.h"

#include <utility>

namespace ecdb {

SimCluster::SimCluster(const ClusterConfig& config,
                       std::unique_ptr<Workload> workload)
    : config_(config),
      workload_(std::move(workload)),
      telemetry_(config_.telemetry, config_.num_nodes) {
  Rng root(config_.seed);
  network_ = std::make_unique<SimNetwork>(&scheduler_, config_.network,
                                          root.Next());
  if (config_.coalesce_transport) network_->EnableCoalescing(true);
  nodes_.reserve(config_.num_nodes);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<SimNode>(
        id, config_, &scheduler_, network_.get(), workload_.get(), &monitor_,
        root.Next(), telemetry_.Shard(id)));
  }
  telemetry_.SetPoll([this] {
    telemetry_.SetNetworkGauges(network_->stats());
    uint64_t trace_drops = 0, in_flight = 0;
    for (const auto& node : nodes_) {
      trace_drops += node->trace().dropped();
      in_flight += node->InFlightClientCount();
    }
    const CoreMetrics& ids = telemetry_.ids();
    telemetry_.registry().Set(ids.trace_events_dropped, trace_drops);
    telemetry_.registry().Set(ids.clients_in_flight, in_flight);
  });
}

void SimCluster::Start() {
  for (auto& node : nodes_) node->Bootstrap();
  for (auto& node : nodes_) node->StartClients();
  if (telemetry() != nullptr && sampler_task_ == 0) {
    telemetry()->Reset(scheduler_.Now());
    sampler_task_ = scheduler_.ScheduleAfter(
        config_.telemetry.sample_interval_us, [this] { SampleTick(); });
  }
}

void SimCluster::SampleTick() {
  telemetry()->Sample(scheduler_.Now());
  sampler_task_ = scheduler_.ScheduleAfter(
      config_.telemetry.sample_interval_us, [this] { SampleTick(); });
}

void SimCluster::StopTelemetry() {
  if (sampler_task_ != 0) {
    scheduler_.Cancel(sampler_task_);
    sampler_task_ = 0;
    // Close the partial interval so the last slice covers up to "now".
    telemetry()->Sample(scheduler_.Now());
  }
}

void SimCluster::RunFor(double seconds) {
  const Micros until =
      scheduler_.Now() + static_cast<Micros>(seconds * 1e6);
  scheduler_.RunUntil(until);
}

size_t SimCluster::RunToQuiescence(size_t max_events) {
  return scheduler_.RunAll(max_events);
}

void SimCluster::BeginMeasurement() {
  for (auto& node : nodes_) node->BeginMeasurement();
}

ClusterStats SimCluster::CollectStats(double duration_seconds) const {
  const uint64_t capacity = static_cast<uint64_t>(config_.workers_per_node) *
                            static_cast<uint64_t>(duration_seconds * 1e6);
  return NodeCore::Aggregate(nodes_, duration_seconds, capacity,
                             network_->stats());
}

void SimCluster::CrashNode(NodeId id) { nodes_[id]->Crash(); }

void SimCluster::RecoverNode(NodeId id) { nodes_[id]->Recover(); }

void SimCluster::EnableTracing(size_t capacity) {
  for (auto& node : nodes_) node->EnableTracing(capacity);
}

std::vector<const TraceRecorder*> SimCluster::recorders() const {
  std::vector<const TraceRecorder*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(&node->trace());
  return out;
}

}  // namespace ecdb
