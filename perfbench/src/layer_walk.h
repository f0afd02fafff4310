#ifndef PERFBENCH_LAYER_WALK_H_
#define PERFBENCH_LAYER_WALK_H_

#include <cstdint>
#include <string>

#include "checks.h"
#include "hosts.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct WalkOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  /// Wall-clock cap on the replay (see kWalkTxns in layer_walk.cc).
  double budget_s = 10;
  /// Directory for the walk's FileWal; removed by the caller.
  std::string scratch_dir;
  SpanLog* spans = nullptr;
};

/// The traced layer walk: replays transactions made by the workload's own
/// generator and seed through each module's public functions, one span per
/// call tagged with the transaction, in the order workload, storage, cc,
/// commit, net, wal, sim. Sets the walk's per-layer metrics (self time per
/// work unit, median over transactions) and checks every call succeeded.
void RunLayerWalk(const WalkOptions& options, MetricSet* layer,
                  CheckList* checks, uint32_t* txns_walked);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_WALK_H_
