#include "layer_walk.h"

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cc/lock_table.h"
#include "commit/testbed.h"
#include "net/channel.h"
#include "net/frame.h"
#include "sim/scheduler.h"
#include "storage/table.h"
#include "wal/wal.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using ecdb::Message;
using ecdb::testbed::ProtocolTestbed;

// Transactions the walk replays (fewer if WalkOptions::budget_s runs out).
constexpr uint32_t kWalkTxns = 20000;

/// What one EasyCommit round among `k` participants sends and logs,
/// captured once from a testbed round: every message (through the
/// network's send filter) and every host's log records (WAL Scan()).
struct RoundTemplate {
  std::vector<Message> messages;
  std::vector<ecdb::LogRecord> records;
};

RoundTemplate CaptureRound(uint32_t k, uint64_t seed) {
  RoundTemplate tpl;
  ProtocolTestbed bed(ecdb::CommitProtocol::kEasyCommit, k, {}, {}, seed);
  bed.network().SetSendFilter([&tpl](const Message& msg) {
    tpl.messages.push_back(msg);
    return true;
  });
  const ecdb::TxnId txn = bed.StartAll();
  bed.Settle();
  for (ecdb::NodeId id = 0; id < k; ++id) {
    for (const ecdb::LogRecord& r : bed.host(id).wal().Scan()) {
      if (r.txn == txn) tpl.records.push_back(r);
    }
  }
  return tpl;
}

uint32_t DistinctPartitions(const ecdb::TxnRequest& req,
                            const ecdb::KeyPartitioner& partitioner) {
  std::vector<ecdb::PartitionId> parts;
  for (const ecdb::Operation& op : req.ops) {
    const ecdb::PartitionId p = partitioner.PartitionOf(op.key);
    bool seen = false;
    for (ecdb::PartitionId q : parts) seen = seen || q == p;
    if (!seen) parts.push_back(p);
  }
  return static_cast<uint32_t>(parts.size());
}

}  // namespace

void RunLayerWalk(const WalkOptions& opt, MetricSet* layer, CheckList* checks,
                  uint32_t* txns_walked) {
  const WorkloadSpec& spec = *opt.spec;
  SpanLog& spans = *opt.spans;
  const auto t_start = std::chrono::steady_clock::now();

  ecdb::YcsbWorkload workload(YcsbFor(spec));
  const ecdb::KeyPartitioner partitioner(spec.nodes);
  std::vector<std::unique_ptr<ecdb::PartitionStore>> stores;
  {
    ScopedSpan span(&spans, "walk.load");
    for (ecdb::PartitionId p = 0; p < spec.nodes; ++p) {
      stores.push_back(std::make_unique<ecdb::PartitionStore>(p));
      workload.LoadPartition(stores.back().get(), partitioner);
    }
  }
  ecdb::LockTable locks(ecdb::CcPolicy::kNoWait);
  std::deque<ecdb::TxnId> holding;  // txns holding locks, oldest first
  std::map<uint32_t, std::unique_ptr<ProtocolTestbed>> beds;
  std::map<uint32_t, RoundTemplate> templates;
  auto wal_or = ecdb::FileWal::Open(opt.scratch_dir + "/walk.wal");
  checks->Expect(wal_or.ok(), "walk: FileWal opens in the scratch directory");
  if (!wal_or.ok()) return;
  std::unique_ptr<ecdb::FileWal> wal = std::move(wal_or).value();
  ecdb::MessageChannel channel;
  ecdb::Scheduler scheduler;
  ecdb::FrameStreamDecoder decoder;
  ecdb::Rng rng(opt.seed);

  std::vector<ecdb::MessageFrame> frames;
  std::vector<Message> to_push, popped;
  std::vector<uint8_t> stream;
  std::vector<ecdb::LogRecord> records;
  ecdb::MessageFrame decoded;
  uint64_t conflicted = 0, storage_misses = 0, undecided = 0, lost = 0,
           flush_errors = 0, events_run = 0;
  uint64_t msgs_total = 0, bytes_total = 0;
  uint32_t walked = 0;

  for (uint32_t i = 0; i < kWalkTxns; ++i) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count() > opt.budget_s) {
      break;
    }
    const ecdb::PartitionId home = i % spec.nodes;
    const ecdb::TxnId txn = ecdb::MakeTxnId(home, i + 1);
    ScopedSpan root(&spans, "walk.txn", SpanLog::kNoParent, txn);
    walked++;

    ecdb::TxnRequest req;
    {
      ScopedSpan span(&spans, "workload.next_txn", root.id(), txn);
      req = workload.NextTxn(home, rng);
    }
    {
      ScopedSpan span(&spans, "storage.op", root.id(), txn);
      for (const ecdb::Operation& op : req.ops) {
        ecdb::Table* table =
            stores[partitioner.PartitionOf(op.key)]->GetTable(op.table);
        if (op.is_write()) {
          auto row = table->GetMutable(op.key);
          if (row.ok()) {
            row.value()->version++;
          } else {
            storage_misses++;
          }
        } else {
          if (!table->Get(op.key).ok()) storage_misses++;
        }
      }
      span.set_units(req.ops.size());
    }
    bool conflict = false;
    {
      ScopedSpan span(&spans, "cc.acquire", root.id(), txn);
      uint64_t acquired = 0;
      for (const ecdb::Operation& op : req.ops) {
        acquired++;
        const ecdb::AcquireResult r = locks.Acquire(
            txn, i + 1, op.table, op.key,
            op.is_write() ? ecdb::LockMode::kExclusive
                          : ecdb::LockMode::kShared);
        if (r != ecdb::AcquireResult::kGranted) {
          conflict = true;
          break;
        }
      }
      span.set_units(acquired);
    }
    if (conflict) {
      // NO_WAIT: the attempt aborts and drops what it holds at once.
      conflicted++;
      ScopedSpan span(&spans, "cc.release_all", root.id(), txn);
      locks.ReleaseAll(txn);
    } else {
      holding.push_back(txn);
      if (holding.size() > spec.walk_in_flight) {
        ScopedSpan span(&spans, "cc.release_all", root.id(), txn);
        locks.ReleaseAll(holding.front());
        holding.pop_front();
      }
    }

    const uint32_t k = DistinctPartitions(req, partitioner);
    if (k < 2) continue;  // single-partition: no commit protocol runs
    auto& bed = beds[k];
    if (bed == nullptr) {
      bed = std::make_unique<ProtocolTestbed>(ecdb::CommitProtocol::kEasyCommit,
                                              k, ecdb::NetworkConfig{},
                                              ecdb::CommitEngineConfig{},
                                              opt.seed);
      templates[k] = CaptureRound(k, opt.seed);
    }
    const RoundTemplate& tpl = templates[k];
    ecdb::TxnId round = ecdb::kInvalidTxn;
    {
      ScopedSpan span(&spans, "commit.round", root.id(), txn);
      round = bed->StartAll();
      bed->Settle();
    }
    if (!bed->AllActiveDecided(round)) undecided++;

    // This transaction's copy of the round's messages and records.
    frames.resize(tpl.messages.size());
    to_push.clear();
    for (size_t j = 0; j < tpl.messages.size(); ++j) {
      Message msg = tpl.messages[j];
      msg.txn = txn;
      frames[j].src = msg.src;
      frames[j].dst = msg.dst;
      frames[j].messages.assign(1, msg);
      to_push.push_back(std::move(msg));
    }
    records = tpl.records;
    for (ecdb::LogRecord& r : records) r.txn = txn;
    const uint64_t n_msgs = tpl.messages.size();
    msgs_total += n_msgs;

    {
      ScopedSpan span(&spans, "net.encode", root.id(), txn);
      stream.clear();
      for (const ecdb::MessageFrame& f : frames) {
        ecdb::EncodeFrameToStream(f, &stream);
      }
      span.set_units(n_msgs);
    }
    bytes_total += stream.size();
    {
      ScopedSpan span(&spans, "net.decode", root.id(), txn);
      decoder.Feed(stream.data(), stream.size());
      uint64_t got = 0;
      while (decoder.Next(&decoded)) got += decoded.messages.size();
      if (got != n_msgs || decoder.corrupt()) lost++;
      span.set_units(n_msgs);
    }
    {
      ScopedSpan span(&spans, "net.channel", root.id(), txn);
      for (Message& msg : to_push) channel.Push(std::move(msg));
      channel.PopAll(&popped, std::chrono::microseconds(0));
      if (popped.size() != n_msgs) lost++;
      span.set_units(n_msgs);
    }
    const uint64_t n_records = records.size();
    {
      ScopedSpan span(&spans, "wal.append", root.id(), txn);
      wal->AppendBatch(&records);
      span.set_units(n_records);
    }
    {
      ScopedSpan span(&spans, "wal.flush", root.id(), txn);
      if (!wal->Flush().ok()) flush_errors++;
    }
    {
      // One delivery-like event per message, at the network's latency.
      ScopedSpan span(&spans, "sim.event", root.id(), txn);
      for (uint64_t j = 0; j < n_msgs; ++j) {
        scheduler.ScheduleAfter(static_cast<ecdb::Micros>(400 + j),
                                [&events_run] { events_run++; });
      }
      scheduler.RunAll();
      span.set_units(n_msgs);
    }
  }
  *txns_walked = walked;

  checks->Expect(storage_misses == 0, "walk: every storage key is present");
  checks->Expect(undecided == 0, "walk: every commit round decided");
  checks->Expect(lost == 0, "walk: every message decodes and drains");
  checks->Expect(flush_errors == 0, "walk: every WAL flush succeeds");
  checks->Expect(events_run == msgs_total, "walk: every scheduled event ran");
  checks->Expect(walked > 0, "walk: at least one transaction replayed");

  layer->Set("workload.next_txn_ns",
             spans.MedianSelfNsPerUnit("workload.next_txn"), "ns");
  layer->Set("storage.op_ns", spans.MedianSelfNsPerUnit("storage.op"), "ns");
  layer->Set("cc.acquire_ns", spans.MedianSelfNsPerUnit("cc.acquire"), "ns");
  layer->Set("cc.release_all_ns", spans.MedianSelfNsPerUnit("cc.release_all"),
             "ns");
  layer->Set("cc.conflict_frac",
             Ratio(static_cast<double>(conflicted), static_cast<double>(walked)),
             "frac");
  layer->Set("commit.round_ns", spans.MedianSelfNsPerUnit("commit.round"),
             "ns");
  layer->Set("net.encode_ns_per_msg", spans.MedianSelfNsPerUnit("net.encode"),
             "ns");
  layer->Set("net.decode_ns_per_msg", spans.MedianSelfNsPerUnit("net.decode"),
             "ns");
  layer->Set("net.bytes_per_msg",
             Ratio(static_cast<double>(bytes_total),
                   static_cast<double>(msgs_total)),
             "B");
  layer->Set("net.channel_ns_per_msg",
             spans.MedianSelfNsPerUnit("net.channel"), "ns");
  layer->Set("wal.append_ns", spans.MedianSelfNsPerUnit("wal.append"), "ns");
  layer->Set("wal.flush_ns", spans.MedianSelfNsPerUnit("wal.flush"), "ns");
  layer->Set("sim.event_ns", spans.MedianSelfNsPerUnit("sim.event"), "ns");
}

}  // namespace perfbench
