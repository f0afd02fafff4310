// Unit tests for the discrete-event scheduler and its timer-wheel event
// queue. The identity tests at the bottom run randomized scenarios against
// a test-local reference model — an ordered map keyed by (time, insertion
// seq) plus a set of cancelled ids — and require the exact event sequences
// to match.

#include "sim/scheduler.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  Scheduler s;
};

TEST_F(SchedulerTest, StartsAtZero) {
  EXPECT_EQ(s.Now(), 0u);
  EXPECT_TRUE(s.Empty());
}

TEST_F(SchedulerTest, RunsEventsInTimeOrder) {
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30u);
}

TEST_F(SchedulerTest, SameTimeEventsRunFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(SchedulerTest, ClockAdvancesToEventTime) {
  Micros seen = 0;
  s.ScheduleAfter(100, [&] { seen = s.Now(); });
  s.RunOne();
  EXPECT_EQ(seen, 100u);
}

TEST_F(SchedulerTest, ScheduleAfterIsRelative) {
  s.ScheduleAt(50, [] {});
  s.RunOne();
  Micros seen = 0;
  s.ScheduleAfter(25, [&] { seen = s.Now(); });
  s.RunOne();
  EXPECT_EQ(seen, 75u);
}

TEST_F(SchedulerTest, PastTimesClampToNow) {
  s.ScheduleAt(100, [] {});
  s.RunOne();
  Micros seen = 0;
  s.ScheduleAt(10, [&] { seen = s.Now(); });  // in the past
  s.RunOne();
  EXPECT_EQ(seen, 100u);
}

TEST_F(SchedulerTest, CancelPreventsExecution) {
  bool ran = false;
  const auto id = s.ScheduleAfter(10, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.RunAll();
  EXPECT_FALSE(ran);
}

TEST_F(SchedulerTest, CancelReturnsFalseTwice) {
  const auto id = s.ScheduleAfter(10, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
}

TEST_F(SchedulerTest, CancelAfterRunReturnsFalse) {
  const auto id = s.ScheduleAfter(10, [] {});
  s.RunAll();
  EXPECT_FALSE(s.Cancel(id));
}

TEST_F(SchedulerTest, RunUntilExecutesOnlyDueEvents) {
  int ran = 0;
  s.ScheduleAt(10, [&] { ran++; });
  s.ScheduleAt(20, [&] { ran++; });
  s.ScheduleAt(30, [&] { ran++; });
  EXPECT_EQ(s.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.Now(), 20u);
  EXPECT_EQ(s.PendingCount(), 1u);
}

TEST_F(SchedulerTest, RunUntilAdvancesClockWhenIdle) {
  s.RunUntil(500);
  EXPECT_EQ(s.Now(), 500u);
}

TEST_F(SchedulerTest, RunUntilSkipsCancelledHead) {
  bool ran = false;
  const auto id = s.ScheduleAt(10, [] {});
  s.ScheduleAt(20, [&] { ran = true; });
  s.Cancel(id);
  EXPECT_EQ(s.RunUntil(25), 1u);
  EXPECT_TRUE(ran);
}

TEST_F(SchedulerTest, EventsMayScheduleMoreEvents) {
  std::vector<Micros> times;
  std::function<void()> chain = [&] {
    times.push_back(s.Now());
    if (times.size() < 5) s.ScheduleAfter(10, chain);
  };
  s.ScheduleAfter(10, chain);
  s.RunAll();
  EXPECT_EQ(times, (std::vector<Micros>{10, 20, 30, 40, 50}));
}

TEST_F(SchedulerTest, RunAllHonorsEventCap) {
  std::function<void()> forever = [&] { s.ScheduleAfter(1, forever); };
  s.ScheduleAfter(1, forever);
  EXPECT_EQ(s.RunAll(100), 100u);
}

TEST_F(SchedulerTest, RunOneReturnsFalseWhenEmpty) {
  EXPECT_FALSE(s.RunOne());
}

TEST_F(SchedulerTest, PendingCountExcludesCancelled) {
  const auto a = s.ScheduleAfter(1, [] {});
  s.ScheduleAfter(2, [] {});
  EXPECT_EQ(s.PendingCount(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.PendingCount(), 1u);
}

TEST_F(SchedulerTest, RunOneSkipsCancelledHead) {
  // The cancelled entry sits at the front of the queue; RunOne must
  // discard it and execute the next live event in the same call.
  int ran = 0;
  const auto head = s.ScheduleAt(5, [&] { ran = 1; });
  s.ScheduleAt(10, [&] { ran = 2; });
  s.Cancel(head);
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.Now(), 10u);
}

TEST_F(SchedulerTest, RunUntilPastDrainedQueueReturnsZero) {
  s.ScheduleAt(10, [] {});
  EXPECT_EQ(s.RunUntil(50), 1u);
  EXPECT_EQ(s.RunUntil(200), 0u);  // nothing left: just advance the clock
  EXPECT_EQ(s.Now(), 200u);
}

TEST_F(SchedulerTest, StaleIdOfRecycledSlotIsNotCancellable) {
  // After an event runs, its storage slot is recycled for the next
  // schedule. The old TaskId must stay dead: cancelling it may not
  // return true and — critically — may not kill the slot's new tenant.
  const auto old_id = s.ScheduleAfter(1, [] {});
  s.RunAll();
  bool ran = false;
  const auto new_id = s.ScheduleAfter(1, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);  // same slot, different generation
  EXPECT_FALSE(s.Cancel(old_id));
  s.RunAll();
  EXPECT_TRUE(ran);
}

TEST_F(SchedulerTest, CancelReleasesCapturedStateImmediately) {
  // Cancel destroys the captured state right away (matching the old
  // map-erase semantics) even though the queue entry is reclaimed lazily.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const auto id = s.ScheduleAfter(10, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_TRUE(watch.expired());
}

TEST_F(SchedulerTest, LargeCallablesFallBackToHeap) {
  // Captures beyond TaskFn's inline buffer take the heap path; behavior
  // must be identical.
  std::array<uint64_t, 32> payload{};  // 256 bytes > inline capacity
  payload[0] = 11;
  payload[31] = 22;
  uint64_t sum = 0;
  s.ScheduleAfter(1, [payload, &sum] { sum = payload[0] + payload[31]; });
  s.RunAll();
  EXPECT_EQ(sum, 33u);
}

TEST_F(SchedulerTest, MoveOnlyCallablesAreSupported) {
  auto box = std::make_unique<int>(41);
  int seen = 0;
  s.ScheduleAfter(1, [b = std::move(box), &seen] { seen = *b + 1; });
  s.RunAll();
  EXPECT_EQ(seen, 42);
}

TEST_F(SchedulerTest, RandomizedOrderMatchesReferenceSort) {
  // Adversarial mix of times, FIFO ties and cancellations: execution
  // order must equal a stable sort of the surviving events by time.
  std::mt19937_64 rng(12345);
  struct Ref {
    Micros when;
    int tag;
  };
  std::vector<Ref> expected;
  std::vector<Scheduler::TaskId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 1000; ++i) {
    const Micros when = rng() % 64;  // dense times force FIFO tie-breaks
    ids.push_back(s.ScheduleAt(when, [&ran, i] { ran.push_back(i); }));
    expected.push_back(Ref{when, i});
  }
  // Cancel every seventh event.
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(s.Cancel(ids[i]));
  }
  std::erase_if(expected, [&](const Ref& r) { return r.tag % 7 == 0; });
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.when < b.when; });
  s.RunAll();
  ASSERT_EQ(ran.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ran[i], expected[i].tag) << "position " << i;
  }
}

TEST_F(SchedulerTest, FarFutureTimesRunInOrder) {
  // Timestamps beyond the wheel's 2^36us top window (overflow territory)
  // interleaved with near ones.
  std::vector<int> order;
  s.ScheduleAt(Micros{1} << 40, [&] { order.push_back(4); });
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt((Micros{1} << 40) + 1, [&] { order.push_back(5); });
  s.ScheduleAt(Micros{1} << 37, [&] { order.push_back(3); });
  s.ScheduleAt(Micros{1} << 20, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.Now(), (Micros{1} << 40) + 1);
}

TEST_F(SchedulerTest, InsertEarlierThanPendingHeadBetweenRuns) {
  // RunUntil stops the clock short of the earliest pending event (which
  // the wheel has already staged); a later insert lands *before* it. The
  // wheel must rewind its anchor and run 600 before 1000.
  std::vector<Micros> fired;
  s.ScheduleAt(1000, [&] { fired.push_back(s.Now()); });
  EXPECT_EQ(s.RunUntil(500), 0u);
  EXPECT_EQ(s.Now(), 500u);
  s.ScheduleAt(600, [&] { fired.push_back(s.Now()); });
  s.RunAll();
  EXPECT_EQ(fired, (std::vector<Micros>{600, 1000}));
}


// ---------------------------------------------------------------------------
// Identity against a reference model: the same scripted scenario must
// produce the exact same (tag, time) execution sequence on the Scheduler
// and on ReferenceQueue, which states the (time, insertion-order) contract
// directly. This is the strongest statement of the wheel's correctness —
// bit-identical order, not just sortedness — and what keeps the
// determinism goldens stable across changes to the wheel.
// ---------------------------------------------------------------------------

// An ordered map keyed by (when, seq) plus a set of cancelled ids, exposing
// the slice of the Scheduler API the mixes below use. Cancel may only be
// called on a pending id.
class ReferenceQueue {
 public:
  using TaskId = uint64_t;

  Micros Now() const { return now_; }
  bool Empty() const { return live_ == 0; }

  TaskId ScheduleAt(Micros when, std::function<void()> task) {
    const TaskId id = next_seq_++;
    queue_.emplace(std::make_pair(std::max(when, now_), id), std::move(task));
    ++live_;
    return id;
  }
  TaskId ScheduleAfter(Micros delay, std::function<void()> task) {
    return ScheduleAt(now_ + delay, std::move(task));
  }
  void Cancel(TaskId id) {
    if (cancelled_.insert(id).second) --live_;
  }

  void RunUntil(Micros until) {
    while (!queue_.empty() && queue_.begin()->first.first <= until) RunHead();
    now_ = std::max(now_, until);
  }
  void RunAll() {
    while (!queue_.empty()) RunHead();
  }

 private:
  void RunHead() {
    auto head = queue_.begin();
    const auto [when, id] = head->first;
    std::function<void()> task = std::move(head->second);
    queue_.erase(head);
    if (cancelled_.erase(id) > 0) return;
    now_ = when;
    --live_;
    task();
  }

  Micros now_ = 0;
  TaskId next_seq_ = 0;
  size_t live_ = 0;
  std::map<std::pair<Micros, TaskId>, std::function<void()>> queue_;
  std::set<TaskId> cancelled_;
};

using Firing = std::pair<int, Micros>;

// Static mix: dense ties, multi-level spreads, overflow times, cancels.
template <typename Queue>
std::vector<Firing> RunStaticMix(uint64_t seed) {
  Queue s;
  std::mt19937_64 rng(seed);
  std::vector<Firing> fired;
  std::vector<typename Queue::TaskId> ids;
  for (int i = 0; i < 5000; ++i) {
    Micros when;
    switch (rng() % 4) {
      case 0:
        when = rng() % 64;  // one wheel window: FIFO ties
        break;
      case 1:
        when = rng() % 200000;  // spans wheel levels 0-2
        break;
      case 2:
        when = rng() % (Micros{1} << 30);  // levels 3-5
        break;
      default:
        when = (Micros{1} << 36) + rng() % (Micros{1} << 37);  // overflow
        break;
    }
    ids.push_back(s.ScheduleAt(when, [&fired, i, &s] {
      fired.push_back({i, s.Now()});
    }));
  }
  for (size_t i = 0; i < ids.size(); i += 5) s.Cancel(ids[i]);
  s.RunAll();
  return fired;
}

TEST(SchedulerWheelIdentityTest, StaticMixMatchesReferenceModel) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    const auto model = RunStaticMix<ReferenceQueue>(seed);
    const auto wheel = RunStaticMix<Scheduler>(seed);
    ASSERT_EQ(model.size(), 4000u) << "seed " << seed;
    ASSERT_EQ(model.size(), wheel.size()) << "seed " << seed;
    for (size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(model[i], wheel[i]) << "seed " << seed << " position " << i;
    }
  }
}

// Dynamic mix: events schedule further events (cascade + same-time append
// paths), interleaved with RunUntil slices and between-slice inserts that
// can land earlier than the staged head (rewind path).
template <typename Queue>
std::vector<Firing> RunDynamicMix(uint64_t seed) {
  Queue s;
  std::mt19937_64 rng(seed);
  std::vector<Firing> fired;
  int next_tag = 0;
  std::function<void(int, int)> spawn = [&](int tag, int depth) {
    fired.push_back({tag, s.Now()});
    if (depth <= 0) return;
    const int kids = 1 + static_cast<int>(rng() % 2);
    for (int k = 0; k < kids; ++k) {
      const Micros gap = rng() % (Micros{1} << (6 + rng() % 15));
      const int child = next_tag++;
      s.ScheduleAfter(gap, [&spawn, child, depth] { spawn(child, depth - 1); });
    }
  };
  for (int i = 0; i < 200; ++i) {
    const int root = next_tag++;
    s.ScheduleAt(rng() % 100000,
                 [&spawn, root] { spawn(root, 3); });
  }
  // Advance in slices; occasionally insert an event earlier than anything
  // pending fired so far (relative to the stopped clock).
  Micros until = 0;
  while (!s.Empty()) {
    until += 1 + rng() % 50000;
    s.RunUntil(until);
    if (rng() % 3 == 0) {
      const int tag = next_tag++;
      const Micros when = s.Now() + rng() % 200;
      s.ScheduleAt(when, [&fired, tag, &s] { fired.push_back({tag, s.Now()}); });
    }
  }
  return fired;
}

TEST(SchedulerWheelIdentityTest, DynamicMixMatchesReferenceModel) {
  for (uint64_t seed : {3u, 2024u}) {
    const auto model = RunDynamicMix<ReferenceQueue>(seed);
    const auto wheel = RunDynamicMix<Scheduler>(seed);
    ASSERT_EQ(model.size(), wheel.size()) << "seed " << seed;
    for (size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(model[i], wheel[i]) << "seed " << seed << " position " << i;
    }
  }
}

}  // namespace
}  // namespace ecdb
