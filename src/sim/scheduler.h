#ifndef ECDB_SIM_SCHEDULER_H_
#define ECDB_SIM_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/slot_pool.h"
#include "common/types.h"
#include "sim/task.h"

namespace ecdb {

/// Event-queue implementation behind the Scheduler. Both back ends honor
/// the same contract — events fire in exact (time, insertion-order) order —
/// so a run is bit-identical under either; they differ only in complexity:
///
///  * kHeap: hand-rolled 4-ary heap, O(log n) per event with a very small
///    constant. Best at the scale the protocol tests and small clusters
///    run at, and the default.
///  * kTimerWheel: hierarchical timer wheel (6 levels x 64 slots), O(1)
///    amortized schedule/dispatch. At 10^4 nodes a single broadcast step
///    keeps millions of events pending; the heap's log factor (and its
///    sift traffic) dominates there, the wheel does not.
enum class SchedulerBackend : uint8_t {
  kHeap,
  kTimerWheel,
};

/// Deterministic discrete-event scheduler: the heart of the simulated
/// cluster. Events fire in (time, insertion-order) order, so two runs with
/// the same seed replay identically. All simulated components (network
/// delivery, worker completions, protocol timeouts, client arrivals) are
/// events on one scheduler.
///
/// Implementation notes (this is the hottest structure in the repo — every
/// simulated message and timer passes through it twice):
///
///  * The default priority queue is a hand-rolled 4-ary heap of 24-byte
///    POD entries; sift operations are plain copies, and the four children
///    of a node share at most two cache lines. A hierarchical timer-wheel
///    backend (see SchedulerBackend) can be selected for very large
///    simulations; it preserves the exact event order.
///  * Tasks live inline in generation-counted slots (an append-grown array
///    recycled through a free list), so scheduling an event performs no
///    hashing, no rehash, and — for callables that fit TaskFn's inline
///    buffer — no allocation. This replaces the previous
///    priority_queue + unordered_map<TaskId, std::function> design, which
///    paid a node allocation and a hash insert/erase per event.
///  * `ScheduleAt` is a template so the callable is constructed directly in
///    its slot; the hot path lives in this header to inline into callers.
///  * `Cancel` is O(1): bumping the slot's generation invalidates the queue
///    entry in place (it is skipped lazily at pop time) and destroys the
///    captured state eagerly, matching the old map-erase semantics.
class Scheduler {
 public:
  using TaskId = uint64_t;
  using Task = TaskFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time in microseconds.
  Micros Now() const { return now_; }

  /// Selects the event-queue backend. Only legal while no events are
  /// pending (typically right after construction): the two structures do
  /// not share entries, so switching mid-run would strand events.
  void SetBackend(SchedulerBackend backend);
  SchedulerBackend backend() const { return backend_; }

  /// Schedules `task` to run at absolute simulated time `when` (clamped to
  /// now). Returns an id usable with `Cancel`; ids are never zero.
  template <typename F>
  TaskId ScheduleAt(Micros when, F&& task) {
    if (when < now_) when = now_;
    const uint32_t slot = TakeSlot(&slots_, &free_slots_);
    Slot& s = slots_[slot];
    s.task = std::forward<F>(task);  // constructs in place (TaskFn assign)
    const TaskId id = (static_cast<TaskId>(slot) << 32) | s.gen;
    const Entry e{when, next_seq_++, id};
    if (backend_ == SchedulerBackend::kHeap) {
      heap_.push_back(e);
      SiftUp(heap_.size() - 1);
    } else {
      WheelInsert(e);
    }
    ++live_count_;
    return id;
  }

  /// Schedules `task` to run `delay` microseconds from now.
  template <typename F>
  TaskId ScheduleAfter(Micros delay, F&& task) {
    return ScheduleAt(now_ + delay, std::forward<F>(task));
  }

  /// Cancels a pending task. Returns false if it already ran or was
  /// cancelled before.
  bool Cancel(TaskId id) {
    const uint32_t slot = SlotOf(id);
    if (slot >= slots_.size() || slots_[slot].gen != GenOf(id)) {
      return false;  // already ran, already cancelled, or never issued
    }
    // Lazy cancellation: the queue entry stays (skipped at pop time via the
    // generation check) but the task is destroyed now, so captured
    // resources are released immediately. Keeps Cancel O(1).
    slots_[slot].task = Task();
    RetireSlot(slot);
    --live_count_;
    return true;
  }

  /// Installs a hook invoked between events: at the entry of every run
  /// call (so work produced outside any event is folded in before the
  /// scheduler decides what is next or whether it is idle) and after each
  /// executed event. The transport coalescing layer uses this to flush
  /// per-destination send buffers at step boundaries; the hook may
  /// schedule new events. A raw function pointer keeps the idle cost of
  /// the feature to one null check per step.
  void SetPostStepHook(void (*hook)(void*), void* ctx) {
    post_step_hook_ = hook;
    post_step_ctx_ = ctx;
  }

  /// Runs the next pending event, advancing the clock to its timestamp.
  /// Returns false if no events remain.
  bool RunOne() {
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
    if (PeekLive() == nullptr) return false;
    RunHead();
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
    return true;
  }

  /// Runs all events with timestamp <= `until`, then advances the clock to
  /// `until`. Returns the number of events executed.
  size_t RunUntil(Micros until);

  /// Runs events until the queue drains or `max_events` executed.
  /// Returns the number of events executed.
  size_t RunAll(size_t max_events = SIZE_MAX);

  /// True when no runnable events remain.
  bool Empty() const { return live_count_ == 0; }

  /// Number of pending (non-cancelled) events.
  size_t PendingCount() const { return live_count_; }

 private:
  /// Queue entry: trivially copyable so moves are raw 24-byte copies. `seq`
  /// is a global insertion counter giving FIFO order among same-time
  /// events; `id` packs (slot << 32) | generation.
  struct Entry {
    Micros when;
    uint64_t seq;
    TaskId id;
  };

  /// Task storage. The generation is bumped whenever the slot's task runs
  /// or is cancelled, so stale queue entries (and stale TaskIds held by
  /// callers) are recognized in O(1) without a lookup table.
  struct Slot {
    uint32_t gen = 1;  // never 0: TaskId 0 stays an "unset" sentinel
    Task task;
  };

  // Timer-wheel geometry: 6 levels x 64 slots covers 2^36 us (~19 hours of
  // simulated time) from the anchor before the overflow list engages.
  static constexpr size_t kWheelLevels = 6;
  static constexpr unsigned kSlotBits = 6;
  static constexpr size_t kSlotsPerLevel = size_t{1} << kSlotBits;
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-time events
  }

  static uint32_t SlotOf(TaskId id) { return static_cast<uint32_t>(id >> 32); }
  static uint32_t GenOf(TaskId id) { return static_cast<uint32_t>(id); }

  bool LiveEntry(const Entry& e) const {
    return slots_[SlotOf(e.id)].gen == GenOf(e.id);
  }

  /// The single cancelled-entry skip point: discards stale entries until
  /// the next pending event is live (or the queue drains). Every pop path —
  /// RunOne, RunUntil, RunAll — funnels through here.
  const Entry* PeekLive() {
    if (backend_ == SchedulerBackend::kHeap) {
      while (!heap_.empty()) {
        const Entry& head = heap_[0];
        if (LiveEntry(head)) return &head;
        PopHeap();  // stale: cancelled (or slot since recycled)
      }
      return nullptr;
    }
    return PeekLiveWheel();
  }

  /// Pops the (live) head, retires its slot, and runs its task.
  /// ConsumeInvoke moves the capture to the callee's frame and empties the
  /// slot before user code runs, so slot storage may grow (the task may
  /// schedule more events) and the slot may be recycled while it executes;
  /// cancelling the running task's own id during execution fails, exactly
  /// as with the old erase-then-invoke sequence.
  void RunHead() {
    Entry head;
    if (backend_ == SchedulerBackend::kHeap) {
      head = heap_[0];
      PopHeap();
    } else {
      head = staged_[staged_pos_++];
    }
    const uint32_t slot = SlotOf(head.id);
    now_ = head.when;
    RetireSlot(slot);
    --live_count_;
    slots_[slot].task.ConsumeInvoke();
  }

  /// Removes heap_[0], restoring the heap property.
  void PopHeap() {
    const size_t last = heap_.size() - 1;
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      SiftDown(0);
    } else {
      heap_.pop_back();
    }
  }

  /// Returns a slot (whose task must already be empty) to the free list,
  /// bumping the generation so outstanding ids/entries for it go stale.
  void RetireSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
  }

  void SiftUp(size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    const Entry e = heap_[i];
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t limit = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < limit; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  // --- Timer-wheel backend (see scheduler.cc for the ordering argument) ---
  void WheelInsert(const Entry& e);
  void WheelRoute(const Entry& e);
  const Entry* PeekLiveWheel();
  bool StageNext();
  bool RebaseOverflow();
  void RewindTo(Micros t);

  void (*post_step_hook_)(void*) = nullptr;
  void* post_step_ctx_ = nullptr;

  SchedulerBackend backend_ = SchedulerBackend::kHeap;
  Micros now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;

  // Wheel state. `wheel_cur_` is the routing anchor: every entry in level
  // `l` agrees with it on all bits above the level's window, every entry in
  // `overflow_` disagrees with it in the top window. `staged_` holds the
  // earliest level-0 bucket (one distinct timestamp), sorted by seq;
  // entries are consumed through `staged_pos_`.
  Micros wheel_cur_ = 0;
  std::array<uint64_t, kWheelLevels> occupied_{};
  std::array<std::array<std::vector<Entry>, kSlotsPerLevel>, kWheelLevels>
      wheel_;
  std::vector<Entry> overflow_;
  std::vector<Entry> staged_;
  size_t staged_pos_ = 0;
  std::vector<Entry> wheel_scratch_;
};

}  // namespace ecdb

#endif  // ECDB_SIM_SCHEDULER_H_
