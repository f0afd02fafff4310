#include "sim/scheduler.h"

#include <algorithm>
#include <bit>

namespace ecdb {

size_t Scheduler::RunUntil(Micros until) {
  size_t executed = 0;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  const Entry* head;
  while ((head = PeekLive()) != nullptr && head->when <= until) {
    RunHead();
    ++executed;
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  }
  if (now_ < until) now_ = until;
  return executed;
}

size_t Scheduler::RunAll(size_t max_events) {
  size_t executed = 0;
  if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  while (executed < max_events && PeekLive() != nullptr) {
    RunHead();
    ++executed;
    if (post_step_hook_ != nullptr) post_step_hook_(post_step_ctx_);
  }
  return executed;
}

// ---------------------------------------------------------------------------
// Timer wheel.
//
// Ordering argument. The anchor `wheel_cur_` never exceeds the timestamp of
// any entry in the wheel, and it advances only inside StageNext — always to
// the minimum pending timestamp. An entry routes to the first level whose
// *parent* window (the bits above the level's 6-bit slot field) matches the
// anchor's; entries beyond the top window go to `overflow_`. Two facts
// follow:
//
//  1. Within a level, a lower slot index means an earlier timestamp (the
//     slot field is a bit field of the timestamp and the higher bits are
//     pinned to the anchor's), so `countr_zero` of the occupancy bitmap
//     finds the earliest bucket.
//  2. Any entry at level l+1 disagrees with the anchor in bit field l —
//     otherwise the anchor entered the entry's level-l window, which only
//     happens by staging/cascading the entry's own bucket first. Hence
//     every entry at a higher level is strictly later than every entry the
//     lowest occupied level can hold, and scanning levels bottom-up is
//     globally earliest-first. The same argument puts every overflow entry
//     after every wheel entry.
//
// A level-0 bucket therefore holds exactly one distinct timestamp (slot
// field == all remaining bits). Staging sorts it by insertion seq — a
// cascade can append entries out of seq order — which restores the exact
// (when, seq) total order. Inserts that land on the staged timestamp
// append to the staged bucket (seq is globally monotonic, so sortedness
// is preserved); inserts *earlier* than the anchor — possible when
// RunUntil stopped the clock short of an already-staged bucket — rebase the
// whole wheel via RewindTo.
// ---------------------------------------------------------------------------

void Scheduler::WheelInsert(const Entry& e) {
  if (staged_pos_ < staged_.size()) {
    const Micros staged_when = staged_[staged_pos_].when;
    if (e.when == staged_when) {
      staged_.push_back(e);
      return;
    }
    if (e.when < staged_when) RewindTo(e.when);
  } else if (e.when < wheel_cur_) {
    RewindTo(e.when);
  }
  WheelRoute(e);
}

void Scheduler::WheelRoute(const Entry& e) {
  for (size_t level = 0; level < kWheelLevels; ++level) {
    const unsigned parent_shift = kSlotBits * static_cast<unsigned>(level + 1);
    if ((e.when >> parent_shift) == (wheel_cur_ >> parent_shift)) {
      const size_t slot =
          (e.when >> (kSlotBits * static_cast<unsigned>(level))) & kSlotMask;
      wheel_[level][slot].push_back(e);
      occupied_[level] |= uint64_t{1} << slot;
      return;
    }
  }
  overflow_.push_back(e);
}

bool Scheduler::StageNext() {
  for (;;) {
    size_t level = 0;
    while (level < kWheelLevels && occupied_[level] == 0) ++level;
    if (level == kWheelLevels) {
      if (!RebaseOverflow()) return false;
      continue;
    }
    const size_t slot = static_cast<size_t>(std::countr_zero(occupied_[level]));
    std::vector<Entry>& bucket = wheel_[level][slot];
    occupied_[level] &= ~(uint64_t{1} << slot);
    if (level == 0) {
      // One distinct timestamp per level-0 bucket; sort by seq to restore
      // insertion order (cascades append out of seq order).
      staged_.swap(bucket);  // bucket keeps staged_'s old capacity
      staged_pos_ = 0;
      wheel_cur_ = staged_.front().when;
      std::sort(staged_.begin(), staged_.end(),
                [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
      return true;
    }
    // Cascade in place: advance the anchor to the bucket's earliest live
    // timestamp, then re-route the live entries. Every entry agrees with
    // the new anchor through bit field `level`, so it routes strictly lower
    // (the minimum lands in level 0): the bucket is never appended to while
    // it is read, and the loop terminates. Routing in place, rather than
    // through a swapped scratch vector, keeps each bucket's capacity its
    // own.
    Micros min_when = 0;
    bool any_live = false;
    for (const Entry& e : bucket) {
      if (!LiveEntry(e)) continue;
      min_when = any_live ? std::min(min_when, e.when) : e.when;
      any_live = true;
    }
    if (any_live) {
      wheel_cur_ = min_when;
      for (const Entry& e : bucket) {
        if (LiveEntry(e)) WheelRoute(e);
      }
    }
    bucket.clear();
  }
}

bool Scheduler::RebaseOverflow() {
  size_t live = 0;
  for (const Entry& e : overflow_) {
    if (LiveEntry(e)) overflow_[live++] = e;
  }
  overflow_.resize(live);
  if (overflow_.empty()) return false;
  Micros min_when = overflow_[0].when;
  for (const Entry& e : overflow_) min_when = std::min(min_when, e.when);
  wheel_cur_ = min_when;
  // Migrate entries whose top window now matches the anchor; WheelRoute
  // cannot push back into overflow_ for those, so in-place compaction is
  // safe.
  constexpr unsigned kTopShift = kSlotBits * kWheelLevels;
  size_t keep = 0;
  for (size_t i = 0; i < overflow_.size(); ++i) {
    const Entry e = overflow_[i];
    if ((e.when >> kTopShift) == (wheel_cur_ >> kTopShift)) {
      WheelRoute(e);
    } else {
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  return true;
}

void Scheduler::RewindTo(Micros t) {
  // Full rebase: gather everything in the wheel (plus the unconsumed tail
  // of the staged bucket), reset the anchor, and re-route. O(pending), but
  // only reachable between run calls (an insert earlier than an already-
  // staged bucket), never from the event loop itself. Overflow entries
  // stay put: their top window mismatched an anchor >= t, so it still
  // mismatches t.
  wheel_scratch_.clear();
  for (size_t i = staged_pos_; i < staged_.size(); ++i) {
    wheel_scratch_.push_back(staged_[i]);
  }
  staged_.clear();
  staged_pos_ = 0;
  for (size_t level = 0; level < kWheelLevels; ++level) {
    uint64_t occ = occupied_[level];
    occupied_[level] = 0;
    while (occ != 0) {
      const size_t slot = static_cast<size_t>(std::countr_zero(occ));
      occ &= occ - 1;
      std::vector<Entry>& bucket = wheel_[level][slot];
      wheel_scratch_.insert(wheel_scratch_.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
  }
  wheel_cur_ = t;
  for (const Entry& e : wheel_scratch_) WheelRoute(e);
  wheel_scratch_.clear();
}

}  // namespace ecdb
