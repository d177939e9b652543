#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

namespace presto::sim {

namespace {

/// Saturating add that never overflows past kTimeNever.
Time sat_add(Time a, std::uint64_t b) {
  return a > kTimeNever - static_cast<Time>(b) ? kTimeNever
                                               : a + static_cast<Time>(b);
}

}  // namespace

Time EventQueue::bucket_end(std::size_t b) const {
  return sat_add(start_, static_cast<std::uint64_t>(b + 1) << kBucketShift);
}

Time EventQueue::align_down(Time t) {
  return t & ~static_cast<Time>((Time{1} << kBucketShift) - 1);
}

void EventQueue::push(Time when, EventFn fn) {
  if (size_ == 0) {
    // Empty queue: re-anchor the window at this event's bucket so sparse
    // schedules never walk the window forward bucket by bucket. The bucket
    // last drained may still hold moved-from items — recycle it first; it
    // is the only one that can, so every occupancy bit goes with it.
    if (cur_ < kBucketCount) buckets_[cur_].clear();
    std::fill(std::begin(occupied_), std::end(occupied_), 0);
    start_ = align_down(when);
    cur_ = 0;
    run_built_ = false;
    run_.clear();
    run_pos_ = 0;
    spawn_.clear();
    spawn_pos_ = 0;
  }
  ++size_;
  const Time cur_end = bucket_end(cur_);
  // The second clause only triggers within 2^18 ns of the Time domain's end:
  // once bucket_end saturates, later buckets are indistinguishable, so the
  // spawn merge (order-correct for any key) takes everything.
  if (when < cur_end || cur_end == kTimeNever) {
    // Lands in (or before) the bucket currently being drained. Append to its
    // storage; if the bucket's execution order is already built, merge the
    // new key through the spawn run. Keys pushed here are below every other
    // bucket's range, so taking min(run head, spawn head) stays globally
    // correct even for un-clamped past timestamps.
    const auto idx = static_cast<std::uint32_t>(buckets_[cur_].size());
    add_to_bucket(cur_, when, std::move(fn));
    if (run_built_) {
      const OrderKey key{when, idx};
      // Re-entrant schedules are overwhelmingly monotone (at or after the
      // event being executed), so this is an O(1) append in practice.
      if (spawn_.empty() || spawn_.back() < key) {
        spawn_.push_back(key);
      } else {
        spawn_.insert(
            std::upper_bound(spawn_.begin() + static_cast<std::ptrdiff_t>(
                                                  spawn_pos_),
                             spawn_.end(), key),
            key);
      }
    }
    return;
  }
  const std::uint64_t delta =
      static_cast<std::uint64_t>(when) - static_cast<std::uint64_t>(start_);
  if (delta < kSpan) {
    add_to_bucket(delta >> kBucketShift, when, std::move(fn));
    return;
  }
  far_.push_back(FarItem{when, far_seq_++, std::move(fn)});
  std::push_heap(far_.begin(), far_.end());
}

void EventQueue::add_to_bucket(std::size_t b, Time when, EventFn&& fn) {
  buckets_[b].push_back(Item{when, std::move(fn)});
  occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
}

std::size_t EventQueue::next_occupied(std::size_t from) const {
  std::size_t w = from >> 6;
  if (w >= kWords) return kBucketCount;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == kWords) return kBucketCount;
    bits = occupied_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void EventQueue::build_run() {
  const auto& b = buckets_[cur_];
  run_.clear();
  run_.reserve(b.size());
  for (std::uint32_t i = 0; i < b.size(); ++i) {
    run_.push_back(OrderKey{b[i].when, i});
  }
  std::sort(run_.begin(), run_.end());
  run_pos_ = 0;
  spawn_.clear();
  spawn_pos_ = 0;
  run_built_ = true;
}

void EventQueue::refill_from_far() {
  // Re-anchor the window at the earliest far event and pop every event that
  // now fits (the heap yields them in (when, seq) order, so same-bucket
  // events arrive in FIFO order). Later far events stay in the heap
  // untouched — a long-dated timer is never rescanned while it waits.
  assert(!far_.empty());
  start_ = align_down(far_.front().when);
  cur_ = 0;
  while (!far_.empty()) {
    const std::uint64_t delta =
        static_cast<std::uint64_t>(far_.front().when) -
        static_cast<std::uint64_t>(start_);
    if (delta >= kSpan) break;
    std::pop_heap(far_.begin(), far_.end());
    FarItem& it = far_.back();
    add_to_bucket(delta >> kBucketShift, it.when, std::move(it.fn));
    far_.pop_back();
  }
}

void EventQueue::settle() {
  for (;;) {
    if (run_built_) {
      if (run_pos_ < run_.size() || spawn_pos_ < spawn_.size()) return;
      // Current bucket fully drained: recycle its storage (capacity kept).
      buckets_[cur_].clear();
      occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
      run_.clear();
      run_pos_ = 0;
      spawn_.clear();
      spawn_pos_ = 0;
      run_built_ = false;
      ++cur_;
    }
    cur_ = next_occupied(cur_);
    if (cur_ < kBucketCount) {
      build_run();
      return;
    }
    refill_from_far();
  }
}

bool EventQueue::spawn_first() const {
  if (spawn_pos_ >= spawn_.size()) return false;
  if (run_pos_ >= run_.size()) return true;
  return spawn_[spawn_pos_] < run_[run_pos_];
}

Time EventQueue::min_time() {
  settle();
  return spawn_first() ? spawn_[spawn_pos_].when : run_[run_pos_].when;
}

EventFn EventQueue::pop(Time* when_out) {
  settle();
  OrderKey key;
  if (spawn_first()) {
    key = spawn_[spawn_pos_++];
  } else {
    key = run_[run_pos_++];
  }
  Item& it = buckets_[cur_][key.idx];
  *when_out = it.when;
  --size_;
  return std::move(it.fn);
}

bool EventQueue::pop_due(Time deadline, Time* when_out, EventFn* out) {
  settle();
  const bool spawn = spawn_first();
  const OrderKey key = spawn ? spawn_[spawn_pos_] : run_[run_pos_];
  if (key.when > deadline) return false;
  if (spawn) {
    ++spawn_pos_;
  } else {
    ++run_pos_;
  }
  Item& it = buckets_[cur_][key.idx];
  *when_out = it.when;
  *out = std::move(it.fn);
  --size_;
  return true;
}

}  // namespace presto::sim
