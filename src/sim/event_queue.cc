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

/// Largest bucket sorted by insertion sort; bigger ones are rare.
constexpr std::size_t kInsertionSortMax = 64;

}  // namespace

Time EventQueue::bucket_end(std::size_t b) const {
  return sat_add(start_, static_cast<std::uint64_t>(b + 1) << kBucketShift);
}

Time EventQueue::align_down(Time t) {
  return t & ~static_cast<Time>((Time{1} << kBucketShift) - 1);
}

EventQueue::~EventQueue() {
  // Popped entries (bucket cur_'s run before run_pos_, spawn_ before
  // spawn_pos_) name slots already freed, and possibly reused.
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    const std::vector<Handle>& v = buckets_[b];
    for (std::size_t i = b == cur_ && run_built_ ? run_pos_ : 0; i < v.size();
         ++i) {
      slot(v[i].slot).fn.~EventFn();
    }
  }
  for (std::size_t i = spawn_pos_; i < spawn_.size(); ++i) {
    slot(spawn_[i].slot).fn.~EventFn();
  }
  for (const FarHandle& h : far_) slot(h.slot).fn.~EventFn();
}

void EventQueue::insert(Time when, std::uint32_t s) {
  if (size_ == 0) {
    // Empty queue: re-anchor the window at this event's bucket so sparse
    // schedules never walk the window forward bucket by bucket. The bucket
    // last drained may still hold popped entries — recycle it first; it
    // is the only one that can, so every occupancy bit goes with it.
    if (cur_ < kBucketCount) buckets_[cur_].clear();
    std::fill(std::begin(occupied_), std::end(occupied_), 0);
    start_ = align_down(when);
    cur_ = 0;
    run_built_ = false;
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
    // Lands in (or before) the bucket currently being drained. Before its
    // run is built, this is a plain append; after, the entry merges through
    // the spawn run, ordered after every run entry of its timestamp. Keys
    // pushed here are below every other bucket's range, so taking
    // min(run head, spawn head) stays globally correct even for
    // un-clamped past timestamps.
    if (!run_built_) {
      add_to_bucket(cur_, when, s);
      return;
    }
    const Handle h{when, s};
    // Re-entrant schedules are overwhelmingly monotone (at or after the
    // event being executed), so this is an O(1) append in practice. Either
    // way the entry goes after every spawn entry of its timestamp.
    if (spawn_.empty() || spawn_.back().when <= when) {
      spawn_.push_back(h);
    } else {
      spawn_.insert(
          std::upper_bound(spawn_.begin() +
                               static_cast<std::ptrdiff_t>(spawn_pos_),
                           spawn_.end(), when,
                           [](Time t, const Handle& e) { return t < e.when; }),
          h);
    }
    return;
  }
  const std::uint64_t delta =
      static_cast<std::uint64_t>(when) - static_cast<std::uint64_t>(start_);
  if (delta < kSpan) {
    add_to_bucket(delta >> kBucketShift, when, s);
    return;
  }
  far_.push_back(FarHandle{when, far_seq_++, s});
  std::push_heap(far_.begin(), far_.end());
}

void EventQueue::add_to_bucket(std::size_t b, Time when, std::uint32_t s) {
  buckets_[b].push_back(Handle{when, s});
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
  std::vector<Handle>& v = buckets_[cur_];
  if (v.size() <= kInsertionSortMax) {
    // Dense buckets are small and nearly sorted: each entry moves past only
    // the earlier entries with a strictly later timestamp.
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!(v[i].when < v[i - 1].when)) continue;
      const Handle h = v[i];
      std::size_t j = i;
      do {
        v[j] = v[j - 1];
      } while (--j > 0 && h.when < v[j - 1].when);
      v[j] = h;
    }
  } else {
    std::stable_sort(v.begin(), v.end(), [](const Handle& a, const Handle& b) {
      return a.when < b.when;
    });
  }
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
    add_to_bucket(delta >> kBucketShift, far_.back().when, far_.back().slot);
    far_.pop_back();
  }
}

void EventQueue::settle() {
  for (;;) {
    if (run_built_) {
      if (run_pos_ < buckets_[cur_].size() || spawn_pos_ < spawn_.size()) {
        return;
      }
      // Current bucket fully drained: recycle its storage (capacity kept).
      buckets_[cur_].clear();
      occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
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
  const std::vector<Handle>& run = buckets_[cur_];
  if (run_pos_ >= run.size()) return true;
  // Strict: a spawn entry follows every run entry of its timestamp.
  return spawn_[spawn_pos_].when < run[run_pos_].when;
}

Time EventQueue::min_time() {
  settle();
  return spawn_first() ? spawn_[spawn_pos_].when
                       : buckets_[cur_][run_pos_].when;
}

std::uint32_t EventQueue::pop_due(Time deadline, Time* when_out) {
  settle();
  const bool spawn = spawn_first();
  const Handle h = spawn ? spawn_[spawn_pos_] : buckets_[cur_][run_pos_];
  if (h.when > deadline) return kNone;
  if (spawn) {
    ++spawn_pos_;
  } else {
    ++run_pos_;
  }
  *when_out = h.when;
  --size_;
  return h.slot;
}

}  // namespace presto::sim
