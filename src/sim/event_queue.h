// Two-level ladder (calendar) queue for the discrete-event scheduler.
//
// Replaces std::priority_queue<Event> on the hot path. Events within the
// active window land in fixed-width time buckets; events beyond the window
// overflow into a (when, seq) min-heap from which each window advance pops
// only the events entering the new window (long-dated timers such as RTOs
// are never rescanned wholesale). The
// current bucket is sorted once into an execution order when the scheduler
// reaches it; events scheduled *into* the current bucket mid-drain (the
// re-entrant case — callbacks scheduling at now()) are merged through a
// second sorted run, so execution order is exactly (when, seq): timestamp
// order with FIFO insertion-order tie-break, bit-identical to the reference
// heap (tests/event_queue_test.cc drives both against each other).
//
// Steady-state cost per event is O(1) amortized pushes plus an O(k log k)
// sort per k-event bucket, with zero heap allocations once bucket capacity
// has warmed up (vectors are cleared, never shrunk). A 1024-bit occupancy
// bitmap mirrors which buckets hold events, so reaching the next event
// across a sparse window costs one word scan per 64 buckets instead of one
// emptiness test per bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace presto::sim {

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event. Insertion order defines the FIFO tie-break among
  /// equal timestamps. `when` may be earlier than previously popped events
  /// (the caller is expected to clamp; an un-clamped past event simply runs
  /// next, as it would with a heap).
  void push(Time when, EventFn fn);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the next event. Requires !empty(). May advance internal
  /// window state (amortized O(1)); logical contents are unchanged.
  Time min_time();

  /// Removes and returns the next event in (when, seq) order. Requires
  /// !empty(). `*when_out` receives its timestamp.
  EventFn pop(Time* when_out);

  /// Fused min_time()+pop() for the scheduler loop: if the next event is due
  /// at or before `deadline`, pops it into `*out`/`*when_out` and returns
  /// true; otherwise leaves the queue untouched and returns false. Requires
  /// !empty(). Settles the window once instead of twice per event.
  bool pop_due(Time deadline, Time* when_out, EventFn* out);

 private:
  /// Bucket width: 2^kBucketShift ns (256 ns — below per-packet
  /// serialization/propagation deltas, so events an executing callback
  /// schedules usually land in a *future* bucket: a plain append, not the
  /// sorted spawn merge).
  static constexpr int kBucketShift = 8;
  static constexpr std::size_t kBucketCount = 1024;
  static constexpr std::uint64_t kSpan =
      kBucketCount << kBucketShift;  ///< window width in ns
  static constexpr std::size_t kWords = kBucketCount / 64;

  struct Item {
    Time when;
    EventFn fn;
  };

  /// far_ heap entry. `seq` is the global push order among far events, so
  /// equal-timestamp events leave the heap in FIFO order (and therefore
  /// enter their bucket in the same relative order a direct push would
  /// have produced).
  struct FarItem {
    Time when;
    std::uint64_t seq;
    EventFn fn;
    /// std::push_heap builds a max-heap; invert to get a (when, seq)
    /// min-heap.
    bool operator<(const FarItem& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  /// Sort key for the current bucket. Within one bucket vector, insertion
  /// index is monotone in global sequence number, so (when, idx) orders
  /// identically to (when, seq) — no need to store seq at all.
  struct OrderKey {
    Time when;
    std::uint32_t idx;
    bool operator<(const OrderKey& o) const {
      return when != o.when ? when < o.when : idx < o.idx;
    }
  };

  Time bucket_end(std::size_t b) const;
  static Time align_down(Time t);
  /// Ensures the head of run_/spawn_ is the global minimum event.
  void settle();
  void build_run();
  void refill_from_far();
  /// True if the spawn head precedes the run head.
  bool spawn_first() const;
  /// Appends to bucket `b` and marks it occupied.
  void add_to_bucket(std::size_t b, Time when, EventFn&& fn);
  /// First occupied bucket at or after `from`, or kBucketCount.
  std::size_t next_occupied(std::size_t from) const;

  std::vector<Item> buckets_[kBucketCount];
  /// Bit b set <=> buckets_[b] is non-empty (the bucket being drained keeps
  /// its bit until it is recycled).
  std::uint64_t occupied_[kWords] = {};
  /// Events beyond the current window, as a (when, seq) min-heap: window
  /// advances pop exactly the events that enter the new window instead of
  /// rescanning every far-dated timer.
  std::vector<FarItem> far_;
  std::uint64_t far_seq_ = 0;    ///< next FIFO sequence number for far_
  Time start_ = 0;               ///< time at the base of bucket 0
  std::size_t cur_ = 0;          ///< bucket being drained / scanned next
  bool run_built_ = false;       ///< current bucket sorted into run_?

  std::vector<OrderKey> run_;    ///< sorted execution order of bucket cur_
  std::size_t run_pos_ = 0;
  std::vector<OrderKey> spawn_;  ///< sorted keys pushed into cur_ mid-drain
  std::size_t spawn_pos_ = 0;

  std::size_t size_ = 0;
};

}  // namespace presto::sim
