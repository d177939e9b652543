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
// A bucket's entries sit in push order, and push order is global (when,
// seq) order among equal timestamps, so a *stable* sort on `when` alone
// yields (when, seq) order without storing seq: insertion sort for the
// small, nearly sorted buckets of a dense run, std::stable_sort above a
// cutoff. Spawn entries were pushed after every run entry, so they follow
// run entries of equal timestamp.
//
// Each event's callable lives in one slot of a chunked slab from push until
// its call returns: it is constructed there once and called there, while
// buckets, runs and the far heap move 16-byte handles (24 in the far heap,
// which adds a sequence number). Chunks never move, so a callback that
// grows the slab by pushing cannot invalidate itself; a slot is freed only
// after its call returns.
//
// Steady-state cost per event is O(1) amortized pushes plus a sort per
// bucket that is linear in its entries and their inversions, with zero heap
// allocations once bucket capacity and the slab have warmed up (vectors are
// cleared, never shrunk; freed slots are reused last-in first-out; only a
// bucket above the cutoff may make std::stable_sort allocate). A 1024-bit
// occupancy bitmap mirrors which buckets hold events, so reaching the next
// event across a sparse window costs one word scan per 64 buckets instead
// of one emptiness test per bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace presto::sim {

class EventQueue {
 public:
  /// Slots per slab chunk. The slab grows by one chunk at a time.
  static constexpr std::uint32_t kChunkSlots = 256;
  /// pop_due's answer when no event is due.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Destroys each pending callable once.
  ~EventQueue();

  /// Inserts an event, constructing its callable from `f` in a free slot.
  /// Insertion order defines the FIFO tie-break among equal timestamps.
  /// `when` may be earlier than previously popped events (the caller is
  /// expected to clamp; an un-clamped past event simply runs next, as it
  /// would with a heap).
  template <typename F>
  void push(Time when, F&& f) {
    const std::uint32_t s = take_slot();
    ::new (static_cast<void*>(&slot(s).fn)) EventFn(std::forward<F>(f));
    insert(when, s);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the next event. Requires !empty(). May advance internal
  /// window state (amortized O(1)); logical contents are unchanged.
  Time min_time();

  /// The scheduler's pop: if the next event in (when, seq) order is due at
  /// or before `deadline`, removes it from the order, writes its timestamp
  /// to `*when_out` and returns its slot, whose callable stays in place
  /// until call(). Otherwise leaves the queue untouched and returns kNone.
  /// Requires !empty().
  std::uint32_t pop_due(Time deadline, Time* when_out);

  /// Calls a popped event in its slot, then destroys the callable and frees
  /// the slot — after the call returns, or as an exception leaves it. The
  /// call may push events; none of them can take or move this slot.
  void call(std::uint32_t s) {
    // Chunks never move, so `sl` stays valid across the call's pushes.
    struct Release {
      EventQueue& q;
      Slot& sl;
      std::uint32_t s;
      ~Release() {
        sl.fn.~EventFn();
        sl.next_free = q.free_;
        q.free_ = s;
      }
    } release{*this, slot(s), s};
    release.sl.fn();
  }

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

  /// One event's storage: raw bytes until first used, then the event's
  /// callable from push until its call returns, and the next free slot's
  /// index while it is free.
  union Slot {
    Slot() {}
    ~Slot() {}
    EventFn fn;
    std::uint32_t next_free;
  };

  /// A bucket or spawn-run entry. Its position in its bucket (or spawn
  /// run) carries the FIFO tie-break, so only `when` is ever compared.
  struct Handle {
    Time when;
    std::uint32_t slot;
  };

  /// far_ heap entry. `seq` is the global push order among far events, so
  /// equal-timestamp events leave the heap in FIFO order (and therefore
  /// enter their bucket in the same relative order a direct push would
  /// have produced).
  struct FarHandle {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    /// std::push_heap builds a max-heap; invert to get a (when, seq)
    /// min-heap.
    bool operator<(const FarHandle& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  Slot& slot(std::uint32_t s) {
    return chunks_[s / kChunkSlots][s % kChunkSlots];
  }
  /// A free slot: the one freed last, else the next never-used one.
  std::uint32_t take_slot() {
    if (free_ != kNone) {
      const std::uint32_t s = free_;
      free_ = slot(s).next_free;
      return s;
    }
    if (used_ == chunks_.size() * kChunkSlots) {
      // Default-initialized: a chunk's slots stay raw until first used.
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
    }
    return used_++;
  }

  /// Orders an event whose callable is already in slot `s`.
  void insert(Time when, std::uint32_t s);
  Time bucket_end(std::size_t b) const;
  static Time align_down(Time t);
  /// Ensures the head of the run/spawn_ is the global minimum event.
  void settle();
  /// Sorts bucket cur_ stably by `when` into its run.
  void build_run();
  void refill_from_far();
  /// True if the spawn head precedes the run head.
  bool spawn_first() const;
  /// Appends to bucket `b` and marks it occupied.
  void add_to_bucket(std::size_t b, Time when, std::uint32_t s);
  /// First occupied bucket at or after `from`, or kBucketCount.
  std::size_t next_occupied(std::size_t from) const;

  /// Once built, bucket cur_ is itself the sorted run: entries before
  /// run_pos_ have been popped.
  std::vector<Handle> buckets_[kBucketCount];
  /// Bit b set <=> buckets_[b] is non-empty (the bucket being drained keeps
  /// its bit until it is recycled).
  std::uint64_t occupied_[kWords] = {};
  /// Events beyond the current window, as a (when, seq) min-heap: window
  /// advances pop exactly the events that enter the new window instead of
  /// rescanning every far-dated timer.
  std::vector<FarHandle> far_;
  std::uint64_t far_seq_ = 0;    ///< next FIFO sequence number for far_
  Time start_ = 0;               ///< time at the base of bucket 0
  std::size_t cur_ = 0;          ///< bucket being drained / scanned next
  bool run_built_ = false;       ///< bucket cur_ sorted into its run?
  std::size_t run_pos_ = 0;      ///< next entry of bucket cur_'s run
  std::vector<Handle> spawn_;    ///< sorted entries pushed into cur_ mid-drain
  std::size_t spawn_pos_ = 0;

  std::size_t size_ = 0;

  /// The slab. Chunks never move once allocated; slot s is
  /// chunks_[s / kChunkSlots][s % kChunkSlots].
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_ = 0;       ///< slots ever handed out (bump pointer)
  std::uint32_t free_ = kNone;   ///< head of the LIFO free list
};

}  // namespace presto::sim
