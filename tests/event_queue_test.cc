// Differential and property tests for the ladder event queue.
//
// The reference oracle is the old scheduler core: a std::priority_queue
// ordered by (when, seq) with FIFO tie-break on the global insertion
// sequence. Every workload below drives EventQueue and the oracle with the
// identical operation stream and requires bit-identical pop order —
// including equal-timestamp ties, re-entrant scheduling mid-drain, events
// pushed into the past, and timestamps far beyond the ladder window. The
// queue is popped the way Simulation pops it: pop_due, then call() in the
// event's slot.
//
// The slot-lifetime cases check the slab under the in-place call: a
// callback that grows the slab by more than a chunk still reads its own
// captures, teardown destroys each pending callable exactly once, and a
// recycled slot starts clean.
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace presto::sim {
namespace {

/// The old core's ordering, reimplemented as the test oracle.
class OracleQueue {
 public:
  void push(Time when, std::uint64_t id) {
    heap_.push(Ev{when, seq_++, id});
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Time min_time() const { return heap_.top().when; }
  std::pair<Time, std::uint64_t> pop() {
    Ev e = heap_.top();
    heap_.pop();
    return {e.when, e.id};
  }

 private:
  struct Ev {
    Time when;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const Ev& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
};

/// Both queues under one interface: push ids, pop and compare.
class Differ {
 public:
  void push(Time when) {
    const std::uint64_t id = next_id_++;
    oracle_.push(when, id);
    queue_.push(when, [this, id] { last_id_ = id; });
  }

  /// Pops one event from both queues; EXPECTs identical (when, id).
  void pop_and_check() {
    ASSERT_FALSE(queue_.empty());
    ASSERT_FALSE(oracle_.empty());
    EXPECT_EQ(queue_.min_time(), oracle_.min_time());
    Time when = 0;
    const std::uint32_t slot = queue_.pop_due(kTimeNever, &when);
    ASSERT_NE(slot, EventQueue::kNone);
    queue_.call(slot);
    const auto [owhen, oid] = oracle_.pop();
    EXPECT_EQ(when, owhen);
    EXPECT_EQ(last_id_, oid);
    last_when_ = when;
  }

  /// Timestamp of the event popped last.
  Time last_when() const { return last_when_; }

  void drain_and_check() {
    while (!oracle_.empty()) pop_and_check();
    EXPECT_TRUE(queue_.empty());
    EXPECT_EQ(queue_.size(), 0u);
  }

  EventQueue& queue() { return queue_; }
  std::size_t pending() const { return oracle_.size(); }

 private:
  EventQueue queue_;
  OracleQueue oracle_;
  std::uint64_t next_id_ = 0;
  std::uint64_t last_id_ = ~0ull;
  Time last_when_ = 0;
};

TEST(EventQueueTest, EmptyQueueBasics) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimestamps) {
  Differ d;
  for (int i = 0; i < 100; ++i) d.push(5000);
  d.drain_and_check();
}

TEST(EventQueueTest, InterleavedTiesAcrossTimestamps) {
  Differ d;
  // 0,1,0,1,... then 2s; ties at each timestamp must pop in push order.
  for (int i = 0; i < 50; ++i) {
    d.push(i % 2 == 0 ? 1000 : 2000);
  }
  for (int i = 0; i < 10; ++i) d.push(1000);
  d.drain_and_check();
}

TEST(EventQueueTest, DifferentialRandomNearSchedule) {
  // Dense sub-window timestamps (the steady-state regime).
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 4242ull}) {
    Differ d;
    Rng rng(seed);
    Time now = 0;
    for (int round = 0; round < 200; ++round) {
      const int pushes = static_cast<int>(rng.below(8));
      for (int i = 0; i < pushes; ++i) {
        d.push(now + static_cast<Time>(rng.below(5000)));
      }
      const int pops = static_cast<int>(rng.below(8));
      for (int i = 0; i < pops && d.pending() > 0; ++i) d.pop_and_check();
    }
    d.drain_and_check();
  }
}

TEST(EventQueueTest, DifferentialRandomFarSchedule) {
  // Timestamps spanning many ladder windows (262 us each), so pops force
  // repeated far-heap refills and window re-anchors.
  for (std::uint64_t seed : {3ull, 99ull, 2026ull}) {
    Differ d;
    Rng rng(seed);
    Time now = 0;
    for (int round = 0; round < 100; ++round) {
      const int pushes = 1 + static_cast<int>(rng.below(6));
      for (int i = 0; i < pushes; ++i) {
        // Mix: same-tick ties, near, far, and very far (multiple windows).
        const std::uint64_t kind = rng.below(4);
        Time when = now;
        if (kind == 1) when = now + static_cast<Time>(rng.below(10000));
        if (kind == 2) when = now + static_cast<Time>(rng.below(1 << 20));
        if (kind == 3) when = now + static_cast<Time>(rng.below(1 << 28));
        d.push(when);
      }
      const int pops = static_cast<int>(rng.below(4));
      for (int i = 0; i < pops && d.pending() > 0; ++i) d.pop_and_check();
    }
    d.drain_and_check();
  }
}

TEST(EventQueueTest, DifferentialReversedBucketsAroundTheSortCutoff) {
  // Buckets filled in reverse time order with ties, at sizes on both sides
  // of the 64-entry insertion-sort cutoff: sorting a bucket by timestamp
  // must keep each tie in push order, as the oracle's seq does. Ties come
  // in adjacent pairs, and in a stride-5 pattern that scatters them.
  constexpr Time kBucket = 256;
  for (const std::size_t n : {2u, 3u, 17u, 63u, 64u, 65u, 128u, 300u}) {
    for (const bool scattered : {false, true}) {
      Differ d;
      for (Time b = 0; b < 3; ++b) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t rev = n - 1 - i;
          d.push(b * kBucket +
                 static_cast<Time>(scattered ? rev % 5 : rev / 2));
        }
      }
      d.drain_and_check();
    }
  }
}

TEST(EventQueueTest, DifferentialSparseWindowSchedules) {
  // A few events scattered over the 1024-bucket window, so nearly every pop
  // follows a run of empty buckets that the occupancy bitmap must skip:
  // buckets on both sides of each 64-bucket word boundary, the first and
  // last bucket, far events that arrive through heap refills, re-entrant
  // pushes into the bucket just reached, and a full drain before every
  // round so the next push re-anchors the window.
  constexpr Time kBucket = 256;             // bucket width (2^8 ns)
  constexpr Time kWindow = 1024 * kBucket;  // ladder window span
  std::vector<Time> edges = {0, 1, 1022, 1023};
  for (Time w = 64; w < 1024; w += 64) {
    edges.push_back(w - 1);
    edges.push_back(w);
  }
  for (std::uint64_t seed : {5ull, 17ull, 333ull, 9001ull}) {
    Differ d;
    Rng rng(seed);
    Time base = 0;
    for (int round = 0; round < 40; ++round) {
      // Next window base: usually beyond the last one, sometimes inside
      // it (a re-anchor onto buckets the previous round used).
      base += rng.below(4) == 0 ? kBucket * static_cast<Time>(rng.below(8))
                                : kWindow * static_cast<Time>(1 + rng.below(3));
      ASSERT_EQ(d.pending(), 0u);
      d.push(base);  // empty queue: anchors the window at `base`
      auto at = [&](Time bucket) {
        return base + bucket * kBucket +
               static_cast<Time>(rng.below(static_cast<std::uint64_t>(kBucket)));
      };
      for (int i = 0; i < 6; ++i) {
        const Time when = at(edges[rng.below(edges.size())]);
        d.push(when);
        if (rng.below(3) == 0) d.push(when);  // same-timestamp tie
      }
      d.push(at(static_cast<Time>(rng.below(1024))));
      for (int i = 0; i < 3; ++i) {
        // Beyond the window: parked in the far heap until a refill.
        d.push(at(edges[rng.below(edges.size())]) +
               kWindow * static_cast<Time>(1 + rng.below(3)));
      }
      int reentrant = 0;
      while (d.pending() > 0) {
        d.pop_and_check();
        if (reentrant < 12 && rng.below(3) == 0) {
          // As a callback would: at the popped time (the spawn run of the
          // bucket just reached) or a little later (this bucket or the
          // next, possibly across a word boundary).
          ++reentrant;
          d.push(d.last_when() +
                 (rng.below(2) == 0
                      ? 0
                      : static_cast<Time>(rng.below(2 * kBucket))));
        }
      }
      EXPECT_TRUE(d.queue().empty());
    }
  }
}

TEST(EventQueueTest, EqualTimestampsSplitAcrossFarAndNear) {
  // Two events with the SAME timestamp, one pushed while that time is far
  // beyond the window, one pushed (later) directly into the near window:
  // FIFO order across the far/near boundary must still hold.
  Differ d;
  const Time t = 600000;  // > one window (262 us) from 0
  d.push(t);       // routed to the far heap
  d.push(100);     // near; popping it advances the window toward t
  d.pop_and_check();
  d.push(t);       // same timestamp, near path after re-anchor
  d.push(t);
  d.drain_and_check();
}

TEST(EventQueueTest, ReentrantPushesDuringDrain) {
  // Callbacks push new events while the current bucket is mid-drain: into
  // the past, at the exact current time, and slightly ahead.
  EventQueue q;
  OracleQueue oracle;
  std::vector<std::pair<Time, std::uint64_t>> got, want;
  std::uint64_t next_id = 0;
  Rng rng(11);
  Time now = 0;

  std::function<void(Time)> spawn = [&](Time when) {
    const std::uint64_t id = next_id++;
    oracle.push(when, id);
    q.push(when, [&, id, when] {
      got.emplace_back(when, id);
      if (id < 400) {
        // Re-entrant: two ties at the executing timestamp (same-tick FIFO)
        // and a future event. Pushes are never in the past — the Simulation
        // layer clamps to now() — so global (when, seq) order is exactly
        // the execution order the oracle predicts.
        spawn(now);
        spawn(now);
        spawn(now + static_cast<Time>(rng.below(3000)));
      }
    });
  };

  spawn(10);
  spawn(10);
  while (!q.empty()) {
    Time when = 0;
    const std::uint32_t slot = q.pop_due(kTimeNever, &when);
    now = when;
    q.call(slot);
  }
  while (!oracle.empty()) want.push_back(oracle.pop());
  // The oracle cannot run callbacks, so replay its order against the log:
  // the ladder queue must have executed the same (when, id) sequence.
  // (Past-time pushes are compared as-pushed — neither queue clamps.)
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, want[i].second) << "at index " << i;
  }
}

TEST(EventQueueTest, HeapFallbackForLargeCaptures) {
  EventQueue q;
  struct Big {
    std::uint64_t data[16];
  };
  static_assert(!EventFn::fits_inline<decltype([b = Big{}] { (void)b; })>());
  Big big{};
  big.data[15] = 77;
  std::uint64_t seen = 0;
  q.push(100, [big, &seen] { seen = big.data[15]; });
  Time when = 0;
  q.call(q.pop_due(kTimeNever, &when));
  EXPECT_EQ(when, 100);
  EXPECT_EQ(seen, 77u);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Slot lifetime: in-place calls, teardown, recycling
// ---------------------------------------------------------------------------

/// Counts destructor runs of live (not moved-from) instances.
class DtorCount {
 public:
  explicit DtorCount(int* count) : count_(count) {}
  DtorCount(DtorCount&& o) noexcept : count_(std::exchange(o.count_, nullptr)) {}
  DtorCount& operator=(DtorCount&&) = delete;
  ~DtorCount() {
    if (count_ != nullptr) ++*count_;
  }

 private:
  int* count_;
};

/// Padding that pushes a capture past EventFn's inline budget.
struct Pad80 {
  std::uint64_t words[10] = {};
};

/// An event that counts its runs and its destruction: stored inline.
auto small_event(int* dtors, int* runs) {
  return [d = DtorCount(dtors), runs] { ++*runs; };
}
/// The same with a capture past the inline budget: heap fallback.
auto big_event(int* dtors, int* runs) {
  return [d = DtorCount(dtors), runs, pad = Pad80{}] { *runs += 1 + static_cast<int>(pad.words[9]); };
}
static_assert(EventFn::fits_inline<decltype(small_event(nullptr, nullptr))>());
static_assert(!EventFn::fits_inline<decltype(big_event(nullptr, nullptr))>());

/// Runs in place while pushing more events than a slab chunk holds, then
/// reads its own captures. Its fields are laid out so that a push reusing
/// its slot mid-call overwrites `a` and `b` first.
struct Grower {
  std::uint64_t a;
  std::uint64_t b;
  Simulation* sim;
  std::vector<std::uint64_t>* out;
  void operator()() {
    for (std::uint64_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
      sim->schedule(static_cast<Time>(1 + i), [o = out, i] { o->push_back(i); });
    }
    out->push_back(a);
    out->push_back(b);
  }
};

TEST(SimulationQueueTest, CallbackGrowingTheSlabKeepsItsCaptures) {
  Simulation sim;
  std::vector<std::uint64_t> out;
  sim.schedule(10, Grower{0xA11CE5EEDull, 0xB0B0B0B0B0ull, &sim, &out});
  sim.run();
  std::vector<std::uint64_t> want = {0xA11CE5EEDull, 0xB0B0B0B0B0ull};
  for (std::uint64_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
    want.push_back(i);
  }
  EXPECT_EQ(out, want);
  EXPECT_EQ(sim.executed(), 1 + 3 * EventQueue::kChunkSlots);
}

TEST(EventQueueTest, TeardownDestroysEachPendingCallableOnce) {
  int small_dtors = 0, big_dtors = 0, runs = 0;
  {
    EventQueue q;
    // The first event pushes into the bucket being drained: the spawn run.
    q.push(100, [&] {
      q.push(100, small_event(&small_dtors, &runs));
      q.push(100, big_event(&big_dtors, &runs));
    });
    for (int i = 0; i < 4; ++i) {
      q.push(100, small_event(&small_dtors, &runs));
      q.push(100, big_event(&big_dtors, &runs));
    }
    q.push(5'000, small_event(&small_dtors, &runs));   // a later bucket
    q.push(5'000, big_event(&big_dtors, &runs));
    q.push(50'000'000, small_event(&small_dtors, &runs));  // the far heap
    q.push(50'000'000, big_event(&big_dtors, &runs));
    // Call the spawner and three more: the current bucket's run is left
    // part-drained, and two new events take slots those calls freed.
    for (int i = 0; i < 4; ++i) {
      Time when = 0;
      q.call(q.pop_due(kTimeNever, &when));
    }
    q.push(5'000, small_event(&small_dtors, &runs));
    q.push(5'000, big_event(&big_dtors, &runs));
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(small_dtors, 2);
    EXPECT_EQ(big_dtors, 1);
    EXPECT_EQ(q.size(), 13u);
  }
  // 8 inline and 8 heap-fallback events were made; the 13 pending ones
  // were destroyed by the teardown, once each.
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(small_dtors, 8);
  EXPECT_EQ(big_dtors, 8);
}

TEST(SimulationQueueTest, TeardownDestroysEachPendingCallableOnce) {
  int small_dtors = 0, big_dtors = 0, runs = 0;
  {
    Simulation sim;
    for (int i = 0; i < 5; ++i) {
      sim.schedule(100, small_event(&small_dtors, &runs));
      sim.schedule(100, big_event(&big_dtors, &runs));
    }
    // Stops mid-bucket after leaving two events in its spawn run.
    sim.schedule(100, [&] {
      sim.schedule(0, small_event(&small_dtors, &runs));
      sim.schedule(0, big_event(&big_dtors, &runs));
      sim.stop();
    });
    for (int i = 0; i < 5; ++i) {
      sim.schedule(100, small_event(&small_dtors, &runs));
      sim.schedule(100, big_event(&big_dtors, &runs));
    }
    sim.schedule(3'000, small_event(&small_dtors, &runs));
    sim.schedule(7'000'000'000, big_event(&big_dtors, &runs));
    sim.run();
    EXPECT_EQ(runs, 10);
    EXPECT_EQ(small_dtors, 5);
    EXPECT_EQ(big_dtors, 5);
    EXPECT_EQ(sim.pending(), 14u);
  }
  EXPECT_EQ(runs, 10);
  EXPECT_EQ(small_dtors, 12);
  EXPECT_EQ(big_dtors, 12);
}

TEST(EventQueueTest, RecycledSlotStartsClean) {
  // Each event lands in the slot its predecessor freed (the free list is
  // last-in first-out), alternating inline and heap-fallback captures: it
  // sees only its own captures, and each callable is destroyed once, when
  // its call returns — not again when its slot is reused.
  int dtors = 0;
  std::vector<std::uint64_t> seen;
  {
    EventQueue q;
    std::uint32_t first = EventQueue::kNone;
    for (std::uint64_t k = 0; k < 6; ++k) {
      if (k % 2 == 0) {
        q.push(static_cast<Time>(k),
               [d = DtorCount(&dtors), &seen, k] { seen.push_back(k); });
      } else {
        q.push(static_cast<Time>(k),
               [d = DtorCount(&dtors), &seen, k, pad = Pad80{}] {
                 seen.push_back(k + pad.words[9]);
               });
      }
      Time when = 0;
      const std::uint32_t slot = q.pop_due(kTimeNever, &when);
      if (k == 0) first = slot;
      EXPECT_EQ(slot, first) << "event " << k;
      EXPECT_EQ(dtors, static_cast<int>(k));
      q.call(slot);
      EXPECT_EQ(dtors, static_cast<int>(k) + 1);
    }
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
    // A pending event in the recycled slot is destroyed once by teardown.
    q.push(10, [d = DtorCount(&dtors), &seen] { seen.push_back(99); });
  }
  EXPECT_EQ(dtors, 7);
  EXPECT_EQ(seen.size(), 6u);
}

// ---------------------------------------------------------------------------
// Simulation-level semantics (clamping, run_until, stop)
// ---------------------------------------------------------------------------

TEST(EventQueueTest, PopDueDeadlineIsInclusiveAndNonConsumingPastIt) {
  EventQueue q;
  std::vector<int> ran;
  q.push(100, [&] { ran.push_back(100); });
  q.push(200, [&] { ran.push_back(200); });

  Time when = -1;
  // An event strictly past the deadline is not popped and not consumed.
  EXPECT_EQ(q.pop_due(99, &when), EventQueue::kNone);
  EXPECT_EQ(q.size(), 2u);

  // An event exactly at the deadline is due.
  std::uint32_t slot = q.pop_due(100, &when);
  ASSERT_NE(slot, EventQueue::kNone);
  EXPECT_EQ(when, 100);
  EXPECT_EQ(q.size(), 1u);
  q.call(slot);

  // The refusal left the later event intact and still ordered.
  EXPECT_EQ(q.pop_due(199, &when), EventQueue::kNone);
  slot = q.pop_due(200, &when);
  ASSERT_NE(slot, EventQueue::kNone);
  EXPECT_EQ(when, 200);
  EXPECT_EQ(q.size(), 0u);
  q.call(slot);
  EXPECT_EQ(ran, (std::vector<int>{100, 200}));
}

TEST(SimulationQueueTest, PastDeadlinesClampToNow) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(100, [&] {
    // now == 100. Both a negative delay and a past absolute time clamp to
    // now and run after events already queued at now, in FIFO order.
    sim.schedule(0, [&] { order.push_back(1); });
    sim.schedule(-500, [&] { order.push_back(2); });
    sim.schedule_at(5, [&] { order.push_back(3); });
  });
  sim.schedule(100, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulationQueueTest, RunUntilExecutesDeadlineEventsAndAdvancesClock) {
  Simulation sim;
  int ran = 0;
  sim.schedule(1000, [&] { ++ran; });
  sim.schedule(2000, [&] { ++ran; });
  sim.schedule(3000, [&] { ++ran; });
  sim.run_until(2000);  // deadline events inclusive
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 2000);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2500);  // no events in range: clock still advances
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 2500);
  sim.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.now(), 3000);
}

TEST(SimulationQueueTest, StopMidDrainPreservesPendingEvents) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(100, [&, i] {
      order.push_back(i);
      if (i == 4) sim.stop();
    });
  }
  sim.run_until(100000);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 100);      // stop() freezes the clock mid-drain
  EXPECT_EQ(sim.pending(), 5u);   // events 5..9 still queued
  sim.run();                      // a later run resumes exactly in order
  EXPECT_EQ(order.size(), 10u);
  EXPECT_EQ(order.back(), 9);
}

TEST(SimulationQueueTest, ReentrantStopAndRescheduleLoop) {
  // A self-rescheduling chain interleaved with run_until slices: executed
  // counts and clock must match an exact step-by-step expectation.
  Simulation sim;
  std::uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule(10, EventFn(tick));
  };
  sim.schedule(0, EventFn(tick));
  sim.run_until(100);
  EXPECT_EQ(ticks, 11u);  // t = 0,10,...,100
  sim.run_until(205);
  EXPECT_EQ(ticks, 21u);  // t = 110,...,200
  EXPECT_EQ(sim.now(), 205);
  EXPECT_EQ(sim.executed(), 21u);
}

TEST(SimulationQueueTest, DifferentialExecutionOrderUnderRandomLoad) {
  // Full-simulation differential: random self-scheduling workload, executed
  // (when, id) log must match the oracle's (when, seq) order.
  for (std::uint64_t seed : {5ull, 1234ull}) {
    Simulation sim;
    OracleQueue oracle;
    std::vector<std::uint64_t> got, want;
    std::uint64_t next_id = 0;
    Rng rng(seed);

    std::function<void(Time, int)> spawn = [&](Time when, int depth) {
      const std::uint64_t id = next_id++;
      oracle.push(when, id);
      sim.schedule_at(when, [&, id, depth] {
        got.push_back(id);
        if (depth < 3) {
          const int kids = static_cast<int>(rng.below(3));
          for (int k = 0; k < kids; ++k) {
            spawn(sim.now() + static_cast<Time>(rng.below(200000)), depth + 1);
          }
        }
      });
    };

    for (int i = 0; i < 50; ++i) {
      spawn(static_cast<Time>(rng.below(50000)), 0);
    }
    sim.run();
    while (!oracle.empty()) want.push_back(oracle.pop().second);
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace presto::sim
