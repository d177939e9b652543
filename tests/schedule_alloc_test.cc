// Allocation guards for the schedule path (DESIGN.md §11). A counting global
// operator new (alloc_count.cc, the perfbench idiom) sees every allocation
// the simulator makes. Once the ladder queue's bucket vectors and the slot
// slab have warmed up, a self-rescheduling chain with 48-byte captures
// allocates nothing: each capture is constructed inline, in the slot its
// predecessor freed. A pinned end-to-end run holds its allocations per
// executed event under a ceiling, which the bare chain cannot: a datapath
// event whose capture outgrows the inline budget allocates on every hop.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "harness/runners.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace presto {
namespace {

/// Capture size the guard covers (inside EventFn's 64-byte inline budget).
constexpr std::size_t kCaptureBytes = 48;
constexpr std::uint64_t kHops = 200'000;

struct Chain {
  sim::Simulation& sim;
  std::uint64_t& remaining;
  std::uint64_t& hops;
  std::uint8_t pad[kCaptureBytes - 3 * sizeof(void*)]{};
  void operator()() {
    ++hops;
    if (--remaining > 0) {
      sim.schedule(static_cast<sim::Time>(hops % 7000), *this);
    }
  }
};
static_assert(sizeof(Chain) == kCaptureBytes);

TEST(ScheduleAllocs, SteadyStateSelfScheduleAllocatesNothing) {
  sim::Simulation sim;
  std::uint64_t remaining = kHops;
  std::uint64_t hops = 0;
  // Warm-up: grows the bucket vectors and the slab to steady-state size.
  sim.schedule(1, Chain{sim, remaining, hops});
  sim.run();
  remaining = kHops;
  const std::uint64_t before = testing::alloc_count();
  sim.schedule(1, Chain{sim, remaining, hops});
  sim.run();
  EXPECT_EQ(testing::alloc_count() - before, 0u);
  EXPECT_EQ(hops, 2 * kHops);
}

// The pinned scenario: Presto on 4 spines x 2 leaves x 4 hosts/leaf,
// elephants i -> 4+i, seed 1000, 10 ms warm-up and 90 ms measured, with
// the fabric monitors on every switch port flushing every 5 ms. The count
// covers the whole run, testbed build included, in a fresh process.
// Recorded with g++ 12 (Release); the ceiling leaves 10% for another
// compiler's standard library.
constexpr std::uint64_t kPinnedAllocs = 63'743;
constexpr std::uint64_t kPinnedEvents = 2'812'818;
constexpr double kAllocsPerEventCeiling =
    1.10 * static_cast<double>(kPinnedAllocs) /
    static_cast<double>(kPinnedEvents);

TEST(ScheduleAllocs, PinnedRunStaysUnderItsAllocationCeiling) {
  harness::ExperimentConfig cfg;
  cfg.scheme = harness::Scheme::kPresto;
  cfg.spines = 4;
  cfg.leaves = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 1000;
  cfg.telemetry.fabric.monitors = true;
  cfg.telemetry.fabric.flush_period = 5 * sim::kMillisecond;
  std::vector<workload::HostPair> pairs;
  for (net::HostId i = 0; i < 4; ++i) pairs.emplace_back(i, 4 + i);
  harness::RunOptions opt;
  opt.warmup = 10 * sim::kMillisecond;
  opt.measure = 90 * sim::kMillisecond;

  const std::uint64_t before = testing::alloc_count();
  const harness::RunResult r = harness::run_pairs(cfg, pairs, opt);
  const std::uint64_t allocs = testing::alloc_count() - before;
  // In the --gtest_output XML, for re-recording the pin.
  RecordProperty("allocs", std::to_string(allocs));
  RecordProperty("events", std::to_string(r.executed_events));
  ASSERT_GT(r.executed_events, 0u);
  EXPECT_LE(static_cast<double>(allocs) /
                static_cast<double>(r.executed_events),
            kAllocsPerEventCeiling)
      << allocs << " allocations for " << r.executed_events
      << " events; pinned " << kPinnedAllocs << " for " << kPinnedEvents;
}

}  // namespace
}  // namespace presto
