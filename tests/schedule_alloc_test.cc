// Allocation guard for the schedule path (DESIGN.md §11). A counting global
// operator new (alloc_count.cc, the perfbench idiom) sees every allocation
// the simulator makes. Once the ladder queue's bucket vectors and the slot
// slab have warmed up, a self-rescheduling chain with 48-byte captures
// allocates nothing: each capture is constructed inline, in the slot its
// predecessor freed.
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "alloc_count.h"
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

}  // namespace
}  // namespace presto
