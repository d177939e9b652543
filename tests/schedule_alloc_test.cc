// Allocation guards for the schedule and receive paths (DESIGN.md §11). A
// counting global operator new (alloc_count.cc, the perfbench idiom) sees
// every allocation the simulator makes. Once the ladder queue's bucket
// vectors and the slot slab have warmed up, a self-rescheduling chain with
// 48-byte captures allocates nothing: each capture is constructed inline, in
// the slot its predecessor freed. Likewise a warm RangeSet and a warm
// PrestoGro reuse their storage. A pinned end-to-end run holds its
// allocations per executed event under a ceiling, which the bare chain
// cannot: a datapath event whose capture outgrows the inline budget
// allocates on every hop.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "harness/runners.h"
#include "offload/presto_gro.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "tcp/range_set.h"

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
// compiler's standard library. Most of what remains is the testbed build;
// a receive path that reallocated per flush would add tens of thousands.
constexpr std::uint64_t kPinnedAllocs = 6'967;
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

constexpr std::uint64_t kMss = 1448;

// One SACK-scoreboard-like round above `base`: 64 blocks land in scrambled
// order, the holes between them fill (each fill merges two neighbours), the
// cumulative point trims the set one block at a time and then advances
// through the rest. Every round has the same shape and ends empty.
void range_set_round(tcp::RangeSet& rs, std::uint64_t base) {
  constexpr std::uint64_t kBlocks = 64;
  for (std::uint64_t k = 0; k < kBlocks; ++k) {
    const std::uint64_t b = (k * 37) % kBlocks;
    rs.add(base + (4 * b + 1) * kMss, base + (4 * b + 2) * kMss);
  }
  for (std::uint64_t b = 0; b < kBlocks; b += 2) {
    rs.add(base + (4 * b + 2) * kMss, base + (4 * b + 5) * kMss);
  }
  for (std::uint64_t b = 0; b < kBlocks / 2; ++b) {
    rs.trim_below(base + 4 * b * kMss);
  }
  rs.advance(base + 4 * kBlocks * kMss);
}

TEST(ReceivePathAllocs, WarmRangeSetAllocatesNothing) {
  tcp::RangeSet rs;
  range_set_round(rs, 0);  // warm-up: grows the vector to the round's peak
  ASSERT_TRUE(rs.empty());
  const std::uint64_t before = testing::alloc_count();
  for (std::uint64_t r = 1; r <= 1000; ++r) range_set_round(rs, r << 20);
  EXPECT_EQ(testing::alloc_count() - before, 0u);
  EXPECT_TRUE(rs.empty());
}

TEST(ReceivePathAllocs, WarmPrestoGroAllocatesNothing) {
  constexpr std::uint32_t kFlows = 8;
  constexpr std::uint64_t kPktsPer = 4;
  std::uint64_t pushed_bytes = 0;
  offload::PrestoGro gro(
      [&pushed_bytes](offload::Segment s) { pushed_bytes += s.bytes(); });
  sim::Time now = 0;
  std::uint64_t held = 0;
  auto offer_cell = [&](std::uint64_t cell) {
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      for (std::uint64_t k = 0; k < kPktsPer; ++k) {
        net::Packet p;
        p.flow = net::FlowKey{0, 1, 10000 + f, 80};
        p.seq = ((cell - 1) * kPktsPer + k) * kMss;
        p.payload = kMss;
        p.flowcell_id = cell;
        gro.on_packet(p, now);
      }
    }
  };
  // Round r: every flow's flowcell 2r + 2 overtakes 2r + 1 and is held at
  // the boundary for one poll; the next poll fills the gap and both push.
  auto round = [&](std::uint64_t r) {
    offer_cell(2 * r + 2);
    gro.flush(now);
    held += gro.held_segments();
    now += sim::kMicrosecond;
    offer_cell(2 * r + 1);
    gro.flush(now);
    now += sim::kMicrosecond;
  };
  // Warm-up: the flow table and every flow's segment list grow.
  round(0);
  round(1);
  const std::uint64_t before = testing::alloc_count();
  constexpr std::uint64_t kRounds = 1000;
  for (std::uint64_t r = 2; r < 2 + kRounds; ++r) round(r);
  EXPECT_EQ(testing::alloc_count() - before, 0u);
  EXPECT_EQ(held, (2 + kRounds) * kFlows);
  EXPECT_EQ(pushed_bytes, (2 + kRounds) * kFlows * 2 * kPktsPer * kMss);
  EXPECT_FALSE(gro.has_held_segments());
}

}  // namespace
}  // namespace presto
