// Allocation guard for the closed-loop control plane (DESIGN.md §15.2,
// §17). A counting global operator new (alloc_count.cc, the perfbench
// idiom) sees every allocation the simulator makes. Once a closed-loop
// experiment's traffic is done and its buffers have grown, a report
// delivery allocates nothing and a control tick allocates at most its
// bounded history entry — and nothing at all once the history is full.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "controller/control_loop.h"
#include "harness/experiment.h"
#include "telemetry/fabric/plane.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace presto {
namespace {

TEST(ControlPlaneAllocs, IdleTicksAllocateOnlyTheirHistoryEntry) {
  harness::ExperimentConfig cfg;
  cfg.control_loop.enabled = true;
  cfg.control_loop.period = sim::kMillisecond;
  harness::Experiment ex(cfg);
  std::vector<workload::ElephantApp*> flows;
  for (const auto& [s, d] : workload::stride_pairs(16, 4)) {
    flows.push_back(&ex.add_elephant(s, d, 200'000));
  }
  // Traffic completes within a few ms and the transport's last timers
  // (200 ms minimum RTO) fire soon after; by 1 s only the loop and its
  // report deliveries remain, and the weights have settled back to
  // uniform, so the measured ticks push nothing.
  sim::Time t = 1000 * sim::kMillisecond;
  ex.sim().run_until(t);
  for (const workload::ElephantApp* f : flows) ASSERT_TRUE(f->complete());

  const controller::ControlLoop* loop = ex.control_loop();
  const telemetry::fabric::FabricPlane* plane = ex.fabric_plane();
  ASSERT_NE(loop, nullptr);
  ASSERT_NE(plane, nullptr);
  const telemetry::fabric::FabricCollector& coll = plane->collector();
  auto delivered = [&coll] {
    std::uint64_t n = 0;
    for (std::uint32_t id = 0; id < coll.switch_count(); ++id) {
      n += coll.accounting(id)->received;
    }
    return n;
  };

  // Each window holds one tick (a flush of every switch) and the delivery
  // of the previous tick's reports.
  const std::uint64_t pushes = loop->pushes();
  auto one_period = [&] {
    const std::uint64_t ticks = loop->ticks();
    const std::uint64_t received = delivered();
    const std::uint64_t before = testing::alloc_count();
    t += cfg.control_loop.period;
    ex.sim().run_until(t);
    const std::uint64_t n = testing::alloc_count() - before;
    EXPECT_EQ(loop->ticks(), ticks + 1);
    EXPECT_EQ(delivered(), received + coll.switch_count());
    return n;
  };
  for (int i = 0; i < 200; ++i) {
    const std::size_t capacity = loop->history().capacity();
    const std::uint64_t n = one_period();
    // The history entry copies the weight vector; a regrowth of the
    // history itself is the only other allocation a tick may make.
    const std::uint64_t regrowth =
        loop->history().capacity() != capacity ? 1 : 0;
    EXPECT_LE(n, 1 + regrowth) << "period " << i;
  }

  // Once the bounded history is full, a period allocates nothing at all.
  std::size_t entries = 0;
  while (loop->history().size() != entries) {
    entries = loop->history().size();
    one_period();
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(one_period(), 0u) << "period " << i;
  }
  EXPECT_EQ(loop->pushes(), pushes);
}

}  // namespace
}  // namespace presto
