// Allocation guard for the closed-loop control plane (DESIGN.md §15.1,
// §15.2, §17). A counting global operator new (alloc_count.cc, the
// perfbench idiom) sees every allocation the simulator makes. Once the
// depth sketches cover a queue-depth range, the monitor hooks on busy
// ports allocate nothing, sampled sketch adds included. An idle
// switch's snapshot and the delivery of its report allocate nothing, from
// the first idle window through the gauges' decay to their fixed point.
// Once a closed-loop experiment's traffic is done and its buffers have
// grown, a report delivery allocates nothing and a control tick allocates
// at most its bounded history entry — and nothing at all once the history
// is full.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "controller/control_loop.h"
#include "harness/experiment.h"
#include "net/packet.h"
#include "sim/simulation.h"
#include "telemetry/fabric/collector.h"
#include "telemetry/fabric/monitor.h"
#include "telemetry/fabric/plane.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace presto {
namespace {

TEST(ControlPlaneAllocs, BusyMonitorHooksAllocateNothing) {
  using namespace telemetry::fabric;
  FabricConfig cfg;
  sim::Simulation sim;
  SwitchMonitor mon(sim, 0, cfg);
  constexpr std::size_t kPorts = 4;
  for (std::size_t i = 0; i < kPorts; ++i) mon.add_port(10e9);

  // One pass: every port sees every label bucket (trees 0..15 and the
  // catch-all) at every depth of a fixed range, from one frame past the
  // microburst threshold to a full 400 KB buffer, with a transmit and a
  // drop after each enqueue. Each (port, label, depth) enqueue repeats
  // 2^sketch_sample_shift times, so the port samples every depth into
  // every label's sketch once.
  const std::uint32_t repeats = 1u << cfg.sketch_sample_shift;
  net::Packet p;
  p.payload = 1400;
  auto pass = [&] {
    std::uint64_t enqueues = 0;
    for (std::size_t i = 0; i < kPorts; ++i) {
      const auto port = static_cast<net::PortId>(i);
      for (std::uint32_t tree = 0; tree <= net::kTreeBuckets; ++tree) {
        p.dst_mac = tree < net::kTreeBuckets ? net::shadow_mac(1, tree)
                                             : net::real_mac(1);
        for (std::uint64_t depth = 1500; depth <= 400 * 1024;
             depth += 1500) {
          for (std::uint32_t r = 0; r < repeats; ++r) {
            mon.on_enqueue(0, port, p, depth);
            mon.on_tx(0, port, p, depth - 1500);
            mon.on_drop(0, port, p, net::DropCause::kQueueFull);
            ++enqueues;
          }
        }
      }
    }
    return enqueues;
  };
  auto samples = [&mon] {
    std::uint64_t n = 0;
    for (const stats::DDSketch& s : mon.label_depth()) n += s.count();
    return n;
  };
  // Warm-up: the label sketches grow their dense ranges over the depths.
  pass();
  const std::uint64_t samples_before = samples();
  const std::uint64_t before = testing::alloc_count();
  const std::uint64_t enqueues = pass();
  EXPECT_EQ(testing::alloc_count() - before, 0u);
  // The measured pass did add its depth samples, and the hooks counted.
  EXPECT_EQ(samples() - samples_before, enqueues / repeats);
  const PortReport& r = mon.port(0)->raw();
  EXPECT_EQ(r.drops[static_cast<std::size_t>(
                net::counted_cause(net::DropCause::kQueueFull))],
            2 * enqueues / kPorts);
  EXPECT_GT(r.microburst_episodes, 0u);
}

TEST(ControlPlaneAllocs, IdleSnapshotAndDeliveryAllocateNothing) {
  using namespace telemetry::fabric;
  FabricConfig cfg;
  sim::Simulation sim;
  SwitchMonitor mon(sim, 0, cfg);
  constexpr std::size_t kPorts = 4;
  for (std::size_t i = 0; i < kPorts; ++i) mon.add_port(10e9);
  FabricCollector coll(cfg);
  coll.expect_switch(0, kPorts);

  // Traffic on every port, depth samples included, so the idle windows
  // below decay real gauges; one frame stays queued on port 0.
  net::Packet p;
  p.dst_mac = net::shadow_mac(0, 3);
  p.payload = 1400;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    const auto port = static_cast<net::PortId>(i % kPorts);
    sim.run_until(static_cast<sim::Time>(i) * 100);
    mon.on_enqueue(0, port, p, 3000);
    if (i < 64) mon.on_tx(0, port, p, 1500);
  }
  // A slot pool of two, as the plane recycles them: the collector hands
  // the previous latest's storage back through the delivered slot.
  TelemetryReport slots[2];
  sim::Time t = 10'000;
  std::uint64_t k = 0;
  auto window = [&](std::uint64_t* snapshot_allocs,
                    std::uint64_t* delivery_allocs) {
    TelemetryReport& slot = slots[k++ % 2];
    t += 1000;
    const std::uint64_t before = testing::alloc_count();
    mon.snapshot(t, slot);
    const std::uint64_t mid = testing::alloc_count();
    coll.on_report(std::move(slot), t);
    *snapshot_allocs = mid - before;
    *delivery_allocs = testing::alloc_count() - mid;
  };
  std::uint64_t snap_allocs = 0, delivery_allocs = 0;
  // The busy window publishes a sketch copy; the next ones grow the
  // storage the idle windows then reuse.
  for (int i = 0; i < 3; ++i) window(&snap_allocs, &delivery_allocs);
  // Past the util EWMA's ~2,080 windows to its fixed point: every idle
  // window, settled or still decaying, allocates nothing.
  for (int i = 0; i < 2500; ++i) {
    window(&snap_allocs, &delivery_allocs);
    ASSERT_EQ(snap_allocs, 0u) << "idle window " << i;
    ASSERT_EQ(delivery_allocs, 0u) << "idle window " << i;
  }
  ASSERT_NE(coll.latest_report(0), nullptr);
  EXPECT_EQ(coll.latest_report(0)->seq, k);
  // The gauges reached their fixed point: the util EWMA holds the
  // smallest denormal, the HWM the 3000 bytes still queued on port 0.
  EXPECT_EQ(coll.latest_report(0)->ports[1].util_ewma,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(coll.latest_report(0)->ports[0].queue_hwm_decayed, 3000.0);
}

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
    const std::size_t entries = loop->history().capacity();
    const std::size_t weights = loop->history_weights().capacity();
    const std::uint64_t n = one_period();
    // The history's two buffers regrow geometrically; no tick allocates
    // anything else (the entry's weights go into the flat buffer).
    const std::uint64_t regrowths =
        (loop->history().capacity() != entries ? 1 : 0) +
        (loop->history_weights().capacity() != weights ? 1 : 0);
    EXPECT_LE(n, regrowths) << "period " << i;
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
