// Micro-benchmarks (google-benchmark): per-operation cost of the hot paths
// the paper argues must be cheap — flowcell creation in the vSwitch (§5:
// "Presto needs just two memcpy operations"), GRO merge/flush, TSO split,
// and the SACK scoreboard — and of the simulator core under them: inline
// EventFn dispatch, ladder-queue churn, the self-scheduling Simulation loop
// and the packet pool.
//
// With `--json` (or PRESTO_BENCH_JSON set) the results are additionally
// written as a presto.bench v1 document to <outdir>/micro_overhead.json.

#include <benchmark/benchmark.h>

#include "bench_micro_json.h"
#include "core/flowcell_engine.h"
#include "core/label_map.h"
#include "net/packet_pool.h"
#include "offload/official_gro.h"
#include "offload/presto_gro.h"
#include "offload/tso.h"
#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "tcp/range_set.h"

namespace {

using namespace presto;

net::Packet make_segment(std::uint64_t seq, std::uint32_t payload,
                         std::uint64_t fc = 1) {
  net::Packet p;
  p.flow = net::FlowKey{0, 1, 10000, 80};
  p.src_host = 0;
  p.dst_host = 1;
  p.seq = seq;
  p.payload = payload;
  p.flowcell_id = fc;
  p.dst_mac = net::real_mac(1);
  return p;
}

void BM_FlowcellEngine(benchmark::State& state) {
  core::LabelMap map;
  std::vector<net::MacAddr> labels;
  for (std::uint32_t t = 0; t < 8; ++t) labels.push_back(net::shadow_mac(1, t));
  map.set_schedule(1, labels);
  core::FlowcellEngine lb(map);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    net::Packet p = make_segment(seq, 65536);
    lb.on_segment(p);
    benchmark::DoNotOptimize(p.dst_mac);
    seq += 65536;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_FlowcellEngine);

void BM_TsoSplit(benchmark::State& state) {
  std::vector<net::Packet> out;
  out.reserve(64);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    out.clear();
    offload::tso_split(make_segment(seq, 65536), out);
    benchmark::DoNotOptimize(out.data());
    seq += 65536;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_TsoSplit);

void BM_OfficialGroInOrder(benchmark::State& state) {
  offload::OfficialGro gro([](offload::Segment) {});
  std::uint64_t seq = 0;
  sim::Time now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 42; ++i) {
      gro.on_packet(make_segment(seq, 1448), now);
      seq += 1448;
    }
    gro.flush(now);
    now += 30'000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 42 *
                          1448);
}
BENCHMARK(BM_OfficialGroInOrder);

void BM_PrestoGroInOrder(benchmark::State& state) {
  offload::PrestoGro gro([](offload::Segment) {});
  std::uint64_t seq = 0, fc = 1;
  sim::Time now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 42; ++i) {
      gro.on_packet(make_segment(seq, 1448, fc), now);
      seq += 1448;
    }
    gro.flush(now);
    ++fc;
    now += 30'000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 42 *
                          1448);
}
BENCHMARK(BM_PrestoGroInOrder);

void BM_PrestoGroReordered(benchmark::State& state) {
  // Two interleaved flowcell streams: exercises the multi-segment list.
  offload::PrestoGro gro([](offload::Segment) {});
  sim::Time now = 0;
  std::uint64_t base = 0;
  for (auto _ : state) {
    // Flowcell B (later seq range) arrives before flowcell A's tail.
    for (int i = 0; i < 21; ++i) {
      gro.on_packet(make_segment(base + i * 1448, 1448, base / 60816 + 1),
                    now);
    }
    for (int i = 0; i < 21; ++i) {
      gro.on_packet(
          make_segment(base + 60816 + i * 1448, 1448, base / 60816 + 2),
          now);
    }
    for (int i = 21; i < 42; ++i) {
      gro.on_packet(make_segment(base + i * 1448, 1448, base / 60816 + 1),
                    now);
    }
    gro.flush(now);
    base += 2 * 60816;
    now += 30'000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 63 *
                          1448);
}
BENCHMARK(BM_PrestoGroReordered);

void BM_RangeSetAdd(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    tcp::RangeSet rs;
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t a = rng.below(1'000'000);
      rs.add(a, a + 1448);
    }
    benchmark::DoNotOptimize(rs.size());
  }
}
BENCHMARK(BM_RangeSetAdd);

/// 48-byte capture: the size the allocation-free guarantee covers.
struct Pad48 {
  std::uint64_t a[6];
};
static_assert(sizeof(Pad48) == 48);
static_assert(sim::EventFn::fits_inline<decltype([p = Pad48{}] {
                (void)p;
              })>(),
              "a 48-byte lambda capture must be stored inline");

void BM_EventFnInline48(benchmark::State& state) {
  Pad48 pad{};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventFn fn([pad, &sink] { sink += pad.a[0] + 1; });
    fn();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_EventFnInline48);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(7);
  sim::Time now = 0;
  std::uint64_t sink = 0;
  constexpr int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      q.push(now + static_cast<sim::Time>(rng.below(4000)),
             [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; ++i) {
      sim::Time when;
      const std::uint32_t slot = q.pop_due(sim::kTimeNever, &when);
      now = when;
      q.call(slot);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueChurn);

void BM_SimulationSelfSchedule(benchmark::State& state) {
  // One self-rescheduling event per iteration batch: the exact steady-state
  // schedule -> pop -> dispatch cycle of the simulator loop.
  sim::Simulation sim;
  std::uint64_t remaining = 0;
  struct Chain {
    sim::Simulation& sim;
    std::uint64_t& remaining;
    Pad48 pad{};
    void operator()() {
      if (--remaining > 0) sim.schedule(100, *this);
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    remaining = 1024;
    state.ResumeTiming();
    sim.schedule(1, Chain{sim, remaining});
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulationSelfSchedule);

void BM_PacketPoolCycle(benchmark::State& state) {
  net::PacketPool pool;
  net::Packet tmpl;
  tmpl.payload = 1448;
  for (auto _ : state) {
    net::Packet* p = pool.acquire(net::Packet{tmpl});
    benchmark::DoNotOptimize(p);
    pool.release(p);
  }
}
BENCHMARK(BM_PacketPoolCycle);

// Console output plus row collection from a single benchmark pass.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit TeeReporter(presto::bench::CollectingReporter* collect)
      : collect_(collect) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    collect_->ReportRuns(runs);
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  presto::bench::CollectingReporter* collect_;
};

}  // namespace

int main(int argc, char** argv) {
  const presto::bench::MicroJsonConfig json =
      presto::bench::micro_json_config(argc, argv);
  benchmark::Initialize(&argc, argv);
  presto::bench::CollectingReporter collector;
  TeeReporter tee(&collector);
  benchmark::RunSpecifiedBenchmarks(&tee);
  if (json.enabled &&
      !presto::bench::write_micro_json(json, "micro_overhead",
                                       collector.rows)) {
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
