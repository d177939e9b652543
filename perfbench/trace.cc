#include "trace.h"

#include <time.h>
#include <x86intrin.h>

#include <cinttypes>
#include <cstdio>

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t read_tsc() { return __rdtsc(); }

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRep: return "rep";
    case Layer::kBuild: return "harness.build";
    case Layer::kSimRun: return "sim.run";
    case Layer::kSwitchRx: return "net.switch_rx";
    case Layer::kHostRx: return "host.rx";
    case Layer::kFlowNext: return "workload.next";
    case Layer::kTap: return "check.tap";
    case Layer::kFinish: return "check.finish";
    case Layer::kSketchAdd: return "stats.sketch_add";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

/// Span records kept per layer for the trace file.
constexpr std::uint64_t kPerLayerRecords = 20000;
/// Spans of the per-frame layers are recorded one in this many.
constexpr std::uint64_t kSampleEvery = 64;

bool per_frame(Layer l) {
  return l == Layer::kSwitchRx || l == Layer::kHostRx ||
         l == Layer::kFlowNext || l == Layer::kTap ||
         l == Layer::kSketchAdd;
}
}  // namespace

Tracer::Tracer()
    : tsc0_(read_tsc()),
      wall0_(std::chrono::steady_clock::now()) {
  stack_.reserve(16);
}

void Tracer::begin(Layer l, std::uint64_t now, std::uint64_t allocs) {
  const auto li = static_cast<std::size_t>(l);
  std::int32_t record = -1;
  if (recorded_[li] < kPerLayerRecords &&
      (!per_frame(l) || totals_[li].calls % kSampleEvery == 0)) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<std::int32_t>(records_.size());
    records_.push_back(SpanRecord{l, rep_, parent, now, now});
    ++recorded_[li];
  }
  stack_.push_back(Open{l, now, allocs, 0, 0, record});
}

void Tracer::end(std::uint64_t now, std::uint64_t allocs) {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now - o.start;
  const std::uint64_t used = allocs - o.start_allocs;
  LayerTotals& t = totals_[static_cast<std::size_t>(o.layer)];
  ++t.calls;
  t.ticks += dur;
  t.self_ticks += dur - o.child_ticks;
  t.allocs += used;
  t.self_allocs += used - o.child_allocs;
  if (!stack_.empty()) {
    stack_.back().child_ticks += dur;
    stack_.back().child_allocs += used;
  }
  if (o.record >= 0) records_[static_cast<std::size_t>(o.record)].end = now;
}

double Tracer::ns_per_tick() const {
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - wall0_)
                        .count();
  const std::uint64_t ticks = read_tsc() - tsc0_;
  return ticks == 0 ? 1.0 : ns / static_cast<double>(ticks);
}

std::string Tracer::chrome_json() const {
  const double us_per_tick = ns_per_tick() / 1000.0;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"rep\":%" PRIu32 "}}",
                  i == 0 ? "" : ",", layer_name(r.layer),
                  static_cast<double>(r.start - tsc0_) * us_per_tick,
                  static_cast<double>(r.end - r.start) * us_per_tick, i,
                  r.parent, r.rep);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
