// Span tracer for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into the simulator's public seams
// (testbed constructors, Simulation::run_until slices, forwarding sinks in
// front of Switch/Host::receive, the FlowGenerator decorator, the checker
// tap forwarder, ScenarioRun::finish, FCT sketch adds). Each span records
// its layer, start, end and parent, and the rep it belongs to. Timestamps
// come from the TSC (no syscall; a CPU-time clock would cost one per frame)
// and are converted to nanoseconds with a calibration against
// steady_clock taken over the tracer's lifetime.
//
// Per-layer totals (calls, time, self time, allocations, self allocations)
// are aggregated for every span. Only a bounded, sampled subset of span
// records is kept for the Chrome/Perfetto trace file (trace.cc sets the
// cap and the sampling rate), so memory stays bounded however many frames
// a run moves.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.h"

namespace perfbench {

/// Thread CPU time in seconds (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_seconds();

/// Time-stamp counter (cycles); constant-rate on the hosts this runs on.
std::uint64_t read_tsc();

enum class Layer : std::uint8_t {
  kRep,        ///< one benchmark rep
  kBuild,      ///< harness::Experiment / check::ScenarioRun constructor
  kSimRun,     ///< one Simulation::run_until slice
  kSwitchRx,   ///< net::Switch::receive
  kHostRx,     ///< host::Host::receive
  kFlowNext,   ///< workload FlowGenerator::next
  kTap,        ///< check::Checker WireTap callback
  kFinish,     ///< check::ScenarioRun::finish
  kSketchAdd,  ///< stats::DDSketch::add of one FCT
  kCount,
};

/// Span name as written to the trace and the per-layer table.
const char* layer_name(Layer l);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;        ///< summed span durations
  std::uint64_t self_ticks = 0;   ///< durations minus child spans
  std::uint64_t allocs = 0;       ///< allocations inside the spans
  std::uint64_t self_allocs = 0;  ///< allocations not inside a child span
};

struct SpanRecord {
  Layer layer;
  std::uint32_t rep;
  std::int32_t parent;  ///< index of the nearest recorded ancestor, or -1
  std::uint64_t start;
  std::uint64_t end;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span at `now` with the process allocation count `allocs`.
  void begin(Layer l, std::uint64_t now, std::uint64_t allocs);
  /// Closes the innermost open span.
  void end(std::uint64_t now, std::uint64_t allocs);

  void begin(Layer l) { begin(l, read_tsc(), alloc_count()); }
  void end() { end(read_tsc(), alloc_count()); }

  void set_rep(std::uint32_t rep) { rep_ = rep; }
  std::size_t depth() const { return stack_.size(); }

  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  const std::vector<SpanRecord>& records() const { return records_; }

  /// Nanoseconds per tick, calibrated from construction until now.
  double ns_per_tick() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  std::string chrome_json() const;

 private:
  struct Open {
    Layer layer;
    std::uint64_t start;
    std::uint64_t start_allocs;
    std::uint64_t child_ticks;
    std::uint64_t child_allocs;
    std::int32_t record;
  };

  std::uint32_t rep_ = 0;
  std::vector<Open> stack_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)>
      recorded_{};
  std::vector<SpanRecord> records_;
  std::uint64_t tsc0_;
  std::chrono::steady_clock::time_point wall0_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* t, Layer l) : t_(t) {
    if (t_ != nullptr) t_->begin(l);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
