// The benchmark's three workloads (README.md explains why each exists).
//
// A workload repeats an identical, deterministic rep. Each rep builds its
// testbed(s) from scratch, runs them, folds the simulated outputs into a
// digest, and returns the fidelity figures and the per-layer counts read
// from public accessors. With a Tracer the rep also opens spans around its
// calls into every layer; the simulated outputs must not change.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "stats/ddsketch.h"
#include "trace.h"

namespace perfbench {

/// Per-rep work counts, summed over every testbed the rep built. Counts a
/// workload cannot observe stay 0 (README.md lists them).
struct LayerCounts {
  std::uint64_t events = 0;           ///< Simulation::executed()
  std::uint64_t pending_max = 0;      ///< max pending events (traced only)
  std::uint64_t flows_offered = 0;    ///< flows/transfers issued
  std::uint64_t switch_enqueued = 0;  ///< frames accepted by switch ports
  std::uint64_t drop_queue_full = 0;
  std::uint64_t drop_loss_model = 0;
  std::uint64_t drop_link_down = 0;
  std::uint64_t drop_no_route = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t gro_pushed = 0;
  std::uint64_t gro_merges = 0;
  std::uint64_t gro_holds = 0;
  std::uint64_t gro_flush_timeout = 0;
  std::uint64_t retx_fast = 0;
  std::uint64_t rto = 0;
  std::uint64_t retx_bytes = 0;
  std::uint64_t acked_bytes = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t cells = 0;
  std::uint64_t suspicion_skips = 0;
  std::uint64_t loop_ticks = 0;
  std::uint64_t loop_pushes = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t reports = 0;
  std::uint64_t report_drops = 0;
  std::uint64_t fault_actions = 0;
  std::uint64_t violations = 0;
  std::uint64_t sketch_buckets = 0;
};

/// Thread CPU time per timing slice of a rep. Every rep of a workload cuts
/// the same slices at the same simulated instants, so slice k of one rep
/// does exactly the work of slice k of any other.
class LapTimer {
 public:
  LapTimer() : last_(thread_cpu_seconds()) {}
  void lap() {
    const double now = thread_cpu_seconds();
    laps_.push_back(now - last_);
    last_ = now;
  }
  /// Closes the last slice and hands over the laps.
  std::vector<double> finish() {
    lap();
    return std::move(laps_);
  }

 private:
  double last_;
  std::vector<double> laps_;
};

struct RepResult {
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;  ///< operations this rep
  std::uint64_t failed = 0;     ///< unfinished flows / failed scenarios
  std::uint64_t flows = 0;      ///< simulated flows (transfers) completed
  std::uint64_t scenarios = 0;  ///< testbeds built, run and checked
  presto::stats::DDSketch fct_ms;       ///< measured FCTs
  presto::stats::DDSketch mice_fct_ms;  ///< measured FCTs of flows < 100 KB
  double goodput_gbps = 0;
  LayerCounts counts;
  std::vector<double> laps;  ///< thread CPU seconds per timing slice
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds testbed number `i` up to its first event and returns the
  /// thread CPU seconds the build took; teardown is not timed.
  virtual double timed_build(std::size_t i) = 0;
  /// Runs one rep (`tr` null = untraced).
  virtual RepResult rep(Tracer* tr) = 0;
};

struct WorkloadSpec {
  const char* name;
  std::uint64_t default_seed;
  /// Rep digest pinned at the default seed.
  std::uint64_t pinned_digest;
  /// Nominal CPU seconds of one rep on the reference VM; the rep count of
  /// a run is derived from it, never from a clock.
  double nominal_rep_s;
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(const std::string& name);

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        std::uint64_t seed);

/// fuzz_check over an explicit scenario list (self-tests plant bugs here).
std::unique_ptr<Workload> make_fuzz_workload(
    std::vector<presto::check::Scenario> scenarios);

/// Scenarios in one fuzz_check rep.
inline constexpr std::uint32_t kFuzzBlock = 1000;

}  // namespace perfbench
