// Closed-loop congestion-aware re-weighting (DESIGN.md §17).
//
// The static controller computes weighted schedules only on hard failures;
// gray links and congestion are invisible to it. The ControlLoop closes the
// gap: every `period` it drains one telemetry flush round through the
// (faultable) control plane, distills the FabricCollector's cumulative
// per-switch reports into windowed per-tree congestion signals, and derives
// a new tree-weight vector in two passes:
//
//   1. a reactive proportional pass — each tree's desirability is
//      1/(1 + congestion score); the normalized desirabilities form a
//      target, and the weights take a gain-scaled step toward it, clamped
//      so no component moves more than `max_delta` per period and no
//      component falls below the `min_weight` floor (the floor keeps a
//      trickle of probe traffic on a quarantined tree so its recovery is
//      observable);
//   2. an MPC-flavored predictive pass — a small deterministic candidate
//      set (hold, half/full/double-gain reactive steps, a step back toward
//      uniform) is scored over a short horizon with a queue-drain +
//      expected-load cost model, and the cheapest candidate wins.
//
// The result is pushed through Controller::set_tree_weights +
// request_weighted_push(), so pushes ride the existing control plane and
// inherit ctl_fault delay/drop semantics. Two damping layers keep noisy
// telemetry from thrashing schedules: reports older than
// `stale_after_periods` periods are excluded from the signals (reusing the
// collector's staleness accounting), and a push is only issued when the
// new vector differs from the last pushed one by at least `deadband` in
// L-infinity norm.
//
// All arithmetic is plain double over deterministic inputs, so two runs of
// the same experiment produce bit-identical weight trajectories (the
// golden closed-loop digests pin this). A tick works in buffers the loop
// owns and reuses, so once they have grown on the first tick a tick
// allocates only when its bounded history's storage regrows.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "telemetry/fabric/report.h"

namespace presto::telemetry::fabric {
class FabricPlane;
}

namespace presto::controller {

class Controller;

struct ControlLoopConfig {
  bool enabled = false;
  /// Re-weighting period (also the telemetry flush cadence the loop
  /// drives; the plane's own flush_period may be 0).
  sim::Time period = 10 * sim::kMillisecond;
  /// Proportional step fraction toward the congestion target per period.
  double gain = 0.5;
  /// Per-period L-infinity bound on weight movement (hysteresis).
  double max_delta = 0.25;
  /// Minimum L-infinity change versus the last *pushed* vector before a
  /// new push is issued (damping against telemetry noise).
  double deadband = 0.02;
  /// Per-tree weight floor; keeps probe traffic on quarantined trees.
  double min_weight = 0.02;
  /// Predictive-pass lookahead steps (0 disables the MPC pass).
  std::uint32_t horizon = 4;
  /// Reports whose emission timestamp is older than this many periods are
  /// excluded from the signals (collector staleness accounting).
  std::uint32_t stale_after_periods = 4;
  /// Stop rescheduling ticks once now + period >= stop_after, so a capped
  /// run still quiesces (0 = run forever; benches just run_until past it).
  /// Not part of the one-line spec: scenarios derive it from their cap.
  sim::Time stop_after = 0;

  /// Compact spec token ("p10000:g0.50:d0.25:b0.020:f0.020:h4:a4", the
  /// `ctl=` value of a Scenario one-line spec); parse() inverts it.
  std::string spec() const;
  static bool parse(const std::string& text, ControlLoopConfig* out);
};

/// Windowed congestion signal for one spanning tree, distilled from the
/// collector's cumulative reports (deltas against the loop's previous
/// snapshot of each switch).
struct TreeSignal {
  double drop_rate = 0;   ///< dropped / transmitted packets in the window
  double depth_frac = 0;  ///< peak decayed queue HWM / buffer, at the root
  double util = 0;        ///< peak port utilization EWMA at the tree root
  double load_share = 0;  ///< share of label bytes in the window
};

/// Scalar congestion score >= 0 (0 = healthy). Drops dominate — a gray
/// link's loss signature outweighs any queue signal — then queue depth,
/// then utilization above a 70% knee.
double congestion_score(const TreeSignal& s);

/// The per-period re-weighting math, with the buffers it works in.
///
/// step() runs two passes. The reactive proportional pass steps from
/// `prev` toward the normalized desirability target. The predictive pass
/// then scores that step against a deterministic candidate family — hold,
/// half- and double-gain steps, a step toward uniform — and keeps the
/// cheapest under horizon_cost(); ties break toward the earlier candidate,
/// so the choice is deterministic. With cfg.horizon == 0 the predictive
/// pass is disabled and the reactive step is the result.
///
/// `prev` must be normalized (sums to 1). The result is normalized, moves
/// no component by more than `cfg.max_delta`, and respects the
/// `cfg.min_weight` floor provided `prev` does: every candidate is a
/// clamped step from `prev`. With all-equal scores the result converges
/// geometrically to uniform; a persistently congested tree loses weight
/// monotonically until it reaches its target share.
///
/// The congestion target is computed once per step and the floored
/// uniform vector once per (tree count, floor); the buffers grow on first
/// use and are reused, so a step allocates nothing after that.
class Reweighter {
 public:
  /// Writes the next weight vector into `out`, which must not alias
  /// `prev`. A `prev` that is empty or does not match `signals` in size
  /// is returned unchanged.
  void step(const std::vector<double>& prev,
            const std::vector<TreeSignal>& signals,
            const ControlLoopConfig& cfg, std::vector<double>& out);

 private:
  /// Normalizes non-negative `w` to sum 1 with every component >= `floor`.
  void normalize_with_floor(std::vector<double>& w, double floor);
  /// Cost of holding weight vector `w` for `cfg.horizon` periods under a
  /// queue-drain + expected-load model seeded from `signals`: per step each
  /// tree's normalized queue evolves as q' = max(0, q + load*w*n - service)
  /// with service capacity degraded by the tree's drop rate; the cost sums
  /// quadratic queue backlog, expected loss, and a control-effort penalty
  /// on the move away from `prev`.
  double horizon_cost(const std::vector<double>& w,
                      const std::vector<double>& prev,
                      const std::vector<TreeSignal>& signals,
                      const ControlLoopConfig& cfg);

  std::vector<double> target_;   ///< normalized desirability target
  std::vector<double> uniform_;  ///< floored uniform vector
  double uniform_floor_ = -1.0;  ///< floor uniform_ was built for
  std::vector<char> pinned_;     ///< water-filling pin set
  std::vector<double> queue_;    ///< horizon_cost's queue model
  /// Candidate steps besides "hold" (which is `prev` itself): the
  /// reactive step, half gain, double gain, toward uniform.
  std::array<std::vector<double>, 4> steps_;
};

class ControlLoop {
 public:
  /// `buffer_bytes` is the switch buffer capacity used to normalize queue
  /// depth signals (the experiment passes its configured value).
  ControlLoop(sim::Simulation& sim, Controller& ctl,
              telemetry::fabric::FabricPlane& plane, ControlLoopConfig cfg,
              std::uint64_t buffer_bytes);

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  /// Schedules the first tick (idempotent). No-op when the config is
  /// disabled or stop_after leaves no room for a single period.
  void start();

  const ControlLoopConfig& config() const { return cfg_; }

  /// Current weight belief (normalized; uniform until the first tick).
  const std::vector<double>& weights() const { return weights_; }
  /// The vector last handed to the controller (uniform until a push).
  const std::vector<double>& last_pushed() const { return last_pushed_; }

  // Diagnostics.
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t damped() const { return damped_; }
  std::uint64_t stale_skips() const { return stale_skips_; }

  /// One recorded re-weighting decision (bounded history, for the
  /// schedule-history artifact and the bench plots).
  struct HistoryEntry {
    sim::Time at = 0;
    bool pushed = false;
  };
  const std::vector<HistoryEntry>& history() const { return history_; }
  /// The weights of every history entry back to back: entry i's are the
  /// weights().size() values from i * weights().size(). One flat buffer,
  /// so recording a tick does not allocate a vector of its own.
  const std::vector<double>& history_weights() const {
    return history_weights_;
  }
  /// Renders the history as a "presto.schedule_history" JSON document.
  std::string history_json() const;

  /// Folds the loop's state into a soak digest (side-effect free).
  void digest_state(sim::Digest& d) const;

 private:
  void tick();
  /// Distills per-tree signals from the collector's latest reports into
  /// signals_, updating the per-switch cumulative snapshots for fresh
  /// reports and counting stale ones.
  void gather_signals();

  /// Previous cumulative per-label counters of one switch (the window
  /// baseline), advanced only when that switch's report is fresh.
  struct SwitchSnapshot {
    bool seen = false;  ///< a report of this switch was ever in the window
    std::uint64_t seq = 0;
    std::array<telemetry::fabric::LabelTotals,
               telemetry::fabric::kLabelBuckets>
        labels{};
  };

  sim::Simulation& sim_;
  Controller& ctl_;
  telemetry::fabric::FabricPlane& plane_;
  ControlLoopConfig cfg_;
  std::uint64_t buffer_bytes_;
  std::vector<double> weights_;
  std::vector<double> last_pushed_;
  /// Indexed by switch id (grown on first sight); the collector visits
  /// switches in id order, so signal aggregation order is deterministic.
  std::vector<SwitchSnapshot> snapshots_;
  /// Per-tree drop-signal peak-hold (bursty loss must persist across the
  /// periods that sample the Gilbert-Elliott good state).
  std::vector<double> drop_hold_;
  // Per-tick working buffers, reused across ticks.
  std::vector<TreeSignal> signals_;
  std::vector<std::uint64_t> tree_bytes_;  ///< window label bytes per tree
  std::vector<double> next_;
  Reweighter reweighter_;
  std::vector<HistoryEntry> history_;
  std::vector<double> history_weights_;
  std::uint64_t ticks_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t damped_ = 0;
  std::uint64_t stale_skips_ = 0;
  bool started_ = false;
};

}  // namespace presto::controller
