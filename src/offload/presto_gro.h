// Presto's modified GRO handler (Algorithm 2 + §3.2 of the paper).
//
// Differences from stock GRO:
//   * multiple segments are kept per flow (`segment_list`), so a reordered
//     packet does not eject the in-progress segment;
//   * flush() walks segments in sequence order and distinguishes loss from
//     reordering: a sequence gap *within* a flowcell means loss (packets of
//     one flowcell share a path and arrive in order) and is pushed up
//     immediately; a gap at a flowcell *boundary* may be reordering, so the
//     segment is held under an adaptive timeout of alpha * EWMA of recent
//     reordering durations (with a beta "recently merged" hold extension);
//   * retransmissions are pushed up immediately (stale flowcell IDs, or
//     overlap with already-delivered bytes).
//
// Cost: flows are never forgotten, so flush() counts the flows holding
// segments and stops after the last of them, visiting flows in the flow
// table's order. That order is the order of pushes, hence of ACKs and of
// every later event, so it must not change (DESIGN.md §11). A flow's
// segment list keeps its capacity across polls: once warm, the engine
// allocates nothing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "offload/gro.h"

namespace presto::offload {

/// Tunables for Presto GRO. The paper sets alpha = beta = 2 (§3.2).
struct PrestoGroConfig {
  double alpha = 2.0;  ///< Hold timeout = alpha * EWMA.
  double beta = 2.0;   ///< Extend hold if merged within EWMA / beta.
  sim::Time initial_ewma = 100 * sim::kMicrosecond;
  /// Asymmetric EWMA: a timeout must clear the *tail* of reordering
  /// durations, so it tracks upward quickly and decays slowly.
  double ewma_gain_up = 0.5;     ///< Weight of a sample above the EWMA.
  double ewma_gain_down = 0.03;  ///< Weight of a sample below the EWMA.
  std::uint32_t max_segment_bytes = net::kMaxTsoBytes;
  /// Misclassification feedback: if a timed-out ("presumed lost") gap is
  /// later filled by a stale arrival within this window, the event was
  /// really reordering — fold its duration into the EWMA so the timeout
  /// adapts upward instead of misfiring repeatedly.
  sim::Time misfire_window = 5 * sim::kMillisecond;
  /// Bounds on the learned EWMA: the floor keeps sub-interrupt-coalescing
  /// samples from arming a hair-trigger timeout; the ceiling keeps loss
  /// recovery responsive.
  sim::Time min_ewma = 20 * sim::kMicrosecond;
  sim::Time max_ewma = 2 * sim::kMillisecond;
};

class PrestoGro : public GroEngine {
 public:
  explicit PrestoGro(PushFn push, PrestoGroConfig cfg = {})
      : GroEngine(std::move(push)), cfg_(cfg) {}

  void on_packet(const net::Packet& p, sim::Time now) override;
  void flush(sim::Time now) override;
  bool has_held_segments() const override { return held_count_ > 0; }
  std::size_t held_segments() const override { return held_count_; }
  void digest_state(sim::Digest& d) const override;

  /// Current adaptive-timeout EWMA for a flow (testing/diagnostics);
  /// returns the initial EWMA if the flow is unknown.
  sim::Time ewma_for(const net::FlowKey& flow) const;

  /// Number of reordering-duration samples folded into EWMAs (diagnostics).
  std::uint64_t ewma_samples() const { return ewma_samples_; }

  /// Per-branch push counters (diagnostics; maps to Algorithm 2 lines).
  struct PushStats {
    std::uint64_t same_flowcell = 0;  ///< lines 3-5
    std::uint64_t in_order = 0;       ///< lines 7-10
    std::uint64_t overlap = 0;        ///< lines 11-13
    std::uint64_t timeout = 0;        ///< lines 14-17
    std::uint64_t stale = 0;          ///< line 20
    std::uint64_t held = 0;           ///< hold decisions
  };
  const PushStats& push_stats() const { return push_stats_; }

 private:
  struct FlowState {
    /// Segments being merged/held; kept mostly sorted, newest appended last.
    std::vector<Segment> segments;
    /// Flowcell ID of the most recent in-order data (f.lastFlowcell).
    std::uint64_t last_flowcell = 0;
    /// Next expected in-order sequence number (f.expSeq).
    std::uint64_t exp_seq = 0;
    /// EWMA of observed reordering durations at flowcell boundaries.
    double ewma_ns = 0;  // 0 => use cfg_.initial_ewma
    /// Bookkeeping for misfire feedback (see PrestoGroConfig).
    sim::Time last_timeout_at = 0;
    sim::Time last_timeout_gap_start = 0;
  };

  void ewma_update(FlowState& f, double sample_ns);
  bool timed_out(const FlowState& f, const Segment& s, sim::Time now) const;
  double ewma_ns(const FlowState& f) const {
    return f.ewma_ns > 0 ? f.ewma_ns : static_cast<double>(cfg_.initial_ewma);
  }

  using FlowMap = std::unordered_map<net::FlowKey, FlowState, net::FlowKeyHash>;

  PrestoGroConfig cfg_;
  FlowMap flows_;
  /// The entry on_packet looked up last (null before the first packet).
  FlowMap::value_type* last_flow_ = nullptr;
  /// Flows whose segment list is non-empty.
  std::size_t busy_flows_ = 0;
  std::size_t held_count_ = 0;
  std::uint64_t ewma_samples_ = 0;
  PushStats push_stats_;
};

}  // namespace presto::offload
