// FabricCollector: the central sink of the telemetry plane
// (DESIGN.md §15.2–15.3).
//
// Reports travel through the (faultable) control plane, so the collector
// assumes nothing about delivery: frames can arrive late, reordered,
// duplicated, or never. Because every report is cumulative, acceptance is
// trivially idempotent — only a report with a higher `seq` than the last
// accepted one replaces a switch's state; everything else just bumps the
// duplicate/reorder accounting. Sequence gaps are counted as lost reports.
//
// health() layers anomaly detection over the latest accepted state:
// spray-imbalance index per label group, per-label loss outliers (the
// gray-link signature), persistent per-port hotspots, silent switches
// (staleness), and a microburst ranking. The result is rendered as a
// schema-versioned `fabric_health` JSON document.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/time.h"
#include "telemetry/fabric/config.h"
#include "telemetry/fabric/report.h"
#include "telemetry/json.h"

namespace presto::telemetry::fabric {

/// Schema stamped into every fabric_health document.
inline constexpr const char* kHealthSchemaName = "presto.fabric_health";
inline constexpr int kHealthSchemaVersion = 1;

class FabricCollector {
 public:
  explicit FabricCollector(const FabricConfig& cfg) : cfg_(cfg) {}

  /// Per-switch delivery accounting.
  struct Accounting {
    std::uint64_t received = 0;    ///< frames delivered (any seq)
    std::uint64_t accepted = 0;    ///< frames that advanced the state
    std::uint64_t duplicates = 0;  ///< seq equal to the last accepted
    std::uint64_t reordered = 0;   ///< seq older than the last accepted
    std::uint64_t lost = 0;        ///< sequence gaps (never-delivered frames)
    std::uint64_t last_seq = 0;
    sim::Time last_accept_at = 0;
    bool has_report = false;
  };

  /// Declares a switch the collector should hear from; a declared switch
  /// that never reports shows up as silent. Called by the plane at attach.
  void expect_switch(std::uint32_t id, std::size_t ports);

  /// Delivers one report frame at `arrival` (idempotent; see above). An
  /// accepted report becomes the switch's latest, leaving `r` holding the
  /// previous latest's header, ports and sketch pointer — storage the
  /// caller reuses for its next snapshot, which overwrites every field.
  /// The label rows, plain values, are copied rather than handed back,
  /// and not even copied when the latest already holds them (see
  /// TelemetryReport::labels_seq). A duplicate or stale frame leaves `r`
  /// untouched.
  void on_report(TelemetryReport&& r, sim::Time arrival);

  const Accounting* accounting(std::uint32_t id) const {
    const auto it = switches_.find(id);
    return it == switches_.end() ? nullptr : &it->second.acct;
  }
  std::size_t switch_count() const { return switches_.size(); }

  /// Latest accepted report of a switch, or null before its first
  /// acceptance.
  const TelemetryReport* latest_report(std::uint32_t id) const {
    const auto it = switches_.find(id);
    return it == switches_.end() || !it->second.acct.has_report
               ? nullptr
               : &it->second.latest;
  }

  /// Visits every switch's latest accepted report in switch-id order
  /// (deterministic traversal; switches that never reported are skipped).
  /// The controller's closed-loop re-weighting pass consumes the reports
  /// this way.
  template <typename Fn>
  void for_each_latest(Fn&& fn) const {
    for (const auto& [id, st] : switches_) {
      if (st.acct.has_report) fn(id, st.latest);
    }
  }

  /// Spray-imbalance index over the spanning-tree label groups:
  /// max/mean of per-label tx bytes across labels that carried traffic
  /// (1.0 = perfectly balanced, 0 when no label traffic yet).
  double imbalance_index() const;

  /// Renders the fabric_health document for the state known at `now`.
  void render_health(JsonWriter& w, sim::Time now) const;
  std::string health_json(sim::Time now) const;

  /// Folds the collector's protocol-visible state (soak digests).
  void digest_state(sim::Digest& d) const;

 private:
  struct SwitchState {
    Accounting acct;
    TelemetryReport latest;
    /// Consecutive accepted reports with util_ewma >= hotspot_util, per port.
    std::vector<std::uint32_t> hot_streak;
  };

  struct LabelAgg {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t drop_packets = 0;
  };

  /// Fabric-wide per-label totals + lossless sketch merge over the latest
  /// report of every switch.
  void aggregate_labels(std::vector<LabelAgg>& agg,
                        std::vector<stats::DDSketch>& depth) const;

  FabricConfig cfg_;
  /// Ordered by switch id so every traversal (JSON, digest) is stable.
  std::map<std::uint32_t, SwitchState> switches_;
};

}  // namespace presto::telemetry::fabric
