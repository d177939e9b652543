// Simulation invariant oracles.
//
// A Checker attaches to a fully built harness::Experiment through the wire
// taps (net::WireTap), the per-host GRO segment taps, and the FlowcellEngine
// dispatch tap, then audits the run against properties that must hold for
// *every* scenario, fault plan, and scheme:
//
//   * Conservation — every frame accepted into a sender's uplink queue is
//     either delivered into the destination ring or destroyed with an
//     attributed cause; at quiesce the books balance per flow and per
//     spanning-tree label.
//   * TCP sequence-space sanity — each sender's snd_una/snd_nxt/snd_high
//     ordering, SACK scoreboard bounds, FACK position, recovery window and
//     cwnd/ssthresh/RTO ranges (TcpSender::check_invariants); receivers
//     never hold out-of-order data at/below the in-order frontier, and the
//     delivered stream is a prefix of bytes that actually crossed the wire.
//   * GRO differential — every byte GRO pushes up the stack arrived on the
//     wire first; Presto GRO never merges across flowcell boundaries; at
//     quiesce the pushed coverage equals the arrived coverage (GRO cannot
//     wedge bytes in a held segment forever).
//   * Topology/label — frames entering a leaf from host h carry src h; a
//     shadow-MAC label names a live tree and the packet's real destination;
//     in fault-free runs a tree's frames only transit that tree's spine; the
//     final leaf hop matches the label's (or tunnel's) destination.
//   * Quarantine — the edge-suspicion policy never dispatches a flowcell on
//     a quarantined label while a healthy one exists.
//
// Callbacks are synchronous and never mutate the simulation; the Checker
// sits in each component's kChecker observer slot, so when none is armed an
// event pays one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/experiment.h"
#include "net/flow_key.h"
#include "net/tap.h"
#include "sim/digest.h"
#include "sim/time.h"
#include "tcp/range_set.h"

namespace presto::check {

enum class OracleKind : std::uint8_t {
  kConservation,
  kTcp,
  kGro,
  kTopology,
  kQuarantine,
  kLiveness,
  /// In-flight frame aging: a frame entered the network but was neither
  /// delivered nor destroyed-with-cause within the leak age (a mid-run
  /// conservation check — the quiesce-only balance sheet cannot see a
  /// silently eaten frame until the very end of a long soak).
  kLeak,
  /// Cross-scheme differential divergence (soak lock-step mode).
  kDifferential,
  /// In-order delivery: a scheme whose registry entry claims
  /// `reordering_free` delivered a fresh (first-sent) data frame below the
  /// flow's in-order frontier. Armed only for such schemes.
  kOrdering,
};

const char* oracle_kind_name(OracleKind k);

struct Violation {
  OracleKind kind;
  std::string message;
};

struct CheckerOptions {
  bool conservation = true;
  bool tcp = true;
  bool gro = true;
  bool topology = true;
  /// Pin each tree's frames to its computed spine. Only valid while no
  /// fault fires: failover bounce-back and controller reroutes legitimately
  /// carry a tree's label across another spine. The scenario runner clears
  /// this whenever the fault plan is non-empty.
  bool strict_tree_spine = true;
  /// Run the full TCP-invariant sweep every N frames delivered into a host
  /// ring (0 = only at finish()). Piggybacking on deliveries keeps the
  /// checker from scheduling its own events, which would defeat
  /// run-to-quiesce detection.
  std::uint32_t tcp_poll_every = 1024;
  /// In-order-delivery oracle for schemes registered as `reordering_free`
  /// (no-op for the rest). Like `strict_tree_spine`, only valid while no
  /// fault fires: a failover reroute legitimately races in-flight frames.
  bool ordering = true;
  /// Recording stops after this many violations (the count keeps rising).
  std::size_t max_violations = 64;
  /// Track every live data frame (payload > 0) from uplink enqueue to
  /// delivery/attributed drop so audit_epoch() can flag frames that aged out
  /// in flight. Costs one hash-map update per frame hop; the soak driver
  /// turns it on, plain scenario runs leave it off.
  bool leak = false;
};

class Checker final : public net::WireTap {
 public:
  explicit Checker(harness::Experiment& ex, CheckerOptions opt = {});

  /// Installs every tap. Call once, after the Experiment is built and
  /// before any workload starts.
  void arm();

  /// End-of-run audit. `drained` says the event queue emptied before the
  /// scenario cap; when false a liveness violation is recorded and the
  /// quiesce-only checks (conservation balance, GRO completeness) are
  /// skipped — frames legitimately remain in flight.
  void finish(bool drained);

  /// Mid-run audit at a soak epoch boundary: the full TCP sweep plus
  /// receiver-frontier checks (everything from finish() that is valid while
  /// frames are in flight), and — when leak tracking is on — a scan for
  /// frames that entered the network more than `leak_age` ago without being
  /// delivered or destroyed with cause. Each leaked frame is reported once.
  void audit_epoch(sim::Time now, sim::Time leak_age);

  /// Folds the checker's own books (per-label in-flight frame counts) into a
  /// checkpoint state digest (src/check/soak).
  void digest_state(sim::Digest& d) const;

  /// Records an externally detected violation (the scenario runner uses
  /// this for workload-completion liveness).
  void note(OracleKind kind, std::string message) {
    add_violation(kind, std::move(message));
  }

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return total_violations_ == 0; }
  std::uint64_t total_violations() const { return total_violations_; }
  /// Human-readable summary, one line per recorded violation.
  std::string report() const;

  /// Frames accepted into host rings (cheap progress signal for tests).
  std::uint64_t frames_delivered() const { return delivered_frames_; }

  // -- net::WireTap ---------------------------------------------------------
  void on_port_enqueue(std::uint32_t node, net::PortId port,
                       const net::Packet& p) override;
  void on_drop(std::uint32_t node, net::PortId port, const net::Packet& p,
               net::DropCause cause) override;
  void on_switch_rx(net::SwitchId sw, net::PortId in_port,
                    const net::Packet& p) override;
  void on_host_rx(net::HostId host, const net::Packet& p) override;

 private:
  /// Per-flow audit trail (both directions of a connection are distinct
  /// flows; pure-ACK flows simply have zero payload bytes).
  struct FlowAudit {
    std::uint64_t injected_frames = 0;
    std::uint64_t injected_payload = 0;
    std::uint64_t delivered_frames = 0;
    std::uint64_t delivered_payload = 0;
    std::uint64_t dropped_frames = 0;
    std::uint64_t dropped_payload = 0;
    /// Wire-arrival coverage at the destination ring (data bytes only).
    tcp::RangeSet arrived;
    /// GRO-pushed coverage at the destination.
    tcp::RangeSet pushed;
    /// Arrival coverage per flowcell (Presto GRO boundary differential).
    std::map<std::uint64_t, tcp::RangeSet> cell_arrived;
    /// Highest end-seq among fresh data frames delivered so far (ordering
    /// oracle): a reordering-free scheme must never deliver below it.
    std::uint64_t inorder_frontier = 0;
    /// One past the highest payload byte injected so far. A data frame
    /// injected below it carries bytes already sent once — a resend, even
    /// when the sender marks it fresh (after an RTO, the part of a
    /// go-back-N segment above snd_high makes the whole segment "fresh").
    std::uint64_t injected_high = 0;
    /// Byte ranges injected as resends; delivered frames touching them are
    /// exempt from the ordering oracle.
    tcp::RangeSet resent;
    /// Live in-flight frame tokens keyed (seq, payload): inserted when the
    /// origin host enqueues the frame, touched at every transit enqueue,
    /// erased on delivery or attributed drop. `count` handles a
    /// retransmission of an identical range racing the original.
    struct LiveToken {
      std::uint32_t count = 0;
      sim::Time last_touch = 0;
      bool reported = false;  ///< leak already flagged (dedup across audits)
    };
    std::map<std::pair<std::uint64_t, std::uint32_t>, LiveToken> live;
  };

  struct TreeAudit {
    std::uint64_t injected_frames = 0;
    std::uint64_t delivered_frames = 0;
    std::uint64_t dropped_frames = 0;
  };

  /// What is wired into a switch's input port.
  struct PortOrigin {
    enum Kind : std::uint8_t { kUnknown, kHost, kSwitch };
    Kind kind = kUnknown;
    std::uint32_t id = 0;
  };

  void add_violation(OracleKind kind, std::string message);
  void on_pushed_segment(net::HostId host, bool presto_gro,
                         const offload::Segment& s);
  void on_dispatch(const net::FlowKey& flow, std::uint64_t cell,
                   net::MacAddr label, bool chosen_suspect, bool all_suspect);
  void tcp_sweep(const char* when);
  /// Receiver-side frontier checks (valid mid-run, unlike the balance
  /// sheet): ooo above frontier, arrived covers delivered, snd_una within
  /// the receiver frontier, frontier within the stream.
  void receiver_checks();
  void live_insert(const net::Packet& p, sim::Time now);
  void live_touch(const net::Packet& p, sim::Time now);
  void live_erase(const net::Packet& p);
  PortOrigin origin(net::SwitchId sw, net::PortId in_port) const;
  /// Conservation bucket for a frame's forwarding label.
  std::uint32_t tree_key(const net::Packet& p) const;
  static std::string flow_name(const net::FlowKey& f);

  harness::Experiment& ex_;
  CheckerOptions opt_;
  bool armed_ = false;
  /// opt_.ordering && the scheme's registry entry claims reordering_free.
  bool ordering_armed_ = false;

  // Topology shadow state (built in arm()).
  std::vector<std::vector<PortOrigin>> origin_;   ///< [switch][in_port]
  std::vector<net::SwitchId> attach_switch_;      ///< per host
  std::vector<bool> is_leaf_;
  std::vector<net::SwitchId> tree_spine_;         ///< per tree id

  // Audit state.
  std::unordered_map<net::FlowKey, FlowAudit, net::FlowKeyHash> flows_;
  std::map<std::uint32_t, TreeAudit> trees_;
  std::uint64_t delivered_frames_ = 0;
  std::uint64_t total_violations_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace presto::check
