// Datapath observer interface: the one path by which the fabric monitors,
// the telemetry session and the invariant checkers see frames move.
//
// A WireTap sees every datapath event that creates, moves, terminates, or
// destroys a frame: acceptance into a transmit queue, serialization onto
// the wire, arrival at a switch or host, and every drop with its cause.
// TxPort, Switch and Host each keep an ObserverSet (one slot per
// ObserverRole) and notify it from one place per event; with nothing
// attached an event costs one predictable branch, so benches and paper runs
// never pay for observers they did not ask for.
//
// Node identifiers follow one convention: switch ids are dense from 0;
// host-owned ports (the uplink) set kHostNodeBit so one 32-bit node id
// names either kind.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/packet.h"
#include "net/types.h"

namespace presto::net {

/// Marks a node id as naming a host rather than a switch.
inline constexpr std::uint32_t kHostNodeBit = 0x8000'0000u;

/// Why a frame ceased to exist. The first kCountedDropCauses values are the
/// causes telemetry counts; their numbering is the Tracer kDrop operand and
/// the fabric PortReport::drops index, so it is pinned. The causes after
/// them refine (kLinkDownTx) or extend (kHostRing) that set for the
/// checkers.
enum class DropCause : std::uint8_t {
  kQueueFull = 0,   ///< Drop-tail: queue byte cap exceeded at enqueue.
  kLinkDown = 1,    ///< Port down (or unconnected) at enqueue time.
  kNoRoute = 2,     ///< No forwarding entry matched at a switch.
  kLossModel = 3,   ///< Eaten by the Gilbert–Elliott degraded-link model.
  kCorrupt = 4,     ///< Random corruption (FCS failure at the receiver).
  kLinkDownTx = 5,  ///< Port went down while the frame sat in the queue.
  kHostRing = 6,    ///< Receive-ring overflow (receive-livelock protection).
};

/// The enum's earlier name, still spelled by perfbench's forwarding tap.
using TapDropCause = DropCause;

/// Causes with a telemetry counter: [0, kCountedDropCauses).
inline constexpr std::size_t kCountedDropCauses = 5;

/// The cause as counters, traces and fabric reports count it: a frame lost
/// because its port went down while it was queued counts as link_down.
constexpr DropCause counted_cause(DropCause c) {
  return c == DropCause::kLinkDownTx ? DropCause::kLinkDown : c;
}

/// Datapath observer. All callbacks fire synchronously at the point the
/// event happens; implementations must not mutate the simulation from
/// inside a callback. Default implementations ignore everything so an
/// observer overrides only what it needs.
class WireTap {
 public:
  virtual ~WireTap() = default;

  /// `p` was accepted into the transmit queue of `node`'s local port
  /// `port`. For host uplinks (`node & kHostNodeBit`) this is the moment a
  /// frame is injected into the network.
  virtual void on_port_enqueue(std::uint32_t node, PortId port,
                               const Packet& p) {
    (void)node; (void)port; (void)p;
  }

  /// The form of on_port_enqueue that TxPort calls: `depth` is the queue
  /// occupancy in bytes including `p`. The default forwards to
  /// on_port_enqueue, so observers that do not need the depth override
  /// only that.
  virtual void on_enqueue(std::uint32_t node, PortId port, const Packet& p,
                          std::uint64_t depth) {
    (void)depth;
    on_port_enqueue(node, port, p);
  }

  /// `p` finished serializing out of `node`/`port`; `depth` is the queue
  /// occupancy left behind. Fires before the port decides whether the wire
  /// delivers the frame (link down, loss model), so a frame can see on_tx
  /// and then on_drop.
  virtual void on_tx(std::uint32_t node, PortId port, const Packet& p,
                     std::uint64_t depth) {
    (void)node; (void)port; (void)p; (void)depth;
  }

  /// `p` was destroyed at `node`/`port` for `cause`. Every frame that was
  /// previously enqueued and is not delivered must pass through here
  /// exactly once (the conservation oracle counts on it).
  virtual void on_drop(std::uint32_t node, PortId port, const Packet& p,
                       DropCause cause) {
    (void)node; (void)port; (void)p; (void)cause;
  }

  /// `p` arrived at switch `sw` on local input port `in_port` (before the
  /// forwarding decision).
  virtual void on_switch_rx(SwitchId sw, PortId in_port, const Packet& p) {
    (void)sw; (void)in_port; (void)p;
  }

  /// `p` was accepted into host `host`'s NIC receive ring (ring-overflow
  /// drops fire on_drop with kHostRing instead).
  virtual void on_host_rx(HostId host, const Packet& p) {
    (void)host; (void)p;
  }
};

/// Who an attached observer is. A component has one slot per role, so
/// replacing one observer (a checker swapped for a forwarding tap) leaves
/// the others attached. Observers are notified in role order.
enum class ObserverRole : std::uint8_t {
  kMonitor,    ///< In-fabric telemetry monitor (telemetry/fabric).
  kChecker,    ///< Invariant checker (src/check) or a tap in front of it.
  kTelemetry,  ///< Telemetry session: counters, traces, spans.
};
inline constexpr std::size_t kObserverRoles = 3;

/// The observers attached to one datapath component. Iterating it visits
/// the occupied slots only, so with nothing attached a notification is one
/// compare; attaching never allocates.
class ObserverSet {
 public:
  /// Puts `obs` in `role`'s slot, replacing its occupant (null empties it).
  void set(ObserverRole role, WireTap* obs) {
    by_role_[static_cast<std::size_t>(role)] = obs;
    count_ = 0;
    for (WireTap* o : by_role_) {
      if (o != nullptr) active_[count_++] = o;
    }
  }

  WireTap* const* begin() const { return active_.data(); }
  WireTap* const* end() const { return active_.data() + count_; }

 private:
  std::array<WireTap*, kObserverRoles> by_role_{};
  std::array<WireTap*, kObserverRoles> active_{};  ///< occupied, role order
  std::uint8_t count_ = 0;
};

}  // namespace presto::net
