// Output-queued L2 switch with label forwarding, ECMP groups, and
// fast-failover groups.
//
// Forwarding pipeline (per frame):
//   1. exact-match on destination MAC (real host MACs and Presto shadow-MAC
//      labels live in the same table, as on commodity chipsets — §3.1);
//   2. otherwise, an ECMP group keyed on the destination host hashes the
//      flow tuple (optionally salted with `ecmp_extra`, used by the
//      "Presto + ECMP" per-hop variant of §5);
//   3. no match => drop.
// If the chosen egress port is down and a failover group names a live backup
// port, the frame is redirected there (models OpenFlow fast-failover / BGP
// fast external failover, §3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/l2_table.h"
#include "net/packet.h"
#include "net/port.h"
#include "net/sink.h"
#include "net/tap.h"
#include "sim/simulation.h"

namespace presto::net {

/// ECMP member choice for flow hash `h`: the (h % live)-th live member of
/// `members`, or members[h % size] when none is live. Hashing over live
/// members only keeps a down link from blackholing the flows hashed onto
/// it (commodity ECMP rebalances on link-down). `down(m)` says whether
/// member `m`'s link is down. Allocation-free: the live members are
/// counted, then walked to the chosen one.
template <typename IsDown>
PortId ecmp_pick(const std::vector<PortId>& members, std::uint64_t h,
                 IsDown&& down) {
  if (members.empty()) return kInvalidPort;
  std::size_t live = 0;
  for (PortId m : members) live += down(m) ? 0 : 1;
  if (live == 0 || live == members.size()) {
    return members[h % members.size()];
  }
  std::uint64_t k = h % live;
  for (PortId m : members) {
    if (!down(m) && k-- == 0) return m;
  }
  return kInvalidPort;  // unreachable: k < live
}

class Switch : public PacketSink {
 public:
  Switch(sim::Simulation& sim, SwitchId id, std::string name)
      : sim_(sim), id_(id), name_(std::move(name)),
        salt_(mix64(0xABCD'0000ULL + id)) {}

  /// Adds an output port with the given link config; returns its id.
  PortId add_port(const LinkConfig& cfg) {
    ports_.push_back(std::make_unique<TxPort>(
        sim_, cfg, id_, static_cast<PortId>(ports_.size())));
    return static_cast<PortId>(ports_.size() - 1);
  }

  TxPort& port(PortId p) { return *ports_.at(static_cast<std::size_t>(p)); }
  const TxPort& port(PortId p) const {
    return *ports_.at(static_cast<std::size_t>(p));
  }
  std::size_t port_count() const { return ports_.size(); }

  /// Installs/overwrites an exact-match L2 entry (shadow MAC or real MAC).
  void install_l2(MacAddr mac, PortId out) { l2_table_.insert(mac, out); }
  void remove_l2(MacAddr mac) { l2_table_.erase(mac); }

  /// Installs an ECMP group: frames for `dst` (real-MAC forwarding) hash
  /// over `members`.
  void install_ecmp_group(HostId dst, std::vector<PortId> members) {
    ecmp_groups_[dst] = std::move(members);
  }

  /// Declares `backup` as the fast-failover port used when `primary` is down.
  void install_failover(PortId primary, PortId backup) {
    failover_[primary] = backup;
  }

  // PacketSink:
  void receive(Packet p, PortId in_port) override;

  SwitchId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Frames dropped because no forwarding entry matched.
  std::uint64_t no_route_drops() const { return no_route_drops_; }

  /// Installed exact-match L2 entries (rule-state accounting, §3.1).
  std::size_t l2_table_size() const { return l2_table_.size(); }

  /// Aggregate counters over all ports (loss-rate reporting, §4).
  PortCounters total_counters() const;

  /// Attaches `obs` in `role`'s slot of the switch (frame arrival,
  /// no-route drops) and of every output port (null detaches). Call after
  /// all ports exist.
  void observe(ObserverRole role, WireTap* obs) {
    observers_.set(role, obs);
    for (auto& port : ports_) port->set_observer(role, obs);
  }

  /// Attaches a checker wire tap to the switch and every output port (null
  /// disables), replacing only the previous checker.
  void set_tap(WireTap* tap) { observe(ObserverRole::kChecker, tap); }

 private:
  PortId resolve(const Packet& p) const;
  PortId apply_failover(PortId out) const;

  sim::Simulation& sim_;
  SwitchId id_;
  std::string name_;
  std::uint64_t salt_;
  std::vector<std::unique_ptr<TxPort>> ports_;
  L2Table l2_table_;
  std::unordered_map<HostId, std::vector<PortId>> ecmp_groups_;
  std::unordered_map<PortId, PortId> failover_;
  std::uint64_t no_route_drops_ = 0;
  ObserverSet observers_;
};

}  // namespace presto::net
