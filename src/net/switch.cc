#include "net/switch.h"

namespace presto::net {

void Switch::receive(Packet p, PortId in_port) {
  for (WireTap* o : observers_) o->on_switch_rx(id_, in_port, p);
  PortId out = resolve(p);
  if (out != kInvalidPort) out = apply_failover(out);
  if (out == kInvalidPort) {
    ++no_route_drops_;
    for (WireTap* o : observers_) {
      o->on_drop(id_, in_port, p, DropCause::kNoRoute);
    }
    return;
  }
  ports_[static_cast<std::size_t>(out)]->enqueue(std::move(p));
}

PortId Switch::resolve(const Packet& p) const {
  if (PortId out; l2_table_.find(p.dst_mac, &out)) {
    return out;
  }
  if (auto it = ecmp_groups_.find(p.dst_host); it != ecmp_groups_.end()) {
    const std::uint64_t h = mix64(p.flow.hash() ^ p.ecmp_extra ^ salt_);
    return ecmp_pick(it->second, h, [this](PortId m) {
      return ports_[static_cast<std::size_t>(m)]->down();
    });
  }
  return kInvalidPort;
}

PortId Switch::apply_failover(PortId out) const {
  if (!ports_[static_cast<std::size_t>(out)]->down()) return out;
  if (auto it = failover_.find(out); it != failover_.end()) {
    PortId backup = it->second;
    if (!ports_[static_cast<std::size_t>(backup)]->down()) return backup;
  }
  // No live backup: hand the frame to the down port, which accounts the drop.
  return out;
}

PortCounters Switch::total_counters() const {
  PortCounters sum;
  for (const auto& port : ports_) sum += port->counters();
  return sum;
}

}  // namespace presto::net
