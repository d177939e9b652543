#include "net/topology.h"

#include <stdexcept>
#include <string>

namespace presto::net {

namespace {

/// Switch name `<prefix><n>`. Built by appending: GCC 12 reports a false
/// -Wrestrict on `"S" + std::to_string(n)` once inlined.
std::string numbered(char prefix, std::uint32_t n) {
  std::string name(1, prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace

const char* topology_kind_id(TopologyKind k) {
  switch (k) {
    case TopologyKind::kClos: return "clos";
    case TopologyKind::kAsymClos: return "asym";
    case TopologyKind::kOversubClos: return "oversub";
    case TopologyKind::kLeafMesh: return "mesh";
  }
  return "?";
}

bool parse_topology_kind(std::string_view name, TopologyKind* out) {
  for (TopologyKind k :
       {TopologyKind::kClos, TopologyKind::kAsymClos,
        TopologyKind::kOversubClos, TopologyKind::kLeafMesh}) {
    if (name == topology_kind_id(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

SwitchId Topology::add_switch(const std::string& name, bool is_leaf) {
  const auto id = static_cast<SwitchId>(switches_.size());
  switches_.push_back(std::make_unique<Switch>(sim_, id, name));
  (is_leaf ? leaves_ : spines_).push_back(id);
  return id;
}

void Topology::add_fabric_links(SwitchId leaf, SwitchId spine,
                                std::uint32_t gamma, const LinkConfig& cfg) {
  Switch& l = get_switch(leaf);
  Switch& s = get_switch(spine);
  for (std::uint32_t g = 0; g < gamma; ++g) {
    const PortId lp = l.add_port(cfg);
    const PortId sp = s.add_port(cfg);
    l.port(lp).connect(&s, sp);
    s.port(sp).connect(&l, lp);
    fabric_links_.push_back(FabricLink{leaf, lp, spine, sp, g});
  }
}

void Topology::add_mesh_links(SwitchId a, SwitchId b, std::uint32_t gamma,
                              const LinkConfig& cfg) {
  Switch& sa = get_switch(a);
  Switch& sb = get_switch(b);
  for (std::uint32_t g = 0; g < gamma; ++g) {
    const PortId pa = sa.add_port(cfg);
    const PortId pb = sb.add_port(cfg);
    sa.port(pa).connect(&sb, pb);
    sb.port(pb).connect(&sa, pa);
    fabric_links_.push_back(FabricLink{a, pa, b, pb, g});
    fabric_links_.push_back(FabricLink{b, pb, a, pa, g});
  }
}

HostId Topology::add_host(SwitchId edge, const LinkConfig& cfg) {
  Switch& e = get_switch(edge);
  const PortId ep = e.add_port(cfg);
  hosts_.push_back(HostAttachment{edge, ep, cfg});
  return static_cast<HostId>(hosts_.size() - 1);
}

void Topology::connect_host(HostId h, PacketSink* host_sink,
                            TxPort& host_uplink) {
  const HostAttachment& at = hosts_.at(h);
  Switch& e = get_switch(at.edge_switch);
  e.port(at.edge_port).connect(host_sink, 0);
  host_uplink.connect(&e, at.edge_port);
}

std::vector<HostId> Topology::hosts_on(SwitchId edge) const {
  std::vector<HostId> out;
  for (HostId h = 0; h < hosts_.size(); ++h) {
    if (hosts_[h].edge_switch == edge) out.push_back(h);
  }
  return out;
}

bool Topology::set_fabric_link_down(SwitchId leaf, SwitchId spine,
                                    std::uint32_t group, bool down) {
  const FabricLink* fl = find_fabric_link(leaf, spine, group);
  if (fl == nullptr) return false;
  get_switch(fl->leaf).port(fl->leaf_port).set_down(down);
  get_switch(fl->spine).port(fl->spine_port).set_down(down);
  return true;
}

const FabricLink* Topology::find_fabric_link(SwitchId leaf, SwitchId spine,
                                             std::uint32_t group) const {
  for (const FabricLink& fl : fabric_links_) {
    if (fl.leaf == leaf && fl.spine == spine && fl.group == group) return &fl;
  }
  return nullptr;
}

void Topology::set_switch_down(SwitchId sw, bool down) {
  Switch& s = get_switch(sw);
  for (std::size_t p = 0; p < s.port_count(); ++p) {
    s.port(static_cast<PortId>(p)).set_down(down);
  }
  for (const FabricLink& fl : fabric_links_) {
    if (fl.leaf == sw) get_switch(fl.spine).port(fl.spine_port).set_down(down);
    if (fl.spine == sw) get_switch(fl.leaf).port(fl.leaf_port).set_down(down);
  }
}

std::uint64_t Topology::total_drops() const {
  std::uint64_t sum = 0;
  for (const auto& sw : switches_) {
    sum += sw->total_counters().dropped_packets + sw->no_route_drops();
  }
  return sum;
}

std::uint64_t Topology::total_enqueued() const {
  std::uint64_t sum = 0;
  for (const auto& sw : switches_) sum += sw->total_counters().enqueued_packets;
  return sum;
}

std::unique_ptr<Topology> make_clos(sim::Simulation& sim,
                                    std::uint32_t num_spines,
                                    std::uint32_t num_leaves,
                                    std::uint32_t hosts_per_leaf,
                                    const TopoParams& params) {
  if (num_spines == 0 || num_leaves == 0) {
    throw std::invalid_argument("Clos requires >=1 spine and >=1 leaf");
  }
  auto topo = std::make_unique<Topology>(sim);
  std::vector<SwitchId> spines;
  spines.reserve(num_spines);
  for (std::uint32_t i = 0; i < num_spines; ++i) {
    spines.push_back(topo->add_switch(numbered('S', i + 1), false));
  }
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    const SwitchId leaf =
        topo->add_switch(numbered('L', i + 1), true);
    for (std::size_t si = 0; si < spines.size(); ++si) {
      LinkConfig fabric = params.fabric_link;
      if (si < params.spine_rate_scale.size()) {
        fabric.rate_bps *= params.spine_rate_scale[si];
      }
      topo->add_fabric_links(leaf, spines[si], params.gamma, fabric);
    }
    for (std::uint32_t h = 0; h < hosts_per_leaf; ++h) {
      topo->add_host(leaf, params.host_link);
    }
  }
  return topo;
}

std::unique_ptr<Topology> make_leaf_mesh(sim::Simulation& sim,
                                         std::uint32_t num_leaves,
                                         std::uint32_t hosts_per_leaf,
                                         const TopoParams& params) {
  if (num_leaves < 2) {
    throw std::invalid_argument("leaf mesh requires >=2 leaves");
  }
  auto topo = std::make_unique<Topology>(sim);
  std::vector<SwitchId> leaves;
  leaves.reserve(num_leaves);
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    leaves.push_back(topo->add_switch(numbered('M', i + 1), true));
  }
  // Hosts are added leaf-major so HostId / hosts_per_leaf matches the
  // logical rack, exactly like make_clos.
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    for (std::uint32_t j = i + 1; j < num_leaves; ++j) {
      topo->add_mesh_links(leaves[i], leaves[j], params.gamma,
                           params.fabric_link);
    }
    for (std::uint32_t h = 0; h < hosts_per_leaf; ++h) {
      topo->add_host(leaves[i], params.host_link);
    }
  }
  return topo;
}

std::unique_ptr<Topology> make_single_switch(sim::Simulation& sim,
                                             std::uint32_t num_hosts,
                                             const TopoParams& params) {
  auto topo = std::make_unique<Topology>(sim);
  const SwitchId sw = topo->add_switch("SW", true);
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    topo->add_host(sw, params.host_link);
  }
  return topo;
}

}  // namespace presto::net
