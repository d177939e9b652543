#include "controller/controller.h"

#include <algorithm>
#include <map>
#include <utility>

#include "controller/weights.h"
#include "net/types.h"

namespace presto::controller {

Controller::Controller(net::Topology& topo, ControllerConfig cfg)
    : topo_(topo), cfg_(cfg) {}

void Controller::install() {
  build_trees();
  install_labels();
  install_real_routes();
  install_failover_groups();
  build_schedules();
}

void Controller::build_trees() {
  trees_.clear();
  // gamma = parallel links per (leaf, spine) pair; assume uniform wiring and
  // derive it from the densest pair.
  std::uint32_t gamma = 0;
  for (const net::FabricLink& fl : topo_.fabric_links()) {
    gamma = std::max(gamma, fl.group + 1);
  }
  std::uint32_t id = 0;
  // Mesh mode (no spine tier): every leaf doubles as a transit node, so the
  // tree roots are the leaves themselves. A root is trivially connected to
  // itself, hence the `leaf == root` escape — never taken on a 2-tier Clos.
  const std::vector<net::SwitchId>& roots =
      topo_.spines().empty() ? topo_.leaves() : topo_.spines();
  for (net::SwitchId root : roots) {
    for (std::uint32_t g = 0; g < gamma; ++g) {
      // A (root, group) pair forms a spanning tree only if every leaf has
      // that parallel link.
      const bool complete = std::all_of(
          topo_.leaves().begin(), topo_.leaves().end(),
          [&](net::SwitchId leaf) {
            return leaf == root ||
                   leaf_uplink(leaf, root, g) != net::kInvalidPort;
          });
      if (complete) trees_.push_back(Tree{id++, root, g});
    }
  }
}

net::PortId Controller::leaf_uplink(net::SwitchId leaf, net::SwitchId spine,
                                    std::uint32_t group) const {
  for (const net::FabricLink& fl : topo_.fabric_links()) {
    if (fl.leaf == leaf && fl.spine == spine && fl.group == group) {
      return fl.leaf_port;
    }
  }
  return net::kInvalidPort;
}

net::PortId Controller::spine_downlink(net::SwitchId spine, net::SwitchId leaf,
                                       std::uint32_t group) const {
  for (const net::FabricLink& fl : topo_.fabric_links()) {
    if (fl.leaf == leaf && fl.spine == spine && fl.group == group) {
      return fl.spine_port;
    }
  }
  return net::kInvalidPort;
}

net::SwitchId Controller::backup_spine(net::SwitchId spine) const {
  const auto& spines = topo_.spines();
  for (std::size_t i = 0; i < spines.size(); ++i) {
    if (spines[i] == spine) return spines[(i + 1) % spines.size()];
  }
  return spine;
}

net::MacAddr Controller::label_for(net::HostId dst, const Tree& t) const {
  if (cfg_.switch_tunnels) {
    return net::tunnel_mac(topo_.host(dst).edge_switch, t.id);
  }
  return net::shadow_mac(dst, t.id);
}

void Controller::install_labels() {
  if (cfg_.switch_tunnels) {
    // One label per (destination leaf, tree) at every switch; the
    // destination leaf itself carries no entry and falls through to the
    // per-host L3 group for the final hop.
    for (net::SwitchId dst_leaf : topo_.leaves()) {
      for (const Tree& t : trees_) {
        const net::MacAddr label = net::tunnel_mac(dst_leaf, t.id);
        for (net::SwitchId leaf : topo_.leaves()) {
          if (leaf == dst_leaf) continue;
          net::PortId up = leaf_uplink(leaf, t.spine, t.group);
          if (up == net::kInvalidPort && leaf == t.spine) {
            // Mesh transit: this leaf is the tree's root, so the next hop
            // is the direct link toward the destination leaf.
            up = leaf_uplink(leaf, dst_leaf, t.group);
          }
          if (up != net::kInvalidPort) {
            topo_.get_switch(leaf).install_l2(label, up);
          }
        }
        for (net::SwitchId spine : topo_.spines()) {
          net::PortId down = spine_downlink(spine, dst_leaf, t.group);
          if (down == net::kInvalidPort) {
            down = spine_downlink(spine, dst_leaf, 0);
          }
          if (down != net::kInvalidPort) {
            topo_.get_switch(spine).install_l2(label, down);
          }
        }
      }
    }
    return;
  }
  for (net::HostId h = 0; h < topo_.host_count(); ++h) {
    const net::HostAttachment& at = topo_.host(h);
    const bool on_leaf =
        std::find(topo_.leaves().begin(), topo_.leaves().end(),
                  at.edge_switch) != topo_.leaves().end();
    if (!on_leaf) continue;  // spine-attached (north-south) hosts: no labels
    for (const Tree& t : trees_) {
      const net::MacAddr label = net::shadow_mac(h, t.id);
      // Destination leaf: deliver to the host port.
      topo_.get_switch(at.edge_switch).install_l2(label, at.edge_port);
      // Other leaves: forward up into the tree's spine.
      for (net::SwitchId leaf : topo_.leaves()) {
        if (leaf == at.edge_switch) continue;
        net::PortId up = leaf_uplink(leaf, t.spine, t.group);
        if (up == net::kInvalidPort && leaf == t.spine) {
          // Mesh transit: this leaf is the tree's root; forward on the
          // direct link toward the destination leaf (the tree's 2nd hop).
          up = leaf_uplink(leaf, at.edge_switch, t.group);
        }
        if (up != net::kInvalidPort) {
          topo_.get_switch(leaf).install_l2(label, up);
        }
      }
      // All spines know every label (enables failover through any spine).
      for (net::SwitchId spine : topo_.spines()) {
        net::PortId down = spine_downlink(spine, at.edge_switch, t.group);
        if (down == net::kInvalidPort) {
          down = spine_downlink(spine, at.edge_switch, 0);
        }
        if (down != net::kInvalidPort) {
          topo_.get_switch(spine).install_l2(label, down);
        }
      }
    }
  }
}

void Controller::install_real_routes() {
  for (net::HostId h = 0; h < topo_.host_count(); ++h) {
    const net::HostAttachment& at = topo_.host(h);
    topo_.get_switch(at.edge_switch).install_l2(net::real_mac(h),
                                                at.edge_port);
    const bool on_leaf =
        std::find(topo_.leaves().begin(), topo_.leaves().end(),
                  at.edge_switch) != topo_.leaves().end();
    if (on_leaf) {
      // Own leaf: a single-member L3 group so tunnel labels (no L2 entry at
      // the destination leaf) resolve the final hop by destination host.
      topo_.get_switch(at.edge_switch)
          .install_ecmp_group(h, {at.edge_port});
      // Spines: ECMP over the gamma downlinks to the host's leaf.
      for (net::SwitchId spine : topo_.spines()) {
        std::vector<net::PortId> members;
        for (const net::FabricLink& fl : topo_.fabric_links()) {
          if (fl.spine == spine && fl.leaf == at.edge_switch) {
            members.push_back(fl.spine_port);
          }
        }
        if (!members.empty()) {
          topo_.get_switch(spine).install_ecmp_group(h, std::move(members));
        }
      }
      // Other leaves: ECMP over all uplinks. On a mesh only the direct
      // ports toward the destination leaf qualify — a detour leaf has no L2
      // entry for the real MAC and would re-ECMP the packet forever.
      const bool mesh = topo_.spines().empty();
      for (net::SwitchId leaf : topo_.leaves()) {
        if (leaf == at.edge_switch) continue;
        std::vector<net::PortId> members;
        for (const net::FabricLink& fl : topo_.fabric_links()) {
          if (fl.leaf != leaf) continue;
          if (mesh && fl.spine != at.edge_switch) continue;
          members.push_back(fl.leaf_port);
        }
        if (!members.empty()) {
          topo_.get_switch(leaf).install_ecmp_group(h, std::move(members));
        }
      }
    } else {
      // Spine-attached host: leaves reach it via their uplinks to that spine.
      for (net::SwitchId leaf : topo_.leaves()) {
        std::vector<net::PortId> members;
        for (const net::FabricLink& fl : topo_.fabric_links()) {
          if (fl.leaf == leaf && fl.spine == at.edge_switch) {
            members.push_back(fl.leaf_port);
          }
        }
        if (!members.empty()) {
          topo_.get_switch(leaf).install_ecmp_group(h, std::move(members));
        }
      }
    }
  }
}

void Controller::install_failover_groups() {
  // Each leaf uplink's backup is the same-group uplink to the next spine.
  for (net::SwitchId leaf : topo_.leaves()) {
    for (const Tree& t : trees_) {
      const net::PortId primary = leaf_uplink(leaf, t.spine, t.group);
      if (primary == net::kInvalidPort) continue;
      const net::SwitchId alt = backup_spine(t.spine);
      net::PortId backup = leaf_uplink(leaf, alt, t.group);
      if (backup == net::kInvalidPort) backup = leaf_uplink(leaf, alt, 0);
      if (backup != net::kInvalidPort && backup != primary) {
        topo_.get_switch(leaf).install_failover(primary, backup);
      }
    }
  }
}

void Controller::build_schedules() {
  for (net::HostId src = 0; src < topo_.host_count(); ++src) {
    core::LabelMap& map = maps_[src];
    for (net::HostId dst = 0; dst < topo_.host_count(); ++dst) {
      if (src == dst) continue;
      const net::HostAttachment& at = topo_.host(dst);
      const bool on_leaf =
          std::find(topo_.leaves().begin(), topo_.leaves().end(),
                    at.edge_switch) != topo_.leaves().end();
      if (!on_leaf) continue;
      std::vector<net::MacAddr> labels;
      labels.reserve(trees_.size());
      for (const Tree& t : trees_) {
        labels.push_back(label_for(dst, t));
      }
      map.set_schedule(dst, std::move(labels));
      if (telem_ != nullptr) telem_->schedules_set->inc();
    }
  }
  // The schedules just written are exactly f(no failures, current weights):
  // seed the push memo so a later push with nothing changed (e.g. a flap
  // that fully healed before its reactions fired) skips the recompute.
  push_memo_key_ = push_memo_key();
  has_push_memo_ = true;
}

Controller::FailureTimeline Controller::schedule_link_failure(
    net::SwitchId leaf, net::SwitchId spine, std::uint32_t group,
    sim::Time at) {
  FailureTimeline tl{at, at + cfg_.failover_detect_delay,
                     at + cfg_.controller_react_delay};
  auto& sim = topo_.sim();
  sim.schedule_at(at, [this, leaf, spine, group] {
    // Repeated failure of an already-failed link (flap overlap) and failure
    // of a link that does not exist are both counted no-ops.
    if (failed_.count({leaf, spine, group}) != 0 ||
        topo_.find_fabric_link(leaf, spine, group) == nullptr) {
      if (telem_ != nullptr) telem_->noop_transitions->inc();
      return;
    }
    topo_.set_fabric_link_down(leaf, spine, group, true);
    failed_.insert({leaf, spine, group});
    if (telem_ != nullptr) telem_->link_failures->inc();
    // The adjacent leaf's pre-installed failover group redirects its uplink
    // traffic immediately (hardware fast failover).
  });
  sim.schedule_at(tl.failover, [this, leaf, spine, group] {
    // A restore may have landed between the failure and this detection
    // event: rerouting a healthy link would detour traffic until the next
    // full push, so re-check the failure set first.
    if (failed_.count({leaf, spine, group}) == 0) return;
    apply_ingress_reroute(leaf, spine, group);
  });
  schedule_weighted_push(tl.weighted);
  return tl;
}

void Controller::schedule_link_restore(net::SwitchId leaf,
                                        net::SwitchId spine,
                                        std::uint32_t group, sim::Time at) {
  auto& sim = topo_.sim();
  sim.schedule_at(at, [this, leaf, spine, group] {
    // Restoring a link that was never failed (or already restored) must not
    // touch ports or label routes.
    if (failed_.count({leaf, spine, group}) == 0) {
      if (telem_ != nullptr) telem_->noop_transitions->inc();
      return;
    }
    topo_.set_fabric_link_down(leaf, spine, group, false);
    failed_.erase({leaf, spine, group});
    if (telem_ != nullptr) telem_->link_restores->inc();
    // Recompute ingress routes for the affected trees from what is *still*
    // failed, rather than unconditionally restoring: a concurrent failure
    // of the same tree at another leaf keeps its backup-spine detour.
    reapply_tree_routes(spine, group);
  });
  schedule_weighted_push(at + cfg_.controller_react_delay);
}

void Controller::schedule_weighted_push(sim::Time at) {
  topo_.sim().schedule_at(
      at, [this] { fire_weighted_push(/*already_delayed=*/false); });
}

void Controller::fire_weighted_push(bool already_delayed) {
  if (ctl_fault_ && !already_delayed && ctl_fault_->extra_push_delay > 0) {
    if (telem_ != nullptr) telem_->pushes_delayed->inc();
    topo_.sim().schedule(ctl_fault_->extra_push_delay,
                         [this] { fire_weighted_push(true); });
    return;
  }
  if (ctl_fault_ && ctl_fault_->push_drop_probability > 0 &&
      ctl_fault_rng_.uniform() < ctl_fault_->push_drop_probability) {
    // The push is lost: vSwitches keep spraying on stale schedules.
    if (telem_ != nullptr) telem_->pushes_dropped->inc();
    return;
  }
  push_weighted_schedules();
}

std::vector<net::MacAddr> Controller::tree_labels_for_leaf(
    net::SwitchId leaf, const Tree& t) const {
  std::vector<net::MacAddr> labels;
  if (cfg_.switch_tunnels) {
    labels.push_back(net::tunnel_mac(leaf, t.id));
  } else {
    for (net::HostId h : topo_.hosts_on(leaf)) {
      labels.push_back(net::shadow_mac(h, t.id));
    }
  }
  return labels;
}

void Controller::point_label_at_spine(net::MacAddr label,
                                      net::SwitchId dst_leaf,
                                      net::SwitchId via_spine,
                                      std::uint32_t group) {
  for (net::SwitchId l : topo_.leaves()) {
    if (l == dst_leaf) continue;
    net::PortId up = leaf_uplink(l, via_spine, group);
    if (up == net::kInvalidPort) up = leaf_uplink(l, via_spine, 0);
    if (up != net::kInvalidPort) {
      topo_.get_switch(l).install_l2(label, up);
    }
  }
}

void Controller::reapply_tree_routes(net::SwitchId spine,
                                     std::uint32_t group) {
  for (const Tree& t : trees_) {
    if (t.spine != spine || t.group != group) continue;
    for (net::SwitchId dst_leaf : topo_.leaves()) {
      const bool still_failed =
          failed_.count({dst_leaf, t.spine, t.group}) != 0;
      const net::SwitchId via =
          still_failed ? backup_spine(t.spine) : t.spine;
      for (net::MacAddr label : tree_labels_for_leaf(dst_leaf, t)) {
        point_label_at_spine(label, dst_leaf, via, t.group);
      }
    }
  }
}

void Controller::set_pair_weights(net::HostId src, net::HostId dst,
                                  const std::vector<double>& tree_weights) {
  const auto counts = weight_counts(tree_weights);
  const auto order = interleave_schedule(counts);
  std::vector<net::MacAddr> labels;
  labels.reserve(order.size());
  for (std::size_t tree_idx : order) {
    labels.push_back(label_for(dst, trees_.at(tree_idx)));
  }
  if (!labels.empty()) {
    maps_[src].set_schedule(dst, std::move(labels));
    if (telem_ != nullptr) telem_->schedules_set->inc();
    // The map no longer matches f(failure set, weights): a later push must
    // recompute even if the key is unchanged.
    has_push_memo_ = false;
  }
}

void Controller::set_tree_weights(const std::vector<double>& tree_weights) {
  if (tree_weights == tree_weights_) return;
  tree_weights_ = tree_weights;
  ++weights_epoch_;
}

std::uint64_t Controller::push_memo_key() const {
  std::uint64_t k = net::mix64(0x5C4ED07E'5ULL ^ weights_epoch_);
  for (const auto& [leaf, spine, group] : failed_) {
    k = net::mix64(k ^ (static_cast<std::uint64_t>(leaf) << 40) ^
                   (static_cast<std::uint64_t>(spine) << 20) ^ group);
  }
  return k;
}

void Controller::apply_ingress_reroute(net::SwitchId dead_leaf,
                                       net::SwitchId dead_spine,
                                       std::uint32_t dead_group) {
  // Labels whose tree crosses the dead (spine -> dead_leaf) hop are
  // re-pointed at a backup spine on every ingress leaf.
  if (telem_ != nullptr) telem_->ingress_reroutes->inc();
  const net::SwitchId alt = backup_spine(dead_spine);
  for (const Tree& t : trees_) {
    if (t.spine != dead_spine || t.group != dead_group) continue;
    for (net::MacAddr label : tree_labels_for_leaf(dead_leaf, t)) {
      point_label_at_spine(label, dead_leaf, alt, t.group);
    }
  }
}

bool Controller::tree_alive(const Tree& t, net::SwitchId src_leaf,
                            net::SwitchId dst_leaf) const {
  if (failed_.count({src_leaf, t.spine, t.group}) != 0) return false;
  if (failed_.count({dst_leaf, t.spine, t.group}) != 0) return false;
  return true;
}

void Controller::push_weighted_schedules() {
  if (telem_ != nullptr) telem_->reweight_pushes->inc();
  const std::uint64_t key = push_memo_key();
  if (has_push_memo_ && key == push_memo_key_) {
    // The schedules are a pure function of (failure set, weights): equal
    // key means the vSwitch maps already hold exactly what this push would
    // write (a dropped push never reaches this point, and every computed
    // push updates maps and memo together), so the recompute — previously
    // re-run on every failure event even with the set unchanged — is a
    // provable no-op.
    ++push_recomputes_skipped_;
    return;
  }
  ++push_recomputes_;
  // Weighted interleave orders depend only on the (src leaf, dst leaf)
  // pair, so each order is computed once per push, not once per host pair.
  std::map<std::pair<net::SwitchId, net::SwitchId>, std::vector<std::size_t>>
      orders;
  for (net::HostId src = 0; src < topo_.host_count(); ++src) {
    const net::SwitchId src_edge = topo_.host(src).edge_switch;
    core::LabelMap& map = maps_[src];
    for (net::HostId dst = 0; dst < topo_.host_count(); ++dst) {
      if (src == dst) continue;
      const net::HostAttachment& at = topo_.host(dst);
      const bool on_leaf =
          std::find(topo_.leaves().begin(), topo_.leaves().end(),
                    at.edge_switch) != topo_.leaves().end();
      if (!on_leaf) continue;
      std::vector<net::MacAddr> labels;
      if (tree_weights_.empty()) {
        // Legacy pruned-uniform path: byte-identical to the pre-closed-loop
        // behavior, so runs without a control loop replay verbatim.
        for (const Tree& t : trees_) {
          if (tree_alive(t, src_edge, at.edge_switch)) {
            labels.push_back(label_for(dst, t));
          }
        }
      } else {
        auto [it, fresh] = orders.try_emplace({src_edge, at.edge_switch});
        if (fresh) {
          std::vector<double> w(trees_.size(), 0.0);
          double alive_sum = 0;
          for (std::size_t i = 0; i < trees_.size(); ++i) {
            if (!tree_alive(trees_[i], src_edge, at.edge_switch)) continue;
            w[i] = i < tree_weights_.size()
                       ? std::max(0.0, tree_weights_[i])
                       : 1.0;
            alive_sum += w[i];
          }
          if (alive_sum <= 0) {
            // Degenerate weights (all live trees at zero): fall back to a
            // uniform spray rather than blackholing the pair.
            for (std::size_t i = 0; i < trees_.size(); ++i) {
              if (tree_alive(trees_[i], src_edge, at.edge_switch)) w[i] = 1.0;
            }
          }
          it->second = interleave_schedule(weight_counts(w));
        }
        labels.reserve(it->second.size());
        for (std::size_t tree_idx : it->second) {
          labels.push_back(label_for(dst, trees_[tree_idx]));
        }
      }
      if (!labels.empty()) {
        map.set_schedule(dst, std::move(labels));
        if (telem_ != nullptr) telem_->schedules_set->inc();
      }
    }
  }
  push_memo_key_ = key;
  has_push_memo_ = true;
}

}  // namespace presto::controller
