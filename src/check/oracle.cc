#include "check/oracle.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "core/flowcell_engine.h"

namespace presto::check {
namespace {

/// Conservation bucket for frames carrying a real (label-free) MAC.
constexpr std::uint32_t kNoTreeKey = 0xFFFF'FFFFu;

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

const char* oracle_kind_name(OracleKind k) {
  switch (k) {
    case OracleKind::kConservation: return "conservation";
    case OracleKind::kTcp: return "tcp";
    case OracleKind::kGro: return "gro";
    case OracleKind::kTopology: return "topology";
    case OracleKind::kQuarantine: return "quarantine";
    case OracleKind::kLiveness: return "liveness";
    case OracleKind::kLeak: return "leak";
    case OracleKind::kDifferential: return "differential";
    case OracleKind::kOrdering: return "ordering";
  }
  return "?";
}

Checker::Checker(harness::Experiment& ex, CheckerOptions opt)
    : ex_(ex), opt_(opt) {}

std::string Checker::flow_name(const net::FlowKey& f) {
  return strf("H%u:%u->H%u:%u", f.src_host, f.src_port, f.dst_host,
              f.dst_port);
}

void Checker::add_violation(OracleKind kind, std::string message) {
  ++total_violations_;
  if (violations_.size() < opt_.max_violations) {
    violations_.push_back({kind, std::move(message)});
  }
}

std::string Checker::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += strf("[%s] ", oracle_kind_name(v.kind));
    out += v.message;
    out += '\n';
  }
  if (total_violations_ > violations_.size()) {
    out += strf("... %" PRIu64 " more violations suppressed\n",
                total_violations_ - violations_.size());
  }
  return out;
}

void Checker::arm() {
  if (armed_) return;
  armed_ = true;

  ordering_armed_ =
      opt_.ordering &&
      lb::SchemeRegistry::instance().info(ex_.config().scheme).reordering_free;

  net::Topology& topo = ex_.topo();

  // Shadow wiring tables: who sits behind each switch input port, which
  // switch each host hangs off, which switches are leaves, and which spine
  // owns each spanning tree.
  origin_.resize(topo.switch_count());
  is_leaf_.assign(topo.switch_count(), false);
  for (net::SwitchId s : topo.leaves()) is_leaf_[s] = true;
  auto put_origin = [this](net::SwitchId sw, net::PortId port,
                           PortOrigin::Kind kind, std::uint32_t id) {
    if (port < 0) return;
    auto& row = origin_[sw];
    if (row.size() <= static_cast<std::size_t>(port)) row.resize(port + 1);
    row[port] = PortOrigin{kind, id};
  };
  for (const net::FabricLink& fl : topo.fabric_links()) {
    // A frame the leaf sends through leaf_port arrives at the spine on
    // spine_port, and vice versa (TxPort::connect wiring).
    put_origin(fl.spine, fl.spine_port, PortOrigin::kSwitch, fl.leaf);
    put_origin(fl.leaf, fl.leaf_port, PortOrigin::kSwitch, fl.spine);
  }
  attach_switch_.resize(topo.host_count());
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    const net::HostAttachment& at = topo.host(h);
    attach_switch_[h] = at.edge_switch;
    put_origin(at.edge_switch, at.edge_port, PortOrigin::kHost, h);
  }
  tree_spine_.clear();
  for (const controller::Tree& t : ex_.ctl().trees()) {
    tree_spine_.push_back(t.spine);
  }

  for (net::SwitchId s = 0; s < topo.switch_count(); ++s) {
    topo.get_switch(s).set_tap(this);
  }
  for (net::HostId h = 0; h < topo.host_count(); ++h) {
    host::Host& host = ex_.host(h);
    host.set_tap(this);
    if (opt_.gro) {
      const bool presto = host.config().gro == host::GroKind::kPresto;
      host.add_segment_tap([this, h, presto](const offload::Segment& s) {
        on_pushed_segment(h, presto, s);
      });
    }
    if (auto* eng = dynamic_cast<core::FlowcellEngine*>(host.lb())) {
      eng->set_dispatch_tap([this](const net::FlowKey& flow,
                                   std::uint64_t cell, net::MacAddr label,
                                   bool chosen_suspect, bool all_suspect) {
        on_dispatch(flow, cell, label, chosen_suspect, all_suspect);
      });
    }
  }
}

Checker::PortOrigin Checker::origin(net::SwitchId sw,
                                    net::PortId in_port) const {
  if (sw >= origin_.size() || in_port < 0 ||
      static_cast<std::size_t>(in_port) >= origin_[sw].size()) {
    return {};
  }
  return origin_[sw][in_port];
}

std::uint32_t Checker::tree_key(const net::Packet& p) const {
  return net::is_shadow_mac(p.dst_mac) ? net::mac_tree(p.dst_mac)
                                       : kNoTreeKey;
}

void Checker::live_insert(const net::Packet& p, sim::Time now) {
  auto& tok = flows_[p.flow].live[{p.seq, p.payload}];
  ++tok.count;
  tok.last_touch = now;
  tok.reported = false;
}

void Checker::live_touch(const net::Packet& p, sim::Time now) {
  const auto fit = flows_.find(p.flow);
  if (fit == flows_.end()) return;
  const auto it = fit->second.live.find({p.seq, p.payload});
  if (it != fit->second.live.end()) it->second.last_touch = now;
}

void Checker::live_erase(const net::Packet& p) {
  const auto fit = flows_.find(p.flow);
  if (fit == flows_.end()) return;
  auto& live = fit->second.live;
  const auto it = live.find({p.seq, p.payload});
  if (it == live.end()) return;
  if (--it->second.count == 0) live.erase(it);
}

void Checker::on_port_enqueue(std::uint32_t node, net::PortId port,
                              const net::Packet& p) {
  (void)port;
  if ((node & net::kHostNodeBit) == 0) {
    // Transit hop: not an injection, but the frame is demonstrably still
    // moving — refresh its leak clock.
    if (opt_.leak && p.payload > 0) live_touch(p, ex_.sim().now());
    return;
  }
  const net::HostId h = node & ~net::kHostNodeBit;
  if (opt_.topology && p.src_host != h) {
    add_violation(OracleKind::kTopology,
                  strf("host H%u injected a frame claiming src H%u (%s)", h,
                       p.src_host, flow_name(p.flow).c_str()));
  }
  if (opt_.conservation || ordering_armed_) {
    FlowAudit& fa = flows_[p.flow];
    if (opt_.conservation) {
      ++fa.injected_frames;
      fa.injected_payload += p.payload;
      ++trees_[tree_key(p)].injected_frames;
    }
    if (ordering_armed_ && p.payload > 0) {
      const std::uint64_t end = p.seq + p.payload;
      if (p.seq < fa.injected_high) fa.resent.add(p.seq, end);
      if (end > fa.injected_high) fa.injected_high = end;
    }
  }
  if (opt_.leak && p.payload > 0) live_insert(p, ex_.sim().now());
}

void Checker::on_drop(std::uint32_t node, net::PortId port,
                      const net::Packet& p, net::DropCause cause) {
  (void)port;
  if (!opt_.conservation && !opt_.leak) return;
  // At-enqueue rejection by the sender's own uplink: the frame never made
  // it into the network, so it never entered the books either.
  if ((node & net::kHostNodeBit) != 0 &&
      (cause == net::DropCause::kQueueFull ||
       cause == net::DropCause::kLinkDown) &&
      (node & ~net::kHostNodeBit) == p.src_host) {
    return;
  }
  if (opt_.conservation) {
    FlowAudit& fa = flows_[p.flow];
    ++fa.dropped_frames;
    fa.dropped_payload += p.payload;
    ++trees_[tree_key(p)].dropped_frames;
  }
  // An attributed drop is a legitimate end of life: the frame is off the
  // leak books.
  if (opt_.leak && p.payload > 0) live_erase(p);
}

void Checker::on_switch_rx(net::SwitchId sw, net::PortId in_port,
                           const net::Packet& p) {
  if (!opt_.topology) return;
  const PortOrigin o = origin(sw, in_port);
  if (o.kind == PortOrigin::kHost && p.src_host != o.id) {
    add_violation(OracleKind::kTopology,
                  strf("S%u port %d: frame from host H%u claims src H%u (%s)",
                       sw, in_port, o.id, p.src_host,
                       flow_name(p.flow).c_str()));
  }
  if (!net::is_shadow_mac(p.dst_mac)) return;

  const std::uint32_t tree = net::mac_tree(p.dst_mac);
  if (tree >= tree_spine_.size()) {
    add_violation(OracleKind::kTopology,
                  strf("S%u: frame labelled with unknown tree %u (%s)", sw,
                       tree, flow_name(p.flow).c_str()));
    return;
  }
  if (!is_leaf_[sw] && opt_.strict_tree_spine && tree_spine_[tree] != sw) {
    add_violation(
        OracleKind::kTopology,
        strf("tree %u frame crossed spine S%u but the tree is rooted at S%u "
             "(%s)",
             tree, sw, tree_spine_[tree], flow_name(p.flow).c_str()));
  }
  if (net::is_tunnel_mac(p.dst_mac)) {
    const net::SwitchId leaf = net::tunnel_leaf(p.dst_mac);
    if (leaf >= is_leaf_.size() || !is_leaf_[leaf]) {
      add_violation(OracleKind::kTopology,
                    strf("S%u: tunnel label names non-leaf %u (%s)", sw, leaf,
                         flow_name(p.flow).c_str()));
    } else if (is_leaf_[sw] && o.kind == PortOrigin::kSwitch && leaf != sw &&
               tree_spine_[tree] != sw) {
      // (A mesh tree rooted at this leaf legitimately transits it.)
      add_violation(
          OracleKind::kTopology,
          strf("tunnel for leaf S%u descended into leaf S%u (%s)", leaf, sw,
               flow_name(p.flow).c_str()));
    }
    return;
  }
  const net::HostId label_host = net::mac_host(p.dst_mac);
  if (label_host >= attach_switch_.size()) {
    add_violation(OracleKind::kTopology,
                  strf("S%u: label names unknown host H%u (%s)", sw,
                       label_host, flow_name(p.flow).c_str()));
    return;
  }
  if (label_host != p.dst_host) {
    add_violation(
        OracleKind::kTopology,
        strf("label host H%u != packet destination H%u at S%u (%s)",
             label_host, p.dst_host, sw, flow_name(p.flow).c_str()));
  }
  if (is_leaf_[sw] && o.kind == PortOrigin::kSwitch &&
      attach_switch_[label_host] != sw && tree_spine_[tree] != sw) {
    // (Second condition: a mesh tree rooted at this leaf transits it.)
    add_violation(
        OracleKind::kTopology,
        strf("frame for H%u (leaf S%u) descended into leaf S%u (%s)",
             label_host, attach_switch_[label_host], sw,
             flow_name(p.flow).c_str()));
  }
}

void Checker::on_host_rx(net::HostId host, const net::Packet& p) {
  if (opt_.topology) {
    if (p.dst_host != host) {
      add_violation(OracleKind::kTopology,
                    strf("frame for H%u delivered into H%u's ring (%s)",
                         p.dst_host, host, flow_name(p.flow).c_str()));
    } else if (net::is_shadow_mac(p.dst_mac)) {
      if (net::is_tunnel_mac(p.dst_mac)) {
        const net::SwitchId leaf = net::tunnel_leaf(p.dst_mac);
        if (host < attach_switch_.size() && attach_switch_[host] != leaf) {
          add_violation(
              OracleKind::kTopology,
              strf("tunnel for leaf S%u terminated at H%u on leaf S%u (%s)",
                   leaf, host, attach_switch_[host],
                   flow_name(p.flow).c_str()));
        }
      } else if (net::mac_host(p.dst_mac) != host) {
        add_violation(OracleKind::kTopology,
                      strf("label for H%u terminated at H%u (%s)",
                           net::mac_host(p.dst_mac), host,
                           flow_name(p.flow).c_str()));
      }
    }
  }
  if (opt_.conservation || opt_.gro || opt_.tcp) {
    FlowAudit& fa = flows_[p.flow];
    ++fa.delivered_frames;
    fa.delivered_payload += p.payload;
    ++trees_[tree_key(p)].delivered_frames;
    if (p.payload > 0 && p.dst_host == host) {
      const std::uint64_t end = p.seq + p.payload;
      fa.arrived.add(p.seq, end);
      if (opt_.gro) fa.cell_arrived[p.flowcell_id].add(p.seq, end);
      // Ordering oracle: fresh data enters the network in increasing seq
      // order, so a reordering-free scheme (FIFO paths, no mid-flight path
      // change) must deliver it monotonically too. Resends are exempt —
      // they legitimately revisit old sequence space — whether the sender
      // flagged them or the injection record caught them.
      if (ordering_armed_ && !p.is_retx &&
          !fa.resent.intersects(p.seq, end)) {
        if (end <= fa.inorder_frontier) {
          add_violation(
              OracleKind::kOrdering,
              strf("%s: fresh frame [%" PRIu64 ", %" PRIu64
                   ") delivered behind the in-order frontier %" PRIu64,
                   flow_name(p.flow).c_str(), p.seq, end,
                   fa.inorder_frontier));
        }
        if (end > fa.inorder_frontier) fa.inorder_frontier = end;
      }
    }
  }
  if (opt_.leak && p.payload > 0) live_erase(p);
  ++delivered_frames_;
  if (opt_.tcp && opt_.tcp_poll_every != 0 &&
      delivered_frames_ % opt_.tcp_poll_every == 0) {
    tcp_sweep("mid-run poll");
  }
}

void Checker::on_pushed_segment(net::HostId host, bool presto_gro,
                                const offload::Segment& s) {
  FlowAudit& fa = flows_[s.flow];
  if (!fa.arrived.covers(s.start_seq, s.end_seq)) {
    add_violation(
        OracleKind::kGro,
        strf("H%u GRO pushed [%" PRIu64 ", %" PRIu64
             ") of %s but those bytes never arrived on the wire",
             host, s.start_seq, s.end_seq, flow_name(s.flow).c_str()));
  } else if (presto_gro &&
             !fa.cell_arrived[s.flowcell].covers(s.start_seq, s.end_seq)) {
    // The bytes arrived, but not all within the flowcell this segment
    // claims: Presto GRO merged across a flowcell boundary, erasing the
    // loss-vs-reordering distinction Algorithm 2 exists for.
    add_violation(
        OracleKind::kGro,
        strf("H%u Presto GRO merged [%" PRIu64 ", %" PRIu64
             ") of %s across flowcell %" PRIu64 "'s boundary",
             host, s.start_seq, s.end_seq, flow_name(s.flow).c_str(),
             s.flowcell));
  }
  fa.pushed.add(s.start_seq, s.end_seq);
}

void Checker::on_dispatch(const net::FlowKey& flow, std::uint64_t cell,
                          net::MacAddr label, bool chosen_suspect,
                          bool all_suspect) {
  if (chosen_suspect && !all_suspect) {
    add_violation(
        OracleKind::kQuarantine,
        strf("flowcell %" PRIu64
             " of %s dispatched on quarantined label %#" PRIx64
             " while healthy labels existed",
             cell, flow_name(flow).c_str(),
             static_cast<std::uint64_t>(label)));
  }
}

void Checker::tcp_sweep(const char* when) {
  const std::size_t n = ex_.topo().host_count();
  for (net::HostId h = 0; h < n; ++h) {
    ex_.host(h).for_each_sender([&](tcp::TcpSender& s) {
      std::string why;
      if (!s.check_invariants(&why)) {
        while (!why.empty() && why.back() == '\n') why.pop_back();
        add_violation(OracleKind::kTcp, why + strf(" [%s]", when));
      }
    });
  }
}

void Checker::receiver_checks() {
  const std::size_t n = ex_.topo().host_count();
  for (net::HostId h = 0; h < n; ++h) {
    ex_.host(h).for_each_receiver([&](tcp::TcpReceiver& r) {
      const net::FlowKey& flow = r.flow();
      const std::uint64_t rcv_nxt = r.delivered();
      const tcp::RangeSet& ooo = r.out_of_order();
      if (!ooo.empty() && ooo.begin()->first <= rcv_nxt) {
        add_violation(
            OracleKind::kTcp,
            strf("%s receiver holds out-of-order range [%" PRIu64
                 ", %" PRIu64 ") at/below its frontier %" PRIu64,
                 flow_name(flow).c_str(), ooo.begin()->first,
                 ooo.begin()->second, rcv_nxt));
      }
      const auto it = flows_.find(flow);
      if (rcv_nxt > 0 &&
          (it == flows_.end() || !it->second.arrived.covers(0, rcv_nxt))) {
        add_violation(OracleKind::kTcp,
                      strf("%s receiver delivered [0, %" PRIu64
                           ") but not all of it arrived on the wire",
                           flow_name(flow).c_str(), rcv_nxt));
      }
      tcp::TcpSender* snd = ex_.host(flow.src_host).find_sender(flow);
      if (snd != nullptr) {
        if (snd->acked_bytes() > rcv_nxt) {
          add_violation(OracleKind::kTcp,
                        strf("%s sender's cumulative ACK %" PRIu64
                             " is ahead of the receiver frontier %" PRIu64,
                             flow_name(flow).c_str(), snd->acked_bytes(),
                             rcv_nxt));
        }
        if (rcv_nxt > snd->stream_end()) {
          add_violation(OracleKind::kTcp,
                        strf("%s receiver delivered %" PRIu64
                             " bytes but the sender's stream ends at %" PRIu64,
                             flow_name(flow).c_str(), rcv_nxt,
                             snd->stream_end()));
        }
      }
    });
  }
}

void Checker::audit_epoch(sim::Time now, sim::Time leak_age) {
  if (opt_.tcp) {
    tcp_sweep("epoch audit");
    receiver_checks();
  }
  if (opt_.leak && leak_age > 0) {
    for (auto& [flow, fa] : flows_) {
      for (auto& [key, tok] : fa.live) {
        if (tok.reported || now - tok.last_touch < leak_age) continue;
        tok.reported = true;
        add_violation(
            OracleKind::kLeak,
            strf("%s frame seq %" PRIu64 " (%u bytes, x%u) in flight for "
                 "%.3f ms without delivery or attributed drop",
                 flow_name(flow).c_str(), key.first, key.second, tok.count,
                 static_cast<double>(now - tok.last_touch) / 1e6));
      }
    }
  }
}

void Checker::digest_state(sim::Digest& d) const {
  for (const auto& [tree, ta] : trees_) {
    d.mix(tree);
    d.mix(ta.injected_frames - ta.delivered_frames - ta.dropped_frames);
  }
  for (const auto& [flow, fa] : flows_) {
    sim::Digest sub;
    sub.mix(flow.hash());
    sub.mix(fa.injected_payload);
    sub.mix(fa.delivered_payload);
    sub.mix(fa.dropped_payload);
    sub.mix(fa.live.size());
    d.mix_unordered(sub.value());
  }
}

void Checker::finish(bool drained) {
  if (!drained) {
    add_violation(OracleKind::kLiveness,
                  "event queue not drained at the scenario cap (frames or "
                  "timers still pending)");
  }

  if (opt_.tcp) {
    tcp_sweep("finish");
    receiver_checks();
  }

  // Balance-sheet checks only make sense once nothing is in flight.
  if (!drained) return;

  if (opt_.conservation) {
    for (const auto& [flow, fa] : flows_) {
      if (fa.injected_frames != fa.delivered_frames + fa.dropped_frames) {
        add_violation(
            OracleKind::kConservation,
            strf("%s: %" PRIu64 " frames injected but %" PRIu64
                 " delivered + %" PRIu64 " dropped",
                 flow_name(flow).c_str(), fa.injected_frames,
                 fa.delivered_frames, fa.dropped_frames));
      }
      if (fa.injected_payload != fa.delivered_payload + fa.dropped_payload) {
        add_violation(
            OracleKind::kConservation,
            strf("%s: %" PRIu64 " payload bytes injected but %" PRIu64
                 " delivered + %" PRIu64 " dropped",
                 flow_name(flow).c_str(), fa.injected_payload,
                 fa.delivered_payload, fa.dropped_payload));
      }
    }
    for (const auto& [tree, ta] : trees_) {
      if (ta.injected_frames != ta.delivered_frames + ta.dropped_frames) {
        const std::string name =
            tree == kNoTreeKey ? "unlabelled" : strf("tree %u", tree);
        add_violation(
            OracleKind::kConservation,
            strf("%s: %" PRIu64 " frames injected but %" PRIu64
                 " delivered + %" PRIu64 " dropped",
                 name.c_str(), ta.injected_frames, ta.delivered_frames,
                 ta.dropped_frames));
      }
    }
  }

  if (opt_.gro) {
    for (const auto& [flow, fa] : flows_) {
      if (fa.arrived != fa.pushed) {
        add_violation(
            OracleKind::kGro,
            strf("%s: GRO never pushed everything that arrived (%" PRIu64
                 " byte coverage arrived vs %" PRIu64 " pushed)",
                 flow_name(flow).c_str(),
                 fa.arrived.bytes_in(0, UINT64_MAX),
                 fa.pushed.bytes_in(0, UINT64_MAX)));
      }
    }
  }
}

}  // namespace presto::check
