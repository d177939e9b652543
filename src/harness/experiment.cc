#include "harness/experiment.h"

#include <algorithm>
#include <string>

#include "lb/registry.h"
#include "telemetry/export.h"

namespace presto::harness {

const char* scheme_name(Scheme s) { return lb::scheme_display_name(s); }

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.control_loop.enabled) cfg_.telemetry.fabric.monitors = true;
  if (cfg_.telemetry.metrics || cfg_.telemetry.trace ||
      cfg_.telemetry.flight_recorder()) {
    telem_ = std::make_unique<telemetry::Session>(cfg_.telemetry, sim_);
    cfg_.mptcp.tcp.telemetry = telem_->tcp_probes();
  }
  net::LinkConfig link;
  link.rate_bps = cfg_.link_rate_bps;
  link.propagation = cfg_.link_propagation;
  link.queue_bytes = cfg_.switch_buffer_bytes;
  net::TopoParams params;
  params.host_link = link;
  params.fabric_link = link;
  params.gamma = cfg_.gamma;

  if (lb::SchemeRegistry::instance().info(cfg_.scheme).single_switch) {
    topo_ = net::make_single_switch(
        sim_, cfg_.leaves * cfg_.hosts_per_leaf + cfg_.remote_users_per_spine *
                                                      cfg_.spines,
        params);
  } else {
    switch (cfg_.topology) {
      case net::TopologyKind::kClos:
        topo_ = net::make_clos(sim_, cfg_.spines, cfg_.leaves,
                               cfg_.hosts_per_leaf, params);
        break;
      case net::TopologyKind::kAsymClos:
        params.spine_rate_scale.assign(cfg_.spines, 1.0);
        for (std::uint32_t i = 0;
             i < std::min(cfg_.asym_slow_spines, cfg_.spines); ++i) {
          params.spine_rate_scale[i] = cfg_.asym_rate_scale;
        }
        topo_ = net::make_clos(sim_, cfg_.spines, cfg_.leaves,
                               cfg_.hosts_per_leaf, params);
        break;
      case net::TopologyKind::kOversubClos:
        params.fabric_link.rate_bps = cfg_.link_rate_bps *
                                      cfg_.hosts_per_leaf /
                                      (cfg_.spines * cfg_.oversub_factor);
        topo_ = net::make_clos(sim_, cfg_.spines, cfg_.leaves,
                               cfg_.hosts_per_leaf, params);
        break;
      case net::TopologyKind::kLeafMesh:
        topo_ = net::make_leaf_mesh(sim_, cfg_.leaves, cfg_.hosts_per_leaf,
                                    params);
        break;
    }
    // North-south remote users hang off the spines over WAN-limited links
    // (no spine tier on a mesh: the loop body never runs there).
    net::LinkConfig wan = link;
    wan.rate_bps = cfg_.remote_link_rate_bps;
    for (net::SwitchId spine : topo_->spines()) {
      for (std::uint32_t i = 0; i < cfg_.remote_users_per_spine; ++i) {
        topo_->add_host(spine, wan);
      }
    }
  }
  ctl_ = std::make_unique<controller::Controller>(*topo_, cfg_.controller);
  if (telem_ != nullptr) {
    for (net::SwitchId s = 0; s < topo_->switch_count(); ++s) {
      topo_->get_switch(s).observe(net::ObserverRole::kTelemetry,
                                   telem_->net_observer());
    }
    ctl_->attach_telemetry(telem_->controller_probes());
  }
  ctl_->install();
  if (cfg_.telemetry.fabric.monitors || cfg_.control_loop.enabled) {
    // The closed loop is fed by the fabric monitors, so enabling it forces
    // the plane on; the loop drives its own flush rounds, so the plane's
    // periodic schedule (flush_period) may legitimately stay off.
    fabric_plane_ = std::make_unique<telemetry::fabric::FabricPlane>(
        sim_, cfg_.telemetry.fabric, cfg_.seed);
    for (net::SwitchId s = 0; s < topo_->switch_count(); ++s) {
      fabric_plane_->attach_switch(topo_->get_switch(s));
    }
    fabric_plane_->set_controller(ctl_.get());
    fabric_plane_->start();
  }
  if (cfg_.control_loop.enabled) {
    control_loop_ = std::make_unique<controller::ControlLoop>(
        sim_, *ctl_, *fabric_plane_, cfg_.control_loop,
        cfg_.switch_buffer_bytes);
    control_loop_->start();
  }
  if (!cfg_.fault_plan.empty() &&
      !lb::SchemeRegistry::instance().info(cfg_.scheme).single_switch) {
    // Armed before the workload runs: every fault lands on the sim clock at
    // construction time, off a dedicated RNG stream.
    const std::uint64_t fs = cfg_.fault_seed != 0
                                 ? cfg_.fault_seed
                                 : net::mix64(cfg_.seed ^ 0xFA17'FA17ULL);
    fault_ = std::make_unique<fault::FaultInjector>(*topo_, *ctl_, fs);
    if (telem_ != nullptr) fault_->attach_telemetry(telem_->fault_probes());
    fault_->arm(fault::FaultPlan::parse(cfg_.fault_plan));
  }
  build_hosts();
  if (telem_ != nullptr && telem_->sampler() != nullptr) {
    start_flight_recorder();
  }
}

void Experiment::start_flight_recorder() {
  telemetry::TimeSeriesSampler& sampler = *telem_->sampler();
  // Per-port queue depth of every fabric switch (Figs 5/17-19's queue
  // dynamics). Ports and switches outlive the sampler (both owned here).
  for (net::SwitchId s = 0; s < topo_->switch_count(); ++s) {
    net::Switch& sw = topo_->get_switch(s);
    for (net::PortId p = 0; p < static_cast<net::PortId>(sw.port_count());
         ++p) {
      sampler.add_series(
          "net.sw" + std::to_string(s) + ".port" + std::to_string(p) +
              ".queue_bytes",
          [&sw, p] { return static_cast<double>(sw.port(p).queued_bytes()); });
    }
  }
  // In-flight bytes per shadow-MAC label (spanning tree); all ports feed
  // the session-wide table, so each series is a fabric-wide sum. The count
  // comes from the installed trees (== spines on a gamma-1 Clos, but mesh
  // and multi-gamma fabrics install a different number).
  const std::uint32_t trees = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(ctl_->trees().size()),
      telemetry::LabelFlight::kMaxTrees);
  telemetry::LabelFlight& flight = telem_->label_flight();
  for (std::uint32_t t = 0; t < trees; ++t) {
    sampler.add_series("net.label.t" + std::to_string(t) + ".inflight_bytes",
                       [&flight, t] {
                         return static_cast<double>(flight.bytes[t]);
                       });
  }
  // In-fabric telemetry plane: live spray-imbalance index plus per-label
  // transmitted bytes straight from the switch monitors (independent of the
  // collection protocol, so these are exact even under control-plane
  // faults). Exported as Perfetto counter tracks like every other series.
  if (fabric_plane_ != nullptr) {
    telemetry::fabric::FabricPlane* plane = fabric_plane_.get();
    sampler.add_series("fabric.imbalance_index", [plane] {
      return plane->live_imbalance_index();
    });
    for (std::uint32_t t = 0; t < trees; ++t) {
      sampler.add_series("fabric.label.t" + std::to_string(t) + ".tx_bytes",
                         [plane, t] {
                           return static_cast<double>(
                               plane->live_label_tx_bytes(t));
                         });
    }
  }
  // GRO segments pending across all hosts (reorder-buffer pressure).
  sampler.add_series("host.gro.held_segments", [this] {
    double held = 0;
    for (const auto& h : hosts_) {
      if (h->gro() != nullptr) {
        held += static_cast<double>(h->gro()->held_segments());
      }
    }
    return held;
  });
  // Cumulative bulk-app goodput; differentiating adjacent points yields the
  // recovery curves of Fig 19 (the callback tolerates apps added later).
  sampler.add_series("app.delivered_bytes", [this] {
    double total = 0;
    for (const auto& app : elephants_) {
      total += static_cast<double>(app->delivered());
    }
    return total;
  });
  sampler.start(sim_);
}

std::string Experiment::export_trace_json() {
  if (!flight_recorder_enabled()) return {};
  if (telem_->spans() != nullptr) telem_->spans()->finalize(sim_.now());
  return telemetry::export_perfetto_json(telem_->sampler(), telem_->spans());
}

std::string Experiment::export_timeseries_csv() {
  if (telem_ == nullptr || telem_->sampler() == nullptr) return {};
  return telemetry::export_timeseries_csv(*telem_->sampler());
}

void Experiment::build_hosts() {
  const std::uint32_t num_servers = cfg_.leaves * cfg_.hosts_per_leaf;
  for (net::HostId h = 0; h < topo_->host_count(); ++h) {
    host::HostConfig hc = cfg_.host;
    if (telem_ != nullptr) {
      hc.gro_telemetry = telem_->gro_probes();
      hc.tcp.telemetry = telem_->tcp_probes();
      hc.sampler = telem_->sampler();
      hc.span_tracer = telem_->spans();
      hc.flow_series = cfg_.telemetry.flow_series_per_host;
    }
    hc.jitter_seed = net::mix64(cfg_.seed ^ (0xBEEF00ULL + h));
    hc.uplink = topo_->host(h).link;
    hc.uplink.queue_bytes =
        std::max<std::uint64_t>(hc.uplink.queue_bytes,
                                cfg_.host_tx_queue_bytes);
    const lb::SchemeInfo& scheme_info =
        lb::SchemeRegistry::instance().info(cfg_.scheme);
    const bool server = h < num_servers || scheme_info.single_switch;
    if (!cfg_.force_gro) {
      hc.gro = scheme_info.rx == lb::RxOffload::kPrestoGro
                   ? host::GroKind::kPresto
                   : host::GroKind::kOfficial;
    }
    auto host_ptr = std::make_unique<host::Host>(sim_, h, hc);
    topo_->connect_host(h, host_ptr.get(), host_ptr->uplink());
    if (telem_ != nullptr && cfg_.telemetry.flight_recorder()) {
      // Flight-recorder runs also observe the host uplink (the first hop
      // of every span); kept off otherwise so metrics-only snapshots match
      // their pre-flight-recorder values.
      host_ptr->uplink().set_observer(net::ObserverRole::kTelemetry,
                                      telem_->net_observer());
    }
    if (server) {
      host_ptr->set_lb(make_lb(h));
      servers_.push_back(h);
    } else {
      remotes_.push_back(h);
    }
    hosts_.push_back(std::move(host_ptr));
  }
  // In Optimal mode there are no "extra" hosts marked remote, but Table 2
  // still needs remote endpoints — the last remote_users_per_spine * spines
  // hosts play that role.
  if (lb::SchemeRegistry::instance().info(cfg_.scheme).single_switch &&
      cfg_.remote_users_per_spine > 0) {
    servers_.resize(num_servers);
    remotes_.clear();
    for (net::HostId h = num_servers; h < topo_->host_count(); ++h) {
      remotes_.push_back(h);
    }
  }
  next_port_.assign(topo_->host_count(), 10000);
}

std::unique_ptr<lb::SenderLb> Experiment::make_lb(net::HostId h) {
  lb::LbContext ctx;
  ctx.sim = &sim_;
  ctx.labels = &ctl_->label_map(h);
  ctx.host = h;
  ctx.seed = net::mix64(cfg_.seed ^ (0x5151ULL + h));
  ctx.tuning.flowlet_gap = cfg_.flowlet_gap;
  ctx.tuning.flowcell_bytes = cfg_.flowcell_bytes;
  ctx.tuning.flowcell_random_selection = cfg_.flowcell_random_selection;
  ctx.tuning.path_suspicion = cfg_.edge_suspicion;
  ctx.tuning.suspicion_hold = cfg_.suspicion_hold;
  ctx.tuning.flowdyn_gap_factor = cfg_.flowdyn_gap_factor;
  ctx.tuning.flowdyn_min_gap = cfg_.flowdyn_min_gap;
  ctx.tuning.flowdyn_max_gap = cfg_.flowdyn_max_gap;
  ctx.tuning.diffflow_threshold_bytes = cfg_.diffflow_threshold_bytes;
  ctx.tuning.sprinklers_min_cells = cfg_.sprinklers_min_cells;
  ctx.tuning.sprinklers_max_cells = cfg_.sprinklers_max_cells;
  std::unique_ptr<lb::SenderLb> policy = lb::make_scheme_lb(cfg_.scheme, ctx);
  // Flowcell engines (presto / presto_ecmp) additionally feed the
  // experiment's telemetry session; the registry stays harness-agnostic, so
  // the attachment happens here.
  if (telem_ != nullptr) {
    if (auto* engine = dynamic_cast<core::FlowcellEngine*>(policy.get())) {
      engine->attach_telemetry(telem_->flowcell_probes(), &sim_);
      flowcell_engines_.push_back(engine);
    }
  }
  return policy;
}

net::FlowKey Experiment::alloc_flow(net::HostId src, net::HostId dst) {
  net::FlowKey f;
  f.src_host = src;
  f.dst_host = dst;
  f.src_port = next_port_[src];
  f.dst_port = 80;
  next_port_[src] += 16;  // room for MPTCP subflow ports
  return f;
}

std::unique_ptr<workload::ByteChannel> Experiment::open_channel(
    net::HostId src, net::HostId dst, bool allow_mptcp) {
  const net::FlowKey flow = alloc_flow(src, dst);
  if (lb::SchemeRegistry::instance().info(cfg_.scheme).uses_mptcp_channel &&
      allow_mptcp) {
    return std::make_unique<workload::MptcpByteChannel>(
        sim_, host(src), host(dst), flow, cfg_.mptcp);
  }
  return std::make_unique<workload::TcpByteChannel>(host(src), host(dst),
                                                    flow);
}

workload::RpcChannel& Experiment::open_rpc(net::HostId src, net::HostId dst,
                                           std::uint32_t response_bytes,
                                           bool allow_mptcp) {
  auto rpc = std::make_unique<workload::RpcChannel>(
      sim_, open_channel(src, dst, allow_mptcp),
      open_channel(dst, src, allow_mptcp), response_bytes);
  rpcs_.push_back(std::move(rpc));
  return *rpcs_.back();
}

workload::ElephantApp& Experiment::add_elephant(
    net::HostId src, net::HostId dst, std::uint64_t bytes,
    workload::ElephantApp::CompleteFn done) {
  auto app = std::make_unique<workload::ElephantApp>(
      sim_, open_channel(src, dst), bytes, std::move(done));
  elephants_.push_back(std::move(app));
  return *elephants_.back();
}

Experiment::Counters Experiment::switch_counters() const {
  Counters c;
  c.enqueued = topo_->total_enqueued();
  c.dropped = topo_->total_drops();
  return c;
}

telemetry::Snapshot Experiment::telemetry_snapshot() {
  if (telem_ == nullptr) return {};
  if (!telemetry_published_) {
    telemetry_published_ = true;
    for (core::FlowcellEngine* engine : flowcell_engines_) {
      engine->publish_telemetry();
    }
  }
  return telem_->snapshot();
}

}  // namespace presto::harness
