#include "fault/fault_injector.h"

#include "net/types.h"

namespace presto::fault {
namespace {

/// Per-port loss-model seed: mixes the injector seed with the link identity
/// and direction so both directions (and distinct links) draw independent,
/// reproducible streams.
std::uint64_t degrade_seed(std::uint64_t base, const net::FabricLink& link,
                           bool leaf_to_spine) {
  const std::uint64_t id = (static_cast<std::uint64_t>(link.leaf) << 40) ^
                           (static_cast<std::uint64_t>(link.spine) << 20) ^
                           link.group;
  return net::mix64(base ^ 0xDE6A'0DEDULL ^ id ^
                    (leaf_to_spine ? 0x1ULL << 63 : 0));
}

}  // namespace

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) arm_event(ev);
}

void FaultInjector::arm_event(const FaultEvent& ev) {
  auto& sim = topo_.sim();
  switch (ev.kind) {
    case FaultKind::kLinkDown:
      note(ev.at, ev.kind);
      ctl_.schedule_link_failure(ev.leaf, ev.spine, ev.group, ev.at);
      break;
    case FaultKind::kLinkUp:
      note(ev.at, ev.kind);
      ctl_.schedule_link_restore(ev.leaf, ev.spine, ev.group, ev.at);
      break;
    case FaultKind::kLinkFlap: {
      // Expand into `count` down/up cycles; the link is down for the first
      // `duty` fraction of each period.
      const auto up_offset = static_cast<sim::Time>(
          static_cast<double>(ev.period) * ev.duty);
      for (std::uint32_t i = 0; i < ev.count; ++i) {
        const sim::Time down_at = ev.at + static_cast<sim::Time>(i) * ev.period;
        note(down_at, FaultKind::kLinkDown);
        ctl_.schedule_link_failure(ev.leaf, ev.spine, ev.group, down_at);
        note(down_at + up_offset, FaultKind::kLinkUp);
        ctl_.schedule_link_restore(ev.leaf, ev.spine, ev.group,
                                   down_at + up_offset);
      }
      break;
    }
    case FaultKind::kLinkDegrade:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at, [this, ev] { apply_degrade(ev, true); });
      break;
    case FaultKind::kLinkHeal:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at, [this, ev] { apply_degrade(ev, false); });
      break;
    case FaultKind::kSwitchDown:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at,
                      [this, sw = ev.sw] { topo_.set_switch_down(sw, true); });
      break;
    case FaultKind::kSwitchUp:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at,
                      [this, sw = ev.sw] { topo_.set_switch_down(sw, false); });
      break;
    case FaultKind::kCtlFault:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at, [this, ev] {
        controller::Controller::ControlFault fault;
        fault.extra_push_delay = ev.ctl_delay;
        fault.push_drop_probability = ev.ctl_drop;
        fault.push_duplicate_probability = ev.ctl_dup;
        fault.seed = net::mix64(seed_ ^ 0xC71F'0001ULL);
        ctl_.set_control_fault(fault);
      });
      break;
    case FaultKind::kCtlClear:
      note(ev.at, ev.kind);
      sim.schedule_at(ev.at, [this] { ctl_.clear_control_fault(); });
      break;
  }
}

void FaultInjector::note(sim::Time at, FaultKind kind) {
  topo_.sim().schedule_at(at, [this, kind] {
    if (telem_ == nullptr) return;
    telem_->events->inc();
    switch (kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkFlap:
        telem_->link_events->inc();
        break;
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkHeal:
        telem_->degrade_events->inc();
        break;
      case FaultKind::kSwitchDown:
      case FaultKind::kSwitchUp:
        telem_->switch_events->inc();
        break;
      case FaultKind::kCtlFault:
      case FaultKind::kCtlClear:
        telem_->control_events->inc();
        break;
    }
  });
}

void FaultInjector::apply_degrade(const FaultEvent& ev, bool install) {
  const net::FabricLink* link =
      topo_.find_fabric_link(ev.leaf, ev.spine, ev.group);
  if (link == nullptr) return;  // nonexistent link: degrade is a no-op
  net::TxPort& up = topo_.get_switch(link->leaf).port(link->leaf_port);
  net::TxPort& down = topo_.get_switch(link->spine).port(link->spine_port);
  if (install) {
    up.set_loss_model(ev.loss, degrade_seed(seed_, *link, true));
    down.set_loss_model(ev.loss, degrade_seed(seed_, *link, false));
  } else {
    up.clear_loss_model();
    down.clear_loss_model();
  }
}

}  // namespace presto::fault
