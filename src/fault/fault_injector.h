// Deterministic fault injector (ISSUE 2 tentpole).
//
// Arms a FaultPlan against a topology + controller pair: every event in the
// plan is turned into simulator events at arm time, so an armed plan replays
// identically run to run. All randomness (degraded-link loss patterns,
// control-plane push drops) comes from RNG streams forked off the injector's
// seed — never from the workload's streams — so adding or removing faults
// does not perturb unrelated random draws.
//
// Fault routing:
//   * link down/up/flap  -> controller::schedule_link_failure/restore (the
//     controller models the staged failover reaction and tolerates flaps);
//   * degrade/heal       -> net::TxPort loss models on both directions of
//     the fabric link (the controller is unaware: silent partial loss);
//   * switch fail-stop   -> net::Topology::set_switch_down (data-plane only:
//     the controller is deliberately not told; adjacent switches still see
//     their local ports drop, so pre-installed hardware failover groups
//     detour around the dead switch while ingress reroutes and weighted
//     pushes never happen);
//   * ctl_fault/ctl_clear-> controller::set_control_fault (delayed/dropped
//     schedule pushes).
#pragma once

#include <cstdint>

#include "controller/controller.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "telemetry/probes.h"

namespace presto::fault {

class FaultInjector {
 public:
  FaultInjector(net::Topology& topo, controller::Controller& ctl,
                std::uint64_t seed)
      : topo_(topo), ctl_(ctl), seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches telemetry probes (null disables). Attach before `arm()` so
  /// fired events are counted.
  void attach_telemetry(const telemetry::FaultProbes* probes) {
    telem_ = probes;
  }

  /// Schedules every event in `plan` on the simulation clock. May be called
  /// multiple times (plans accumulate). Flap statements expand into their
  /// individual down/up transitions here.
  void arm(const FaultPlan& plan);

  std::uint64_t seed() const { return seed_; }

 private:
  void arm_event(const FaultEvent& ev);
  /// Counts one fired fault action at its fire time.
  void note(sim::Time at, FaultKind kind);
  /// Installs (or clears) the loss model on both directions of a link.
  void apply_degrade(const FaultEvent& ev, bool install);

  net::Topology& topo_;
  controller::Controller& ctl_;
  std::uint64_t seed_;
  const telemetry::FaultProbes* telem_ = nullptr;
};

}  // namespace presto::fault
