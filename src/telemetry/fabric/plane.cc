#include "telemetry/fabric/plane.h"

#include <utility>

#include "controller/controller.h"
#include "net/types.h"

namespace presto::telemetry::fabric {

FabricPlane::FabricPlane(sim::Simulation& sim, const FabricConfig& cfg,
                         std::uint64_t seed)
    : sim_(sim),
      cfg_(cfg),
      collector_(cfg),
      rng_(net::mix64(seed ^ 0xFAB51C'7E1EULL)) {}

void FabricPlane::attach_switch(net::Switch& sw) {
  auto mon = std::make_unique<SwitchMonitor>(sim_, sw.id(), cfg_);
  for (std::size_t i = 0; i < sw.port_count(); ++i) {
    mon->add_port(sw.port(static_cast<net::PortId>(i)).config().rate_bps);
  }
  sw.observe(net::ObserverRole::kMonitor, mon.get());
  collector_.expect_switch(sw.id(), sw.port_count());
  monitors_[sw.id()] = std::move(mon);
}

SwitchMonitor* FabricPlane::monitor(std::uint32_t switch_id) {
  const auto it = monitors_.find(switch_id);
  return it == monitors_.end() ? nullptr : it->second.get();
}

void FabricPlane::start() {
  if (cfg_.flush_period <= 0 || started_) return;
  started_ = true;
  sim_.schedule(cfg_.flush_period, [this] { tick(); });
}

void FabricPlane::tick() {
  flush_now();
  sim_.schedule(cfg_.flush_period, [this] { tick(); });
}

void FabricPlane::flush_now() {
  for (auto& [id, mon] : monitors_) {
    const std::uint32_t slot = acquire_slot();
    mon->snapshot(sim_.now(), slots_[slot]);
    deliver(slot);
  }
}

std::uint32_t FabricPlane::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void FabricPlane::deliver(std::uint32_t slot) {
  ++reports_sent_;
  sim::Time delay = cfg_.report_delay;
  bool duplicate = false;
  if (ctl_ != nullptr) {
    if (const auto* fault = ctl_->control_fault()) {
      delay += fault->extra_push_delay;
      if (fault->push_drop_probability > 0 &&
          rng_.uniform() < fault->push_drop_probability) {
        ++reports_dropped_;
        free_slots_.push_back(slot);
        return;
      }
      if (fault->push_duplicate_probability > 0 &&
          rng_.uniform() < fault->push_duplicate_probability) {
        duplicate = true;
      }
    }
  }
  if (duplicate) {
    ++reports_duplicated_;
    // The copy takes the longer path (models a retransmitted frame).
    const std::uint32_t copy = acquire_slot();
    slots_[copy] = slots_[slot];
    schedule_delivery(copy, delay + cfg_.report_delay);
  }
  schedule_delivery(slot, delay);
}

void FabricPlane::schedule_delivery(std::uint32_t slot, sim::Time delay) {
  sim_.schedule(delay, [this, slot] {
    collector_.on_report(std::move(slots_[slot]), sim_.now());
    free_slots_.push_back(slot);
  });
}

void FabricPlane::collect_now() {
  const std::uint32_t slot = acquire_slot();
  for (auto& [id, mon] : monitors_) {
    mon->snapshot(sim_.now(), slots_[slot]);
    collector_.on_report(std::move(slots_[slot]), sim_.now());
  }
  free_slots_.push_back(slot);
}

std::string FabricPlane::health_json() {
  if (!started_) collect_now();
  return collector_.health_json(sim_.now());
}

double FabricPlane::live_imbalance_index() const {
  std::uint64_t bytes[kNonLabelBucket] = {};
  for (const auto& [id, mon] : monitors_) {
    for (std::size_t i = 0; i < mon->port_count(); ++i) {
      const auto& labels = mon->port(i)->labels();
      for (std::size_t b = 0; b < kNonLabelBucket; ++b) {
        bytes[b] += labels[b].tx_bytes;
      }
    }
  }
  std::uint64_t max_b = 0, sum = 0;
  std::size_t active = 0;
  for (std::uint64_t v : bytes) {
    if (v == 0) continue;
    ++active;
    sum += v;
    if (v > max_b) max_b = v;
  }
  if (active == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return mean > 0 ? static_cast<double>(max_b) / mean : 0.0;
}

std::uint64_t FabricPlane::live_label_tx_bytes(std::uint32_t bucket) const {
  if (bucket >= kLabelBuckets) return 0;
  std::uint64_t total = 0;
  for (const auto& [id, mon] : monitors_) {
    for (std::size_t i = 0; i < mon->port_count(); ++i) {
      total += mon->port(i)->labels()[bucket].tx_bytes;
    }
  }
  return total;
}

void FabricPlane::digest_state(sim::Digest& d) const {
  d.mix(static_cast<std::uint64_t>(monitors_.size()));
  for (const auto& [id, mon] : monitors_) {
    mon->digest_state(d);
  }
  collector_.digest_state(d);
  d.mix(reports_sent_);
  d.mix(reports_dropped_);
  d.mix(reports_duplicated_);
  d.mix(static_cast<std::uint64_t>(slots_.size() - free_slots_.size()));
}

}  // namespace presto::telemetry::fabric
