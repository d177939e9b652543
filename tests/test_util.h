// Shared test fixtures: a two-host rig with a programmable interposer so TCP
// behaviour (loss, delay, reordering) can be exercised deterministically,
// and what a replayed testbed must reproduce, for determinism checks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "harness/experiment.h"
#include "host/host.h"
#include "net/packet.h"
#include "net/sink.h"
#include "sim/digest.h"
#include "sim/simulation.h"

namespace presto::test {

/// Sits between the two hosts; `filter` returns false to drop a packet.
/// `delay_fn` (optional) returns extra per-packet latency.
class Interposer : public net::PacketSink {
 public:
  using Filter = std::function<bool(const net::Packet&)>;
  using DelayFn = std::function<sim::Time(const net::Packet&)>;

  Interposer(sim::Simulation& sim, net::PacketSink* peer)
      : sim_(sim), peer_(peer) {}

  void set_filter(Filter f) { filter_ = std::move(f); }
  void set_delay(DelayFn d) { delay_ = std::move(d); }

  void receive(net::Packet p, net::PortId in_port) override {
    if (filter_ && !filter_(p)) {
      ++dropped_;
      return;
    }
    ++forwarded_;
    const sim::Time extra = delay_ ? delay_(p) : 0;
    if (extra <= 0) {
      peer_->receive(std::move(p), in_port);
    } else {
      sim_.schedule(extra, [this, p = std::move(p), in_port]() mutable {
        peer_->receive(std::move(p), in_port);
      });
    }
  }

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  sim::Simulation& sim_;
  net::PacketSink* peer_;
  Filter filter_;
  DelayFn delay_;
  std::uint64_t dropped_ = 0;
  std::uint64_t forwarded_ = 0;
};

/// Two hosts wired back-to-back through per-direction interposers.
struct TwoHostRig {
  sim::Simulation sim;
  std::unique_ptr<host::Host> a;
  std::unique_ptr<host::Host> b;
  std::unique_ptr<Interposer> a_to_b;
  std::unique_ptr<Interposer> b_to_a;

  explicit TwoHostRig(host::HostConfig cfg = make_default_config()) {
    a = std::make_unique<host::Host>(sim, 0, cfg);
    b = std::make_unique<host::Host>(sim, 1, cfg);
    a_to_b = std::make_unique<Interposer>(sim, b.get());
    b_to_a = std::make_unique<Interposer>(sim, a.get());
    a->uplink().connect(a_to_b.get(), 0);
    b->uplink().connect(b_to_a.get(), 0);
  }

  static host::HostConfig make_default_config() {
    host::HostConfig cfg;
    cfg.uplink.rate_bps = 10e9;
    cfg.uplink.propagation = 1 * sim::kMicrosecond;
    cfg.uplink.queue_bytes = 4 * 1024 * 1024;
    return cfg;
  }

  net::FlowKey flow() const { return net::FlowKey{0, 1, 10000, 80}; }
};

/// What a run replayed with the same seed and config must reproduce.
struct Replay {
  std::uint64_t executed = 0;  ///< events the simulation ran
  /// The testbed's whole state, composed as check::ScenarioRun's state
  /// digest is, less the checker: the simulation, every host, the fabric
  /// plane and the control loop.
  std::uint64_t digest = 0;
  telemetry::Snapshot snap;
};

inline Replay replay_of(harness::Experiment& ex) {
  sim::Digest d;
  ex.sim().digest_state(d);
  for (net::HostId h = 0; h < ex.topo().host_count(); ++h) {
    ex.host(h).digest_state(d);
  }
  if (ex.fabric_plane() != nullptr) ex.fabric_plane()->digest_state(d);
  if (ex.control_loop() != nullptr) ex.control_loop()->digest_state(d);
  return {ex.sim().executed(), d.value(), ex.telemetry_snapshot()};
}

}  // namespace presto::test
