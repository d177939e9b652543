// Output port: drop-tail byte-limited FIFO + link serializer + propagation.
//
// This fuses the classic "queue + link" pair: enqueue() appends to the
// drop-tail queue (counting drops when the byte cap is exceeded); an idle
// serializer drains the queue at the configured line rate and delivers each
// frame to the attached peer after the propagation delay.
//
// Every accepted frame stays in one ring of Packet values from enqueue
// until delivery, so a hop neither allocates nor copies a frame between
// containers, and the propagation event captures only `this`. Delivery is
// FIFO by construction: serializations finish in queue order and the
// propagation delay is constant per port, so each propagation event
// delivers the oldest frame on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/packet.h"
#include "net/sink.h"
#include "net/tap.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace presto::net {

/// Static configuration of a unidirectional link attached to a port.
struct LinkConfig {
  /// Line rate in bits per second (default 10 GbE).
  double rate_bps = 10e9;
  /// One-way propagation delay.
  sim::Time propagation = 500 * sim::kNanosecond;
  /// Drop-tail queue capacity in buffered bytes (frame bytes, no framing).
  std::uint64_t queue_bytes = 500 * 1024;
};

/// Per-port counters (the paper reads loss from switch counters; see §4).
/// The telemetry registry's `net.port.*` counters are these, summed over
/// the observed ports when a snapshot is taken.
struct PortCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  /// Drops by counted_cause(); the kNoRoute slot stays 0 (switches count
  /// those, since no port is chosen).
  std::array<std::uint64_t, kCountedDropCauses> drops{};

  PortCounters& operator+=(const PortCounters& o) {
    tx_packets += o.tx_packets;
    tx_bytes += o.tx_bytes;
    enqueued_packets += o.enqueued_packets;
    dropped_packets += o.dropped_packets;
    dropped_bytes += o.dropped_bytes;
    for (std::size_t i = 0; i < drops.size(); ++i) drops[i] += o.drops[i];
    return *this;
  }
};

/// Degraded-link model: Gilbert–Elliott two-state burst loss plus an
/// independent per-frame corruption probability (frames failing FCS at the
/// receiver are indistinguishable from loss, so both are modeled as drops at
/// the wire but counted separately). State advances one step per serialized
/// frame, so a given seed yields the same drop pattern run to run.
struct LossModel {
  double loss_good = 0.0;  ///< drop probability in the Good state
  double loss_bad = 1.0;   ///< drop probability in the Bad (burst) state
  double p_gb = 0.0;       ///< per-frame Good -> Bad transition probability
  double p_bg = 1.0;       ///< per-frame Bad -> Good transition probability
  double corrupt = 0.0;    ///< independent per-frame corruption probability

  bool active() const {
    return loss_good > 0 || p_gb > 0 || corrupt > 0;
  }
};

/// Unidirectional output port. The peer sink/port are fixed at wiring time.
class TxPort {
 public:
  /// `node`/`id` name the port to its observers: the owning switch (or
  /// kHostNodeBit | host) and the local port number.
  TxPort(sim::Simulation& sim, LinkConfig cfg, std::uint32_t node = 0,
         PortId id = kInvalidPort)
      : sim_(sim), cfg_(cfg), node_(node), id_(id) {}

  TxPort(const TxPort&) = delete;
  TxPort& operator=(const TxPort&) = delete;

  /// Attaches the receiving end: frames are delivered to
  /// `peer->receive(p, peer_in_port)`.
  void connect(PacketSink* peer, PortId peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }

  /// Queues a frame for transmission; drops it (and counts the drop) if the
  /// queue is full or the link is administratively down.
  void enqueue(Packet p);

  /// Administrative/link state. A down port drops everything enqueued.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Installs a degraded-link model with its own deterministic RNG stream
  /// (one GE step + optional corruption roll per serialized frame).
  void set_loss_model(const LossModel& model, std::uint64_t seed) {
    loss_.emplace(DegradedState{model, sim::Rng(seed), false});
  }
  /// Heals the link: removes the loss model entirely.
  void clear_loss_model() { loss_.reset(); }
  bool degraded() const { return loss_.has_value(); }

  const PortCounters& counters() const { return counters_; }
  const LinkConfig& config() const { return cfg_; }

  /// Currently queued bytes (excludes the frame being serialized).
  std::uint64_t queued_bytes() const { return queued_bytes_; }
  bool connected() const { return peer_ != nullptr; }

  /// Attaches `obs` in `role`'s slot (null detaches). It sees every
  /// accepted enqueue, every serialized frame and every drop.
  void set_observer(ObserverRole role, WireTap* obs) {
    observers_.set(role, obs);
  }

  /// Test-only fault: when set, a frame for which the hook returns true is
  /// silently destroyed at serialization time — no counters, no observer.
  /// This deliberately violates byte conservation; the shrinker demo uses
  /// it to prove the oracle catches unattributed loss.
  void set_test_packet_eater(std::function<bool(const Packet&)> eater) {
    test_eater_ = std::move(eater);
  }

 private:
  struct DegradedState {
    LossModel model;
    sim::Rng rng;
    bool bad = false;  ///< current Gilbert–Elliott state
  };

  void start_transmission();
  /// Serializer completion for the queue head: dequeue, count, and launch
  /// the propagation event (or drop via the loss model / down state).
  void finish_transmission();
  /// Propagation completion: hands the oldest frame on the wire to the peer.
  void deliver();
  /// Frees the serialized frame at tx_ that the wire did not carry: the
  /// older frames still on the wire shift up one slot over it.
  void discard_head();
  /// Doubles the ring (or allocates the first one), keeping frame order.
  void grow();
  Packet& at(std::uint32_t i) { return ring_[i & (cap_ - 1)]; }
  /// Steps the degraded-link model for one frame; true => the wire ate it
  /// (and the drop is accounted).
  bool loss_model_eats(const Packet& p);
  /// Counts a destroyed frame and tells the observers why.
  void drop(const Packet& p, DropCause cause);

  sim::Simulation& sim_;
  LinkConfig cfg_;
  PacketSink* peer_ = nullptr;
  PortId peer_in_port_ = kInvalidPort;

  /// Accepted frames, oldest first, in a power-of-two ring allocated on the
  /// first enqueue. Indices are running counters, masked on access:
  /// [wire_, tx_) are on the wire, [tx_, end_) are queued, and the frame at
  /// tx_ is serializing while busy_.
  std::unique_ptr<Packet[]> ring_;
  std::uint32_t cap_ = 0;
  std::uint32_t wire_ = 0;
  std::uint32_t tx_ = 0;
  std::uint32_t end_ = 0;
  std::uint64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  std::optional<DegradedState> loss_;
  PortCounters counters_;

  std::uint32_t node_;
  PortId id_;
  ObserverSet observers_;
  std::function<bool(const Packet&)> test_eater_;
};

}  // namespace presto::net
