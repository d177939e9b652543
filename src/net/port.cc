#include "net/port.h"

#include <utility>

namespace presto::net {

namespace {

/// Ring capacity at a port's first enqueue; a full ring doubles.
constexpr std::uint32_t kInitialRing = 8;

}  // namespace

void TxPort::enqueue(Packet p) {
  const bool unusable = down_ || peer_ == nullptr;
  if (unusable || queued_bytes_ + p.buffer_bytes() > cfg_.queue_bytes) {
    drop(p, unusable ? DropCause::kLinkDown : DropCause::kQueueFull);
    return;
  }
  ++counters_.enqueued_packets;
  queued_bytes_ += p.buffer_bytes();
  for (WireTap* o : observers_) o->on_enqueue(node_, id_, p, queued_bytes_);
  if (end_ - wire_ == cap_) grow();
  at(end_++) = std::move(p);
  if (!busy_) start_transmission();
}

void TxPort::grow() {
  const std::uint32_t cap = cap_ == 0 ? kInitialRing : 2 * cap_;
  auto ring = std::make_unique<Packet[]>(cap);
  const std::uint32_t n = end_ - wire_;
  for (std::uint32_t i = 0; i < n; ++i) ring[i] = std::move(at(wire_ + i));
  tx_ -= wire_;
  wire_ = 0;
  end_ = n;
  ring_ = std::move(ring);
  cap_ = cap;
}

void TxPort::start_transmission() {
  busy_ = true;
  const double bits = 8.0 * at(tx_).wire_bytes();
  const auto ser_ns =
      static_cast<sim::Time>(bits / cfg_.rate_bps * 1e9 + 0.5);
  sim_.schedule(ser_ns, [this] { finish_transmission(); });
}

void TxPort::finish_transmission() {
  const Packet& p = at(tx_);
  queued_bytes_ -= p.buffer_bytes();
  ++counters_.tx_packets;
  counters_.tx_bytes += p.buffer_bytes();
  for (WireTap* o : observers_) o->on_tx(node_, id_, p, queued_bytes_);
  if (test_eater_ && test_eater_(p)) {
    // Injected test fault: the frame vanishes without any accounting.
    discard_head();
  } else if (down_ || peer_ == nullptr) {
    // The port went down (or was never connected) while this frame sat in
    // the queue: it is lost at the wire and must be accounted like any
    // other drop. (An earlier version discarded it silently; the
    // conservation oracle flags that as unattributed loss.)
    drop(p, DropCause::kLinkDownTx);
    discard_head();
  } else if (loss_ && loss_model_eats(p)) {
    discard_head();
  } else {
    // The frame joins the wire where it already sits in the ring; its
    // propagation event delivers the oldest wire frame, which is this one
    // once every earlier frame has arrived.
    ++tx_;
    sim_.schedule(cfg_.propagation, [this] { deliver(); });
  }
  if (tx_ != end_) {
    start_transmission();
  } else {
    busy_ = false;
  }
}

void TxPort::discard_head() {
  // Short: few frames fit on a wire whose propagation (500 ns by default)
  // is under one full frame's serialization.
  for (std::uint32_t i = tx_; i != wire_; --i) at(i) = std::move(at(i - 1));
  ++wire_;
  ++tx_;
}

void TxPort::deliver() {
  // receive() takes its frame by value, so the argument is copied out of
  // the ring before the peer runs: a re-entrant enqueue into this port may
  // reuse the slot, or grow the ring, without touching the delivered frame.
  peer_->receive(std::move(at(wire_++)), peer_in_port_);
}

bool TxPort::loss_model_eats(const Packet& p) {
  DegradedState& st = *loss_;
  // Advance the GE chain once per frame, then roll against the state's loss
  // probability and the independent corruption probability.
  const double flip = st.rng.uniform();
  if (st.bad ? flip < st.model.p_bg : flip < st.model.p_gb) st.bad = !st.bad;
  const double loss_p = st.bad ? st.model.loss_bad : st.model.loss_good;
  const bool lost = loss_p > 0 && st.rng.uniform() < loss_p;
  const bool corrupt =
      !lost && st.model.corrupt > 0 && st.rng.uniform() < st.model.corrupt;
  if (!lost && !corrupt) return false;
  drop(p, lost ? DropCause::kLossModel : DropCause::kCorrupt);
  return true;
}

void TxPort::drop(const Packet& p, DropCause cause) {
  ++counters_.dropped_packets;
  counters_.dropped_bytes += p.buffer_bytes();
  ++counters_.drops[static_cast<std::size_t>(counted_cause(cause))];
  for (WireTap* o : observers_) o->on_drop(node_, id_, p, cause);
}

}  // namespace presto::net
