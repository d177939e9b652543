#include "net/port.h"

#include <utility>

namespace presto::net {

void TxPort::enqueue(Packet p) {
  const bool unusable = down_ || peer_ == nullptr;
  if (unusable || queued_bytes_ + p.buffer_bytes() > cfg_.queue_bytes) {
    drop(p, unusable ? DropCause::kLinkDown : DropCause::kQueueFull);
    return;
  }
  ++counters_.enqueued_packets;
  queued_bytes_ += p.buffer_bytes();
  for (WireTap* o : observers_) o->on_enqueue(node_, id_, p, queued_bytes_);
  queue_.push_back(pool_.acquire(std::move(p)));
  if (!busy_) start_transmission();
}

void TxPort::start_transmission() {
  busy_ = true;
  const Packet& head = *queue_.front();
  const double bits = 8.0 * head.wire_bytes();
  const auto ser_ns =
      static_cast<sim::Time>(bits / cfg_.rate_bps * 1e9 + 0.5);
  sim_.schedule(ser_ns, [this] { finish_transmission(); });
}

void TxPort::finish_transmission() {
  Packet* p = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= p->buffer_bytes();
  ++counters_.tx_packets;
  counters_.tx_bytes += p->buffer_bytes();
  for (WireTap* o : observers_) o->on_tx(node_, id_, *p, queued_bytes_);
  if (test_eater_ && test_eater_(*p)) {
    // Injected test fault: the frame vanishes without any accounting.
    pool_.release(p);
  } else if (down_ || peer_ == nullptr) {
    // The port went down (or was never connected) while this frame sat in
    // the queue: it is lost at the wire and must be accounted like any
    // other drop. (An earlier version discarded it silently; the
    // conservation oracle flags that as unattributed loss.)
    drop(*p, DropCause::kLinkDownTx);
    pool_.release(p);
  } else if (loss_ && loss_model_eats(*p)) {
    pool_.release(p);
  } else {
    // Propagate to the far end; the frame rides in its pooled slot, so the
    // event capture is 16 bytes and the slot is recycled on delivery.
    sim_.schedule(cfg_.propagation, [this, p] {
      peer_->receive(std::move(*p), peer_in_port_);
      pool_.release(p);
    });
  }
  if (!queue_.empty()) {
    start_transmission();
  } else {
    busy_ = false;
  }
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
  if (cause == DropCause::kLossModel) ++counters_.loss_model_drops;
  if (cause == DropCause::kCorrupt) ++counters_.corrupt_drops;
  for (WireTap* o : observers_) o->on_drop(node_, id_, p, cause);
}

}  // namespace presto::net
