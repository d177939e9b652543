// Generic Receive Offload engine interface.
//
// The NIC driver delivers a batch of packets per interrupt (interrupt
// coalescing); the host calls on_packet() for each and then flush() once at
// the end of the poll, mirroring the Linux napi_gro_receive()/napi_gro_flush()
// pair described in §2.2 of the paper.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "offload/segment.h"
#include "sim/digest.h"
#include "sim/time.h"
#include "telemetry/probes.h"

namespace presto::offload {

/// Why a segment was pushed up (Algorithm 2's branches); selects the
/// per-cause flush counter.
enum class FlushCause : std::uint8_t {
  kSameFlowcell,  ///< gap inside a flowcell => loss, push now
  kInOrder,       ///< next flowcell continues in order
  kOverlap,       ///< overlap with delivered bytes (retransmission)
  kTimeout,       ///< boundary hold expired => presumed loss
  kStale,         ///< stale flowcell id (retransmission / late gap fill)
  kOfficial,      ///< stock-GRO unconditional push
};

/// Abstract GRO handler. Implementations push merged segments up the stack
/// through the callback supplied at construction.
class GroEngine {
 public:
  using PushFn = std::function<void(Segment)>;

  explicit GroEngine(PushFn push) : push_(std::move(push)) {}
  virtual ~GroEngine() = default;

  GroEngine(const GroEngine&) = delete;
  GroEngine& operator=(const GroEngine&) = delete;

  /// Offers one received data packet (payload > 0) to the merge logic.
  virtual void on_packet(const net::Packet& p, sim::Time now) = 0;

  /// End-of-poll flush: decides which segments to push up and which (for
  /// Presto GRO) to hold awaiting reordered packets.
  virtual void flush(sim::Time now) = 0;

  /// True if segments are being held (the host must schedule a later flush
  /// so held segments cannot stall when the NIC goes idle).
  virtual bool has_held_segments() const = 0;

  /// Number of segments currently held/pending in the engine (flight
  /// recorder gauge; engines without a hold list report 0).
  virtual std::size_t held_segments() const { return 0; }

  /// Folds the engine's merge state (per-flow frontiers, held segment
  /// ranges) into a checkpoint state digest (src/check/soak). Engines with
  /// no state contribute nothing.
  virtual void digest_state(sim::Digest& d) const { (void)d; }

  /// Attaches telemetry probes (null disables). `node` labels span
  /// annotations with the owning host id.
  void attach_telemetry(const telemetry::GroProbes* probes,
                        std::uint32_t node) {
    telem_ = probes;
    telem_node_ = node;
  }

 protected:
  /// Pushes a merged segment up the stack, accounting it under `cause`.
  void push_up(Segment s, FlushCause cause, sim::Time now) {
    if (telem_ != nullptr) record_push(s, cause, now);
    push_(std::move(s));
  }

  /// Records a packet merged into an existing segment.
  void note_merge(const net::Packet& p, sim::Time now) {
    if (telem_ == nullptr) return;
    telem_->merges->inc();
    if (telem_->spans != nullptr && p.span_id != 0) {
      telem_->spans->annotate(p.span_id, telemetry::SpanEventKind::kGroMerge,
                              now, telem_node_, -1, p.seq, p.payload);
    }
  }

  /// Records a hold decision (Presto GRO boundary wait).
  void note_hold() {
    if (telem_ != nullptr) telem_->holds->inc();
  }

 private:
  void record_push(const Segment& s, FlushCause cause, sim::Time now) {
    telem_->pushed->inc();
    telem_->segment_bytes->add(static_cast<double>(s.bytes()));
    switch (cause) {
      case FlushCause::kSameFlowcell:
        telem_->flush_same_flowcell->inc();
        break;
      case FlushCause::kInOrder:
        telem_->flush_in_order->inc();
        break;
      case FlushCause::kOverlap:
        telem_->flush_overlap->inc();
        break;
      case FlushCause::kTimeout:
        telem_->flush_timeout->inc();
        break;
      case FlushCause::kStale:
        telem_->flush_stale->inc();
        break;
      case FlushCause::kOfficial:
        break;
    }
    if (telem_->spans != nullptr && s.span_id != 0) {
      telem_->spans->annotate(s.span_id, telemetry::SpanEventKind::kGroFlush,
                              now, telem_node_, -1, s.start_seq, s.bytes());
    }
  }

  PushFn push_;
  const telemetry::GroProbes* telem_ = nullptr;
  std::uint32_t telem_node_ = 0;
};

}  // namespace presto::offload
