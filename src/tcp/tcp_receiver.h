// TCP receiver endpoint.
//
// Consumes GRO-pushed segments (after the CPU model), maintains the in-order
// frontier and an out-of-order store, and emits one ACK per pushed segment —
// cumulative ACK plus up to 3 SACK blocks and an echoed timestamp. Because
// ACK generation is per *pushed segment*, GRO's merging behaviour directly
// shapes the ACK stream, which is exactly the coupling the paper exploits
// (§2.2: reordering exposed to TCP == dup-ACKs == sender backoff).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "offload/segment.h"
#include "sim/simulation.h"
#include "tcp/range_set.h"
#include "telemetry/span.h"

namespace presto::tcp {

struct TcpReceiverStats {
  std::uint64_t segments_in = 0;
  std::uint64_t out_of_order_segments = 0;  ///< start_seq > rcv_nxt on arrival.
  std::uint64_t duplicate_segments = 0;     ///< fully below rcv_nxt.
  std::uint64_t acks_sent = 0;
};

class TcpReceiver {
 public:
  /// `emit_ack` hands the ACK template to the host egress datapath.
  using EmitFn = std::function<void(net::Packet&&)>;
  using DeliveredFn = std::function<void(std::uint64_t rcv_nxt)>;

  TcpReceiver(sim::Simulation& sim, net::FlowKey data_flow, EmitFn emit_ack)
      : sim_(sim), data_flow_(data_flow), emit_ack_(std::move(emit_ack)) {}

  /// Handles one GRO-pushed segment.
  void on_segment(const offload::Segment& s);

  /// Fires whenever the in-order frontier advances.
  void set_on_delivered(DeliveredFn cb) { on_delivered_ = std::move(cb); }

  /// Causal-span closure hook: when set, an advancing in-order frontier
  /// closes every span of this flow whose byte range is now delivered.
  void set_span_tracer(telemetry::SpanTracer* spans) { spans_ = spans; }

  std::uint64_t delivered() const { return rcv_nxt_; }
  const TcpReceiverStats& stats() const { return stats_; }

  /// Folds the in-order frontier and out-of-order store into a checkpoint
  /// state digest (src/check/soak).
  void digest_state(sim::Digest& d) const {
    d.mix(data_flow_.hash());
    d.mix(rcv_nxt_);
    for (const auto& [start, end] : ooo_) {
      d.mix(start);
      d.mix(end);
    }
    d.mix(stats_.segments_in);
    d.mix(stats_.acks_sent);
  }
  /// Out-of-order store (checker access: every range must sit strictly
  /// above the in-order frontier).
  const RangeSet& out_of_order() const { return ooo_; }
  const net::FlowKey& flow() const { return data_flow_; }

 private:
  void send_ack(const offload::Segment& trigger);

  sim::Simulation& sim_;
  net::FlowKey data_flow_;
  EmitFn emit_ack_;
  DeliveredFn on_delivered_;
  telemetry::SpanTracer* spans_ = nullptr;
  std::uint64_t rcv_nxt_ = 0;
  RangeSet ooo_;
  /// Most recently SACKed range (reported first, per RFC 2018).
  net::SackBlock latest_sack_{};
  /// Duplicate range received by the segment being acknowledged (RFC 2883).
  net::SackBlock dsack_{};
  TcpReceiverStats stats_;
};

}  // namespace presto::tcp
