#include "tcp/tcp_receiver.h"

#include <algorithm>

namespace presto::tcp {

void TcpReceiver::on_segment(const offload::Segment& s) {
  ++stats_.segments_in;
  const std::uint64_t old_rcv_nxt = rcv_nxt_;
  dsack_ = net::SackBlock{};
  if (s.end_seq <= rcv_nxt_) {
    // Fully duplicate data: report it as a DSACK block (RFC 2883) so the
    // sender can detect spurious retransmissions and undo cwnd reductions.
    ++stats_.duplicate_segments;
    dsack_ = net::SackBlock{s.start_seq, s.end_seq};
  } else if (s.start_seq <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, s.end_seq);
    rcv_nxt_ = ooo_.advance(rcv_nxt_);
  } else {
    ++stats_.out_of_order_segments;
    ooo_.add(s.start_seq, s.end_seq);
    // The SACK block reported first is the (possibly merged) range that the
    // just-received segment landed in.
    latest_sack_ = net::SackBlock{s.start_seq, s.end_seq};
    for (const auto& [start, end] : ooo_) {
      if (start <= s.start_seq && s.start_seq < end) {
        latest_sack_ = net::SackBlock{start, end};
        break;
      }
    }
  }
  send_ack(s);
  if (rcv_nxt_ > old_rcv_nxt) {
    if (spans_ != nullptr) {
      spans_->on_delivered(data_flow_, rcv_nxt_, sim_.now());
    }
    if (on_delivered_) on_delivered_(rcv_nxt_);
  }
}

void TcpReceiver::send_ack(const offload::Segment& trigger) {
  net::Packet ack;
  ack.flow = data_flow_.reversed();
  ack.src_host = ack.flow.src_host;
  ack.dst_host = ack.flow.dst_host;
  ack.is_ack = true;
  ack.ack = rcv_nxt_;
  ack.ts_echo = trigger.ts_sent;
  ack.ts_sent = sim_.now();
  // SACK blocks: a DSACK block (below the cumulative ACK) comes first when
  // duplicate data was just received, then the most recently received block,
  // then the lowest remaining out-of-order ranges.
  std::size_t n = 0;
  if (!dsack_.empty()) {
    ack.sack[n++] = dsack_;
  }
  if (!latest_sack_.empty() && latest_sack_.start > rcv_nxt_ &&
      n < ack.sack.size()) {
    ack.sack[n++] = latest_sack_;
  }
  for (const auto& [start, end] : ooo_) {
    if (n >= ack.sack.size()) break;
    if (start == latest_sack_.start && end == latest_sack_.end) continue;
    ack.sack[n++] = net::SackBlock{start, end};
  }
  ++stats_.acks_sent;
  emit_ack_(std::move(ack));
}

}  // namespace presto::tcp
