#include "tcp/tcp_sender.h"

#include <algorithm>

namespace presto::tcp {

TcpSender::TcpSender(sim::Simulation& sim, net::FlowKey flow, TcpConfig cfg,
                     EmitFn emit)
    : sim_(sim),
      flow_(flow),
      cfg_(cfg),
      emit_(std::move(emit)),
      cc_(cfg_.cc_factory ? cfg_.cc_factory(cfg_.cc_cfg)
                          : make_cc(cfg_.cc, cfg_.cc_cfg)),
      rto_(cfg.min_rto) {}

void TcpSender::app_write(std::uint64_t bytes) {
  stream_end_ += bytes;
  try_send();
}

std::uint64_t TcpSender::in_flight() const {
  const std::uint64_t outstanding = snd_nxt_ - snd_una_;
  const std::uint64_t sacked = sacked_.bytes_in(snd_una_, snd_nxt_);
  // FACK loss estimate: un-SACKed original transmissions below the highest
  // SACKed byte are presumed lost and no longer occupy the pipe.
  std::uint64_t lost = 0;
  if (fack_ > snd_una_) {
    const std::uint64_t below_fack = fack_ - snd_una_;
    const std::uint64_t sacked_below = sacked_.bytes_in(snd_una_, fack_);
    lost = below_fack - sacked_below;
  }
  std::uint64_t pipe = outstanding - sacked;
  pipe -= std::min(pipe, lost);
  return pipe + retx_pending_;
}

std::uint64_t TcpSender::next_hole(std::uint64_t from) const {
  std::uint64_t seq = std::max(from, snd_una_);
  // Skip past a SACKed run if `seq` sits inside one.
  return sacked_.end_of_range_containing(seq);
}

void TcpSender::try_send() {
  const auto mss = static_cast<std::uint64_t>(cfg_.cc_cfg.mss);
  while (true) {
    const std::uint64_t pipe = in_flight();
    const auto cwnd = static_cast<std::uint64_t>(cc_->cwnd_bytes());
    const std::uint64_t budget = pipe < cwnd ? cwnd - pipe : 0;
    // Avoid silly-window segments unless nothing is in flight.
    if (budget == 0 || (budget < mss && pipe > 0)) break;

    if (in_recovery_) {
      // Retransmit only holes below the forward ACK point (presumed lost);
      // holes above it may simply not have been SACKed yet.
      const std::uint64_t hole = next_hole(retx_next_);
      if (hole < recover_ && hole < snd_nxt_ && hole < fack_) {
        const std::uint64_t hole_end = std::min(
            {hole + cfg_.max_segment_bytes,
             sacked_.first_start_above(hole, recover_), recover_, snd_nxt_,
             fack_});
        send_range(hole, hole_end, /*retx=*/true);
        retx_next_ = hole_end;
        continue;
      }
    }
    const std::uint64_t avail =
        stream_end_ > snd_nxt_ ? stream_end_ - snd_nxt_ : 0;
    if (avail == 0) break;
    const std::uint64_t len =
        std::min({avail, static_cast<std::uint64_t>(cfg_.max_segment_bytes),
                  budget});
    send_range(snd_nxt_, snd_nxt_ + len, /*retx=*/false);
    snd_nxt_ += len;
  }
  if (snd_nxt_ > snd_una_ && !rto_armed_) arm_rto();
}

void TcpSender::send_range(std::uint64_t start, std::uint64_t end, bool retx) {
  net::Packet seg;
  seg.flow = flow_;
  seg.src_host = flow_.src_host;
  seg.dst_host = flow_.dst_host;
  seg.seq = start;
  seg.payload = static_cast<std::uint32_t>(end - start);
  seg.ts_sent = sim_.now();
  seg.is_retx = retx || end <= snd_high_;  // go-back-N resends are retx too
  snd_high_ = std::max(snd_high_, end);
  ++stats_.emitted_segments;
  if (retx) {
    stats_.retransmitted_bytes += end - start;
    retx_pending_ += end - start;
    if (episode_open_) episode_retx_bytes_ += end - start;
    if (cfg_.telemetry != nullptr) {
      cfg_.telemetry->retransmitted_bytes->inc(end - start);
    }
  }
  emit_(std::move(seg));
}

void TcpSender::on_ack_packet(const net::Packet& ack) {
  for (const net::SackBlock& b : ack.sack) {
    if (b.empty()) continue;
    if (b.end <= ack.ack) {
      // DSACK: duplicate data below the cumulative ACK — evidence that a
      // retransmission was spurious.
      if (episode_open_) episode_dsack_bytes_ += b.end - b.start;
      continue;
    }
    if (b.end <= snd_nxt_) {
      sacked_.add(b.start, b.end);
      fack_ = std::max(fack_, b.end);
    }
  }
  // A reordered stale ACK can carry SACK blocks below the current
  // cumulative-ACK point; retire them immediately (no decision reads bytes
  // below snd_una, so this only keeps the scoreboard canonical).
  sacked_.trim_below(snd_una_);
  if (episode_open_ && episode_retx_bytes_ > 0 &&
      episode_dsack_bytes_ >= episode_retx_bytes_) {
    // Every retransmitted byte came back as a duplicate: the "loss" was
    // reordering. Undo the window reduction (Linux-style cwnd undo).
    episode_open_ = false;
    ++stats_.spurious_recoveries;
    if (cfg_.telemetry != nullptr) {
      cfg_.telemetry->spurious_recoveries->inc();
    }
    cc_->undo(undo_cwnd_, undo_ssthresh_);
    if (cfg_.on_spurious_recovery) cfg_.on_spurious_recovery(flow_);
  }
  if (ack.ack > snd_una_) {
    const std::uint64_t delta = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    // After a go-back-N rewind the cumulative ACK can jump past the rewound
    // send point (the receiver already held later bytes): snd_nxt must never
    // trail snd_una, or the pipe computation underflows.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    fack_ = std::max(fack_, snd_una_);
    // Progress retires retransmissions first (approximation of per-range
    // retransmit tracking).
    retx_pending_ -= std::min(retx_pending_, delta);
    sacked_.trim_below(snd_una_);
    if (ack.ts_echo > 0) update_rtt(sim_.now() - ack.ts_echo);
    cc_->on_ack(delta, sim_.now(), srtt_);
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        dupacks_ = 0;
        retx_pending_ = 0;
        if (episode_open_ && episode_retx_bytes_ == 0) {
          // The whole window was acknowledged without a single
          // retransmission: the dup-ACK burst was reordering, not loss.
          episode_open_ = false;
          ++stats_.spurious_recoveries;
          if (cfg_.telemetry != nullptr) {
            cfg_.telemetry->spurious_recoveries->inc();
          }
          cc_->undo(undo_cwnd_, undo_ssthresh_);
          if (cfg_.on_spurious_recovery) cfg_.on_spurious_recovery(flow_);
        }
      } else {
        // NewReno partial ACK: the newly exposed hole starts at snd_una and
        // must be retransmitted even if an earlier pass went past it.
        retx_next_ = snd_una_;
      }
    } else {
      dupacks_ = 0;
    }
    if (snd_nxt_ > snd_una_) {
      arm_rto();  // restart the timer on forward progress
    } else {
      rto_armed_ = false;
      ++rto_generation_;
    }
    if (on_acked_) on_acked_(snd_una_);
    if (cfg_.on_ack_progress) cfg_.on_ack_progress(flow_, snd_una_, srtt_);
  } else if (snd_nxt_ > snd_una_) {
    ++dupacks_;
    ++stats_.dup_acks;
    if (cfg_.telemetry != nullptr) cfg_.telemetry->dup_acks->inc();
    const bool sack_loss =
        sacked_.bytes_in(snd_una_, snd_nxt_) >=
        static_cast<std::uint64_t>(cfg_.sack_loss_mss) * cfg_.cc_cfg.mss;
    if (!in_recovery_ && (dupacks_ >= cfg_.dupack_threshold || sack_loss)) {
      enter_recovery();
    }
  }
  try_send();
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  retx_next_ = snd_una_;
  ++stats_.fast_retransmits;
  if (cfg_.telemetry != nullptr) cfg_.telemetry->fast_retransmits->inc();
  // Open an undo episode so DSACKs can prove this reduction spurious.
  undo_cwnd_ = cc_->cwnd_bytes();
  undo_ssthresh_ = cc_->ssthresh_bytes();
  episode_retx_bytes_ = 0;
  episode_dsack_bytes_ = 0;
  episode_open_ = true;
  cc_->on_loss_event(sim_.now());
  if (cfg_.on_retransmit) cfg_.on_retransmit(flow_, snd_una_, /*timeout=*/false);
}

void TcpSender::update_rtt(sim::Time sample) {
  if (sample <= 0) sample = 1;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const sim::Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg_.min_rto, cfg_.max_rto);
}

void TcpSender::arm_rto() {
  rto_armed_ = true;
  const std::uint64_t generation = ++rto_generation_;
  sim_.schedule(rto_, [this, generation] { on_rto(generation); });
}

bool TcpSender::check_invariants(std::string* why) const {
  bool ok = true;
  const auto fail = [&](const std::string& msg) {
    ok = false;
    if (why != nullptr) {
      *why += "tcp-sender ";
      *why += std::to_string(flow_.src_host) + ":" +
              std::to_string(flow_.src_port) + "->" +
              std::to_string(flow_.dst_host) + ":" +
              std::to_string(flow_.dst_port) + ": " + msg + "\n";
    }
  };
  // Sequence-space ordering: una <= nxt <= high <= stream end. snd_nxt
  // rewinds on RTO but never below snd_una; snd_high never rewinds.
  if (snd_una_ > snd_nxt_) fail("snd_una > snd_nxt");
  if (snd_nxt_ > snd_high_) fail("snd_nxt > snd_high");
  if (snd_high_ > stream_end_) fail("snd_high > stream_end");
  // SACK scoreboard lives inside the outstanding window; anything below
  // snd_una must have been trimmed, anything above snd_nxt never inserted.
  const auto ranges = sacked_.snapshot();
  if (!ranges.empty()) {
    if (ranges.front().first < snd_una_) fail("SACK range below snd_una");
    if (ranges.back().second > snd_nxt_) fail("SACK range above snd_nxt");
  }
  if (fack_ > snd_nxt_) fail("fack above snd_nxt");
  if (in_recovery_) {
    if (snd_una_ >= recover_) fail("in recovery with snd_una >= recover");
    if (recover_ > snd_high_) fail("recover above snd_high");
  }
  // Congestion state: bounds enforced by every CC implementation.
  const double mss = static_cast<double>(cfg_.cc_cfg.mss);
  if (cc_->cwnd_bytes() < mss - 0.5) fail("cwnd below one MSS");
  if (cc_->cwnd_bytes() > cfg_.cc_cfg.max_cwnd_bytes + 0.5) {
    fail("cwnd above max_cwnd_bytes");
  }
  if (cc_->ssthresh_bytes() < 2.0 * mss - 0.5) {
    fail("ssthresh below two MSS");
  }
  if (rto_ < cfg_.min_rto || rto_ > cfg_.max_rto) {
    fail("RTO outside [min_rto, max_rto]");
  }
  // A sender with nothing outstanding must have an empty scoreboard
  // (otherwise the pipe computation stays inflated and the flow can stall).
  if (snd_una_ == snd_nxt_ && !ranges.empty()) {
    fail("idle sender with non-empty SACK scoreboard");
  }
  return ok;
}

void TcpSender::on_rto(std::uint64_t generation) {
  if (generation != rto_generation_ || snd_una_ >= snd_nxt_) return;
  ++stats_.timeouts;
  if (cfg_.telemetry != nullptr) cfg_.telemetry->rtos->inc();
  episode_open_ = false;  // no undo across an RTO
  if (cfg_.on_retransmit) cfg_.on_retransmit(flow_, snd_una_, /*timeout=*/true);
  cc_->on_timeout(sim_.now());
  // Go-back-N: discard the scoreboard and resend from the cumulative ACK
  // point; bytes the receiver already holds are re-acknowledged instantly.
  in_recovery_ = false;
  dupacks_ = 0;
  sacked_.clear();
  fack_ = snd_una_;
  retx_pending_ = 0;
  snd_nxt_ = snd_una_;
  rto_ = std::min(rto_ * 2, cfg_.max_rto);  // exponential backoff
  rto_armed_ = false;
  try_send();
}

void TcpSender::digest_state(sim::Digest& d) const {
  d.mix(flow_.hash());
  d.mix(snd_una_);
  d.mix(snd_nxt_);
  d.mix(snd_high_);
  d.mix(stream_end_);
  d.mix(fack_);
  d.mix(retx_pending_);
  d.mix(in_recovery_ ? recover_ : ~0ULL);
  d.mix(dupacks_);
  for (const auto& [start, end] : sacked_.snapshot()) {
    d.mix(start);
    d.mix(end);
  }
  d.mix_time(srtt_);
  d.mix_time(rttvar_);
  d.mix_time(rto_);
  d.mix_double(cc_->cwnd_bytes());
  d.mix(stats_.fast_retransmits);
  d.mix(stats_.timeouts);
  d.mix(stats_.retransmitted_bytes);
  d.mix(stats_.emitted_segments);
}

}  // namespace presto::tcp
