#include "core/flowcell_engine.h"

#include <algorithm>

namespace presto::core {

void FlowcellEngine::on_segment(net::Packet& seg) {
  FlowState& st = flows_[seg.flow];
  const std::vector<net::MacAddr>* sched = labels_.schedule(seg.dst_host);

  if (telem_ != nullptr) telem_->segments->inc();
  if (!st.initialized) {
    st.initialized = true;
    st.map_version = labels_.version();
    ++flowcells_created_;
    if (telem_ != nullptr) telem_->cells->inc();
    if (sched != nullptr) {
      // Randomize the starting path so independent senders don't stampede
      // the same spanning tree in lockstep.
      st.cursor = static_cast<std::size_t>(
          net::mix64(seg.flow.hash() ^ cfg_.seed) % sched->size());
    }
  } else if (sched != nullptr && st.map_version != labels_.version()) {
    // The controller replaced the schedule (failure/weight update); the
    // cursor is re-interpreted modulo the new length below.
    st.map_version = labels_.version();
  }

  // Algorithm 1, lines 1-7: bytecount accumulates consecutive segment
  // lengths; crossing the threshold starts a new flowcell on the next label.
  const std::uint64_t len =
      seg.payload > 0 ? seg.payload : net::kHeaderBytes;  // pure-ACK skb len
  if (st.bytecount + len > cfg_.threshold_bytes) {
    st.bytecount = len;
    if (sched != nullptr) {
      if (cfg_.random_selection) {
        // Ablation: random path per flowcell (vs the paper's round robin).
        st.cursor = static_cast<std::size_t>(
            net::mix64(cfg_.seed ^ seg.flow.hash() ^
                       (st.flowcell_id * 0x9E3779B97F4A7C15ULL)) %
            sched->size());
      } else {
        st.cursor = st.cursor + 1;
      }
    }
    ++st.flowcell_id;
    ++flowcells_created_;
    if (telem_ != nullptr) telem_->cells->inc();
  } else {
    st.bytecount += len;
  }

  // Algorithm 1, lines 8-9: stamp the segment; TSO replicates these fields
  // onto every derived MTU packet.
  seg.flowcell_id = st.flowcell_id;
  if (cfg_.per_hop_ecmp) {
    seg.ecmp_extra = st.flowcell_id;  // hash on flowcell ID at every hop
    trace_dispatch(st, seg);          // label = the real dst MAC
    return;                           // dst MAC stays the real address
  }
  if (sched != nullptr) {
    std::size_t slot = st.cursor % sched->size();
    if (cfg_.path_suspicion && sched->size() > 1) {
      // Steer off quarantined labels: advance to the next healthy slot,
      // keeping the original slot if every label is suspect (never stall
      // the flow entirely).
      for (std::size_t k = 0; k < sched->size(); ++k) {
        const std::size_t cand = (st.cursor + k) % sched->size();
        if (!label_suspect((*sched)[cand])) {
          if (k > 0) {
            st.cursor += k;  // resume round robin after the detour
            slot = cand;
            if (telem_ != nullptr) telem_->suspicion_skips->inc(k);
          }
          break;
        }
      }
    }
    seg.dst_mac = (*sched)[slot];
    if (dispatch_tap_) {
      bool all_suspect = true;
      for (const net::MacAddr l : *sched) {
        if (!label_suspect(l)) {
          all_suspect = false;
          break;
        }
      }
      dispatch_tap_(seg.flow, st.flowcell_id, seg.dst_mac,
                    label_suspect(seg.dst_mac), all_suspect);
    }
    trace_dispatch(st, seg);
    note_dispatched_cell(st, st.flowcell_id, seg.seq, seg.dst_mac);
    if (telem_ != nullptr) {
      telem_->label_index->add(static_cast<double>(slot));
    }
  }
}

void FlowcellEngine::trace_dispatch(FlowState& st, net::Packet& seg) {
  // Pure ACKs ride the engine for byte counting but are not part of any
  // data cell's causal story — never stamp them.
  if (telem_ == nullptr || telem_->spans == nullptr || seg.payload == 0) {
    return;
  }
  if (st.span_cell != st.flowcell_id) {
    st.span_cell = st.flowcell_id;
    st.span = telem_->spans->open(now(), seg.flow, st.flowcell_id,
                                  seg.dst_mac, seg.seq);
  }
  if (st.span == 0) return;
  telem_->spans->extend(st.span, seg.end_seq());
  seg.span_id = st.span;
  telem_->spans->annotate(st.span, telemetry::SpanEventKind::kDispatch, now(),
                          seg.flow.src_host, -1, seg.seq, seg.payload);
}

void FlowcellEngine::note_dispatched_cell(FlowState& st, std::uint64_t cell,
                                          std::uint64_t seq,
                                          net::MacAddr label) {
  if (st.last_noted_cell == cell) return;  // one record per flowcell
  st.last_noted_cell = cell;
  st.recent_cells[st.ring_head] = {seq, label};
  st.ring_head = static_cast<std::uint8_t>((st.ring_head + 1) %
                                           st.recent_cells.size());
}

net::MacAddr FlowcellEngine::label_for_seq(const FlowState& st,
                                           std::uint64_t hole_seq) const {
  const std::size_t n = st.recent_cells.size();
  net::MacAddr oldest = net::kInvalidMac;
  // Newest-to-oldest: the first cell starting at or below the hole is the
  // latest attempt at that byte range — the dispatch that actually lost it.
  for (std::size_t i = 1; i <= n; ++i) {
    const FlowState::CellRecord& rec = st.recent_cells[(st.ring_head + n - i) % n];
    if (rec.label == net::kInvalidMac) break;
    if (rec.seq <= hole_seq) return rec.label;
    oldest = rec.label;
  }
  return oldest;  // hole predates the ring: nearest-in-time guess
}

bool FlowcellEngine::label_suspect(net::MacAddr label) const {
  const auto it = health_.find(label);
  return it != health_.end() && now() < it->second.suspect_until;
}

void FlowcellEngine::blame_label(net::MacAddr label, bool timeout) {
  LabelHealth& h = health_[label];
  const sim::Time t = now();
  // Evidence arriving while the label is already quarantined describes data
  // dispatched before the quarantine began; extending the hold for it would
  // keep a healed path locked out long after the fault clears. Escalation
  // is driven only by failed retries after an expiry.
  if (t < h.suspect_until) return;
  // Strikes decay: a label clean since the corroboration window started
  // over instead of escalating straight to the maximum hold.
  if (h.strikes > 0 && t > h.last_signal + 4 * cfg_.suspicion_hold) {
    h.strikes = 0;
  }
  ++h.strikes;
  h.last_signal = t;
  // A lone fast-retransmit is as likely reordering or an isolated
  // congestion drop as a path fault; quarantining on it measurably hurts
  // the healthy fabric. Require corroboration — a second strike while the
  // first is still fresh — before acting. An RTO (a sender stalled for
  // hundreds of ms) is a strong blackhole signal and acts immediately.
  if (!timeout && h.strikes < 2) return;
  const std::uint32_t esc = h.strikes >= 2 ? h.strikes - 2 : 0;
  const std::uint32_t shift = esc > 6 ? 6 : esc;
  sim::Time hold = cfg_.suspicion_hold << shift;
  if (timeout) hold *= 4;
  if (hold > cfg_.suspicion_max_hold) hold = cfg_.suspicion_max_hold;
  h.suspect_until = std::max(h.suspect_until, t + hold);
}

void FlowcellEngine::on_loss_signal(const net::FlowKey& flow,
                                    std::uint64_t hole_seq, bool timeout) {
  if (!cfg_.path_suspicion) return;
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& st = it->second;
  const net::MacAddr label = label_for_seq(st, hole_seq);
  if (label == net::kInvalidMac) return;
  blame_label(label, timeout);
  st.last_blamed = label;
  if (telem_ != nullptr) telem_->suspicion_signals->inc();
}

void FlowcellEngine::on_recovery_signal(const net::FlowKey& flow) {
  if (!cfg_.path_suspicion) return;
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& st = it->second;
  const net::MacAddr label = st.last_blamed;
  st.last_blamed = net::kInvalidMac;
  if (label == net::kInvalidMac) return;
  const auto h = health_.find(label);
  if (h != health_.end() && now() < h->second.suspect_until) {
    // The indictment was reordering, not loss: lift the quarantine and
    // roll the strike back.
    h->second.suspect_until = now();
    if (h->second.strikes > 0) --h->second.strikes;
    if (telem_ != nullptr) telem_->suspicion_clears->inc();
  }
}

void FlowcellEngine::digest_state(sim::Digest& d) const {
  d.mix(flowcells_created_);
  for (const auto& [flow, st] : flows_) {
    sim::Digest sub;
    sub.mix(flow.hash());
    sub.mix(st.bytecount);
    sub.mix(st.flowcell_id);
    sub.mix(st.cursor);
    sub.mix(st.initialized ? 1 : 0);
    sub.mix(st.map_version);
    sub.mix(st.last_blamed);
    d.mix_unordered(sub.value());
  }
  for (const auto& [label, h] : health_) {
    sim::Digest sub;
    sub.mix(label);
    sub.mix_time(h.suspect_until);
    sub.mix(h.strikes);
    sub.mix_time(h.last_signal);
    d.mix_unordered(sub.value());
  }
}

}  // namespace presto::core
