#include "offload/presto_gro.h"

#include <algorithm>

namespace presto::offload {

void PrestoGro::on_packet(const net::Packet& p, sim::Time now) {
  FlowState& f = flows_[p.flow];
  // Try to merge into an existing segment. Newest segments sit at the back,
  // and in-order traffic almost always appends to the newest one, so a
  // backward scan is typically O(1) (the paper keeps the list in reverse
  // sorted order for the same reason, §5 "CPU overhead").
  for (auto it = f.segments.rbegin(); it != f.segments.rend(); ++it) {
    Segment& seg = *it;
    if (p.flowcell_id == seg.flowcell && p.seq == seg.end_seq &&
        seg.bytes() + p.payload <= cfg_.max_segment_bytes) {
      seg.end_seq = p.end_seq();
      ++seg.pkt_count;
      seg.contains_retx = seg.contains_retx || p.is_retx;
      seg.ts_sent = p.ts_sent;
      seg.last_merge = now;
      if (seg.span_id == 0) seg.span_id = p.span_id;
      note_merge(p, now);
      return;
    }
  }
  // No merge possible: keep existing segments (unlike stock GRO) and start a
  // new segment from this packet.
  f.segments.push_back(segment_from(p, now));
}

void PrestoGro::flush(sim::Time now) {
  held_count_ = 0;
  for (auto& [flow, f] : flows_) {
    if (f.segments.empty()) continue;
    // Reordering can leave the list slightly out of order; sort by sequence
    // number so the walk below sees segments lowest-first (Algorithm 2
    // runs an insertion sort for the same purpose).
    std::sort(f.segments.begin(), f.segments.end(),
              [](const Segment& a, const Segment& b) {
                return a.start_seq != b.start_seq ? a.start_seq < b.start_seq
                                                  : a.flowcell < b.flowcell;
              });
    std::vector<Segment> held;
    for (Segment& s : f.segments) {
      if (s.flowcell == f.last_flowcell) {
        // Same flowcell as the newest in-order data: packets of one flowcell
        // share a path, so any gap here is loss — push immediately
        // (Algorithm 2, lines 3-5).
        f.exp_seq = std::max(f.exp_seq, s.end_seq);
        ++push_stats_.same_flowcell;
        push_up(s, FlushCause::kSameFlowcell, now);
      } else if (s.flowcell > f.last_flowcell) {
        if (f.exp_seq == s.start_seq) {
          // Next flowcell continues exactly in order (lines 7-10).
          if (s.held_since >= 0) {
            // This segment was held for a boundary gap that reordered
            // packets have now filled: record the reordering duration.
            ewma_update(f, static_cast<double>(now - s.held_since));
          }
          f.last_flowcell = s.flowcell;
          f.exp_seq = s.end_seq;
          ++push_stats_.in_order;
          push_up(s, FlushCause::kInOrder, now);
        } else if (f.exp_seq > s.start_seq) {
          // Overlap with delivered bytes: a retransmission that begins a new
          // flowcell — push up so TCP reacts without delay (lines 11-13).
          f.last_flowcell = s.flowcell;
          ++push_stats_.overlap;
          push_up(s, FlushCause::kOverlap, now);
        } else if (timed_out(f, s, now)) {
          // Held long enough: assume the boundary gap was loss (lines 14-17).
          f.last_timeout_at = now;
          f.last_timeout_gap_start = s.held_since;
          f.last_flowcell = s.flowcell;
          f.exp_seq = s.end_seq;
          ++push_stats_.timeout;
          push_up(s, FlushCause::kTimeout, now);
        } else {
          // Possible reordering: hold, waiting for the gap to fill.
          if (s.held_since < 0) s.held_since = now;
          ++push_stats_.held;
          note_hold();
          held.push_back(s);
        }
      } else {
        // Stale flowcell ID: a retransmission of old data — or the late
        // arrival of a gap we already declared lost (line 20). In the
        // latter case the timeout misfired on reordering: learn from it.
        if (f.last_timeout_at != 0 &&
            now - f.last_timeout_at < cfg_.misfire_window) {
          ewma_update(
              f, static_cast<double>(now - f.last_timeout_gap_start));
          f.last_timeout_at = 0;
        }
        ++push_stats_.stale;
        push_up(s, FlushCause::kStale, now);
      }
    }
    f.segments = std::move(held);
    held_count_ += f.segments.size();
  }
}

void PrestoGro::ewma_update(FlowState& f, double sample_ns) {
  sample_ns = std::clamp(sample_ns, static_cast<double>(cfg_.min_ewma),
                         static_cast<double>(cfg_.max_ewma));
  if (f.ewma_ns <= 0) {
    f.ewma_ns = sample_ns;
  } else {
    const double gain =
        sample_ns > f.ewma_ns ? cfg_.ewma_gain_up : cfg_.ewma_gain_down;
    f.ewma_ns = (1.0 - gain) * f.ewma_ns + gain * sample_ns;
  }
  ++ewma_samples_;
}

bool PrestoGro::timed_out(const FlowState& f, const Segment& s,
                          sim::Time now) const {
  const double ewma = ewma_ns(f);
  if (static_cast<double>(now - s.held_since) < cfg_.alpha * ewma) {
    return false;
  }
  // Optimization from §3.2: a segment that was merged into very recently is
  // still being actively filled — hold it a little longer.
  if (static_cast<double>(now - s.last_merge) < ewma / cfg_.beta) {
    return false;
  }
  return true;
}

sim::Time PrestoGro::ewma_for(const net::FlowKey& flow) const {
  auto it = flows_.find(flow);
  if (it == flows_.end() || it->second.ewma_ns <= 0) return cfg_.initial_ewma;
  return static_cast<sim::Time>(it->second.ewma_ns);
}

void PrestoGro::digest_state(sim::Digest& d) const {
  d.mix(held_count_);
  for (const auto& [flow, f] : flows_) {
    // Per-flow sub-digest folded commutatively: unordered_map traversal
    // order is not deterministic across runs.
    sim::Digest sub;
    sub.mix(flow.hash());
    sub.mix(f.last_flowcell);
    sub.mix(f.exp_seq);
    sub.mix_double(f.ewma_ns);
    sub.mix_time(f.last_timeout_at);
    sub.mix_time(f.last_timeout_gap_start);
    for (const Segment& s : f.segments) {
      // Segment order within a flow varies until flush() sorts; fold each
      // segment commutatively too.
      sim::Digest seg;
      seg.mix(s.start_seq);
      seg.mix(s.end_seq);
      seg.mix(s.flowcell);
      seg.mix_time(s.held_since);
      sub.mix_unordered(seg.value());
    }
    d.mix_unordered(sub.value());
  }
}

}  // namespace presto::offload
