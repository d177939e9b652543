#include "offload/official_gro.h"

namespace presto::offload {

void OfficialGro::on_packet(const net::Packet& p, sim::Time now) {
  auto it = gro_list_.find(p.flow);
  if (it == gro_list_.end()) {
    gro_list_.emplace(p.flow, segment_from(p, now));
    return;
  }
  Segment& seg = it->second;
  if (p.seq == seg.end_seq && seg.bytes() + p.payload <= max_bytes_) {
    // In-order continuation: merge. (Stock GRO keys purely on the flow and
    // sequence contiguity; it is unaware of Presto flowcell IDs.)
    seg.end_seq = p.end_seq();
    ++seg.pkt_count;
    seg.contains_retx = seg.contains_retx || p.is_retx;
    seg.ts_sent = p.ts_sent;
    seg.last_merge = now;
    if (p.flowcell_id > seg.flowcell) seg.flowcell = p.flowcell_id;
    if (seg.span_id == 0) seg.span_id = p.span_id;
    note_merge(p, now);
    return;
  }
  // Cannot merge (reordered packet or full segment): push the old segment up
  // and start a new one from this packet.
  push_up(seg, FlushCause::kOfficial, now);
  it->second = segment_from(p, now);
}

void OfficialGro::flush(sim::Time now) {
  for (auto& [flow, seg] : gro_list_) {
    push_up(seg, FlushCause::kOfficial, now);
  }
  gro_list_.clear();
}

}  // namespace presto::offload
