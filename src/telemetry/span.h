// Flight recorder, part 2: causal spans following sampled flowcells.
//
// A span opens when the FlowcellEngine dispatches a *sampled* flowcell
// (every Nth cell, a TelemetryConfig knob) and carries the shadow-MAC label
// chosen for it. The packets of that cell are stamped with the span id,
// which travels with them through TSO replication, so every layer they
// cross can annotate the span: per-hop enqueue/dequeue (and drops) at every
// port, no-route drops at switches (both through the datapath NetObserver),
// merge/flush decisions in the GRO engines, and finally closure when the
// TCP receiver's in-order frontier passes the span's byte range. The result is a per-cell latency
// breakdown (host egress vs queueing vs reorder-wait) attributed to the
// label that carried the cell.
//
// Overhead discipline: when span tracing is disabled the probe pointer is
// null and every call site is a single null check; when enabled, non-sampled
// cells cost one counter increment at dispatch and a `span_id == 0` check
// elsewhere. Spans and annotations live in bounded buffers; overflow is
// counted, never allocated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow_key.h"
#include "sim/time.h"

namespace presto::telemetry {

/// Annotation kinds, in rough causal order along the data path.
enum class SpanEventKind : std::uint8_t {
  kDispatch,   ///< core: a segment of the cell left the vSwitch LB
  kEnqueue,    ///< net: a frame of the cell entered a port queue
  kDequeue,    ///< net: a frame finished serializing out of a port
  kDrop,       ///< net: a frame of the cell was dropped (marks the span)
  kGroMerge,   ///< offload: a frame merged into a held segment
  kGroFlush,   ///< offload: a segment of the cell was pushed up
  kDelivered,  ///< tcp: in-order frontier passed the span's byte range
};

const char* span_event_kind_name(SpanEventKind k);

/// One annotation. `node`/`port` identify the probe site; `seq`/`bytes`
/// locate the frame or segment within the flow's byte stream.
struct SpanEvent {
  std::uint32_t span = 0;
  sim::Time at = 0;
  SpanEventKind kind = SpanEventKind::kDispatch;
  std::uint32_t node = 0;
  std::int32_t port = -1;
  std::uint64_t seq = 0;
  std::uint64_t bytes = 0;
};

/// One sampled flowcell's lifetime. `closed < 0` while in flight.
struct Span {
  std::uint32_t id = 0;
  net::FlowKey flow;
  std::uint64_t flowcell = 0;
  net::MacAddr label = net::kInvalidMac;
  std::uint64_t start_seq = 0;
  std::uint64_t end_seq = 0;
  sim::Time opened = 0;
  sim::Time closed = -1;
  bool dropped = false;  ///< at least one frame of the cell died on the wire
  bool evicted = false;  ///< force-closed by finalize(), not by delivery
};

struct SpanTracerConfig {
  /// Sample every Nth dispatched flowcell (1 = every cell; 0 disables).
  std::uint32_t sample_every = 64;
  std::size_t max_spans = 1024;
  std::size_t max_events = 1 << 16;
};

class SpanTracer {
 public:
  explicit SpanTracer(SpanTracerConfig cfg = {}) : cfg_(cfg) {
    spans_.reserve(cfg_.max_spans < 64 ? cfg_.max_spans : 64);
  }

  /// Called once per dispatched flowcell; opens a span for every Nth and
  /// returns its id (0 = not sampled or out of span slots).
  std::uint32_t open(sim::Time now, const net::FlowKey& flow,
                     std::uint64_t flowcell, net::MacAddr label,
                     std::uint64_t start_seq);

  /// Grows the span's byte range as further segments of the cell dispatch.
  void extend(std::uint32_t span, std::uint64_t end_seq);

  /// Appends one annotation (no-op for span 0 / after close, except that a
  /// kDrop always marks the span as dropped).
  void annotate(std::uint32_t span, SpanEventKind kind, sim::Time at,
                std::uint32_t node, std::int32_t port, std::uint64_t seq,
                std::uint64_t bytes);

  /// TCP in-order frontier advanced: closes every open span of `flow` whose
  /// byte range is now fully delivered.
  void on_delivered(const net::FlowKey& flow, std::uint64_t rcv_nxt,
                    sim::Time now);

  /// End-of-run: force-closes leftover open spans as evicted so exports
  /// never contain dangling spans. Idempotent.
  void finalize(sim::Time now);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SpanEvent>& events() const { return events_; }

  std::uint64_t cells_seen() const { return cells_seen_; }
  std::uint64_t spans_opened() const { return spans_opened_; }
  std::uint64_t spans_closed() const { return spans_closed_; }
  std::uint64_t spans_skipped() const { return spans_skipped_; }
  std::uint64_t events_dropped() const { return events_dropped_; }
  std::size_t open_count() const { return open_.size(); }

 private:
  Span* get(std::uint32_t id) {
    return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  }
  void close(Span& s, sim::Time now, bool evicted);

  SpanTracerConfig cfg_;
  std::vector<Span> spans_;
  std::vector<SpanEvent> events_;
  std::vector<std::uint32_t> open_;  ///< ids of in-flight spans
  std::uint64_t cells_seen_ = 0;
  std::uint64_t spans_opened_ = 0;
  std::uint64_t spans_closed_ = 0;
  std::uint64_t spans_skipped_ = 0;  ///< sampled but out of span slots
  std::uint64_t events_dropped_ = 0;
};

}  // namespace presto::telemetry
