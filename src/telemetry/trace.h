// Event tracer: a bounded, typed event log of dataplane decisions.
//
// Each probe point records a fixed-size Event (no strings, no allocation per
// event beyond the ring's amortized growth), so tracing costs a branch plus
// a 32-byte append. When the capacity is reached further events are counted
// but not stored — the count still participates in determinism checks.
//
// Traces are deterministic: with the same seed and config, a Simulation
// replays the identical event sequence, so `serialize()` output is
// byte-identical run to run (this is covered by tests/telemetry_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace presto::telemetry {

/// Probe points wired through the stack (ISSUE 1 tentpole list).
enum class EventType : std::uint8_t {
  kEnqueue,             ///< net: frame accepted into a port queue
  kDrop,                ///< net: frame dropped (a = net::counted_cause)
  kFlowcellDispatch,    ///< core: flowcell assigned a label slot
  kGroMerge,            ///< offload: packet merged into a held segment
  kGroFlush,            ///< offload: segment pushed up (a = FlushCause)
  kRetransmit,          ///< tcp: fast retransmit or RTO (a = RetxCause)
  kControllerReweight,  ///< controller: schedules pruned/reweighted
  kFaultEvent,          ///< fault: injected fault fired (a = FaultKind)
  kPathSuspicion,       ///< core: edge down-weighted a suspect label
};

const char* event_type_name(EventType t);

/// Flush causes carried in Event::a for kGroFlush (Algorithm 2 branches).
enum class FlushCause : std::uint64_t {
  kSameFlowcell = 0,  ///< gap inside a flowcell => loss, push now
  kInOrder = 1,       ///< next flowcell continues in order
  kOverlap = 2,       ///< overlap with delivered bytes (retransmission)
  kTimeout = 3,       ///< boundary hold expired => presumed loss
  kStale = 4,         ///< stale flowcell id (retransmission / late gap fill)
  kOfficial = 5,      ///< stock-GRO unconditional push
};

/// Retransmit causes carried in Event::a for kRetransmit.
enum class RetxCause : std::uint64_t {
  kFastRetransmit = 0,  ///< dup-ACK / SACK-byte triggered
  kRto = 1,             ///< retransmission timeout fired
};

/// One trace record. `node`/`port` identify the probe site (switch or host
/// id; port id or -1); `a`/`b` are type-specific operands.
struct Event {
  sim::Time at = 0;
  EventType type = EventType::kEnqueue;
  std::uint32_t node = 0;
  std::int32_t port = -1;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16) : capacity_(capacity) {}

  void record(sim::Time at, EventType type, std::uint32_t node,
              std::int32_t port, std::uint64_t a = 0, std::uint64_t b = 0) {
    ++total_;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{at, type, node, port, a, b});
  }

  const std::vector<Event>& events() const { return events_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Stable text form, one event per line:
  ///   <ns> <type> node=<n> port=<p> a=<a> b=<b>
  /// followed by a summary line. Used by the determinism tests and the JSON
  /// emitter (as an opaque string array is avoided; JSON gets counts only).
  std::string serialize() const;

 private:
  std::size_t capacity_;
  std::vector<Event> events_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace presto::telemetry
