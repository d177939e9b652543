// Freelist arena of Packet objects.
//
// Host parks each jitter-delayed egress segment in a pooled slot, so the
// delay event captures only {this, Packet*} (16 bytes — inline in EventFn,
// so no per-segment heap allocation) instead of a 152-byte Packet. (TxPort
// keeps its frames in its own ring; see net/port.h.)
//
// No field — sequence numbers, flowcell_id, span_id, SACK blocks,
// retransmit flags — can leak from one packet incarnation into the next
// (tests/net_test.cc locks this down): acquire() resets the slot to a
// default-constructed Packet before handing it out, and acquire(Packet&&)
// overwrites every field by whole-struct assignment, so the sanitizing
// store happens exactly once per cycle on whichever path runs.
//
// Not thread-safe: one pool per owning component, all on the simulation
// thread (same discipline as the rest of the simulator).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace presto::net {

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Returns a default-constructed Packet slot (grows by a chunk when the
  /// freelist is empty; steady state never allocates).
  Packet* acquire() {
    Packet* p = take();
    *p = Packet{};
    return p;
  }

  /// Fills a slot from `p` (the common acquire-and-assign step). The
  /// assignment covers every Packet field, so no separate reset is needed.
  Packet* acquire(Packet&& p) {
    Packet* slot = take();
    *slot = std::move(p);
    return slot;
  }

  /// Returns `p` to the freelist. The stale contents are unreachable: both
  /// acquire paths overwrite the slot before handing it out again.
  void release(Packet* p) {
    free_.push_back(p);
    --in_use_;
  }

  /// Slots handed out and not yet released.
  std::size_t in_use() const { return in_use_; }
  /// Total slots ever allocated (all chunks).
  std::size_t capacity() const { return chunks_.size() * kChunk; }

 private:
  static constexpr std::size_t kChunk = 64;

  Packet* take() {
    if (free_.empty()) grow();
    Packet* p = free_.back();
    free_.pop_back();
    ++in_use_;
    return p;
  }

  void grow() {
    chunks_.push_back(std::make_unique<Packet[]>(kChunk));
    Packet* base = chunks_.back().get();
    for (std::size_t i = 0; i < kChunk; ++i) free_.push_back(base + i);
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
  std::size_t in_use_ = 0;
};

}  // namespace presto::net
