// Tests pinning Presto GRO to Algorithm 2's behaviour, branch by branch.
#include "offload/presto_gro.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/rng.h"

namespace presto::offload {
namespace {

net::Packet pkt(std::uint64_t seq, std::uint32_t payload,
                std::uint64_t flowcell) {
  net::Packet p;
  p.flow = net::FlowKey{0, 1, 10000, 80};
  p.seq = seq;
  p.payload = payload;
  p.flowcell_id = flowcell;
  return p;
}

class PrestoGroTest : public ::testing::Test {
 protected:
  PrestoGroTest() { reset({}); }

  void reset(PrestoGroConfig cfg) {
    pushed_.clear();
    gro_ = std::make_unique<PrestoGro>(
        [this](Segment s) { pushed_.push_back(s); }, cfg);
  }

  std::unique_ptr<PrestoGro> gro_;
  std::vector<Segment> pushed_;
};

TEST_F(PrestoGroTest, InOrderTrafficMergesPerFlowcell) {
  // Two 3-packet flowcells arriving in order.
  for (int i = 0; i < 3; ++i) gro_->on_packet(pkt(i * 1448, 1448, 1), i);
  for (int i = 3; i < 6; ++i) gro_->on_packet(pkt(i * 1448, 1448, 2), i);
  gro_->flush(10);
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_EQ(pushed_[0].flowcell, 1u);
  EXPECT_EQ(pushed_[0].pkt_count, 3u);
  EXPECT_EQ(pushed_[1].flowcell, 2u);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, ReorderedFlowcellHeldUntilGapFills) {
  // Flowcell 2 arrives before flowcell 1 finishes: hold it.
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->on_packet(pkt(2896, 1448, 2), 1);  // gap at [1448, 2896)
  gro_->flush(10);
  ASSERT_EQ(pushed_.size(), 1u);  // only flowcell 1's first packet
  EXPECT_EQ(pushed_[0].flowcell, 1u);
  EXPECT_TRUE(gro_->has_held_segments());

  // The missing tail of flowcell 1 arrives: same flowcell => pushed, and the
  // held flowcell 2 segment becomes in-order.
  gro_->on_packet(pkt(1448, 1448, 1), 2);
  gro_->flush(20);
  ASSERT_EQ(pushed_.size(), 3u);
  EXPECT_EQ(pushed_[1].flowcell, 1u);
  EXPECT_EQ(pushed_[2].flowcell, 2u);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, PushesInSequenceOrderUnderReordering) {
  // Random per-flowcell arrival order; no loss: TCP must see everything in
  // exact sequence order (the paper's central receiver guarantee). The
  // adaptive timeout is parked high: this test checks the masking logic
  // (timeout behaviour has its own tests).
  // Park the adaptive timeout: these property tests exercise the masking
  // logic alone (the timeout may legitimately expose reordering when a gap
  // outlasts the learned reorder durations; it has its own tests).
  PrestoGroConfig cfg;
  cfg.alpha = 1e9;
  reset(cfg);
  sim::Rng rng(99);
  std::vector<net::Packet> packets;
  for (std::uint64_t fc = 1; fc <= 8; ++fc) {
    for (int i = 0; i < 4; ++i) {
      packets.push_back(
          pkt((fc - 1) * 4 * 1448 + i * 1448, 1448, fc));
    }
  }
  // Shuffle groups of flowcells (packets within a flowcell stay in order:
  // they share a path).
  std::vector<std::size_t> fc_order{0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = fc_order.size() - 1; i > 0; --i) {
    std::swap(fc_order[i], fc_order[rng.below(i + 1)]);
  }
  sim::Time now = 0;
  for (std::size_t fci : fc_order) {
    for (int i = 0; i < 4; ++i) {
      gro_->on_packet(packets[fci * 4 + i], now);
    }
    gro_->flush(now);
    now += 10;  // well inside the hold timeout
  }
  // Drain any held segments by filling time (no timeout should be needed:
  // all data arrived).
  gro_->flush(now);
  std::uint64_t expect = 0;
  for (const Segment& s : pushed_) {
    EXPECT_EQ(s.start_seq, expect) << "segment pushed out of order";
    expect = s.end_seq;
  }
  EXPECT_EQ(expect, 8u * 4 * 1448);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, GapWithinFlowcellIsLossPushedImmediately) {
  gro_->on_packet(pkt(0, 1448, 1), 0);
  // Packet at 2896 of the same flowcell: 1448 was lost on the same path.
  gro_->on_packet(pkt(2896, 1448, 1), 1);
  gro_->flush(10);
  // Both pushed immediately (lines 3-5): TCP must react to loss fast.
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, BoundaryGapTimesOutAsLoss) {
  PrestoGroConfig cfg;
  cfg.initial_ewma = 100 * sim::kMicrosecond;
  cfg.alpha = 2.0;
  reset(cfg);
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->flush(1);
  // First packet of flowcell 2 with the tail of flowcell 1 missing (lost).
  gro_->on_packet(pkt(2896, 1448, 2), 10);
  gro_->flush(10);
  EXPECT_EQ(pushed_.size(), 1u);
  EXPECT_TRUE(gro_->has_held_segments());
  // Before alpha * EWMA: still held.
  gro_->flush(10 + 150 * sim::kMicrosecond);
  EXPECT_TRUE(gro_->has_held_segments());
  // After alpha * EWMA (200 us): declared a loss and pushed.
  gro_->flush(10 + 250 * sim::kMicrosecond);
  EXPECT_FALSE(gro_->has_held_segments());
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_EQ(pushed_[1].flowcell, 2u);
}

TEST_F(PrestoGroTest, BetaHoldExtendsActiveSegments) {
  PrestoGroConfig cfg;
  cfg.initial_ewma = 100 * sim::kMicrosecond;
  reset(cfg);
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->flush(1);
  gro_->on_packet(pkt(2896, 1448, 2), 10);
  gro_->flush(10);
  // Keep merging into the held segment right before the timeout would fire:
  // the beta rule keeps holding it.
  const sim::Time t1 = 10 + 220 * sim::kMicrosecond;
  gro_->on_packet(pkt(4344, 1448, 2), t1);
  gro_->flush(t1 + 1);
  EXPECT_TRUE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, StaleFlowcellPushedImmediately) {
  for (int i = 0; i < 3; ++i) gro_->on_packet(pkt(i * 1448, 1448, 5), i);
  gro_->flush(10);
  ASSERT_EQ(pushed_.size(), 1u);
  // A retransmission tagged with an older flowcell ID (line 20).
  gro_->on_packet(pkt(0, 1448, 3), 20);
  gro_->flush(20);
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_EQ(pushed_[1].flowcell, 3u);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, RetransmissionOverlappingDeliveredPushed) {
  for (int i = 0; i < 3; ++i) gro_->on_packet(pkt(i * 1448, 1448, 1), i);
  gro_->flush(10);
  // Retransmission of already-delivered bytes arrives with a *newer*
  // flowcell ID (retransmits run through flowcell creation again, §3.1):
  // exp_seq > start_seq => line 11-13, pushed immediately.
  gro_->on_packet(pkt(1448, 1448, 2), 20);
  gro_->flush(20);
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_FALSE(gro_->has_held_segments());
}

TEST_F(PrestoGroTest, EwmaLearnsFromFilledGaps) {
  PrestoGroConfig cfg;
  cfg.initial_ewma = 100 * sim::kMicrosecond;
  reset(cfg);
  const net::FlowKey flow = pkt(0, 1, 1).flow;
  EXPECT_EQ(gro_->ewma_for(flow), cfg.initial_ewma);
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->flush(0);
  gro_->on_packet(pkt(2896, 1448, 2), 0);
  gro_->flush(0);  // held, gap at boundary
  // Gap fills 40 us later.
  const sim::Time fill = 40 * sim::kMicrosecond;
  gro_->on_packet(pkt(1448, 1448, 1), fill);
  gro_->flush(fill);
  EXPECT_EQ(gro_->ewma_samples(), 1u);
  EXPECT_LT(gro_->ewma_for(flow), cfg.initial_ewma);
  EXPECT_GT(gro_->ewma_for(flow), 0);
}

TEST_F(PrestoGroTest, MisfireFeedbackGrowsEwma) {
  PrestoGroConfig cfg;
  cfg.initial_ewma = 50 * sim::kMicrosecond;
  reset(cfg);
  const net::FlowKey flow = pkt(0, 1, 1).flow;
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->flush(0);
  gro_->on_packet(pkt(2896, 1448, 2), 0);
  gro_->flush(0);
  // Timeout fires (no fill): declared loss.
  gro_->flush(300 * sim::kMicrosecond);
  EXPECT_FALSE(gro_->has_held_segments());
  // The "lost" data shows up shortly after: it was reordering. The EWMA
  // must grow so the next hold lasts longer.
  gro_->on_packet(pkt(1448, 1448, 1), 320 * sim::kMicrosecond);
  gro_->flush(320 * sim::kMicrosecond);
  EXPECT_GT(gro_->ewma_for(flow), cfg.initial_ewma);
}

TEST_F(PrestoGroTest, SegmentsNeverExceedTsoCap) {
  for (int i = 0; i < 50; ++i) {
    gro_->on_packet(pkt(static_cast<std::uint64_t>(i) * 1448, 1448, 1), i);
  }
  gro_->flush(100);
  for (const Segment& s : pushed_) EXPECT_LE(s.bytes(), 65536u);
}

TEST_F(PrestoGroTest, SameOffsetsLossVsReorderTakeDifferentPaths) {
  // The same byte offsets with the same gap — [0, 1448) present, [1448,
  // 2896) missing, [2896, 4344) arriving — classify differently depending
  // only on the flowcell tag of the arriving packet. In-cell gap: the
  // packets shared a path, so the gap is loss and everything is pushed at
  // once. Boundary gap: the new flowcell took another path, so the gap may
  // be reordering and the segment is held.
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->on_packet(pkt(2896, 1448, 1), 1);  // same flowcell
  gro_->flush(1);
  EXPECT_EQ(pushed_.size(), 2u);
  EXPECT_FALSE(gro_->has_held_segments());
  EXPECT_GE(gro_->push_stats().same_flowcell, 1u);
  EXPECT_EQ(gro_->push_stats().held, 0u);

  reset({});
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->on_packet(pkt(2896, 1448, 2), 1);  // next flowcell, same offsets
  gro_->flush(1);
  EXPECT_EQ(pushed_.size(), 1u);
  EXPECT_TRUE(gro_->has_held_segments());
  EXPECT_GE(gro_->push_stats().held, 1u);
  EXPECT_EQ(gro_->push_stats().timeout, 0u);
}

TEST_F(PrestoGroTest, InCellLossLeavesReorderEwmaUntouched) {
  // Loss classification must not pollute the reordering-duration estimate:
  // only boundary holds that later fill feed the EWMA.
  PrestoGroConfig cfg;
  reset(cfg);
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->on_packet(pkt(2896, 1448, 1), 1);
  gro_->flush(1);
  EXPECT_EQ(gro_->ewma_samples(), 0u);
  EXPECT_EQ(gro_->ewma_for(pkt(0, 1, 1).flow), cfg.initial_ewma);
}

TEST_F(PrestoGroTest, AlphaScalesTheHoldDeadline) {
  for (const double alpha : {1.0, 4.0}) {
    PrestoGroConfig cfg;
    cfg.alpha = alpha;
    cfg.initial_ewma = 100 * sim::kMicrosecond;
    reset(cfg);
    gro_->on_packet(pkt(0, 1448, 1), 0);
    gro_->flush(0);
    gro_->on_packet(pkt(2896, 1448, 2), 0);
    gro_->flush(0);
    ASSERT_TRUE(gro_->has_held_segments()) << "alpha=" << alpha;
    const sim::Time deadline =
        static_cast<sim::Time>(alpha * 100 * sim::kMicrosecond);
    // Just before alpha * EWMA: still held (the beta extension has already
    // lapsed — last merge was at t=0).
    gro_->flush(deadline - 20 * sim::kMicrosecond);
    EXPECT_TRUE(gro_->has_held_segments()) << "alpha=" << alpha;
    gro_->flush(deadline + 20 * sim::kMicrosecond);
    EXPECT_FALSE(gro_->has_held_segments()) << "alpha=" << alpha;
    EXPECT_EQ(gro_->push_stats().timeout, 1u) << "alpha=" << alpha;
  }
}

TEST_F(PrestoGroTest, BetaHoldExpiresOnceMergesStop) {
  // The beta rule extends a hold past the alpha deadline while the segment
  // keeps merging — but once merges stop, the segment must drain at
  // last_merge + EWMA / beta rather than being held forever.
  PrestoGroConfig cfg;
  cfg.initial_ewma = 100 * sim::kMicrosecond;
  reset(cfg);
  gro_->on_packet(pkt(0, 1448, 1), 0);
  gro_->flush(1);
  gro_->on_packet(pkt(2896, 1448, 2), 10);
  gro_->flush(10);
  // Merge right as the alpha deadline (10 + 200 us) lapses: beta holds.
  const sim::Time t1 = 10 + 220 * sim::kMicrosecond;
  gro_->on_packet(pkt(4344, 1448, 2), t1);
  gro_->flush(t1 + 1);
  ASSERT_TRUE(gro_->has_held_segments());
  // EWMA / beta = 50 us after the last merge both conditions fail.
  gro_->flush(t1 + 60 * sim::kMicrosecond);
  EXPECT_FALSE(gro_->has_held_segments());
  ASSERT_EQ(pushed_.size(), 2u);
  EXPECT_EQ(pushed_[1].start_seq, 2896u);
  EXPECT_EQ(pushed_[1].end_seq, 5792u);  // both merged packets drained
}

TEST_F(PrestoGroTest, EwmaNeverDecaysBelowFloor) {
  PrestoGroConfig cfg;
  reset(cfg);
  const net::FlowKey flow = pkt(0, 1, 1).flow;
  // Hundreds of instantly-filled boundary gaps: each reorder sample is ~0,
  // clamped up to min_ewma, so the estimate converges onto the floor and
  // never below it (a hair-trigger timeout would misfire constantly).
  sim::Time t = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 4344;
    const std::uint64_t cell_a = 2 * static_cast<std::uint64_t>(i) + 1;
    gro_->on_packet(pkt(base, 1448, cell_a), t);
    gro_->on_packet(pkt(base + 2896, 1448, cell_a + 1), t);
    gro_->flush(t);  // boundary gap: held
    gro_->on_packet(pkt(base + 1448, 1448, cell_a), t);
    gro_->flush(t);  // gap filled instantly: sample ~0, clamped
    t += sim::kMillisecond;
  }
  EXPECT_FALSE(gro_->has_held_segments());
  EXPECT_GE(gro_->ewma_for(flow), cfg.min_ewma);
  EXPECT_LE(gro_->ewma_for(flow), cfg.min_ewma + 10 * sim::kMicrosecond);
}

TEST_F(PrestoGroTest, MisfireFeedbackSaturatesAtEwmaCeiling) {
  PrestoGroConfig cfg;
  reset(cfg);
  const net::FlowKey flow = pkt(0, 1, 1).flow;
  // Repeated pathological reordering: every hold times out, then the
  // "lost" bytes show up ~4.8 ms late (inside the misfire window). The
  // feedback samples are clamped to max_ewma, so the learned timeout grows
  // to the ceiling and no further — loss recovery stays bounded.
  sim::Time t = 0;
  for (int i = 0; i < 15; ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 4344;
    const std::uint64_t cell_a = 2 * static_cast<std::uint64_t>(i) + 1;
    gro_->on_packet(pkt(base, 1448, cell_a), t);
    gro_->flush(t);
    gro_->on_packet(pkt(base + 2896, 1448, cell_a + 1), t);
    gro_->flush(t);  // held
    // Past alpha * max_ewma (4 ms): guaranteed timeout.
    gro_->flush(t + 4500 * sim::kMicrosecond);
    EXPECT_FALSE(gro_->has_held_segments());
    // The gap fills late, with the now-stale flowcell id.
    gro_->on_packet(pkt(base + 1448, 1448, cell_a),
                    t + 4800 * sim::kMicrosecond);
    gro_->flush(t + 4800 * sim::kMicrosecond);
    t += 10 * sim::kMillisecond;
  }
  EXPECT_LE(gro_->ewma_for(flow), cfg.max_ewma);
  EXPECT_GE(gro_->ewma_for(flow), (9 * cfg.max_ewma) / 10);
}

TEST_F(PrestoGroTest, MultipleFlowsIndependentState) {
  net::Packet a = pkt(0, 1448, 1);
  net::Packet b = pkt(0, 1448, 1);
  b.flow.src_port = 2222;
  gro_->on_packet(a, 0);
  gro_->on_packet(b, 0);
  gro_->flush(1);
  EXPECT_EQ(pushed_.size(), 2u);
}

// flush() stops after the last flow holding segments. Many flows, a random
// subset of them per poll, and flowcells that alternate between two paths,
// so some flows hold segments across flushes while others go idle. With
// the timeout parked and no loss, after every flush each flow must have
// pushed exactly its contiguous offered prefix, in order, and hold one
// segment per flowcell with bytes beyond it: a skipped busy flow falls
// behind its prefix, and a miscounted walk runs off the flow table.
TEST_F(PrestoGroTest, ManyFlowsFlushSkipsNoBusyFlow) {
  constexpr int kFlows = 48;
  constexpr std::uint64_t kFlowcells = 10;
  constexpr std::uint64_t kPktsPer = 4;
  constexpr std::uint64_t kMss = 1448;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    PrestoGroConfig cfg;
    cfg.alpha = 1e9;  // timeout parked: masking logic only (see above)
    reset(cfg);
    sim::Rng rng(seed);

    struct Flow {
      std::vector<net::Packet> path[2];  // even / odd flowcells, in order
      std::size_t next[2] = {0, 0};
      std::vector<bool> arrived;          // per packet index
      std::uint64_t pushed_end = 0;
      bool done() const {
        return next[0] == path[0].size() && next[1] == path[1].size();
      }
    };
    std::vector<Flow> flows(kFlows);
    for (int i = 0; i < kFlows; ++i) {
      Flow& f = flows[static_cast<std::size_t>(i)];
      f.arrived.assign(kFlowcells * kPktsPer, false);
      for (std::uint64_t fc = 1; fc <= kFlowcells; ++fc) {
        for (std::uint64_t k = 0; k < kPktsPer; ++k) {
          net::Packet p = pkt(((fc - 1) * kPktsPer + k) * kMss, kMss, fc);
          p.flow.src_port = 20000 + static_cast<std::uint32_t>(i);
          f.path[fc % 2].push_back(p);
        }
      }
    }
    auto flow_of = [](const net::FlowKey& key) {
      return static_cast<std::size_t>(key.src_port - 20000);
    };

    sim::Time now = 0;
    for (int poll = 0;; ++poll) {
      // A random subset of the unfinished flows sends a burst from one
      // path; the bursts interleave at random, each path staying in order.
      std::vector<std::vector<net::Packet>> bursts;
      bool unfinished = false;
      for (Flow& f : flows) {
        if (f.done()) continue;
        unfinished = true;
        if (rng.below(4) != 0) continue;
        int which = static_cast<int>(rng.below(2));
        if (f.next[which] == f.path[which].size()) which = 1 - which;
        std::vector<net::Packet> burst;
        for (std::uint64_t k = 1 + rng.below(3);
             k > 0 && f.next[which] < f.path[which].size(); --k) {
          burst.push_back(f.path[which][f.next[which]++]);
        }
        std::reverse(burst.begin(), burst.end());
        bursts.push_back(std::move(burst));
      }
      if (!unfinished) break;
      while (!bursts.empty()) {
        const std::size_t b = rng.below(bursts.size());
        const net::Packet p = bursts[b].back();
        bursts[b].pop_back();
        if (bursts[b].empty()) bursts.erase(bursts.begin() + b);
        flows[flow_of(p.flow)].arrived[p.seq / kMss] = true;
        gro_->on_packet(p, now);
      }
      const std::size_t first_new = pushed_.size();
      gro_->flush(now);
      now += static_cast<sim::Time>(1 + rng.below(20)) * sim::kMicrosecond;

      for (std::size_t i = first_new; i < pushed_.size(); ++i) {
        Flow& f = flows[flow_of(pushed_[i].flow)];
        ASSERT_EQ(pushed_[i].start_seq, f.pushed_end)
            << "seed " << seed << " poll " << poll << ": out of order";
        f.pushed_end = pushed_[i].end_seq;
      }
      std::size_t held = 0;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& f = flows[i];
        std::size_t prefix = 0;
        while (prefix < f.arrived.size() && f.arrived[prefix]) ++prefix;
        ASSERT_EQ(f.pushed_end, prefix * kMss)
            << "seed " << seed << " poll " << poll << " flow " << i;
        // One held segment per flowcell with bytes past the prefix.
        std::uint64_t last_fc = 0;
        for (std::size_t k = prefix; k < f.arrived.size(); ++k) {
          const std::uint64_t fc = k / kPktsPer + 1;
          if (f.arrived[k] && fc != last_fc) {
            ++held;
            last_fc = fc;
          }
        }
      }
      ASSERT_EQ(gro_->held_segments(), held)
          << "seed " << seed << " poll " << poll;
      ASSERT_EQ(gro_->has_held_segments(), held > 0);
    }
    for (const Flow& f : flows) {
      EXPECT_EQ(f.pushed_end, kFlowcells * kPktsPer * kMss);
    }
    EXPECT_FALSE(gro_->has_held_segments());
    EXPECT_GT(gro_->push_stats().held, 0u);
  }
}

// Property sweep: arbitrary interleavings of two paths' flowcell streams,
// no loss => in-order delivery of every byte, no held leftovers after the
// final fill, regardless of seed.
class PrestoGroInterleaveTest : public ::testing::TestWithParam<int> {};

TEST_P(PrestoGroInterleaveTest, AlwaysInOrderWithoutLoss) {
  sim::Rng rng(GetParam());
  std::vector<Segment> pushed;
  PrestoGroConfig cfg;
  cfg.alpha = 1e9;  // timeout parked: masking logic only (see above)
  PrestoGro gro([&](Segment s) { pushed.push_back(s); }, cfg);

  // Flowcells alternate between two "paths" (even/odd); each path delivers
  // its own packets in order, but the two paths interleave arbitrarily.
  constexpr int kFlowcells = 12;
  constexpr int kPktsPer = 5;
  std::vector<std::vector<net::Packet>> path(2);
  for (std::uint64_t fc = 1; fc <= kFlowcells; ++fc) {
    for (int i = 0; i < kPktsPer; ++i) {
      path[fc % 2].push_back(
          pkt((fc - 1) * kPktsPer * 1448 + i * 1448, 1448, fc));
    }
  }
  std::size_t idx[2] = {0, 0};
  sim::Time now = 0;
  while (idx[0] < path[0].size() || idx[1] < path[1].size()) {
    const int which = (idx[0] >= path[0].size())   ? 1
                      : (idx[1] >= path[1].size()) ? 0
                                                   : static_cast<int>(rng.below(2));
    // Deliver a small burst from that path.
    const std::uint64_t burst = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < burst && idx[which] < path[which].size();
         ++k) {
      gro.on_packet(path[which][idx[which]++], now);
    }
    gro.flush(now);
    now += static_cast<sim::Time>(rng.below(30)) * sim::kMicrosecond;
  }
  gro.flush(now);
  // Everything arrived; nothing may be stuck and order must be perfect.
  std::uint64_t expect = 0;
  for (const Segment& s : pushed) {
    ASSERT_EQ(s.start_seq, expect);
    expect = s.end_seq;
  }
  EXPECT_EQ(expect, static_cast<std::uint64_t>(kFlowcells) * kPktsPer * 1448);
  EXPECT_FALSE(gro.has_held_segments());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrestoGroInterleaveTest,
                         ::testing::Range(1, 17));

}  // namespace
}  // namespace presto::offload
