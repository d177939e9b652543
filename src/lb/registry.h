// Load-balancing scheme registry (ISSUE 9 tentpole).
//
// One table maps every scheme to its stable spec name (the token used by
// scenario specs, bench CLIs, and CI matrices), display name, receiver-side
// offload expectation, capability flags, and a factory building the sender
// vSwitch policy. ExperimentConfig, the benches, fuzz_sim, and the soak
// runners all select schemes through this table, so adding a scheme is one
// registry row + one policy class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "lb/sender_lb.h"
#include "net/packet.h"
#include "net/types.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace presto::core {
class LabelMap;
}

namespace presto::lb {

/// Load-balancing scheme under test (§4 "Performance Evaluation" plus the
/// rival schemes from PAPERS.md). The enum stays the primary programmatic
/// key; the registry is the single source of truth for names and behavior.
enum class Scheme {
  kEcmp,        ///< Per-flow random end-to-end path.
  kMptcp,       ///< 8 coupled subflows over ECMP paths.
  kPresto,      ///< Flowcells + shadow-MAC round robin + Presto GRO.
  kOptimal,     ///< Single non-blocking switch.
  kFlowlet,     ///< Flowlet switching (fixed gap) + stock GRO.
  kPrestoEcmp,  ///< Flowcells hashed per hop (Figure 14 variant).
  kPerPacket,   ///< Per-packet spraying (granularity ablation).
  kFlowDyn,     ///< Flowlet switching with an RTT-tracking dynamic gap.
  kDiffFlow,    ///< Mice on ECMP, elephants sprayed as flowcells.
  kSprinklers,  ///< Randomized variable-size striping, reordering-free.
  kWildStripe,  ///< Hidden: ungated striping that *does* reorder (oracle
                ///< planted-violation test only).
};

/// Receiver-side offload a scheme expects. The harness maps this onto
/// host::GroKind (kept abstract here so lb does not depend on host).
enum class RxOffload {
  kOfficialGro,  ///< Stock kernel GRO.
  kPrestoGro,    ///< Flowcell-aware Presto GRO (§3.2).
};

/// Scheme tuning knobs forwarded from ExperimentConfig. Defaults mirror
/// ExperimentConfig so direct factory users get the paper's settings. The
/// rival schemes' own knobs (FlowDyn's gap clamp, DiffFlow's threshold,
/// Sprinklers' stripe sizes) are their Config defaults.
struct LbTuning {
  sim::Time flowlet_gap = 500 * sim::kMicrosecond;
  std::uint32_t flowcell_bytes = net::kMaxTsoBytes;
  bool flowcell_random_selection = false;
  bool path_suspicion = false;
  sim::Time suspicion_hold = 5 * sim::kMillisecond;
};

/// Everything a scheme factory may need to build one host's sender policy.
struct LbContext {
  sim::Simulation* sim = nullptr;
  const core::LabelMap* labels = nullptr;
  net::HostId host = 0;
  std::uint64_t seed = 1;  ///< Per-host derived seed.
  LbTuning tuning;
};

struct SchemeInfo {
  Scheme id = Scheme::kEcmp;
  /// Stable machine token ("ecmp", "presto", ...): scenario specs, CLI
  /// flags, manifest JSON, CI matrix entries.
  const char* spec_name = "";
  /// Human-facing name ("ECMP", "Presto+ECMP", ...): bench tables/JSON.
  const char* display = "";
  RxOffload rx = RxOffload::kOfficialGro;
  /// Channels must be MPTCP byte channels (8 coupled subflows).
  bool uses_mptcp_channel = false;
  /// Runs on the single non-blocking switch instead of a fabric (Optimal).
  bool single_switch = false;
  /// Fault-free in-order delivery guarantee: every data frame of a flow
  /// arrives at the destination NIC in nondecreasing sequence order
  /// (checked by the kOrdering oracle).
  bool reordering_free = false;
  /// Eligible for lock-step differential soaks (comparable delivered-bytes
  /// trajectories on the same scenario).
  bool differential_ok = false;
  /// Excluded from sweeps, CI matrices, and fuzz generation; reachable only
  /// by explicit name (planted-violation schemes).
  bool hidden = false;
  /// Builds the per-host sender policy; null for single-switch schemes
  /// (plain real-MAC forwarding needs no policy).
  std::function<std::unique_ptr<SenderLb>(const LbContext&)> factory;
};

class SchemeRegistry {
 public:
  static const SchemeRegistry& instance();

  /// Registry row for a scheme (the enum indexes the table directly).
  const SchemeInfo& info(Scheme s) const;
  /// Row by spec name, or null for an unknown token.
  const SchemeInfo* find(std::string_view spec_name) const;
  /// All rows in registration (= enum) order.
  const std::vector<SchemeInfo>& all() const { return infos_; }
  /// Non-hidden rows in registration order (sweeps, CI matrices).
  std::vector<const SchemeInfo*> visible() const;
  /// Schemes eligible for lock-step differential soaks (non-hidden rows
  /// with `differential_ok`).
  std::vector<Scheme> differential_schemes() const;

 private:
  SchemeRegistry();
  std::vector<SchemeInfo> infos_;
};

/// Display name ("Presto") — the historical harness::scheme_name.
const char* scheme_display_name(Scheme s);
/// Stable spec token ("presto") — the historical scheme_spec_name.
const char* scheme_spec_id(Scheme s);
/// Parses a spec token; returns false and leaves `*out` untouched on an
/// unknown name. Hidden schemes parse too (replay must reach them).
bool parse_scheme_id(std::string_view name, Scheme* out);

/// Builds the sender policy for `scheme` (null for single-switch schemes).
std::unique_ptr<SenderLb> make_scheme_lb(Scheme scheme, const LbContext& ctx);

}  // namespace presto::lb
