// Fundamental identifiers for the simulated network.
#pragma once

#include <cstdint>
#include <functional>

namespace presto::net {

/// Index of a host (0-based, dense).
using HostId = std::uint32_t;

/// Index of a switch (0-based, dense).
using SwitchId = std::uint32_t;

/// Port number local to a node.
using PortId = std::int32_t;

inline constexpr PortId kInvalidPort = -1;

/// 64-bit opaque L2 address. Presto's shadow MACs are forwarding *labels*
/// carried in the destination MAC field; we model both real host MACs and
/// shadow MACs as values of this type.
using MacAddr = std::uint64_t;

inline constexpr MacAddr kInvalidMac = 0;

/// Real (physical) MAC of host `h`.
constexpr MacAddr real_mac(HostId h) {
  return 0x0100'0000ULL | h;
}

/// Shadow MAC identifying "deliver to host `h` via spanning tree `tree`".
/// One label exists per (host, tree) pair, as in the paper (§3.1).
constexpr MacAddr shadow_mac(HostId h, std::uint32_t tree) {
  return 0x0200'0000'0000ULL | (static_cast<MacAddr>(tree) << 24) | h;
}

/// True if `mac` is a shadow (label) address rather than a real host MAC.
constexpr bool is_shadow_mac(MacAddr mac) {
  return (mac & 0x0200'0000'0000ULL) != 0;
}

/// Host encoded in either a real or shadow MAC.
constexpr HostId mac_host(MacAddr mac) {
  return static_cast<HostId>(mac & 0xFF'FFFF);
}

/// Tree encoded in a shadow MAC (meaningless for real MACs).
constexpr std::uint32_t mac_tree(MacAddr mac) {
  return static_cast<std::uint32_t>((mac >> 24) & 0xFFFF);
}

/// Spanning trees that get a bucket of their own in per-tree telemetry
/// (fabric per-label counters, the flight recorder's in-flight table).
inline constexpr std::uint32_t kTreeBuckets = 16;

/// Per-tree telemetry bucket of a destination MAC: the shadow-MAC tree for
/// trees below kTreeBuckets, kTreeBuckets (the catch-all) for real MACs and
/// higher trees.
constexpr std::uint32_t label_bucket(MacAddr mac) {
  if (!is_shadow_mac(mac)) return kTreeBuckets;
  const std::uint32_t tree = mac_tree(mac);
  return tree < kTreeBuckets ? tree : kTreeBuckets;
}

/// Switch-to-switch tunnel label: "deliver to edge switch `leaf` via tree
/// `tree`"; the destination leaf forwards on L3 (dst_host) for the final
/// hop. Cuts rule state from O(|vSwitches| x |paths|) to
/// O(|switches| x |paths|) (§3.1, citing MOOSE / NetLord).
constexpr MacAddr tunnel_mac(SwitchId leaf, std::uint32_t tree) {
  return shadow_mac(0x80'0000u | leaf, tree);
}

/// True if `mac` is a switch-to-switch tunnel label.
constexpr bool is_tunnel_mac(MacAddr mac) {
  return is_shadow_mac(mac) && (mac_host(mac) & 0x80'0000u) != 0;
}

/// Edge switch encoded in a tunnel label.
constexpr SwitchId tunnel_leaf(MacAddr mac) {
  return mac_host(mac) & 0x7F'FFFFu;
}

/// 64-bit mixing function (splitmix64 finalizer); used for ECMP hashing.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace presto::net
