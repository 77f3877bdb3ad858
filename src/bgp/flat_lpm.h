// Flat longest-prefix match for the serving read path.
//
// The experiments (and the serving mode built on them) know the prefix
// universe up front, so longest-prefix matching is compiled once into a
// flat two-level directory, LpmIndex: an immutable map
// address -> most-specific universe prefix (a "slot", the same dense id
// PrefixIndex hands out when built over the same prefix list), plus the
// next-shorter covering universe prefix per slot (`parent_of`). Layout
// is a 16/8 DIR table: one 2^16-entry level-1 array indexed by the top
// 16 address bits whose entries are either a slot or a reference to a
// 256-entry level-2 chunk indexed by bits 15..8; prefixes longer than
// /24 (rare; absent from the paper workloads) live in sorted per-/24
// overflow lists behind a flag bit. A lookup is one or two array loads
// on the hot path — no branches on prefix length, no per-node
// allocation, no pointer chasing.
//
// Sparse per-router tables (serving mode: a router's Loc-RIB may lack
// an entry for a universe prefix mid-churn) layer on top: look up the
// leaf slot, then walk parent_of() until a slot the router actually
// holds is found. After convergence every router holds every universe
// prefix, so the walk is zero steps on the steady-state hot path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/prefix.h"

namespace abrr::bgp {

/// Immutable address -> most-specific-universe-prefix directory.
/// Slots are indices into the prefix list the index was built from.
class LpmIndex {
 public:
  /// "No prefix" sentinel for leaf_of() / parent_of().
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;

  LpmIndex() = default;

  /// Builds the directory over `prefixes` (the universe). Slot i refers
  /// to prefixes[i]; duplicate prefixes share the FIRST slot that names
  /// them (later duplicates are never returned). The list is copied so
  /// the index is self-contained and immutable afterwards.
  explicit LpmIndex(std::span<const Ipv4Prefix> prefixes);

  /// Most-specific universe prefix containing `addr`, or kNoSlot.
  std::uint32_t leaf_of(Ipv4Addr addr) const {
    if (level1_.empty()) return kNoSlot;  // default-constructed index
    const std::uint32_t e = level1_[addr >> 16];
    // Branch-free select between the direct entry and the level-2 cell.
    // Whether a /16 block has a chunk is data-dependent noise to the
    // predictor, so a conditional branch here mispredicts constantly on
    // mixed tables; instead ALWAYS load a level-2 cell — direct blocks
    // read the reserved all-kNoSlot chunk 0, which stays hot in L1 —
    // and pick the answer with a conditional move.
    const bool is_chunk = (e >= kChunkFlag) & (e != kNoSlot);
    const std::size_t ci =
        is_chunk ? static_cast<std::size_t>(e & kPayloadMask) : 0;
    const std::uint32_t c = chunk_store_[(ci << 8) + ((addr >> 8) & 0xff)];
    const std::uint32_t leaf = is_chunk ? c : e;
    if (leaf < kChunkFlag || leaf == kNoSlot) return leaf;
    return overflow_leaf(addr, leaf & kPayloadMask);  // /25+, off hot path
  }

  /// Next-shorter universe prefix containing all of slot's prefix, or
  /// kNoSlot at the top of the containment forest.
  std::uint32_t parent_of(std::uint32_t slot) const { return parent_[slot]; }

  const Ipv4Prefix& prefix_at(std::uint32_t slot) const {
    return prefixes_[slot];
  }

  /// Number of slots (== size of the prefix list built from).
  std::size_t size() const { return prefixes_.size(); }
  bool empty() const { return prefixes_.empty(); }

  /// Bytes held by the directory arrays (telemetry).
  std::size_t bytes() const;

  /// Level-2 chunks allocated (telemetry; excludes the reserved dummy
  /// chunk 0 the branch-free lookup reads for chunkless blocks).
  std::size_t chunk_count() const {
    return chunk_store_.empty() ? 0 : (chunk_store_.size() >> 8) - 1;
  }

 private:
  // Level-1/level-2 entry encoding: plain values < kChunkFlag are slots;
  // kNoSlot means "no cover"; otherwise the payload is a chunk index
  // (level 1) or an overflow-list index (level 2).
  static constexpr std::uint32_t kChunkFlag = 0x8000'0000u;
  static constexpr std::uint32_t kPayloadMask = 0x7fff'ffffu;

  std::uint32_t overflow_leaf(Ipv4Addr addr, std::uint32_t list) const;

  std::vector<Ipv4Prefix> prefixes_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> level1_;      // 2^16 entries once built
  std::vector<std::uint32_t> chunk_store_; // 256 entries per chunk
  // Overflow entry: (slot, fallback) — fallback is the best <= /24 slot
  // to report when no overflow prefix contains the address.
  struct OverflowList {
    std::uint32_t fallback = kNoSlot;
    std::vector<std::uint32_t> slots;  // /25+ slots, ascending (addr, len)
  };
  std::vector<OverflowList> overflow_;
};

}  // namespace abrr::bgp
