// Dense prefix numbering shared across a testbed.
//
// Every RIB and speaker keeps its per-prefix state in flat arrays
// addressed by a prefix's dense id (a few bytes per prefix) instead of
// node-based maps. Ids are append-only and assigned on first sight: a
// testbed registers its prefix universe up front, and a prefix seen
// later simply gets the next id.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.h"

namespace abrr::bgp {

/// A prefix with its PrefixIndex id already looked up. RIB calls that
/// take one skip their own lookup, so a caller touching several RIBs for
/// one prefix looks it up once; the id must come from the index those
/// RIBs share.
struct IndexedPrefix {
  Ipv4Prefix prefix;
  std::uint32_t id = 0;
};

/// Bidirectional mapping Ipv4Prefix <-> dense index.
class PrefixIndex {
 public:
  /// Registers a prefix (idempotent); returns its id. A new prefix gets
  /// the next id; a known one allocates nothing.
  std::uint32_t add(const Ipv4Prefix& prefix) {
    const auto [it, inserted] = ids_.try_emplace(
        prefix, static_cast<std::uint32_t>(prefixes_.size()));
    if (inserted) prefixes_.push_back(prefix);
    return it->second;
  }

  /// `prefix` with its id, registering the prefix if it is new.
  IndexedPrefix intern(const Ipv4Prefix& prefix) {
    return IndexedPrefix{prefix, add(prefix)};
  }

  /// Id of a registered prefix, or nullopt.
  std::optional<std::uint32_t> id_of(const Ipv4Prefix& prefix) const {
    const auto it = ids_.find(prefix);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  const Ipv4Prefix& prefix_of(std::uint32_t id) const {
    if (id >= prefixes_.size()) throw std::out_of_range{"prefix id"};
    return prefixes_[id];
  }

  std::size_t size() const { return prefixes_.size(); }

  const std::vector<Ipv4Prefix>& prefixes() const { return prefixes_; }

 private:
  std::unordered_map<Ipv4Prefix, std::uint32_t> ids_;
  std::vector<Ipv4Prefix> prefixes_;
};

}  // namespace abrr::bgp
