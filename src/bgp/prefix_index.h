// Dense prefix numbering shared across a testbed.
//
// Experiments know the prefix universe up front; giving each prefix a
// dense id lets speakers keep per-peer advertisement state in flat
// arrays (a few bytes per prefix) instead of node-based maps.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.h"

namespace abrr::bgp {

/// A prefix with its PrefixIndex id already looked up: `id` is nullopt
/// when the prefix is outside the index or there is no index. RIB calls
/// that take one skip their own lookup, so a caller touching several
/// RIBs for one prefix looks it up once; the id must come from the index
/// those RIBs were given.
struct IndexedPrefix {
  Ipv4Prefix prefix;
  std::optional<std::uint32_t> id;
};

/// Bidirectional mapping Ipv4Prefix <-> dense index.
class PrefixIndex {
 public:
  /// Registers a prefix (idempotent); returns its id.
  std::uint32_t add(const Ipv4Prefix& prefix) {
    const auto [it, inserted] =
        ids_.emplace(prefix, static_cast<std::uint32_t>(prefixes_.size()));
    if (inserted) prefixes_.push_back(prefix);
    return it->second;
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

/// `prefix` with its id in `index` (nullopt when `index` is null or
/// does not hold the prefix).
inline IndexedPrefix index_prefix(const PrefixIndex* index,
                                  const Ipv4Prefix& prefix) {
  return IndexedPrefix{prefix,
                       index ? index->id_of(prefix) : std::nullopt};
}

}  // namespace abrr::bgp
