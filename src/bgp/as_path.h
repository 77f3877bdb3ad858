// AS_PATH attribute.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "bgp/types.h"

namespace abrr::bgp {

/// The AS_PATH attribute, modelled as a single AS_SEQUENCE.
///
/// AS_SETs (from aggregation) are out of scope for the ABRR experiments;
/// the decision process only needs length, loop detection, and the first
/// (neighboring) AS for MED grouping.
class AsPath {
 public:
  AsPath() = default;
  AsPath(std::initializer_list<Asn> asns) : asns_(asns) {}
  explicit AsPath(std::vector<Asn> asns) : asns_(std::move(asns)) {}

  /// Path length used in decision step 2.
  std::size_t length() const { return asns_.size(); }
  bool empty() const { return asns_.empty(); }

  /// The neighboring AS (first hop), used for MED comparison grouping.
  /// Returns 0 for an empty path (locally originated route).
  Asn first() const { return asns_.empty() ? 0 : asns_.front(); }

  /// The origin AS (last hop). Returns 0 for an empty path.
  Asn origin_as() const { return asns_.empty() ? 0 : asns_.back(); }

  /// eBGP loop detection: is `asn` already on the path?
  bool contains(Asn asn) const;

  /// Returns a copy with `asn` prepended (as on eBGP export).
  AsPath prepend(Asn asn) const;

  const std::vector<Asn>& asns() const { return asns_; }

  /// "1 2 3" formatting for logs.
  std::string to_string() const;

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  std::vector<Asn> asns_;
};

}  // namespace abrr::bgp
