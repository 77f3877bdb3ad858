// AS_PATH attribute.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "bgp/types.h"

namespace abrr::bgp {

/// Read-only view of an AS_PATH: the form an interned attribute block
/// hands out (its ASNs sit inline in the block), and what AsPath::view()
/// returns.
class AsPathView {
 public:
  AsPathView() = default;
  explicit AsPathView(std::span<const Asn> asns) : asns_(asns) {}

  /// Path length used in decision step 2.
  std::size_t length() const { return asns_.size(); }
  bool empty() const { return asns_.empty(); }

  /// The neighboring AS (first hop), used for MED comparison grouping.
  /// Returns 0 for an empty path (locally originated route).
  Asn first() const { return asns_.empty() ? 0 : asns_.front(); }

  /// The origin AS (last hop). Returns 0 for an empty path.
  Asn origin_as() const { return asns_.empty() ? 0 : asns_.back(); }

  /// eBGP loop detection: is `asn` already on the path?
  bool contains(Asn asn) const {
    return std::find(asns_.begin(), asns_.end(), asn) != asns_.end();
  }

  std::span<const Asn> asns() const { return asns_; }

  /// "1 2 3" formatting for logs.
  std::string to_string() const;

  friend bool operator==(AsPathView a, AsPathView b) {
    return std::equal(a.asns_.begin(), a.asns_.end(), b.asns_.begin(),
                      b.asns_.end());
  }

 private:
  std::span<const Asn> asns_;
};

/// The AS_PATH attribute, modelled as a single AS_SEQUENCE: the owning
/// form a route builder edits.
///
/// AS_SETs (from aggregation) are out of scope for the ABRR experiments;
/// the decision process only needs length, loop detection, and the first
/// (neighboring) AS for MED grouping.
class AsPath {
 public:
  AsPath() = default;
  AsPath(std::initializer_list<Asn> asns) : asns_(asns) {}
  explicit AsPath(std::vector<Asn> asns) : asns_(std::move(asns)) {}

  AsPathView view() const { return AsPathView{asns_}; }

  std::size_t length() const { return asns_.size(); }
  bool empty() const { return asns_.empty(); }
  Asn first() const { return view().first(); }
  Asn origin_as() const { return view().origin_as(); }
  bool contains(Asn asn) const { return view().contains(asn); }

  /// Returns a copy with `asn` prepended (as on eBGP export).
  AsPath prepend(Asn asn) const;

  /// Replaces the path with `asns`, reusing this path's storage.
  void assign(std::span<const Asn> asns) {
    asns_.assign(asns.begin(), asns.end());
  }

  const std::vector<Asn>& asns() const { return asns_; }

  std::string to_string() const { return view().to_string(); }

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  std::vector<Asn> asns_;
};

}  // namespace abrr::bgp
