// A route: prefix + shared attributes + per-router bookkeeping.
#pragma once

#include <span>
#include <string>

#include "bgp/attributes.h"
#include "bgp/prefix.h"
#include "bgp/types.h"

namespace abrr::bgp {

/// How a route entered this router (decision step 5 and Table 1 rules).
enum class LearnedVia : std::uint8_t { kLocal = 0, kEbgp = 1, kIbgp = 2 };

/// A single route as held in a RIB.
///
/// The attribute block is shared and immutable; the remaining fields are
/// per-router bookkeeping that changes as the route propagates.
struct Route {
  Ipv4Prefix prefix;
  /// add-paths path identifier; unique per prefix within the AS because
  /// it is the RouterId of the client that injected the route into iBGP.
  PathId path_id = 0;
  AttrsPtr attrs = nullptr;

  /// Peer this router learned the route from (kNoRouter if local).
  RouterId learned_from = kNoRouter;
  LearnedVia via = LearnedVia::kLocal;

  bool valid() const { return attrs != nullptr; }

  /// Neighboring AS for MED comparison grouping (first AS on the path;
  /// 0 for locally-originated routes, which form their own group).
  Asn neighbor_as() const { return attrs->as_path().first(); }

  /// Egress border router: with next-hop-self, NEXT_HOP is the egress's
  /// RouterId (see bgp/types.h).
  RouterId egress() const { return static_cast<RouterId>(attrs->next_hop); }

  /// Same announced content (prefix, path id, attributes)? Blocks of
  /// one interner make this a pointer compare; blocks of two interners
  /// compare by content hash, then deeply as collision insurance.
  bool same_announcement(const Route& other) const {
    if (prefix != other.prefix || path_id != other.path_id) return false;
    if (attrs == other.attrs) return true;
    if (!attrs || !other.attrs) return false;
    return *attrs == *other.attrs;
  }

  std::string to_string() const;
};

/// Content hash of an advertised route set (canonical path-id order).
/// Never returns 0, so 0 can mean "nothing advertised". Used by speakers
/// to suppress duplicate transmissions without storing full per-peer
/// copies of the Adj-RIB-Out. 64 bits wide: the per-peer sent-hash state
/// compares these across the whole run, and a 32-bit hash starts
/// colliding — silently suppressing a needed transmission — around 2^16
/// distinct advertised sets. Each route's attributes enter as their
/// block's content hash.
std::uint64_t route_set_hash(std::span<const Route> routes);

/// Same hash over a pointer set (the copy-free pipeline's currency).
std::uint64_t route_set_hash(std::span<const Route* const> routes);

/// Convenience builder for tests and workload generators.
class RouteBuilder {
 public:
  explicit RouteBuilder(Ipv4Prefix prefix) { route_.prefix = prefix; }

  RouteBuilder& path_id(PathId id) { route_.path_id = id; return *this; }
  RouteBuilder& as_path(AsPath path) { attrs_.as_path = std::move(path); return *this; }
  RouteBuilder& origin(Origin o) { attrs_.origin = o; return *this; }
  RouteBuilder& next_hop(Ipv4Addr nh) { attrs_.next_hop = nh; return *this; }
  RouteBuilder& local_pref(std::uint32_t lp) { attrs_.local_pref = lp; return *this; }
  RouteBuilder& med(std::uint32_t m) { attrs_.med = m; return *this; }
  RouteBuilder& no_med() { attrs_.med.reset(); return *this; }
  RouteBuilder& originator(RouterId id) { attrs_.originator_id = id; return *this; }
  RouteBuilder& cluster_list(std::vector<std::uint32_t> cl) {
    attrs_.cluster_list = std::move(cl);
    return *this;
  }
  RouteBuilder& ext_community(ExtCommunity c) {
    attrs_.ext_communities.push_back(c);
    return *this;
  }
  RouteBuilder& learned_from(RouterId peer, LearnedVia via) {
    route_.learned_from = peer;
    route_.via = via;
    return *this;
  }

  Route build() {
    route_.attrs = make_attrs(attrs_);
    return route_;
  }

 private:
  Route route_;
  PathAttrs attrs_;
};

}  // namespace abrr::bgp
