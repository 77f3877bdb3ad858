// BGP UPDATE message model.
//
// One message carries the reachability change for a single prefix, with
// add-paths (draft-ietf-idr-add-paths) identifiers so that several routes
// for the prefix can be announced at once. ABRR ARRs set `full_set`,
// meaning "this is the complete new set of best AS-level routes for the
// prefix" (§2.1: ARRs convey all such routes with each update), which is
// what lets clients store only their reduced best per ARR session (§3.4).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bgp/route.h"

namespace abrr::bgp {

/// A BGP UPDATE for one prefix.
struct UpdateMessage {
  Ipv4Prefix prefix;
  /// Routes announced (each carries its path_id).
  std::vector<Route> announce;
  /// Path IDs withdrawn. Ignored when full_set is true.
  std::vector<PathId> withdraw;
  /// ABRR replacement semantics: `announce` is the complete new set; an
  /// empty `announce` with full_set means the prefix is gone entirely.
  bool full_set = false;
  /// BGP KEEPALIVE riding on the same transport: carries no routes,
  /// only refreshes the receiver's hold timer (session liveness).
  bool keepalive = false;

  bool is_withdraw_only() const {
    return announce.empty() && (full_set || !withdraw.empty());
  }

  std::string to_string() const;
};

}  // namespace abrr::bgp
