// Shortest-path-first computation over the IGP graph.
#pragma once

#include <unordered_map>
#include <vector>

#include "bgp/decision.h"
#include "igp/graph.h"

namespace abrr::igp {

/// Result of one Dijkstra run: distances and first hops from a source.
struct SpfTree {
  RouterId source = bgp::kNoRouter;
  /// First hop on the shortest path to each reachable router (the source
  /// maps to itself). Ties broken toward the lower neighbor id so the
  /// data-plane walk is deterministic.
  std::unordered_map<RouterId, RouterId> first_hop;
  /// Distance to each router below kDenseIds, indexed by router id
  /// (kIgpInfinity = unreachable), sized to the largest such id in the
  /// graph. Routers are numbered from 1 up, so every BGP speaker lands
  /// here.
  std::vector<Metric> dense_distance;
  /// Distance to each reachable router at or above kDenseIds: the PoP
  /// hubs (topo::kHubBase and up).
  std::unordered_map<RouterId, Metric> sparse_distance;

  /// Router ids below this bound are indexed by `dense_distance`.
  static constexpr RouterId kDenseIds = 1u << 20;

  /// Distance, or bgp::kIgpInfinity when unreachable.
  Metric distance_to(RouterId target) const {
    if (target < dense_distance.size()) return dense_distance[target];
    return sparse_distance_to(target);
  }

  /// Next hop toward target, or kNoRouter when unreachable.
  RouterId next_hop_to(RouterId target) const;

  /// Records `target` as reached at `distance`.
  void set_distance(RouterId target, Metric distance);

 private:
  Metric sparse_distance_to(RouterId target) const;
};

/// Runs Dijkstra from `source`.
SpfTree compute_spf(const Graph& graph, RouterId source);

/// Caches one SpfTree per source, computed lazily; hands out
/// bgp::IgpDistanceFn oracles for the decision process.
class SpfCache {
 public:
  explicit SpfCache(const Graph& graph) : graph_(&graph) {}

  const SpfTree& tree(RouterId source);

  Metric distance(RouterId from, RouterId to);

  RouterId next_hop(RouterId from, RouterId to);

  /// Distance oracle bound to a vantage point, for decision step 6. It
  /// holds the vantage point's cache entry, so a call costs an array
  /// read (ids below SpfTree::kDenseIds), not a map probe. It stays
  /// valid across invalidate() and recomputes on its next call.
  bgp::IgpDistanceFn distance_fn(RouterId from);

  /// Marks every cached tree stale (call after mutating the graph); each
  /// recomputes on its next use.
  void invalidate();

 private:
  struct Entry {
    SpfTree tree;
    bool fresh = false;
  };

  /// `source`'s entry, recomputed first when stale.
  const SpfTree& refresh(RouterId source, Entry& entry);

  const Graph* graph_;
  // Node-based and never erased: oracles point at their entry.
  std::unordered_map<RouterId, Entry> trees_;
};

}  // namespace abrr::igp
