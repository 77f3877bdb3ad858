#include "igp/spf.h"

#include <algorithm>
#include <queue>
#include <tuple>

namespace abrr::igp {

Metric SpfTree::sparse_distance_to(RouterId target) const {
  const auto it = sparse_distance.find(target);
  return it == sparse_distance.end() ? bgp::kIgpInfinity : it->second;
}

void SpfTree::set_distance(RouterId target, Metric distance) {
  if (target < dense_distance.size()) {
    dense_distance[target] = distance;
  } else {
    sparse_distance.emplace(target, distance);
  }
}

RouterId SpfTree::next_hop_to(RouterId target) const {
  const auto it = first_hop.find(target);
  return it == first_hop.end() ? bgp::kNoRouter : it->second;
}

SpfTree compute_spf(const Graph& graph, RouterId source) {
  SpfTree tree;
  tree.source = source;
  if (!graph.has_node(source)) return tree;

  RouterId dense_end = 0;
  for (const RouterId node : graph.nodes()) {
    if (node < SpfTree::kDenseIds) dense_end = std::max(dense_end, node + 1);
  }
  tree.dense_distance.assign(dense_end, bgp::kIgpInfinity);

  // (distance, node, first hop); ties resolved toward lower node then
  // lower first hop for determinism.
  using Item = std::tuple<Metric, RouterId, RouterId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0, source, source);

  while (!heap.empty()) {
    const auto [dist, node, hop] = heap.top();
    heap.pop();
    const Metric settled = tree.distance_to(node);
    if (settled != bgp::kIgpInfinity) {
      // Already settled; keep the lower first hop on exact ties so the
      // result does not depend on heap internals.
      if (settled == dist && hop < tree.first_hop[node]) {
        tree.first_hop[node] = hop;
      }
      continue;
    }
    tree.set_distance(node, dist);
    tree.first_hop.emplace(node, hop);
    for (const Graph::Edge& edge : graph.neighbors(node)) {
      if (tree.distance_to(edge.to) != bgp::kIgpInfinity) continue;
      const RouterId next_first = node == source ? edge.to : hop;
      heap.emplace(dist + edge.metric, edge.to, next_first);
    }
  }
  return tree;
}

const SpfTree& SpfCache::refresh(RouterId source, Entry& entry) {
  if (!entry.fresh) {
    entry.tree = compute_spf(*graph_, source);
    entry.fresh = true;
  }
  return entry.tree;
}

const SpfTree& SpfCache::tree(RouterId source) {
  return refresh(source, trees_[source]);
}

Metric SpfCache::distance(RouterId from, RouterId to) {
  return tree(from).distance_to(to);
}

RouterId SpfCache::next_hop(RouterId from, RouterId to) {
  return tree(from).next_hop_to(to);
}

bgp::IgpDistanceFn SpfCache::distance_fn(RouterId from) {
  return [this, from, entry = &trees_[from]](RouterId next_hop) {
    return refresh(from, *entry).distance_to(next_hop);
  };
}

void SpfCache::invalidate() {
  for (auto& [source, entry] : trees_) entry.fresh = false;
}

}  // namespace abrr::igp
