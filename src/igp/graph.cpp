#include "igp/graph.h"

#include <algorithm>
#include <stdexcept>

namespace abrr::igp {

void Graph::add_node(RouterId id) {
  if (adjacency_.emplace(id, std::vector<Edge>{}).second) {
    nodes_.push_back(id);
  }
}

void Graph::add_link(RouterId a, RouterId b, Metric metric) {
  if (metric <= 0) throw std::invalid_argument{"add_link: metric <= 0"};
  if (a == b) throw std::invalid_argument{"add_link: self loop"};
  add_node(a);
  add_node(b);
  const auto upsert = [&](RouterId from, RouterId to) {
    auto& edges = adjacency_[from];
    const auto it = std::find_if(edges.begin(), edges.end(),
                                 [&](const Edge& e) { return e.to == to; });
    if (it == edges.end()) {
      edges.push_back(Edge{to, metric});
      return true;
    }
    it->metric = std::min(it->metric, metric);
    return false;
  };
  if (upsert(a, b)) ++link_count_;
  upsert(b, a);
}

bool Graph::set_metric(RouterId a, RouterId b, Metric metric) {
  if (metric <= 0) throw std::invalid_argument{"set_metric: metric <= 0"};
  bool found = false;
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = adjacency_.find(from);
    if (it == adjacency_.end()) continue;
    for (Edge& e : it->second) {
      if (e.to == to) {
        e.metric = metric;
        found = true;
      }
    }
  }
  return found;
}

bool Graph::remove_link(RouterId a, RouterId b) {
  bool removed = false;
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = adjacency_.find(from);
    if (it == adjacency_.end()) continue;
    const auto before = it->second.size();
    std::erase_if(it->second, [&](const Edge& e) { return e.to == to; });
    removed = removed || it->second.size() != before;
  }
  if (removed) --link_count_;
  return removed;
}

Metric Graph::link_metric(RouterId a, RouterId b) const {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return kNoLink;
  for (const Edge& e : it->second) {
    if (e.to == b) return e.metric;
  }
  return kNoLink;
}

const std::vector<Graph::Edge>& Graph::neighbors(RouterId id) const {
  static const std::vector<Edge> kEmpty;
  const auto it = adjacency_.find(id);
  return it == adjacency_.end() ? kEmpty : it->second;
}

}  // namespace abrr::igp
