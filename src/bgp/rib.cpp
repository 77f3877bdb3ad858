#include "bgp/rib.h"

#include <algorithm>
#include <stdexcept>

namespace abrr::bgp {
namespace {

// Smallest capacity AdjRibIn::replace gives a path list it grows.
constexpr std::size_t kMinPaths = 4;

struct KeyLess {
  bool operator()(const Route& entry,
                  const std::pair<RouterId, PathId>& key) const {
    return AdjRibIn::key_of(entry) < key;
  }
};

}  // namespace

// --- AdjRibIn ---------------------------------------------------------

void AdjRibIn::set_prefix_index(std::shared_ptr<const PrefixIndex> index) {
  index_ = std::move(index);
  if (!index_) return;
  if (flat_.size() < index_->size()) flat_.resize(index_->size());
  // Migrate entries that are now indexable out of the fallback map.
  for (auto it = table_.begin(); it != table_.end();) {
    const auto id = index_->id_of(it->first);
    if (id) {
      flat_[*id] = std::move(it->second);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

const AdjRibIn::PathList* AdjRibIn::find_list(const IndexedPrefix& key) const {
  if (key.id) {
    if (*key.id >= flat_.size() || flat_[*key.id].empty()) return nullptr;
    return &flat_[*key.id];
  }
  const auto it = table_.find(key.prefix);
  if (it == table_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

AdjRibIn::PathList& AdjRibIn::ensure_list(const IndexedPrefix& key) {
  if (key.id) {
    if (*key.id >= flat_.size()) flat_.resize(index_->size());
    return flat_[*key.id];
  }
  return table_[key.prefix];
}

void AdjRibIn::erase_if_empty(const IndexedPrefix& key) {
  // Flat slots keep their (empty) vector; only the fallback map sheds
  // nodes, matching the old per-prefix erase.
  if (key.id) return;
  const auto it = table_.find(key.prefix);
  if (it != table_.end() && it->second.empty()) table_.erase(it);
}

AdjRibIn::Change AdjRibIn::announce(const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"announce: invalid route"};
  return insert(ensure_list(index_prefix(index_.get(), route.prefix)), route);
}

AdjRibIn::Change AdjRibIn::insert(PathList& paths, const Route& route) {
  const Key key{route.learned_from, route.path_id};
  const auto it =
      std::lower_bound(paths.begin(), paths.end(), key, KeyLess{});
  if (it == paths.end() || key_of(*it) != key) {
    paths.insert(it, route);
    ++size_;
    ++per_peer_[route.learned_from];
    return Change::kAdded;
  }
  if (it->same_announcement(route) && it->via == route.via) {
    return Change::kUnchanged;
  }
  *it = route;
  return Change::kReplaced;
}

bool AdjRibIn::withdraw(RouterId peer, const Ipv4Prefix& prefix,
                        PathId path_id) {
  const IndexedPrefix indexed = index_prefix(index_.get(), prefix);
  PathList& paths = ensure_list(indexed);
  const Key key{peer, path_id};
  const auto it =
      std::lower_bound(paths.begin(), paths.end(), key, KeyLess{});
  if (it == paths.end() || key_of(*it) != key) {
    erase_if_empty(indexed);
    return false;
  }
  paths.erase(it);
  --size_;
  --per_peer_[peer];
  erase_if_empty(indexed);
  return true;
}

void AdjRibIn::replace(RouterId peer, const Ipv4Prefix& prefix,
                       std::span<const Route> routes) {
  replace(peer, index_prefix(index_.get(), prefix), routes);
}

void AdjRibIn::replace(RouterId peer, const IndexedPrefix& key,
                       std::span<const Route> routes) {
  PathList& paths = ensure_list(key);
  const std::size_t before = paths.size();
  std::erase_if(paths, [&](const Route& entry) {
    return entry.learned_from == peer;
  });
  std::size_t& from_peer = per_peer_[peer];
  from_peer -= before - paths.size();
  size_ -= before - paths.size();
  // Grow once for the whole set, geometrically and to at least
  // kMinPaths: a client's list holds the reflected set of every ARR
  // session for the prefix, so growing one path at a time from empty
  // would reallocate several times during the table load.
  const std::size_t need = paths.size() + routes.size();
  if (need > paths.capacity()) {
    paths.reserve(std::max({need, 2 * paths.capacity(), kMinPaths}));
  }
  for (const Route& route : routes) {
    if (!route.valid()) throw std::invalid_argument{"replace: invalid route"};
    if (route.learned_from != peer || route.prefix != key.prefix) {
      throw std::invalid_argument{"replace: route not from (peer, prefix)"};
    }
    insert(paths, route);
  }
  erase_if_empty(key);
}

std::vector<Ipv4Prefix> AdjRibIn::withdraw_peer(RouterId peer) {
  std::vector<Ipv4Prefix> affected;
  const auto purge = [&](const Ipv4Prefix& prefix, PathList& paths) {
    const std::size_t before = paths.size();
    std::erase_if(paths, [&](const Route& entry) {
      return entry.learned_from == peer;
    });
    if (paths.size() != before) {
      affected.push_back(prefix);
      size_ -= before - paths.size();
    }
  };
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    if (!flat_[id].empty()) purge(index_->prefix_of(id), flat_[id]);
  }
  for (auto it = table_.begin(); it != table_.end();) {
    purge(it->first, it->second);
    it = it->second.empty() ? table_.erase(it) : std::next(it);
  }
  per_peer_.erase(peer);
  // Sorted so downstream re-decisions run in a storage-independent
  // (and deterministic) order.
  std::sort(affected.begin(), affected.end());
  return affected;
}

std::vector<Route> AdjRibIn::routes_for(const Ipv4Prefix& prefix) const {
  std::vector<Route> out;
  const PathList* paths = find_list(index_prefix(index_.get(), prefix));
  if (paths == nullptr) return out;
  out.reserve(paths->size());
  out.assign(paths->begin(), paths->end());
  return out;
}

void AdjRibIn::routes_for(const IndexedPrefix& key,
                          std::vector<const Route*>& out) const {
  out.clear();
  const PathList* paths = find_list(key);
  if (paths == nullptr) return;
  out.reserve(paths->size());
  for (const Route& route : *paths) out.push_back(&route);
}

std::size_t AdjRibIn::peer_size(RouterId peer) const {
  const auto it = per_peer_.find(peer);
  return it == per_peer_.end() ? 0 : it->second;
}

void AdjRibIn::for_each(const std::function<void(const Route&)>& fn) const {
  for (const PathList& paths : flat_) {
    for (const Route& route : paths) fn(route);
  }
  for (const auto& [prefix, paths] : table_) {
    for (const Route& route : paths) fn(route);
  }
}

void AdjRibIn::clear() {
  for (PathList& paths : flat_) paths.clear();
  table_.clear();
  per_peer_.clear();
  size_ = 0;
}

// --- LocRib -----------------------------------------------------------

void LocRib::set_prefix_index(std::shared_ptr<const PrefixIndex> index) {
  index_ = std::move(index);
  if (!index_) return;
  if (flat_.size() < index_->size()) flat_.resize(index_->size());
  for (auto it = table_.begin(); it != table_.end();) {
    const auto id = index_->id_of(it->first);
    if (id) {
      flat_[*id] = std::move(it->second);
      ++flat_count_;
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

bool LocRib::install(const Route& route) {
  return install(index_prefix(index_.get(), route.prefix), route);
}

bool LocRib::install(const IndexedPrefix& key, const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"install: invalid route"};
  if (key.id) {
    if (*key.id >= flat_.size()) flat_.resize(index_->size());
    Route& slot = flat_[*key.id];
    if (!slot.valid()) {
      slot = route;
      ++flat_count_;
      return true;
    }
    if (slot.same_announcement(route) &&
        slot.learned_from == route.learned_from && slot.via == route.via) {
      return false;
    }
    slot = route;
    return true;
  }
  auto [it, inserted] = table_.emplace(route.prefix, route);
  if (inserted) return true;
  if (it->second.same_announcement(route) &&
      it->second.learned_from == route.learned_from &&
      it->second.via == route.via) {
    return false;
  }
  it->second = route;
  return true;
}

bool LocRib::remove(const Ipv4Prefix& prefix) {
  return remove(index_prefix(index_.get(), prefix));
}

bool LocRib::remove(const IndexedPrefix& key) {
  if (key.id) {
    if (*key.id >= flat_.size() || !flat_[*key.id].valid()) return false;
    flat_[*key.id] = Route{};
    --flat_count_;
    return true;
  }
  return table_.erase(key.prefix) > 0;
}

const Route* LocRib::best(const Ipv4Prefix& prefix) const {
  return best(index_prefix(index_.get(), prefix));
}

const Route* LocRib::best(const IndexedPrefix& key) const {
  if (key.id) {
    if (*key.id >= flat_.size() || !flat_[*key.id].valid()) return nullptr;
    return &flat_[*key.id];
  }
  const auto it = table_.find(key.prefix);
  return it == table_.end() ? nullptr : &it->second;
}

void LocRib::for_each(const std::function<void(const Route&)>& fn) const {
  for (const Route& route : flat_) {
    if (route.valid()) fn(route);
  }
  for (const auto& [prefix, route] : table_) fn(route);
}

void LocRib::clear() {
  for (Route& route : flat_) route = Route{};
  flat_count_ = 0;
  table_.clear();
}

// --- AdjRibOut --------------------------------------------------------

void AdjRibOut::set_prefix_index(std::shared_ptr<const PrefixIndex> index) {
  index_ = std::move(index);
  if (!index_) return;
  if (flat_.size() < index_->size()) flat_.resize(index_->size());
  for (auto it = table_.begin(); it != table_.end();) {
    const auto id = index_->id_of(it->first);
    if (id) {
      flat_[*id] = std::move(it->second);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

bool same_route_set(std::span<const Route> a, std::span<const Route> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_announcement(b[i])) return false;
  }
  return true;
}

}  // namespace

bool AdjRibOut::set(const Ipv4Prefix& prefix, std::span<Route> routes) {
  return set(index_prefix(index_.get(), prefix), routes);
}

bool AdjRibOut::set(const IndexedPrefix& key, std::span<Route> routes) {
  // Canonical order: by path id, so set comparison is stable.
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    return a.path_id < b.path_id;
  });

  std::vector<Route>* slot = nullptr;
  if (key.id) {
    if (*key.id >= flat_.size()) flat_.resize(index_->size());
    slot = &flat_[*key.id];
  } else {
    // Unindexed fallback: entries exist only for non-empty sets.
    auto it = table_.find(key.prefix);
    if (it == table_.end()) {
      if (routes.empty()) return false;
      it = table_.emplace(key.prefix, std::vector<Route>{}).first;
    } else if (routes.empty()) {
      size_ -= it->second.size();
      table_.erase(it);
      return true;
    }
    slot = &it->second;
  }
  if (same_route_set(*slot, routes)) return false;
  size_ = size_ - slot->size() + routes.size();
  slot->assign(routes.begin(), routes.end());
  return true;
}

const std::vector<Route>* AdjRibOut::get(const Ipv4Prefix& prefix) const {
  return get(index_prefix(index_.get(), prefix));
}

const std::vector<Route>* AdjRibOut::get(const IndexedPrefix& key) const {
  if (key.id) {
    if (*key.id >= flat_.size() || flat_[*key.id].empty()) return nullptr;
    return &flat_[*key.id];
  }
  const auto it = table_.find(key.prefix);
  return it == table_.end() ? nullptr : &it->second;
}

void AdjRibOut::clear() {
  for (std::vector<Route>& routes : flat_) routes.clear();
  table_.clear();
  size_ = 0;
}

void AdjRibOut::for_each(
    const std::function<void(const Ipv4Prefix&, const std::vector<Route>&)>&
        fn) const {
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    if (!flat_[id].empty()) fn(index_->prefix_of(id), flat_[id]);
  }
  for (const auto& [prefix, routes] : table_) fn(prefix, routes);
}

}  // namespace abrr::bgp
