#include "bgp/rib.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

AdjRibIn::AdjRibIn(std::shared_ptr<PrefixIndex> index)
    : index_(std::move(index)) {}

const AdjRibIn::PathList* AdjRibIn::find_list(
    std::optional<std::uint32_t> id) const {
  if (!id || *id >= flat_.size() || flat_[*id].empty()) return nullptr;
  return &flat_[*id];
}

AdjRibIn::PathList& AdjRibIn::ensure_list(std::uint32_t id) {
  if (id >= flat_.size()) flat_.resize(index_->size());
  return flat_[id];
}

AdjRibIn::Change AdjRibIn::announce(const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"announce: invalid route"};
  const Change change = insert(ensure_list(index_->add(route.prefix)), route);
  if (change == Change::kAdded) ++per_peer_[route.learned_from];
  return change;
}

AdjRibIn::Change AdjRibIn::insert(PathList& paths, const Route& route) {
  const Key key{route.learned_from, route.path_id};
  const auto it =
      std::lower_bound(paths.begin(), paths.end(), key, KeyLess{});
  if (it == paths.end() || key_of(*it) != key) {
    paths.insert(it, route);
    ++size_;
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
  const auto id = index_->id_of(prefix);
  if (!id || *id >= flat_.size()) return false;
  PathList& paths = flat_[*id];
  const Key key{peer, path_id};
  const auto it =
      std::lower_bound(paths.begin(), paths.end(), key, KeyLess{});
  if (it == paths.end() || key_of(*it) != key) return false;
  paths.erase(it);
  --size_;
  --per_peer_[peer];
  return true;
}

void AdjRibIn::replace(RouterId peer, const Ipv4Prefix& prefix,
                       std::span<const Route> routes) {
  replace(peer, index_->intern(prefix), routes);
}

void AdjRibIn::replace(RouterId peer, const IndexedPrefix& key,
                       std::span<const Route> routes) {
  for (const Route& route : routes) {
    if (!route.valid()) throw std::invalid_argument{"replace: invalid route"};
    if (route.learned_from != peer || route.prefix != key.prefix) {
      throw std::invalid_argument{"replace: route not from (peer, prefix)"};
    }
  }
  PathList& paths = ensure_list(key.id);
  // The list is sorted by (peer, path id), so the peer's paths are one
  // run.
  const auto lo =
      std::lower_bound(paths.begin(), paths.end(), Key{peer, 0}, KeyLess{});
  const auto hi = std::find_if(lo, paths.end(), [&](const Route& entry) {
    return entry.learned_from != peer;
  });
  const auto removed = static_cast<std::size_t>(hi - lo);
  paths.erase(lo, hi);
  const std::size_t kept = paths.size();  // other peers' paths
  size_ -= removed;
  // Grow once for the whole set, geometrically and to at least
  // kMinPaths: a client's list holds the reflected set of every ARR
  // session for the prefix, so growing one path at a time from empty
  // would reallocate several times during the table load.
  const std::size_t need = paths.size() + routes.size();
  if (need > paths.capacity()) {
    paths.reserve(std::max({need, 2 * paths.capacity(), kMinPaths}));
  }
  for (const Route& route : routes) insert(paths, route);
  // The peer's count moves once per call, not once per stored route.
  const std::size_t added = paths.size() - kept;
  if (added != removed) per_peer_[peer] += added - removed;  // mod 2^64
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
  per_peer_.erase(peer);
  // Sorted so downstream re-decisions run in prefix order, not in the
  // order the prefixes were first seen.
  std::sort(affected.begin(), affected.end());
  return affected;
}

std::vector<Route> AdjRibIn::routes_for(const Ipv4Prefix& prefix) const {
  std::vector<Route> out;
  const PathList* paths = find_list(index_->id_of(prefix));
  if (paths == nullptr) return out;
  out.reserve(paths->size());
  out.assign(paths->begin(), paths->end());
  return out;
}

void AdjRibIn::routes_for(const IndexedPrefix& key,
                          std::vector<const Route*>& out) const {
  out.clear();
  const PathList* paths = find_list(key.id);
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
}

void AdjRibIn::clear() {
  for (PathList& paths : flat_) paths.clear();
  per_peer_.clear();
  size_ = 0;
}

// --- LocRib -----------------------------------------------------------

LocRib::LocRib(std::shared_ptr<PrefixIndex> index) : index_(std::move(index)) {}

bool LocRib::install(const Route& route) {
  return install(index_->intern(route.prefix), route);
}

bool LocRib::install(const IndexedPrefix& key, const Route& route) {
  if (!route.valid()) throw std::invalid_argument{"install: invalid route"};
  if (key.id >= flat_.size()) flat_.resize(index_->size());
  Route& slot = flat_[key.id];
  if (!slot.valid()) {
    slot = route;
    ++count_;
    return true;
  }
  if (slot.same_announcement(route) &&
      slot.learned_from == route.learned_from && slot.via == route.via) {
    return false;
  }
  slot = route;
  return true;
}

bool LocRib::remove(const Ipv4Prefix& prefix) {
  const auto id = index_->id_of(prefix);
  return id && remove(IndexedPrefix{prefix, *id});
}

bool LocRib::remove(const IndexedPrefix& key) {
  if (key.id >= flat_.size() || !flat_[key.id].valid()) return false;
  flat_[key.id] = Route{};
  --count_;
  return true;
}

const Route* LocRib::best(const Ipv4Prefix& prefix) const {
  const auto id = index_->id_of(prefix);
  return id ? best(IndexedPrefix{prefix, *id}) : nullptr;
}

const Route* LocRib::best(const IndexedPrefix& key) const {
  if (key.id >= flat_.size() || !flat_[key.id].valid()) return nullptr;
  return &flat_[key.id];
}

void LocRib::for_each(const std::function<void(const Route&)>& fn) const {
  for (const Route& route : flat_) {
    if (route.valid()) fn(route);
  }
}

void LocRib::clear() {
  for (Route& route : flat_) route = Route{};
  count_ = 0;
}

// --- AdjRibOut --------------------------------------------------------

AdjRibOut::AdjRibOut(std::shared_ptr<PrefixIndex> index)
    : index_(std::move(index)) {}

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
  return set(index_->intern(prefix), routes);
}

bool AdjRibOut::set(const IndexedPrefix& key, std::span<Route> routes) {
  // Canonical order: by path id, so set comparison is stable.
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    return a.path_id < b.path_id;
  });

  if (key.id >= flat_.size()) flat_.resize(index_->size());
  std::vector<Route>& slot = flat_[key.id];
  if (same_route_set(slot, routes)) return false;
  size_ = size_ - slot.size() + routes.size();
  slot.assign(routes.begin(), routes.end());
  return true;
}

const std::vector<Route>* AdjRibOut::get(const Ipv4Prefix& prefix) const {
  const auto id = index_->id_of(prefix);
  return id ? get(IndexedPrefix{prefix, *id}) : nullptr;
}

const std::vector<Route>* AdjRibOut::get(const IndexedPrefix& key) const {
  if (key.id >= flat_.size() || flat_[key.id].empty()) return nullptr;
  return &flat_[key.id];
}

void AdjRibOut::clear() {
  for (std::vector<Route>& routes : flat_) routes.clear();
  size_ = 0;
}

void AdjRibOut::for_each(
    const std::function<void(const Ipv4Prefix&, const std::vector<Route>&)>&
        fn) const {
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    if (!flat_[id].empty()) fn(index_->prefix_of(id), flat_[id]);
  }
}

}  // namespace abrr::bgp
