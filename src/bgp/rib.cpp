#include "bgp/rib.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/heap_bytes.h"

namespace abrr::bgp {
namespace {

bool path_id_less(const Route& entry, PathId id) { return entry.path_id < id; }

}  // namespace

// --- AdjRibIn ---------------------------------------------------------

AdjRibIn::AdjRibIn(std::shared_ptr<PrefixIndex> index,
                   std::shared_ptr<RouteSetStore> sets)
    : index_(std::move(index)), sets_(std::move(sets)) {}

AdjRibIn::~AdjRibIn() {
  // A dropped store freed the sets wholesale; the handles just go.
  if (!sets_->dropped()) clear();
}

const AdjRibIn::RunList* AdjRibIn::find_list(
    std::optional<std::uint32_t> id) const {
  if (!id || *id >= flat_.size() || flat_[*id].empty()) return nullptr;
  return &flat_[*id];
}

AdjRibIn::RunList& AdjRibIn::ensure_list(std::uint32_t id) {
  if (id >= flat_.size()) flat_.resize(index_->size());
  return flat_[id];
}

void AdjRibIn::store_run(RunList& runs, RouterId peer, const RouteSet* set) {
  const auto count =
      static_cast<std::uint32_t>(set != nullptr ? set->size() : 0);
  const auto it = find_run(runs, peer);
  std::size_t removed = 0;
  if (it != runs.end() && it->peer == peer) {
    removed = it->count;
    sets_->release(it->set);
    if (set != nullptr) {
      it->count = count;
      it->set = set;
    } else {
      runs.erase(it);
    }
  } else if (set != nullptr) {
    runs.insert(it, Run{peer, count, set});
  }
  size_ = size_ - removed + count;
  // The peer's count moves once per call, not once per stored route.
  if (count != removed) {
    per_peer_[peer] += count - removed;  // mod 2^64
  }
}

void AdjRibIn::insert(std::vector<Route>& paths, const Route& route) {
  const auto it = std::lower_bound(paths.begin(), paths.end(), route.path_id,
                                   path_id_less);
  if (it == paths.end() || it->path_id != route.path_id) {
    paths.insert(it, route);
  } else if (!(it->same_announcement(route) && it->via == route.via)) {
    *it = route;
  }
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
  // The new run is `routes` inserted one by one into an empty list.
  scratch_.clear();
  for (const Route& route : routes) insert(scratch_, route);
  // Acquire first: the store's table lookup does not depend on the run
  // list or the old set, so the loads overlap.
  const RouteSet* set = sets_->acquire(scratch_);
  store_run(ensure_list(key.id), peer, set);
}

void AdjRibIn::take(RouterId peer, const IndexedPrefix& key,
                    RouteSetRef routes) {
#ifndef NDEBUG
  assert(!routes || routes.store() == sets_.get());
  const std::span<const Route> set = routes.routes();
  for (std::size_t i = 0; i < set.size(); ++i) {
    assert(set[i].valid() && set[i].prefix == key.prefix &&
           set[i].learned_from == peer);
    assert(i == 0 || set[i - 1].path_id < set[i].path_id);
  }
#endif
  store_run(ensure_list(key.id), peer, routes.release());
}

std::vector<Ipv4Prefix> AdjRibIn::withdraw_peer(RouterId peer) {
  std::vector<Ipv4Prefix> affected;
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    RunList& runs = flat_[id];
    const auto it = find_run(runs, peer);
    if (it == runs.end() || it->peer != peer) continue;
    size_ -= it->count;
    sets_->release(it->set);
    runs.erase(it);
    affected.push_back(index_->prefix_of(id));
  }
  per_peer_.erase(peer);
  // Sorted so downstream re-decisions run in prefix order, not in the
  // order the prefixes were first seen.
  std::sort(affected.begin(), affected.end());
  return affected;
}

std::vector<Route> AdjRibIn::routes_for(const Ipv4Prefix& prefix) const {
  std::vector<Route> out;
  const RunList* runs = find_list(index_->id_of(prefix));
  if (runs == nullptr) return out;
  for (const Run& run : *runs) {
    out.insert(out.end(), run.set->begin(), run.set->end());
  }
  return out;
}

void AdjRibIn::routes_for(const IndexedPrefix& key,
                          std::vector<const Route*>& out) const {
  out.clear();
  const RunList* runs = find_list(key.id);
  if (runs == nullptr) return;
  // From the runs alone (the count is kept beside the handle): no set is
  // read until the decision process reads its routes.
  for (const Run& run : *runs) {
    const Route* first = run.set->begin();
    for (std::uint32_t i = 0; i < run.count; ++i) out.push_back(first + i);
  }
}

std::size_t AdjRibIn::peer_size(RouterId peer) const {
  const auto it = per_peer_.find(peer);
  return it == per_peer_.end() ? 0 : it->second;
}

void AdjRibIn::for_each(const std::function<void(const Route&)>& fn) const {
  for (const RunList& runs : flat_) {
    for (const Run& run : runs) {
      for (const Route& route : *run.set) fn(route);
    }
  }
}

void AdjRibIn::for_each_set(
    const std::function<void(const RouteSet&)>& fn) const {
  for (const RunList& runs : flat_) {
    for (const Run& run : runs) fn(*run.set);
  }
}

void AdjRibIn::clear() {
  for (RunList& runs : flat_) {
    for (const Run& run : runs) sets_->release(run.set);
    runs.clear();
  }
  per_peer_.clear();
  size_ = 0;
}

std::size_t AdjRibIn::bytes() const {
  std::size_t n = sim::heap_bytes(flat_) + sim::heap_bytes(per_peer_) +
                  sim::heap_bytes(scratch_);
  for (const RunList& runs : flat_) n += sim::heap_bytes(runs);
  return n;
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

std::size_t LocRib::bytes() const { return sim::heap_bytes(flat_); }

// --- AdjRibOut --------------------------------------------------------

AdjRibOut::AdjRibOut(std::shared_ptr<PrefixIndex> index,
                     std::shared_ptr<RouteSetStore> sets)
    : index_(std::move(index)), sets_(std::move(sets)) {}

AdjRibOut::~AdjRibOut() {
  // A moved-from RIB holds neither sets nor a store.
  if (sets_ != nullptr && !sets_->dropped()) clear();
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
  return set(index_->intern(prefix), routes);
}

bool AdjRibOut::set(const IndexedPrefix& key, std::span<Route> routes) {
  // Canonical order: by path id, so set comparison is stable.
  std::sort(routes.begin(), routes.end(), [](const Route& a, const Route& b) {
    return a.path_id < b.path_id;
  });

  if (key.id >= flat_.size()) flat_.resize(index_->size(), nullptr);
  const RouteSet*& slot = flat_[key.id];
  const std::span<const Route> current =
      slot != nullptr ? std::span<const Route>{*slot} : std::span<const Route>{};
  if (same_route_set(current, routes)) return false;
  size_ = size_ - current.size() + routes.size();
  const RouteSet* next = sets_->acquire(routes);
  sets_->release(slot);
  slot = next;
  return true;
}

const RouteSet* AdjRibOut::get(const Ipv4Prefix& prefix) const {
  const auto id = index_->id_of(prefix);
  return id ? get(IndexedPrefix{prefix, *id}) : nullptr;
}

const RouteSet* AdjRibOut::get(const IndexedPrefix& key) const {
  return key.id < flat_.size() ? flat_[key.id] : nullptr;
}

void AdjRibOut::clear() {
  for (const RouteSet*& set : flat_) {
    sets_->release(set);
    set = nullptr;
  }
  size_ = 0;
}

void AdjRibOut::for_each(
    const std::function<void(const Ipv4Prefix&, const RouteSet&)>& fn) const {
  for (std::size_t id = 0; id < flat_.size(); ++id) {
    if (flat_[id] != nullptr) fn(index_->prefix_of(id), *flat_[id]);
  }
}

std::size_t AdjRibOut::bytes() const { return sim::heap_bytes(flat_); }

}  // namespace abrr::bgp
