// Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//
// Definitions follow §3.2 of the paper, which in turn follows RFC 4271:
// Adj-RIB-In holds what each neighbor reported; Adj-RIB-Out holds what is
// reported to neighbors (one logical copy per peer group).
//
// Storage: every RIB keeps its entries in flat vectors addressed by the
// dense id of a PrefixIndex — one array access instead of a map probe on
// every hot-path touch. A speaker's RIBs share its index; a RIB built
// without one owns a private index. Mutations register a new prefix
// (it gets the next id, and the vectors grow to match); prefix-form
// queries only look the prefix up.
//
// The route sets of Adj-RIB-In and Adj-RIB-Out live in a RouteSetStore
// (bgp/route_set_store.h): a slot holds a handle to an immutable,
// shared set, so a set that many routers hold is stored once. A
// speaker's RIBs use its network's store, which every speaker on the
// network shares; a RIB built without one owns a private store.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/prefix_index.h"
#include "bgp/route.h"
#include "bgp/route_set_store.h"

namespace abrr::bgp {

/// Adj-RIB-In: routes reported by every neighbor, keyed by
/// (prefix, sending peer, add-paths path id).
class AdjRibIn {
 public:
  /// Stores prefixes under `index`'s ids and route sets in `sets` (fresh
  /// private ones when none are given).
  explicit AdjRibIn(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>(),
      std::shared_ptr<RouteSetStore> sets = std::make_shared<RouteSetStore>());
  /// Gives every held set back to the store (unless it was dropped).
  ~AdjRibIn();
  AdjRibIn(const AdjRibIn&) = delete;
  AdjRibIn& operator=(const AdjRibIn&) = delete;

  /// Replacement semantics for one (peer, prefix), the only way to
  /// store routes: removes every path `peer` reported for the prefix,
  /// then keeps each of `routes` (all valid and learned from `peer`;
  /// empty withdraws the prefix from the peer) keyed by path id, a
  /// repeated path id keeping the later route unless it is the same
  /// announcement. The result is stored as one shared set.
  void replace(RouterId peer, const Ipv4Prefix& prefix,
               std::span<const Route> routes);
  void replace(RouterId peer, const IndexedPrefix& key,
               std::span<const Route> routes);

  /// replace() for a set already stored in this RIB's store and already
  /// in the form replace() would store: valid routes for the prefix,
  /// learned from `peer`, sorted by path id with unique ids. The RIB
  /// keeps the handle's reference: nothing is copied, hashed or looked
  /// up. A null handle withdraws the prefix from the peer.
  void take(RouterId peer, const IndexedPrefix& key, RouteSetRef routes);

  /// Session teardown: removes everything from `peer`; returns the
  /// affected prefixes (sorted) for re-running decisions.
  std::vector<Ipv4Prefix> withdraw_peer(RouterId peer);

  /// All routes currently known for `prefix`, across all peers.
  std::vector<Route> routes_for(const Ipv4Prefix& prefix) const;

  /// Copy-free variant: clears `out` and fills it with pointers to the
  /// stored routes (ordered by (peer, path id), same as routes_for).
  /// Pointers stay valid until the next mutation of this RIB.
  void routes_for(const IndexedPrefix& key,
                  std::vector<const Route*>& out) const;

  /// Total entries (the paper's RIB-In size metric).
  std::size_t size() const { return size_; }

  /// Entries contributed by one peer.
  std::size_t peer_size(RouterId peer) const;

  /// Visits every stored route.
  void for_each(const std::function<void(const Route&)>& fn) const;

  /// Visits the set of every (prefix, peer) run: each reference this RIB
  /// holds in its store.
  void for_each_set(const std::function<void(const RouteSet&)>& fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

  /// Heap bytes this RIB holds: slots, run lists and per-peer counts.
  /// The sets the runs point to are the store's (RouteSetStore::bytes).
  std::size_t bytes() const;

 private:
  /// One peer's paths for a prefix: a shared set, sorted by path id.
  struct Run {
    RouterId peer;
    /// The set's size, kept beside the handle: replacing a run reads
    /// the old count without waiting for the old set's cache line.
    std::uint32_t count;
    const RouteSet* set;
  };
  /// A prefix's runs, sorted by peer, so walking the runs and each run's
  /// set visits paths in (peer, path id) order.
  using RunList = std::vector<Run>;

  /// The prefix's non-empty run list, or nullptr.
  const RunList* find_list(std::optional<std::uint32_t> id) const;
  /// The prefix's run list, growing the storage to cover `id`.
  RunList& ensure_list(std::uint32_t id);
  /// The run of `peer` in `runs`, or where it would be inserted.
  template <typename Runs>  // RunList or const RunList
  static auto find_run(Runs& runs, RouterId peer) {
    return std::lower_bound(
        runs.begin(), runs.end(), peer,
        [](const Run& run, RouterId p) { return run.peer < p; });
  }
  /// Makes `set` (all from `peer`, sorted by path id; null = no paths)
  /// the peer's run, taking over the caller's reference, erasing the
  /// run when `set` is null, and keeps the counts.
  void store_run(RunList& runs, RouterId peer, const RouteSet* set);
  /// Adds `route` to a path list sorted by path id, or overwrites the
  /// path with its id unless that is the same announcement.
  static void insert(std::vector<Route>& paths, const Route& route);

  std::shared_ptr<PrefixIndex> index_;
  std::shared_ptr<RouteSetStore> sets_;
  std::vector<RunList> flat_;  // slot per PrefixId; empty = no routes
  std::unordered_map<RouterId, std::size_t> per_peer_;
  std::size_t size_ = 0;
  /// Where replace builds a peer's new path list.
  std::vector<Route> scratch_;
};

/// Loc-RIB: the single chosen best route per prefix.
class LocRib {
 public:
  /// Stores prefixes under `index`'s ids (a fresh private index when
  /// none is given).
  explicit LocRib(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>());

  /// Installs `route` as best for its prefix; returns true if this
  /// changed the entry (new or different announcement).
  bool install(const Route& route);
  /// install() for `key.prefix == route.prefix`, already looked up.
  bool install(const IndexedPrefix& key, const Route& route);

  /// Removes the entry; returns true if one existed.
  bool remove(const Ipv4Prefix& prefix);
  bool remove(const IndexedPrefix& key);

  /// Current best, or nullptr.
  const Route* best(const Ipv4Prefix& prefix) const;
  const Route* best(const IndexedPrefix& key) const;

  std::size_t size() const { return count_; }

  void for_each(const std::function<void(const Route&)>& fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

  /// Heap bytes this RIB holds.
  std::size_t bytes() const;

 private:
  std::shared_ptr<PrefixIndex> index_;
  std::vector<Route> flat_;  // slot per PrefixId; !valid() = empty
  std::size_t count_ = 0;
};

/// Adj-RIB-Out for one peer group: the set of routes advertised per
/// prefix (a single route for single-path speakers, the best AS-level
/// set for ARRs and multi-path TRRs).
class AdjRibOut {
 public:
  /// Stores prefixes under `index`'s ids and route sets in `sets` (fresh
  /// private ones when none are given).
  explicit AdjRibOut(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>(),
      std::shared_ptr<RouteSetStore> sets = std::make_shared<RouteSetStore>());
  /// Gives every held set back to the store (unless it was dropped).
  ~AdjRibOut();
  /// Moving leaves `other` empty, so one set is released once.
  AdjRibOut(AdjRibOut&& other) = default;
  AdjRibOut(const AdjRibOut&) = delete;
  AdjRibOut& operator=(const AdjRibOut&) = delete;
  AdjRibOut& operator=(AdjRibOut&&) = delete;

  /// Replaces the advertised set for `prefix` with `routes` (an empty
  /// set withdraws the prefix). Sorts `routes` in place into the
  /// canonical path-id order first. Returns true if the stored set
  /// changed; a set that announces the same as the stored one (same
  /// prefix, path ids and attributes) leaves the stored one in place.
  bool set(const Ipv4Prefix& prefix, std::span<Route> routes);
  bool set(const IndexedPrefix& key, std::span<Route> routes);

  /// Current advertised set (nullptr if none).
  const RouteSet* get(const Ipv4Prefix& prefix) const;
  const RouteSet* get(const IndexedPrefix& key) const;

  /// Total advertised route entries (the paper's RIB-Out size metric).
  std::size_t size() const { return size_; }

  void for_each(
      const std::function<void(const Ipv4Prefix&, const RouteSet&)>& fn)
      const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

  /// Heap bytes this RIB holds: one handle per slot. The sets are the
  /// store's (RouteSetStore::bytes).
  std::size_t bytes() const;

 private:
  std::shared_ptr<PrefixIndex> index_;
  std::shared_ptr<RouteSetStore> sets_;
  std::vector<const RouteSet*> flat_;  // slot per PrefixId; null = none
  std::size_t size_ = 0;
};

}  // namespace abrr::bgp
