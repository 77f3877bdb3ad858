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
#pragma once

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

namespace abrr::bgp {

/// Adj-RIB-In: routes reported by every neighbor, keyed by
/// (prefix, sending peer, add-paths path id).
class AdjRibIn {
 public:
  /// Result of applying an announcement.
  enum class Change { kUnchanged, kAdded, kReplaced };

  /// Stores prefixes under `index`'s ids (a fresh private index when
  /// none is given).
  explicit AdjRibIn(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>());

  /// Stores/overwrites the route keyed by (prefix, learned_from,
  /// path_id). Requires route.valid().
  Change announce(const Route& route);

  /// Removes one path. Returns true if it existed.
  bool withdraw(RouterId peer, const Ipv4Prefix& prefix, PathId path_id);

  /// Replacement semantics for one (peer, prefix): removes every path
  /// `peer` reported for the prefix, then announce()s each of `routes`
  /// (all learned from `peer`; empty withdraws the prefix from the
  /// peer), with one capacity reservation for the whole set.
  void replace(RouterId peer, const Ipv4Prefix& prefix,
               std::span<const Route> routes);
  void replace(RouterId peer, const IndexedPrefix& key,
               std::span<const Route> routes);

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

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

  /// Storage key of an entry: (sending peer, add-paths path id).
  using Key = std::pair<RouterId, PathId>;
  static Key key_of(const Route& route) {
    return Key{route.learned_from, route.path_id};
  }

 private:
  /// Sorted flat path list: node-free storage whose iteration order
  /// matches the std::map it replaced. The sort key (learned_from,
  /// path_id) is read from the routes themselves — storing it separately
  /// would pad every entry by a quarter of a cache line for data the
  /// Route already carries.
  using PathList = std::vector<Route>;

  /// The prefix's non-empty path list, or nullptr.
  const PathList* find_list(std::optional<std::uint32_t> id) const;
  /// The prefix's path list, growing the storage to cover `id`.
  PathList& ensure_list(std::uint32_t id);
  /// announce() into an already-resolved list. Leaves the per-peer
  /// count to the caller.
  Change insert(PathList& paths, const Route& route);

  std::shared_ptr<PrefixIndex> index_;
  std::vector<PathList> flat_;  // slot per PrefixId; empty = no routes
  std::unordered_map<RouterId, std::size_t> per_peer_;
  std::size_t size_ = 0;
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
  /// Stores prefixes under `index`'s ids (a fresh private index when
  /// none is given).
  explicit AdjRibOut(
      std::shared_ptr<PrefixIndex> index = std::make_shared<PrefixIndex>());

  /// Replaces the advertised set for `prefix` with a copy of `routes`
  /// (an empty set withdraws the prefix). Sorts `routes` in place into
  /// the canonical path-id order first. Returns true if the stored set
  /// changed. The copy reuses the prefix's storage, so replacing a set
  /// with one no larger allocates nothing.
  bool set(const Ipv4Prefix& prefix, std::span<Route> routes);
  bool set(const IndexedPrefix& key, std::span<Route> routes);

  /// Current advertised set (nullptr if none).
  const std::vector<Route>* get(const Ipv4Prefix& prefix) const;
  const std::vector<Route>* get(const IndexedPrefix& key) const;

  /// Total advertised route entries (the paper's RIB-Out size metric).
  std::size_t size() const { return size_; }

  void for_each(
      const std::function<void(const Ipv4Prefix&, const std::vector<Route>&)>&
          fn) const;

  /// Drops every entry (router crash with state loss). Keeps the index.
  void clear();

 private:
  std::shared_ptr<PrefixIndex> index_;
  std::vector<std::vector<Route>> flat_;  // slot per PrefixId; empty = none
  std::size_t size_ = 0;
};

}  // namespace abrr::bgp
