// Randomized-operation properties of the RIB structures: size counters
// never drift from ground truth under arbitrary announce/withdraw
// interleavings (each one a replace() of the peer's new set), and RIBs
// whose sets live in a shared RouteSetStore read exactly like private
// per-copy path lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "sim/random.h"

namespace abrr::bgp {
namespace {

class RibProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibProperty, AdjRibInSizeNeverDrifts) {
  sim::Rng rng{GetParam()};
  AdjRibIn rib;
  // Ground truth: (prefix, peer, path) -> attrs generation.
  std::map<std::tuple<std::uint32_t, RouterId, PathId>, int> truth;

  for (int op = 0; op < 2000; ++op) {
    const auto pfx_idx = static_cast<std::uint32_t>(rng.index(8));
    const Ipv4Prefix prefix{0x0A000000 + (pfx_idx << 16), 16};
    const auto peer = static_cast<RouterId>(1 + rng.index(5));
    const auto path = static_cast<PathId>(rng.index(3));

    const int action = static_cast<int>(rng.index(4));
    if (action <= 1) {  // announce (50%)
      truth[{pfx_idx, peer, path}] = static_cast<int>(rng.index(4));
    } else if (action == 2) {  // withdraw one path
      truth.erase({pfx_idx, peer, path});
    } else {  // withdraw the peer's whole prefix
      for (auto it = truth.begin(); it != truth.end();) {
        const auto& [p, pr, pa] = it->first;
        it = (p == pfx_idx && pr == peer) ? truth.erase(it) : std::next(it);
      }
    }
    // The peer's whole set for the prefix after the operation.
    std::vector<Route> paths;
    for (const auto& [key, gen] : truth) {
      const auto& [p, pr, pa] = key;
      if (p != pfx_idx || pr != peer) continue;
      paths.push_back(RouteBuilder{prefix}
                          .path_id(pa)
                          .as_path({static_cast<Asn>(65000 + gen)})
                          .learned_from(peer, LearnedVia::kIbgp)
                          .build());
    }
    rib.replace(peer, prefix, paths);
    ASSERT_EQ(rib.size(), truth.size()) << "op " << op;
  }

  // Per-peer counts agree too.
  std::map<RouterId, std::size_t> per_peer;
  for (const auto& [key, gen] : truth) ++per_peer[std::get<1>(key)];
  for (RouterId peer = 1; peer <= 5; ++peer) {
    EXPECT_EQ(rib.peer_size(peer), per_peer[peer]) << peer;
  }

  // Tearing everything down reaches exactly zero.
  for (RouterId peer = 1; peer <= 5; ++peer) rib.withdraw_peer(peer);
  EXPECT_EQ(rib.size(), 0u);
}

TEST_P(RibProperty, AdjRibOutSizeMatchesContents) {
  sim::Rng rng{GetParam()};
  AdjRibOut rib;
  std::map<std::uint32_t, std::size_t> truth;  // prefix idx -> set size

  for (int op = 0; op < 1000; ++op) {
    const auto pfx_idx = static_cast<std::uint32_t>(rng.index(6));
    const Ipv4Prefix prefix{0x0A000000 + (pfx_idx << 16), 16};
    const auto n = rng.index(4);  // 0..3 routes (0 = withdraw-all)
    std::vector<Route> routes;
    for (std::size_t i = 0; i < n; ++i) {
      routes.push_back(RouteBuilder{prefix}
                           .path_id(static_cast<PathId>(i + 1))
                           .as_path({static_cast<Asn>(
                               65000 + rng.index(3))})
                           .build());
    }
    rib.set(prefix, routes);
    truth[pfx_idx] = n;

    std::size_t expected = 0;
    for (const auto& [idx, size] : truth) expected += size;
    ASSERT_EQ(rib.size(), expected) << "op " << op;
  }
}

/// The per-copy layout the shared store replaced: one path list per
/// prefix id, sorted by (peer, path id), holding its own Route copies.
class PerCopyRib {
 public:
  /// Storage key of an entry: (sending peer, add-paths path id).
  static std::pair<RouterId, PathId> key_of(const Route& route) {
    return {route.learned_from, route.path_id};
  }

  void announce(std::uint32_t id, const Route& route) {
    std::vector<Route>& paths = at(id);
    const auto it = std::lower_bound(
        paths.begin(), paths.end(), route, [](const Route& a, const Route& b) {
          return key_of(a) < key_of(b);
        });
    if (it == paths.end() || key_of(*it) != key_of(route)) {
      paths.insert(it, route);
    } else if (!(it->same_announcement(route) && it->via == route.via)) {
      *it = route;
    }
  }
  void withdraw(std::uint32_t id, RouterId peer, PathId path) {
    std::erase_if(at(id), [&](const Route& r) {
      return r.learned_from == peer && r.path_id == path;
    });
  }
  void replace(std::uint32_t id, RouterId peer,
               const std::vector<Route>& routes) {
    std::erase_if(at(id),
                  [&](const Route& r) { return r.learned_from == peer; });
    for (const Route& r : routes) announce(id, r);
  }
  void withdraw_peer(RouterId peer) {
    for (auto& paths : lists_) {
      std::erase_if(paths,
                    [&](const Route& r) { return r.learned_from == peer; });
    }
  }
  const std::vector<Route>& paths(std::uint32_t id) { return at(id); }
  std::vector<Route> peer_paths(std::uint32_t id, RouterId peer) {
    std::vector<Route> out;
    for (const Route& r : at(id)) {
      if (r.learned_from == peer) out.push_back(r);
    }
    return out;
  }
  std::vector<Route> all() const {
    std::vector<Route> out;
    for (const auto& paths : lists_) {
      out.insert(out.end(), paths.begin(), paths.end());
    }
    return out;
  }

 private:
  std::vector<Route>& at(std::uint32_t id) {
    if (id >= lists_.size()) lists_.resize(id + 1);
    return lists_[id];
  }
  std::vector<std::vector<Route>> lists_;
};

bool same_entries(const std::vector<Route>& a, const std::vector<Route>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].prefix != b[i].prefix || a[i].path_id != b[i].path_id ||
        a[i].attrs != b[i].attrs || a[i].learned_from != b[i].learned_from ||
        a[i].via != b[i].via) {
      return false;
    }
  }
  return true;
}

TEST_P(RibProperty, SharedSetsReadLikePerCopyLists) {
  // Three RIBs over one index and one store. Each op goes to one RIB, or
  // (a reflected set) to every RIB at once, so blocks are shared; after
  // each op every RIB must read exactly like its per-copy reference.
  sim::Rng rng{GetParam()};
  auto index = std::make_shared<PrefixIndex>();
  auto store = std::make_shared<RouteSetStore>();
  constexpr std::size_t kRibs = 3;
  std::vector<std::unique_ptr<AdjRibIn>> ribs;
  std::vector<PerCopyRib> refs(kRibs);
  for (std::size_t i = 0; i < kRibs; ++i) {
    ribs.push_back(std::make_unique<AdjRibIn>(index, store));
  }
  std::vector<const Route*> ptrs;

  for (int op = 0; op < 3000; ++op) {
    const auto pfx_idx = static_cast<std::uint32_t>(rng.index(6));
    const Ipv4Prefix prefix{0x0A000000 + (pfx_idx << 16), 16};
    const std::uint32_t id = index->add(prefix);
    const auto peer = static_cast<RouterId>(1 + rng.index(4));
    // Random paths, path ids possibly repeated within one set.
    std::vector<Route> routes;
    for (std::size_t n = rng.index(4); n > 0; --n) {
      routes.push_back(RouteBuilder{prefix}
                           .path_id(static_cast<PathId>(rng.index(3)))
                           .as_path({static_cast<Asn>(65000 + rng.index(3))})
                           .learned_from(peer, rng.index(4) == 0
                                               ? LearnedVia::kEbgp
                                               : LearnedVia::kIbgp)
                           .build());
    }
    const bool everywhere = rng.index(2) == 0;
    const std::size_t one = rng.index(kRibs);
    const int action = static_cast<int>(rng.index(8));
    for (std::size_t i = 0; i < kRibs; ++i) {
      if (!everywhere && i != one) continue;
      if (action == 0 && !routes.empty()) {
        // One path announced: the peer's set with it added or swapped in.
        refs[i].announce(id, routes.front());
        ribs[i]->replace(peer, prefix, refs[i].peer_paths(id, peer));
      } else if (action == 1) {
        const auto path = static_cast<PathId>(rng.index(3));
        refs[i].withdraw(id, peer, path);
        ribs[i]->replace(peer, prefix, refs[i].peer_paths(id, peer));
      } else if (action == 2 && rng.index(4) == 0) {
        ribs[i]->withdraw_peer(peer);
        refs[i].withdraw_peer(peer);
      } else {
        // Mixed via within one set is not what replace() receives.
        for (Route& r : routes) r.via = LearnedVia::kIbgp;
        ribs[i]->replace(peer, prefix, routes);
        refs[i].replace(id, peer, routes);
      }
    }

    for (std::size_t i = 0; i < kRibs; ++i) {
      const std::vector<Route>& want = refs[i].paths(id);
      ASSERT_TRUE(same_entries(ribs[i]->routes_for(prefix), want))
          << "op " << op << " rib " << i;
      ribs[i]->routes_for(IndexedPrefix{prefix, id}, ptrs);
      std::vector<Route> got;
      for (const Route* r : ptrs) got.push_back(*r);
      ASSERT_TRUE(same_entries(got, want)) << "op " << op << " rib " << i;
    }
  }

  for (std::size_t i = 0; i < kRibs; ++i) {
    std::vector<Route> got;
    ribs[i]->for_each([&](const Route& r) { got.push_back(r); });
    const std::vector<Route> want = refs[i].all();
    EXPECT_TRUE(same_entries(got, want)) << "rib " << i;
    EXPECT_EQ(ribs[i]->size(), want.size()) << "rib " << i;
  }
  ribs.clear();
  EXPECT_EQ(store->live_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibProperty,
                         ::testing::Values(3u, 17u, 4242u));

}  // namespace
}  // namespace abrr::bgp
