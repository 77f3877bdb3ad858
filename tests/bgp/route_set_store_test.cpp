// RouteSetStore: one block per distinct set, shared by every RIB that
// holds it, freed with its last holder.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/rib.h"
#include "bgp/route_set_store.h"
#include "sim/random.h"

namespace abrr::bgp {
namespace {

const Ipv4Prefix kP1 = Ipv4Prefix::parse("10.1.0.0/16");
const Ipv4Prefix kP2 = Ipv4Prefix::parse("10.2.0.0/16");

Route reflected(const Ipv4Prefix& prefix, PathId path, RouterId from,
                Asn as = 65001) {
  return RouteBuilder{prefix}
      .path_id(path)
      .as_path({as})
      .next_hop(path)
      .learned_from(from, LearnedVia::kIbgp)
      .build();
}

std::vector<Route> set_from(RouterId from, std::size_t n,
                            const Ipv4Prefix& prefix = kP1) {
  std::vector<Route> routes;
  for (std::size_t i = 0; i < n; ++i) {
    routes.push_back(reflected(prefix, static_cast<PathId>(i + 1), from,
                               static_cast<Asn>(65001 + i)));
  }
  return routes;
}

TEST(RouteSetStore, EqualSetsShareOneBlock) {
  RouteSetStore store;
  const auto routes = set_from(91, 3);
  const RouteSet* a = store.acquire(routes);
  const RouteSet* b = store.acquire(routes);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.live_blocks(), 1u);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[2].path_id, 3u);
  store.release(a);
  EXPECT_EQ(store.live_blocks(), 1u);  // b still holds it
  store.release(b);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RouteSetStore, EmptySetIsNoBlock) {
  RouteSetStore store;
  EXPECT_EQ(store.acquire({}), nullptr);
  store.release(nullptr);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RouteSetStore, LearnedFromIsPartOfTheKey) {
  RouteSetStore store;
  const RouteSet* a = store.acquire(set_from(91, 2));
  const RouteSet* b = store.acquire(set_from(92, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.live_blocks(), 2u);
  store.release(a);
  store.release(b);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RouteSetStore, RandomAcquireReleaseKeepsTheTableConsistent) {
  // Many live blocks, released in random order: every lookup after a
  // removal (backward-shift deletion) must still find the survivors.
  sim::Rng rng{7};
  RouteSetStore store;
  std::vector<std::vector<Route>> sets;
  std::vector<const RouteSet*> held;
  for (RouterId from = 1; from <= 400; ++from) {
    sets.push_back(set_from(from, 1 + rng.index(4)));
    held.push_back(store.acquire(sets.back()));
  }
  ASSERT_EQ(store.live_blocks(), 400u);
  for (std::size_t round = 0; round < 3000; ++round) {
    const std::size_t i = rng.index(sets.size());
    if (held[i] != nullptr) {
      store.release(held[i]);
      held[i] = nullptr;
    } else {
      held[i] = store.acquire(sets[i]);
    }
    // Re-acquiring a held set finds the same block.
    const std::size_t j = rng.index(sets.size());
    if (held[j] != nullptr) {
      const RouteSet* again = store.acquire(sets[j]);
      EXPECT_EQ(again, held[j]);
      store.release(again);
    }
  }
  for (const RouteSet* set : held) store.release(set);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RouteSetStore, SetsLargerThanThePoolLiveOnTheHeap) {
  RouteSetStore store;
  const std::size_t before = store.bytes();
  const auto big = set_from(91, RouteSetStore::kPooledRoutes + 5);
  const RouteSet* set = store.acquire(big);
  ASSERT_EQ(set->size(), big.size());
  EXPECT_EQ(set->front().path_id, 1u);
  EXPECT_GT(store.bytes(), before + big.size() * sizeof(Route));
  store.release(set);
  EXPECT_EQ(store.live_blocks(), 0u);
}

TEST(RouteSetStore, TwoReceiversOfOneSetHoldOneBlock) {
  auto index = std::make_shared<PrefixIndex>();
  auto store = std::make_shared<RouteSetStore>();
  AdjRibIn a{index, store};
  AdjRibIn b{index, store};
  // Warm both RIBs up (their slot, a one-run list and scratch space for
  // kP1, and sender 91 at another prefix), so that what the second
  // receiver adds below is its run alone.
  a.replace(7, kP1, set_from(7, 1));
  b.replace(7, kP1, set_from(7, 1));
  a.replace(91, kP2, set_from(91, 3, kP2));
  b.replace(91, kP2, set_from(91, 3, kP2));

  const auto routes = set_from(91, 3);
  a.replace(91, kP1, routes);
  const std::size_t store_bytes = store->bytes();
  const std::size_t blocks = store->live_blocks();
  const std::size_t b_bytes = b.bytes();
  b.replace(91, kP1, routes);

  // Sender 91's run follows peer 7's; both RIBs point at the same
  // stored routes.
  const IndexedPrefix key{kP1, *index->id_of(kP1)};
  std::vector<const Route*> in_a;
  std::vector<const Route*> in_b;
  a.routes_for(key, in_a);
  b.routes_for(key, in_b);
  ASSERT_EQ(in_a.size(), 4u);
  ASSERT_EQ(in_b.size(), 4u);
  EXPECT_EQ(in_a[1], in_b[1]);
  EXPECT_EQ(store->live_blocks(), blocks);
  EXPECT_EQ(store->bytes(), store_bytes);
  // The second receiver pays for one run entry (its run list grows from
  // one run to two), not for the routes.
  EXPECT_GT(b.bytes(), b_bytes);
  EXPECT_LT(b.bytes() - b_bytes, sizeof(Route));
  EXPECT_EQ(b.size(), 7u);  // entry counts still count routes
  EXPECT_EQ(b.peer_size(91), 6u);
}

TEST(RouteSetStore, WithdrawPeerOfEveryPeerFreesEveryBlock) {
  auto index = std::make_shared<PrefixIndex>();
  auto store = std::make_shared<RouteSetStore>();
  {
    AdjRibIn a{index, store};
    AdjRibIn b{index, store};
    for (RouterId peer = 1; peer <= 4; ++peer) {
      a.replace(peer, kP1, set_from(peer, peer));
      a.replace(peer, kP2, set_from(peer, 2, kP2));
      b.replace(peer, kP1, set_from(peer, peer));
    }
    EXPECT_GT(store->live_blocks(), 0u);
    for (RouterId peer = 1; peer <= 4; ++peer) {
      a.withdraw_peer(peer);
      b.withdraw_peer(peer);
    }
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(store->live_blocks(), 0u);

    // Destruction gives back what is still held.
    a.replace(1, kP1, set_from(1, 2));
  }
  EXPECT_EQ(store->live_blocks(), 0u);
}

TEST(RouteSetStore, AdjRibOutKeepsTheStoredSetForAnEqualAnnouncement) {
  // A set that announces the same (prefix, path ids, attributes) leaves
  // the stored block in place even when the bookkeeping fields differ.
  auto store = std::make_shared<RouteSetStore>();
  AdjRibOut out{std::make_shared<PrefixIndex>(), store};
  auto first = set_from(1, 2);
  ASSERT_TRUE(out.set(kP1, first));
  const RouteSet* stored = out.get(kP1);
  auto relearned = set_from(2, 2);  // same announcements, other sender
  EXPECT_FALSE(out.set(kP1, relearned));
  EXPECT_EQ(out.get(kP1), stored);
  EXPECT_EQ(out.get(kP1)->front().learned_from, 1u);
  EXPECT_TRUE(out.set(kP1, {}));
  EXPECT_EQ(store->live_blocks(), 0u);
}

TEST(RouteSetStore, ChurnSoakLeavesNothingBehind) {
  // Random replace / withdraw / withdraw_peer / clear over several RIBs
  // and Adj-RIB-Outs sharing one store, sets up to past the pool size.
  // Run under ASan (asan-hotpath preset) this also checks for leaks and
  // use-after-free of the blocks the heap holds.
  sim::Rng rng{2024};
  auto index = std::make_shared<PrefixIndex>();
  auto store = std::make_shared<RouteSetStore>();
  std::vector<Ipv4Prefix> prefixes;
  for (std::uint32_t p = 0; p < 16; ++p) {
    prefixes.emplace_back(0x0A000000u + (p << 16), 16);
  }
  {
    std::vector<std::unique_ptr<AdjRibIn>> ins;
    std::vector<std::unique_ptr<AdjRibOut>> outs;
    for (int i = 0; i < 4; ++i) {
      ins.push_back(std::make_unique<AdjRibIn>(index, store));
      outs.push_back(std::make_unique<AdjRibOut>(index, store));
    }
    for (int op = 0; op < 20000; ++op) {
      const Ipv4Prefix& prefix = prefixes[rng.index(prefixes.size())];
      const auto peer = static_cast<RouterId>(90 + rng.index(3));
      const std::size_t n = rng.index(10) == 0
                                ? RouteSetStore::kPooledRoutes + rng.index(4)
                                : rng.index(4);
      auto routes = set_from(peer, n, prefix);
      AdjRibIn& in = *ins[rng.index(ins.size())];
      switch (rng.index(8)) {
        case 0: {  // withdraw one path: replace with the peer's others
          const auto path = static_cast<PathId>(1 + rng.index(3));
          std::vector<Route> kept;
          for (const Route& r : in.routes_for(prefix)) {
            if (r.learned_from == peer && r.path_id != path) kept.push_back(r);
          }
          in.replace(peer, prefix, kept);
          break;
        }
        case 1:
          in.withdraw_peer(peer);
          break;
        case 2:
          outs[rng.index(outs.size())]->set(prefix, routes);
          break;
        case 3:
          if (rng.index(50) == 0) in.clear();
          break;
        default:
          in.replace(peer, prefix, routes);
      }
    }
    EXPECT_GT(store->live_blocks(), 0u);
    for (auto& in : ins) in->clear();
    for (auto& out : outs) out->clear();
    EXPECT_EQ(store->live_blocks(), 0u);
    // Refill, then let the destructors give everything back.
    for (auto& in : ins) in->replace(91, prefixes[0], set_from(91, 40, prefixes[0]));
  }
  EXPECT_EQ(store->live_blocks(), 0u);
}

}  // namespace
}  // namespace abrr::bgp
