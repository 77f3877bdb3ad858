// Randomized-operation properties of the RIB structures: size counters
// never drift from ground truth under arbitrary announce/withdraw
// interleavings.
#include <gtest/gtest.h>

#include <map>

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
      const auto gen = static_cast<std::uint32_t>(rng.index(4));
      rib.announce(RouteBuilder{prefix}
                       .path_id(path)
                       .as_path({65000 + gen})
                       .learned_from(peer, LearnedVia::kIbgp)
                       .build());
      truth[{pfx_idx, peer, path}] = static_cast<int>(gen);
    } else if (action == 2) {  // withdraw one path
      rib.withdraw(peer, prefix, path);
      truth.erase({pfx_idx, peer, path});
    } else {  // withdraw the peer's whole prefix
      rib.replace(peer, prefix, {});
      for (auto it = truth.begin(); it != truth.end();) {
        const auto& [p, pr, pa] = it->first;
        it = (p == pfx_idx && pr == peer) ? truth.erase(it) : std::next(it);
      }
    }
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

INSTANTIATE_TEST_SUITE_P(Seeds, RibProperty,
                         ::testing::Values(3u, 17u, 4242u));

}  // namespace
}  // namespace abrr::bgp
