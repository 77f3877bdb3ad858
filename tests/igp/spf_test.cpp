#include "igp/spf.h"

#include <gtest/gtest.h>

namespace abrr::igp {
namespace {

Graph diamond() {
  //    1
  //   / \      1-2: 1, 1-3: 4
  //  2   3     2-4: 2, 3-4: 1
  //   \ /
  //    4
  Graph g;
  g.add_link(1, 2, 1);
  g.add_link(1, 3, 4);
  g.add_link(2, 4, 2);
  g.add_link(3, 4, 1);
  return g;
}

TEST(Graph, NodeAndLinkBookkeeping) {
  Graph g = diamond();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.link_count(), 4u);
  EXPECT_TRUE(g.has_node(1));
  EXPECT_FALSE(g.has_node(9));
  g.add_node(1);  // idempotent
  EXPECT_EQ(g.node_count(), 4u);
}

TEST(Graph, ParallelLinksKeepSmallerMetric) {
  Graph g;
  g.add_link(1, 2, 10);
  g.add_link(1, 2, 3);
  EXPECT_EQ(g.link_count(), 1u);
  EXPECT_EQ(g.neighbors(1).front().metric, 3);
}

TEST(Graph, RejectsBadLinks) {
  Graph g;
  EXPECT_THROW(g.add_link(1, 1, 5), std::invalid_argument);
  EXPECT_THROW(g.add_link(1, 2, 0), std::invalid_argument);
}

TEST(Spf, ComputesShortestDistances) {
  const Graph g = diamond();
  const SpfTree tree = compute_spf(g, 1);
  EXPECT_EQ(tree.distance_to(1), 0);
  EXPECT_EQ(tree.distance_to(2), 1);
  EXPECT_EQ(tree.distance_to(4), 3);   // 1-2-4
  EXPECT_EQ(tree.distance_to(3), 4);   // 1-3 direct == 1-2-4-3 tie
}

TEST(Spf, FirstHopFollowsShortestPath) {
  const Graph g = diamond();
  const SpfTree tree = compute_spf(g, 1);
  EXPECT_EQ(tree.next_hop_to(1), 1u);
  EXPECT_EQ(tree.next_hop_to(2), 2u);
  EXPECT_EQ(tree.next_hop_to(4), 2u);  // via 2
}

TEST(Spf, UnreachableNodesReportInfinity) {
  Graph g = diamond();
  g.add_node(99);
  const SpfTree tree = compute_spf(g, 1);
  EXPECT_EQ(tree.distance_to(99), bgp::kIgpInfinity);
  EXPECT_EQ(tree.next_hop_to(99), bgp::kNoRouter);
}

TEST(Spf, UnknownSourceYieldsEmptyTree) {
  const Graph g = diamond();
  const SpfTree tree = compute_spf(g, 77);
  EXPECT_EQ(tree.distance_to(1), bgp::kIgpInfinity);
}

TEST(Spf, SymmetricDistances) {
  const Graph g = diamond();
  SpfCache cache{g};
  for (RouterId a : {1u, 2u, 3u, 4u}) {
    for (RouterId b : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(cache.distance(a, b), cache.distance(b, a))
          << a << " <-> " << b;
    }
  }
}

TEST(SpfCache, DistanceFnMatchesTree) {
  const Graph g = diamond();
  SpfCache cache{g};
  const auto fn = cache.distance_fn(1);
  EXPECT_EQ(fn(4), 3);
  EXPECT_EQ(fn(1), 0);
}

TEST(SpfCache, InvalidateRecomputes) {
  Graph g;
  g.add_link(1, 2, 10);
  SpfCache cache{g};
  EXPECT_EQ(cache.distance(1, 2), 10);
  g.add_link(1, 2, 4);  // tighten
  cache.invalidate();
  EXPECT_EQ(cache.distance(1, 2), 4);
}

TEST(Spf, IdsOnBothSidesOfTheDenseBoundAgree) {
  // Speakers sit below kDenseIds, PoP hubs above it; paths cross both.
  constexpr RouterId kHub = SpfTree::kDenseIds + 7;
  Graph g;
  g.add_link(1, kHub, 2);
  g.add_link(kHub, 3, 5);
  g.add_link(1, 3, 9);
  g.add_node(SpfTree::kDenseIds + 8);  // isolated
  const SpfTree tree = compute_spf(g, 1);
  EXPECT_EQ(tree.distance_to(1), 0);
  EXPECT_EQ(tree.distance_to(kHub), 2);
  EXPECT_EQ(tree.distance_to(3), 7);
  EXPECT_EQ(tree.next_hop_to(3), kHub);
  EXPECT_EQ(tree.distance_to(2), bgp::kIgpInfinity);
  EXPECT_EQ(tree.distance_to(SpfTree::kDenseIds + 8), bgp::kIgpInfinity);
  EXPECT_EQ(compute_spf(g, kHub).distance_to(3), 5);
}

TEST(Spf, WalkingFirstHopsReachesTarget) {
  // Property: repeatedly following next_hop from any node reaches the
  // target within node_count() steps (no micro-loops in SPF).
  Graph g;
  // A ring with a chord.
  for (RouterId i = 1; i <= 6; ++i) g.add_link(i, i % 6 + 1, 1 + (i % 3));
  g.add_link(1, 4, 2);
  SpfCache cache{g};
  for (RouterId src = 1; src <= 6; ++src) {
    for (RouterId dst = 1; dst <= 6; ++dst) {
      RouterId at = src;
      std::size_t steps = 0;
      while (at != dst) {
        at = cache.next_hop(at, dst);
        ASSERT_NE(at, bgp::kNoRouter);
        ASSERT_LE(++steps, g.node_count());
      }
    }
  }
}

}  // namespace
}  // namespace abrr::igp
