#include "bgp/rib.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "bgp/update.h"
#include "wire/codec.h"

namespace abrr::bgp {
namespace {

const Ipv4Prefix kP1 = Ipv4Prefix::parse("10.0.0.0/8");
const Ipv4Prefix kP2 = Ipv4Prefix::parse("20.0.0.0/8");

Route mk(const Ipv4Prefix& pfx, RouterId peer, PathId id, Asn first_as) {
  return RouteBuilder{pfx}
      .path_id(id)
      .as_path({first_as})
      .next_hop(id)
      .learned_from(peer, LearnedVia::kIbgp)
      .build();
}

using Routes = std::vector<Route>;

TEST(AdjRibIn, KeysByPeerAndPathId) {
  AdjRibIn rib;
  // Same peer, two path ids; a different peer with a repeated path id.
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 2, 100)});
  rib.replace(6, kP1, Routes{mk(kP1, 6, 1, 100)});
  EXPECT_EQ(rib.size(), 3u);
  EXPECT_EQ(rib.routes_for(kP1).size(), 3u);
  EXPECT_EQ(rib.peer_size(5), 2u);
  EXPECT_EQ(rib.peer_size(6), 1u);
  // A repeated path id within one set keeps one path: the later route.
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 1, 101)});
  EXPECT_EQ(rib.peer_size(5), 1u);
  EXPECT_EQ(rib.routes_for(kP1).front().neighbor_as(), 101u);
}

TEST(AdjRibIn, WithdrawSinglePath) {
  AdjRibIn rib;
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 2, 100)});
  rib.replace(5, kP1, Routes{mk(kP1, 5, 2, 100)});
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.peer_size(5), 1u);
  EXPECT_EQ(rib.routes_for(kP1).front().path_id, 2u);
}

TEST(AdjRibIn, WithdrawPrefixRemovesAllFromPeer) {
  AdjRibIn rib;
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 2, 100)});
  rib.replace(6, kP1, Routes{mk(kP1, 6, 3, 100)});
  rib.replace(5, kP1, {});
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.peer_size(5), 0u);
  EXPECT_EQ(rib.routes_for(kP1).front().learned_from, 6u);
}

TEST(AdjRibIn, ReplaceSwapsOnePeersSetAndKeepsOrder) {
  AdjRibIn rib;
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 2, 100)});
  rib.replace(6, kP1, Routes{mk(kP1, 6, 3, 100)});
  const Routes next = {mk(kP1, 5, 9, 101), mk(kP1, 5, 4, 102)};
  rib.replace(5, kP1, next);
  EXPECT_EQ(rib.size(), 3u);
  EXPECT_EQ(rib.peer_size(5), 2u);
  const Routes all = rib.routes_for(kP1);
  ASSERT_EQ(all.size(), 3u);
  // Sorted by (peer, path id).
  EXPECT_EQ(all[0].path_id, 4u);
  EXPECT_EQ(all[1].path_id, 9u);
  EXPECT_EQ(all[2].learned_from, 6u);
  EXPECT_THROW(rib.replace(6, kP1, next), std::invalid_argument);
}

TEST(AdjRibIn, ReplaceWithAnEqualSizeSetKeepsTheNeighbours) {
  // The peer's run sits between two other peers' paths; an equal-size
  // set takes its place without moving the neighbours.
  AdjRibIn rib;
  rib.replace(4, kP1, Routes{mk(kP1, 4, 1, 100)});
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100), mk(kP1, 5, 2, 100)});
  rib.replace(6, kP1, Routes{mk(kP1, 6, 3, 100)});
  const Routes next = {mk(kP1, 5, 7, 101), mk(kP1, 5, 8, 102)};
  rib.replace(5, kP1, next);
  EXPECT_EQ(rib.size(), 4u);
  EXPECT_EQ(rib.peer_size(5), 2u);
  const Routes all = rib.routes_for(kP1);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].learned_from, 4u);
  EXPECT_EQ(all[1].path_id, 7u);
  EXPECT_EQ(all[1].neighbor_as(), 101u);
  EXPECT_EQ(all[2].path_id, 8u);
  EXPECT_EQ(all[3].learned_from, 6u);
  // Rejected sets leave the RIB untouched.
  const Routes bad = {mk(kP1, 5, 9, 103), mk(kP1, 6, 10, 103)};
  EXPECT_THROW(rib.replace(5, kP1, bad), std::invalid_argument);
  EXPECT_EQ(rib.routes_for(kP1)[1].path_id, 7u);
  EXPECT_EQ(rib.peer_size(5), 2u);
}

TEST(AdjRibIn, WithdrawPeerReportsAffectedPrefixes) {
  AdjRibIn rib;
  rib.replace(5, kP1, Routes{mk(kP1, 5, 1, 100)});
  rib.replace(5, kP2, Routes{mk(kP2, 5, 1, 100)});
  rib.replace(6, kP2, Routes{mk(kP2, 6, 2, 100)});
  const auto affected = rib.withdraw_peer(5);
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.peer_size(5), 0u);
}

TEST(AdjRibIn, RoutesForUnknownPrefixEmpty) {
  AdjRibIn rib;
  EXPECT_TRUE(rib.routes_for(kP1).empty());
}

TEST(AdjRibIn, RejectsInvalidRoute) {
  AdjRibIn rib;
  EXPECT_THROW(rib.replace(5, kP1, Routes{Route{}}), std::invalid_argument);
  EXPECT_EQ(rib.size(), 0u);
}

TEST(LocRib, InstallDetectsChange) {
  LocRib rib;
  EXPECT_TRUE(rib.install(mk(kP1, 5, 1, 100)));
  EXPECT_FALSE(rib.install(mk(kP1, 5, 1, 100)));
  EXPECT_TRUE(rib.install(mk(kP1, 6, 1, 100)));  // different learned_from
  EXPECT_EQ(rib.size(), 1u);
  ASSERT_NE(rib.best(kP1), nullptr);
  EXPECT_EQ(rib.best(kP1)->learned_from, 6u);
  EXPECT_EQ(rib.best(kP2), nullptr);
  EXPECT_TRUE(rib.remove(kP1));
  EXPECT_FALSE(rib.remove(kP1));
}

// Owning argument for AdjRibOut::set, which sorts its input in place.
std::vector<Route> set_of(std::initializer_list<Route> routes) {
  return std::vector<Route>(routes);
}

TEST(AdjRibOut, FirstSetAnnouncesEverything) {
  AdjRibOut rib;
  auto routes = set_of({mk(kP1, 5, 1, 100), mk(kP1, 6, 2, 100)});
  EXPECT_TRUE(rib.set(kP1, routes));
  EXPECT_EQ(rib.size(), 2u);
  ASSERT_NE(rib.get(kP1), nullptr);
  EXPECT_EQ(rib.get(kP1)->size(), 2u);
}

TEST(AdjRibOut, UnchangedSetYieldsNothing) {
  AdjRibOut rib;
  auto routes = set_of({mk(kP1, 5, 1, 100)});
  rib.set(kP1, routes);
  auto again = set_of({mk(kP1, 5, 1, 100)});
  EXPECT_FALSE(rib.set(kP1, again));
  EXPECT_EQ(rib.size(), 1u);
}

TEST(AdjRibOut, EmptySetWithdrawsAll) {
  AdjRibOut rib;
  auto routes = set_of({mk(kP1, 5, 1, 100)});
  rib.set(kP1, routes);
  EXPECT_TRUE(rib.set(kP1, {}));
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_EQ(rib.get(kP1), nullptr);
  // Withdrawing again is a no-op.
  EXPECT_FALSE(rib.set(kP1, {}));
}

TEST(AdjRibOut, CanonicalOrderIngoresInputOrder) {
  AdjRibOut a, b;
  auto forward = set_of({mk(kP1, 5, 1, 100), mk(kP1, 6, 2, 100)});
  auto reverse = set_of({mk(kP1, 6, 2, 100), mk(kP1, 5, 1, 100)});
  a.set(kP1, forward);
  b.set(kP1, reverse);
  auto reverse_again = set_of({mk(kP1, 6, 2, 100), mk(kP1, 5, 1, 100)});
  EXPECT_FALSE(a.set(kP1, reverse_again));
  ASSERT_NE(a.get(kP1), nullptr);
  EXPECT_EQ(a.get(kP1)->front().path_id, b.get(kP1)->front().path_id);
}

TEST(UpdateMessage, WireSizeScalesWithRoutes) {
  UpdateMessage one;
  one.prefix = kP1;
  one.announce = {mk(kP1, 5, 1, 100)};
  UpdateMessage ten = one;
  for (PathId i = 2; i <= 10; ++i) ten.announce.push_back(mk(kP1, 5, i, 100));
  // An update carrying 10 routes is roughly 10x longer (§4.2).
  wire::WireSizer sizer;
  const std::uint64_t one_size = sizer.message_size(one);
  const std::uint64_t ten_size = sizer.message_size(ten);
  EXPECT_GT(ten_size, 5 * one_size);
  EXPECT_LT(ten_size, 15 * one_size);
}

}  // namespace
}  // namespace abrr::bgp
