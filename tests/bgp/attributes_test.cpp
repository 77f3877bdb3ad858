#include "bgp/attributes.h"

#include <gtest/gtest.h>

#include "bgp/route.h"

namespace abrr::bgp {
namespace {

TEST(AsPath, BasicAccessors) {
  const AsPath empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.length(), 0u);
  EXPECT_EQ(empty.first(), 0u);
  EXPECT_EQ(empty.origin_as(), 0u);

  const AsPath path{7018, 3356, 15169};
  EXPECT_EQ(path.length(), 3u);
  EXPECT_EQ(path.first(), 7018u);
  EXPECT_EQ(path.origin_as(), 15169u);
  EXPECT_TRUE(path.contains(3356));
  EXPECT_FALSE(path.contains(1));
  EXPECT_EQ(path.to_string(), "7018 3356 15169");
}

TEST(AsPath, PrependCreatesNewPath) {
  const AsPath path{3356};
  const AsPath longer = path.prepend(7018);
  EXPECT_EQ(longer.length(), 2u);
  EXPECT_EQ(longer.first(), 7018u);
  EXPECT_EQ(path.length(), 1u);  // original untouched
}

TEST(PathAttrs, ExtCommunityLookup) {
  PathAttrs attrs;
  EXPECT_FALSE(attrs.has_ext_community(kAbrrReflectedCommunity));
  attrs.ext_communities.push_back(kAbrrReflectedCommunity);
  EXPECT_TRUE(attrs.has_ext_community(kAbrrReflectedCommunity));
}

TEST(PathAttrs, WireSizeGrowsWithContent) {
  PathAttrs small;
  small.as_path = AsPath{1};
  PathAttrs big = small;
  big.med = 10;
  big.cluster_list = {1, 2, 3};
  big.ext_communities = {kAbrrReflectedCommunity};
  EXPECT_GT(encoded_attrs_size(big), encoded_attrs_size(small));
}

TEST(PathAttrs, WithAttrsCopiesOnWrite) {
  const AttrsPtr base = make_attrs([] {
    PathAttrs a;
    a.local_pref = 100;
    return a;
  }());
  const AttrsPtr derived =
      with_attrs(base, [](PathAttrs& a) { a.local_pref = 200; });
  EXPECT_EQ(base->local_pref, 100u);
  EXPECT_EQ(derived->local_pref, 200u);
  EXPECT_NE(base, derived);
}

TEST(Route, SameAnnouncementComparesContent) {
  const auto pfx = Ipv4Prefix::parse("10.0.0.0/8");
  const Route a = RouteBuilder{pfx}.path_id(5).as_path({1}).build();
  const Route b = RouteBuilder{pfx}.path_id(5).as_path({1}).build();
  const Route c = RouteBuilder{pfx}.path_id(5).as_path({2}).build();
  const Route d = RouteBuilder{pfx}.path_id(6).as_path({1}).build();
  EXPECT_TRUE(a.same_announcement(b));  // different AttrsPtr, same content
  EXPECT_FALSE(a.same_announcement(c));
  EXPECT_FALSE(a.same_announcement(d));
}

TEST(Route, NeighborAsAndEgress) {
  const auto pfx = Ipv4Prefix::parse("10.0.0.0/8");
  const Route r =
      RouteBuilder{pfx}.as_path({7018, 1}).next_hop(42).build();
  EXPECT_EQ(r.neighbor_as(), 7018u);
  EXPECT_EQ(r.egress(), 42u);
}

TEST(Route, SetHashStableAndSensitive) {
  const auto pfx = Ipv4Prefix::parse("10.0.0.0/8");
  const Route a = RouteBuilder{pfx}.path_id(1).as_path({1}).med(5).build();
  const Route b = RouteBuilder{pfx}.path_id(2).as_path({2}).build();

  using Set = std::vector<Route>;
  const auto h1 = route_set_hash(Set{a, b});
  const auto h2 = route_set_hash(Set{a, b});
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
  EXPECT_NE(route_set_hash(Set{a}), route_set_hash(Set{a, b}));
  EXPECT_NE(route_set_hash(Set{a, b}),
            route_set_hash(Set{b, a}));  // order matters
  // empty set hashes to a sentinel != 0
  EXPECT_NE(route_set_hash(Set{}), 0u);
}

}  // namespace
}  // namespace abrr::bgp
