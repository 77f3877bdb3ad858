// Address-Based Route Reflection: the §2.1 protocol per Table 1.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/address_partition.h"
#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::LearnedVia;
using bgp::Route;
using bgp::RouteBuilder;

// Two APs (low half / high half of the address space).
const Ipv4Prefix kLow = Ipv4Prefix::parse("10.0.0.0/8");    // AP 0
const Ipv4Prefix kHigh = Ipv4Prefix::parse("200.0.0.0/8");  // AP 1
constexpr RouterId kNbr = 0x80000001;

// Clients 1..3; ARRs 91 (AP 0), 92 (AP 0, redundant), 93 (AP 1).
class AbrrTest : public ::testing::Test {
 protected:
  AbrrTest() : scheme(core::PartitionScheme::uniform(2)) {}

  Speaker& add(RouterId id, std::vector<ApId> managed,
               std::optional<bool> data_plane = {}) {
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.asn = 65000;
    cfg.mode = IbgpMode::kAbrr;
    cfg.ap_of = scheme.mapper();
    cfg.managed_aps = managed;
    cfg.data_plane = data_plane.value_or(managed.empty());
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    auto s = std::make_unique<Speaker>(cfg, sched, net);
    auto& ref = *s;
    speakers.emplace(id, std::move(s));
    if (!managed.empty()) arr_aps[id] = managed;
    return ref;
  }

  void wire(RouterId client, RouterId arr) {
    net.connect(client, arr, sim::msec(2));
    at(arr).add_peer(PeerInfo{.id = client, .rr_client = true});
    PeerInfo info;
    info.id = arr;
    info.reflector_for = arr_aps.at(arr);
    if (arr_aps.count(client) != 0) info.rr_client = true;
    at(client).add_peer(info);
  }

  void Build() {
    add(1, {});
    add(2, {});
    add(3, {});
    add(91, {0});
    add(92, {0});
    add(93, {1});
    for (const RouterId client : {1u, 2u, 3u}) {
      for (const RouterId arr : {91u, 92u, 93u}) wire(client, arr);
    }
    // ARRs are clients of ARRs for other APs.
    wire(91, 93);
    wire(92, 93);
    wire(93, 91);
    wire(93, 92);
    for (auto& [id, s] : speakers) s->start();
  }

  Speaker& at(RouterId id) { return *speakers.at(id); }

  Route route(const Ipv4Prefix& pfx, std::vector<bgp::Asn> path,
              std::optional<std::uint32_t> med = {}) {
    RouteBuilder b{pfx};
    b.local_pref(100).as_path(bgp::AsPath{std::move(path)});
    if (med) b.med(*med);
    return b.build();
  }

  static Ipv4Prefix unrelated_prefix() {
    return Ipv4Prefix::parse("10.9.0.0/16");
  }

  core::PartitionScheme scheme;
  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::map<RouterId, std::unique_ptr<Speaker>> speakers;
  std::map<RouterId, std::vector<ApId>> arr_aps;
};

TEST_F(AbrrTest, ClientAdvertisesOnlyToResponsibleArrs) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // AP 0 ARRs hold the route; the AP 1 ARR heard nothing from client 1.
  EXPECT_EQ(at(91).adj_rib_in().peer_size(1), 1u);
  EXPECT_EQ(at(92).adj_rib_in().peer_size(1), 1u);
  EXPECT_EQ(at(93).adj_rib_in().peer_size(1), 0u);
}

TEST_F(AbrrTest, ReflectionReachesAllClientsWithTwoIbgpHops) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  for (const RouterId client : {2u, 3u}) {
    const Route* best = at(client).loc_rib().best(kLow);
    ASSERT_NE(best, nullptr) << client;
    EXPECT_EQ(best->egress(), 1u);
    // Reflected exactly once: the ABRR bit is set, no cluster list grew.
    EXPECT_TRUE(
        best->attrs->has_ext_community(bgp::kAbrrReflectedCommunity));
  }
}

TEST_F(AbrrTest, ArrReflectsFullBestAsLevelSet) {
  Build();
  // Two AS-level ties from different clients.
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  const auto* out = at(91).out_group(Speaker::arr_group(0));
  ASSERT_NE(out, nullptr);
  const auto* set = out->get(kLow);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2u);  // both ties advertised (add-paths)
}

TEST_F(AbrrTest, ArrDoesNotSelectByIgp) {
  Build();
  // Give ARR 91 a strongly biased IGP view; the best AS-level set must
  // be unaffected (ARRs stop after step 4) - placement freedom.
  at(91).set_igp([](RouterId nh) -> std::int64_t {
    return nh == 1 ? 1 : 1000;
  });
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  EXPECT_EQ(at(91).out_group(Speaker::arr_group(0))->get(kLow)->size(), 2u);
}

TEST_F(AbrrTest, ClientDecidesWithItsOwnIgpVantage) {
  Build();
  at(3).set_igp([](RouterId nh) -> std::int64_t {
    return nh == 2 ? 5 : 50;  // egress 2 is closer for client 3
  });
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Data-plane clients keep the whole best-AS-level set per ARR session
  // (the MED-witness storage; see SpeakerConfig).
  EXPECT_EQ(at(3).adj_rib_in().peer_size(91), 2u);
  EXPECT_EQ(at(3).adj_rib_in().peer_size(92), 2u);
  // The best follows the client's own hot-potato preference.
  const Route* best = at(3).loc_rib().best(kLow);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->egress(), 2u);
}

TEST_F(AbrrTest, ControlPlaneClientsReduceToOneRoutePerArrSession) {
  // §3.4 / Appendix A: an ARR in its client role keeps ONE best route
  // per redundant ARR for each unmanaged prefix.
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // ARR 93 manages AP 1; kLow is unmanaged for it, learned from 91/92.
  EXPECT_EQ(at(93).adj_rib_in().peer_size(91), 1u);
  EXPECT_EQ(at(93).adj_rib_in().peer_size(92), 1u);
}

TEST_F(AbrrTest, ForcedReductionStoresSingleRouteOnDataPlaneClients) {
  // §3.4 ablation switch.
  scheme = core::PartitionScheme::uniform(2);
  SpeakerConfig cfg;
  cfg.id = 3;
  cfg.asn = 65000;
  cfg.mode = IbgpMode::kAbrr;
  cfg.ap_of = scheme.mapper();
  cfg.abrr_force_client_reduction = true;
  cfg.mrai = 0;
  cfg.proc_delay = sim::msec(1);
  speakers.emplace(3, std::make_unique<Speaker>(cfg, sched, net));
  add(1, {});
  add(2, {});
  add(91, {0});
  add(92, {0});
  add(93, {1});
  for (const RouterId client : {1u, 2u, 3u}) {
    for (const RouterId arr : {91u, 92u, 93u}) wire(client, arr);
  }
  wire(91, 93);
  wire(92, 93);
  for (auto& [id, s] : speakers) s->start();

  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  EXPECT_EQ(at(3).adj_rib_in().peer_size(91), 1u);
  EXPECT_EQ(at(3).adj_rib_in().peer_size(92), 1u);
}

TEST_F(AbrrTest, LosingRouteIsWithdrawnByItsClient) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001, 65002}));  // longer path
  sched.run_to_quiescence(1000000);
  ASSERT_EQ(at(91).adj_rib_in().peer_size(1), 1u);
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65003}));  // shorter, wins 1-4
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Client 1's best is now iBGP-learned: it withdrew its own route.
  EXPECT_EQ(at(91).adj_rib_in().peer_size(1), 0u);
  // Steady state: the reflected set is exactly the true best AS-level set.
  const auto* set = at(91).out_group(Speaker::arr_group(0))->get(kLow);
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->size(), 1u);
  EXPECT_EQ(set->front().egress(), 2u);
}

TEST_F(AbrrTest, SetIsNotReturnedToContributingSender) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(kLow, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Client 1 contributed one of the two routes: it receives the set
  // minus its own contribution.
  EXPECT_EQ(at(1).adj_rib_in().peer_size(91), 1u);
  const auto routes = at(1).adj_rib_in().routes_for(kLow);
  for (const Route& r : routes) {
    if (r.via == LearnedVia::kIbgp) {
      EXPECT_NE(r.egress(), 1u);
    }
  }
}

TEST_F(AbrrTest, ApPartitionsRibOutByAddress) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  at(1).inject_ebgp(kNbr, route(kHigh, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // ARR 91 (AP 0) advertises only the low prefix; ARR 93 only the high.
  EXPECT_EQ(at(91).rib_out_size(), 1u);
  EXPECT_EQ(at(93).rib_out_size(), 1u);
  EXPECT_NE(at(91).out_group(Speaker::arr_group(0))->get(kLow), nullptr);
  EXPECT_NE(at(93).out_group(Speaker::arr_group(1))->get(kHigh), nullptr);
}

TEST_F(AbrrTest, ArrsKeepUnmanagedRoutesAsClients) {
  Build();
  at(1).inject_ebgp(kNbr, route(kHigh, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // ARR 91 manages AP 0 but, as a client of ARR 93, keeps one best
  // route for the AP 1 prefix (Appendix A.1 unmanaged routes).
  EXPECT_EQ(at(91).adj_rib_in().peer_size(93), 1u);
}

TEST_F(AbrrTest, MisdirectedClientRouteIsRejected) {
  Build();
  // Deliver a high-AP prefix directly to a low-AP ARR by rewiring the
  // client's view (simulates inconsistent configuration).
  at(1).add_peer(PeerInfo{.id = 91, .reflector_for = {0, 1}});
  at(1).inject_ebgp(kNbr, route(kHigh, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  EXPECT_GT(at(91).counters().misdirected, 0u);
  // And it never entered 91's reflection state.
  EXPECT_EQ(at(91).rib_out_size(), 0u);
}

TEST_F(AbrrTest, ReflectedBitStopsRereflection) {
  // §2.3.2 gadget: three data-plane routers all believing they are ARRs
  // for AP 0 and that the others are their clients.
  add(1, {0}, true);
  add(2, {0}, true);
  add(3, {0}, true);
  const auto cross = [&](RouterId a, RouterId b) {
    net.connect(a, b, sim::msec(2));
    // Each side thinks the other is a mere client.
    at(a).add_peer(PeerInfo{.id = b, .rr_client = true});
    at(b).add_peer(PeerInfo{.id = a, .rr_client = true});
  };
  cross(1, 2);
  cross(2, 3);
  cross(1, 3);
  for (auto& [id, s] : speakers) s->start();

  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  // Must converge rather than chase updates around the triangle.
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  EXPECT_GT(at(2).counters().loops_suppressed +
                at(3).counters().loops_suppressed +
                at(1).counters().loops_suppressed,
            0u);
}

TEST_F(AbrrTest, MedOnlySetChangesArePropagated) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}, 10));
  sched.run_to_quiescence(1000000);
  const auto* set0 = at(91).out_group(Speaker::arr_group(0))->get(kLow);
  ASSERT_NE(set0, nullptr);
  EXPECT_EQ(*set0->front().attrs->med(), 10u);

  at(1).inject_ebgp(kNbr, route(kLow, {65001}, 30));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  const auto* set1 = at(91).out_group(Speaker::arr_group(0))->get(kLow);
  ASSERT_NE(set1, nullptr);
  EXPECT_EQ(*set1->front().attrs->med(), 30u);
  // Clients saw the refreshed MED too.
  const auto routes = at(3).adj_rib_in().routes_for(kLow);
  ASSERT_FALSE(routes.empty());
  EXPECT_EQ(*routes.front().attrs->med(), 30u);
}

// An ABRR group's per-prefix state is indexed by the prefix's rank
// within the group's AP; ids added after the table was built take tail
// slots behind every AP's ranks.
TEST(PrefixApTable, RanksEachApsPrefixesDensely) {
  bgp::PrefixIndex index;
  std::vector<Ipv4Prefix> prefixes;
  for (std::uint32_t i = 0; i < 5; ++i) {
    prefixes.push_back(Ipv4Prefix{(10u + i) << 24, 8});
  }
  for (std::size_t i = 0; i < 4; ++i) index.add(prefixes[i]);
  // 10/8 -> AP 0, 11/8 -> AP 1, 12/8 -> both, 13/8 -> AP 0.
  const ApOfFn ap_of = [](const Ipv4Prefix& p) -> std::vector<ApId> {
    switch (p.address() >> 24) {
      case 10: return {0};
      case 11: return {1};
      case 12: return {0, 1};
      default: return {0};
    }
  };
  const PrefixApTable table{index, ap_of};
  EXPECT_EQ(table.slot(0, 0), 0u);
  EXPECT_EQ(table.slot(2, 0), 1u);
  EXPECT_EQ(table.slot(3, 0), 2u);
  EXPECT_EQ(table.slot(1, 1), 0u);
  EXPECT_EQ(table.slot(2, 1), 1u);
  EXPECT_EQ(table.slots(0, index.size()), 3u);
  EXPECT_EQ(table.slots(1, index.size()), 2u);
  EXPECT_THROW(table.slot(1, 0), std::logic_error);

  index.add(prefixes[4]);  // id 4, past the table
  EXPECT_EQ(table.slot(4, 0), 3u);
  EXPECT_EQ(table.slot(4, 1), 2u);
  EXPECT_EQ(table.slots(0, index.size()), 4u);
  EXPECT_EQ(table.slots(1, index.size()), 3u);
}

// A peer in two groups has one sent-hash stripe per group. Growing the
// prefix index must neither move an existing prefix's hash nor let a
// new prefix's hash land on it.
TEST(AbrrSentHash, StripesStaySeparateWhenTheIndexGrows) {
  constexpr RouterId kArr = 1;
  constexpr RouterId kTap = 2;  // raw endpoint: counts what the ARR sends
  const Ipv4Prefix kFresh = Ipv4Prefix::parse("201.0.0.0/8");  // AP 1
  const core::PartitionScheme scheme = core::PartitionScheme::uniform(2);
  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};

  bgp::PrefixIndex& index = *net.prefix_index();
  index.add(kLow);
  index.add(kHigh);
  SpeakerConfig cfg;
  cfg.id = kArr;
  cfg.asn = 65000;
  cfg.mode = IbgpMode::kAbrr;
  cfg.ap_of = scheme.mapper();
  cfg.managed_aps = {0};
  cfg.mrai = 0;
  cfg.proc_delay = sim::msec(1);
  Speaker arr{cfg, sched, net};
  net.connect(kArr, kTap, sim::msec(1));
  // The tap is the ARR's reflector for AP 1 (stripe 0) and its client
  // for AP 0 (stripe 1).
  arr.add_peer(PeerInfo{.id = kTap, .reflector_for = {1}});
  arr.add_peer(PeerInfo{.id = kTap, .rr_client = true});
  arr.start();
  std::map<Ipv4Prefix, int> sent;
  net.register_endpoint(kTap, [&](RouterId, const net::Message& m) {
    ++sent[m.prefix];
  });
  const auto route = [](const Ipv4Prefix& pfx, bgp::Asn first) {
    return RouteBuilder{pfx}.local_pref(100).as_path({first}).build();
  };

  // kLow (id 0) is reflected to the tap on stripe 1.
  arr.inject_ebgp(kNbr, route(kLow, 65001));
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  EXPECT_EQ(sent[kLow], 1);

  // kFresh takes id 2 and goes to the tap on stripe 0.
  arr.inject_ebgp(kNbr, route(kFresh, 65001));
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  EXPECT_EQ(index.id_of(kFresh), 2u);
  EXPECT_EQ(sent[kFresh], 1);

  // The tap adds its own kLow route: the reflected set changes, but the
  // tap's view of it (its own route filtered out) does not, so the hash
  // recorded before the growth must suppress a resend.
  const Route tap_route = RouteBuilder{kLow}
                              .path_id(kTap)
                              .local_pref(100)
                              .as_path({65002})
                              .next_hop(kTap)
                              .build();
  net.send(kTap, kArr,
           net::Message{kLow, bgp::RouteSetRef{*net.route_sets(),
                                               {&tap_route, 1}}});
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  EXPECT_EQ(arr.out_group(Speaker::arr_group(0))->get(kLow)->size(), 2u);
  EXPECT_EQ(sent[kLow], 1);
  EXPECT_EQ(sent[kFresh], 1);
}

TEST_F(AbrrTest, WithdrawEmptiesReflectedState) {
  Build();
  at(1).inject_ebgp(kNbr, route(kLow, {65001}));
  sched.run_to_quiescence(1000000);
  at(1).withdraw_ebgp(kNbr, unrelated_prefix());  // no effect
  at(1).withdraw_ebgp(kNbr, kLow);
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  EXPECT_EQ(at(91).rib_out_size(), 0u);
  EXPECT_EQ(at(3).loc_rib().best(kLow), nullptr);
  EXPECT_EQ(at(3).rib_in_size(), 0u);
}

}  // namespace
}  // namespace abrr::ibgp
