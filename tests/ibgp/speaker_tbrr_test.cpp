// Topology-Based Route Reflection: RFC 4456 semantics per Table 1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::LearnedVia;
using bgp::Route;
using bgp::RouteBuilder;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
constexpr RouterId kNbr = 0x80000001;

// Two clusters: cluster 1 = {TRR 11, TRR 12, clients 1, 2},
//               cluster 2 = {TRR 21, clients 3}.
// TRRs are meshed; clients peer only with their cluster's TRRs.
class TbrrTest : public ::testing::Test {
 protected:
  Speaker& add(RouterId id, std::uint32_t cluster_id, bool rr,
               bool multipath = false) {
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.asn = 65000;
    cfg.mode = IbgpMode::kTbrr;
    cfg.cluster_id = rr ? cluster_id : 0;
    cfg.multipath = multipath;
    cfg.data_plane = !rr;
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    auto s = std::make_unique<Speaker>(cfg, sched, net);
    auto& ref = *s;
    speakers.emplace(id, std::move(s));
    return ref;
  }

  void connect_client(RouterId client, RouterId trr) {
    net.connect(client, trr, sim::msec(2));
    at(client).add_peer(PeerInfo{.id = trr, .reflector_tbrr = true});
    at(trr).add_peer(PeerInfo{.id = client, .rr_client = true});
  }

  void connect_trrs(RouterId a, RouterId b) {
    net.connect(a, b, sim::msec(2));
    at(a).add_peer(PeerInfo{.id = b, .rr_peer = true});
    at(b).add_peer(PeerInfo{.id = a, .rr_peer = true});
  }

  void BuildTwoClusters(bool multipath = false) {
    add(1, 1, false, multipath);
    add(2, 1, false, multipath);
    add(3, 2, false, multipath);
    add(11, 1, true, multipath);
    add(12, 1, true, multipath);
    add(21, 2, true, multipath);
    connect_client(1, 11);
    connect_client(1, 12);
    connect_client(2, 11);
    connect_client(2, 12);
    connect_client(3, 21);
    connect_trrs(11, 12);
    connect_trrs(11, 21);
    connect_trrs(12, 21);
    for (auto& [id, s] : speakers) s->start();
  }

  Speaker& at(RouterId id) { return *speakers.at(id); }

  Route route(std::uint32_t lp, std::vector<bgp::Asn> path) {
    return RouteBuilder{kPfx}
        .local_pref(lp)
        .as_path(bgp::AsPath{std::move(path)})
        .build();
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::map<RouterId, std::unique_ptr<Speaker>> speakers;
};

TEST_F(TbrrTest, ClientRouteReachesAllClusters) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Remote-cluster client 3 learns it via its TRR.
  const Route* best = at(3).loc_rib().best(kPfx);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->egress(), 1u);
  EXPECT_EQ(best->via, LearnedVia::kIbgp);
}

TEST_F(TbrrTest, ReflectedRouteCarriesOriginatorAndClusterList) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  sched.run_to_quiescence(1000000);
  const Route* best = at(3).loc_rib().best(kPfx);
  ASSERT_NE(best, nullptr);
  ASSERT_TRUE(best->attrs->originator_id().has_value());
  EXPECT_EQ(*best->attrs->originator_id(), 1u);
  // Crossed cluster 1's TRR then cluster 2's TRR.
  EXPECT_EQ(best->attrs->cluster_list().size(), 2u);
}

TEST_F(TbrrTest, RouteIsNotReflectedBackToItsOriginator) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  sched.run_to_quiescence(1000000);
  // Client 1 must not receive its own route back from TRRs.
  EXPECT_EQ(at(1).adj_rib_in().peer_size(11), 0u);
  EXPECT_EQ(at(1).adj_rib_in().peer_size(12), 0u);
}

TEST_F(TbrrTest, ClusterListBreaksRedundantTrrEcho) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // TRR 11 and 12 share CLUSTER_ID 1: each drops the other's reflection
  // of client 1's route instead of re-reflecting it.
  EXPECT_GT(at(11).counters().loops_suppressed +
                at(12).counters().loops_suppressed,
            0u);
  // And both still hold exactly one copy from the client itself.
  EXPECT_EQ(at(11).adj_rib_in().peer_size(1), 1u);
}

TEST_F(TbrrTest, TrrLearnedRoutesGoToClientsOnly) {
  BuildTwoClusters();
  at(3).inject_ebgp(kNbr, route(100, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // TRR 11 learned the route from TRR 21 (a non-client): it reflects to
  // its clients but not back into the TRR mesh.
  const auto* clients_out = at(11).out_group(Speaker::kGroupClients);
  ASSERT_NE(clients_out, nullptr);
  EXPECT_EQ(clients_out->size(), 1u);
  const auto* rr_out = at(11).out_group(Speaker::kGroupRrPeers);
  EXPECT_TRUE(rr_out == nullptr || rr_out->size() == 0u);
}

TEST_F(TbrrTest, ClientLearnedRoutesGoEverywhere) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  const auto* clients_out = at(11).out_group(Speaker::kGroupClients);
  const auto* rr_out = at(11).out_group(Speaker::kGroupRrPeers);
  ASSERT_NE(clients_out, nullptr);
  ASSERT_NE(rr_out, nullptr);
  EXPECT_EQ(clients_out->size(), 1u);
  EXPECT_EQ(rr_out->size(), 1u);
}

TEST_F(TbrrTest, BetterRemoteRouteDisplacesClusterRoute) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001, 65002}));
  sched.run_to_quiescence(1000000);
  at(3).inject_ebgp(kNbr + 1, route(100, {65003}));  // shorter
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  for (const RouterId client : {1u, 2u, 3u}) {
    const Route* best = at(client).loc_rib().best(kPfx);
    ASSERT_NE(best, nullptr) << client;
    EXPECT_EQ(best->egress(), 3u) << client;
  }
  // Client 1's own (now losing) route was withdrawn from its TRRs.
  EXPECT_EQ(at(11).adj_rib_in().peer_size(1), 0u);
}

TEST_F(TbrrTest, WithdrawPropagatesAcrossClusters) {
  BuildTwoClusters();
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  sched.run_to_quiescence(1000000);
  ASSERT_NE(at(3).loc_rib().best(kPfx), nullptr);
  at(1).withdraw_ebgp(kNbr, kPfx);
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  EXPECT_EQ(at(3).loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(at(3).rib_in_size(), 0u);
}

TEST_F(TbrrTest, SinglePathTrrAdvertisesOneRoutePerPrefix) {
  BuildTwoClusters();
  // Two AS-level-equal routes in cluster 1.
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(100, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Single-path TBRR: client 3 sees exactly one route via its TRR.
  EXPECT_EQ(at(21).out_group(Speaker::kGroupClients)->size(), 1u);
  EXPECT_EQ(at(3).adj_rib_in().peer_size(21), 1u);
}

TEST_F(TbrrTest, MultiPathTrrAdvertisesAllBestAsLevelRoutes) {
  BuildTwoClusters(/*multipath=*/true);
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  at(2).inject_ebgp(kNbr + 1, route(100, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // Appendix A.3: both AS-level-equal routes reach the remote cluster.
  const auto* out = at(21).out_group(Speaker::kGroupClients);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(at(3).adj_rib_in().peer_size(21), 2u);
}

TEST_F(TbrrTest, TrrPrefersClusterRouteByIgp) {
  BuildTwoClusters();
  // TRR 11 is IGP-near client 1 and far from egress 3.
  at(11).set_igp([](RouterId nh) -> std::int64_t {
    return nh == 1 ? 1 : 100;
  });
  at(1).inject_ebgp(kNbr, route(100, {65001}));
  at(3).inject_ebgp(kNbr + 1, route(100, {65002}));
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  const auto* out = at(11).out_group(Speaker::kGroupClients);
  ASSERT_NE(out, nullptr);
  const auto* routes = out->get(kPfx);
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->size(), 1u);
  EXPECT_EQ(routes->front().egress(), 1u);
}

}  // namespace
}  // namespace abrr::ibgp
