// Multi-level TBRR hierarchy (the "multiple layers" of §1): border
// clients under mid-level TRRs under a meshed top level. Routes climb
// client -> mid -> top, cross the top mesh, and descend again — the
// 3-or-more-iBGP-hop path whose MRAI cost §3.5 contrasts with ABRR's 2.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
constexpr RouterId kNbr = 0x80000001;

// Two branches:
//   top TRRs 91 <-> 92 (meshed, clusters 91/92)
//   mid TRRs 81 (cluster 81, client of 91), 82 (cluster 82, client of 92)
//   border clients 1 (under 81), 2 (under 82)
class HierarchyTest : public ::testing::Test {
 protected:
  Speaker& add(RouterId id, std::uint32_t cluster, bool data_plane) {
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.asn = 65000;
    cfg.mode = IbgpMode::kTbrr;
    cfg.cluster_id = cluster;
    cfg.data_plane = data_plane;
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    auto s = std::make_unique<Speaker>(cfg, sched, net);
    auto& ref = *s;
    speakers.emplace(id, std::move(s));
    return ref;
  }
  Speaker& at(RouterId id) { return *speakers.at(id); }

  void link_client(RouterId client, RouterId rr) {
    net.connect(client, rr, sim::msec(2));
    at(client).add_peer(PeerInfo{.id = rr, .reflector_tbrr = true});
    at(rr).add_peer(PeerInfo{.id = client, .rr_client = true});
  }

  void Build() {
    add(1, 0, true);
    add(2, 0, true);
    add(81, 81, false);
    add(82, 82, false);
    add(91, 91, false);
    add(92, 92, false);
    link_client(1, 81);
    link_client(2, 82);
    link_client(81, 91);  // mid TRRs are clients of the top level
    link_client(82, 92);
    net.connect(91, 92, sim::msec(2));
    at(91).add_peer(PeerInfo{.id = 92, .rr_peer = true});
    at(92).add_peer(PeerInfo{.id = 91, .rr_peer = true});
    for (auto& [id, s] : speakers) s->start();
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::map<RouterId, std::unique_ptr<Speaker>> speakers;
};

TEST_F(HierarchyTest, RouteClimbsAndDescendsTheHierarchy) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(200000));
  // The far-branch border client learned it through 4 iBGP hops.
  const Route* best = at(2).loc_rib().best(kPfx);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->egress(), 1u);
  // The cluster list records the reflection chain: 81, 91, 92, 82.
  EXPECT_EQ(best->attrs->cluster_list().size(), 4u);
  ASSERT_TRUE(best->attrs->originator_id().has_value());
  EXPECT_EQ(*best->attrs->originator_id(), 1u);
}

TEST_F(HierarchyTest, MidLevelReflectsParentRoutesDownOnly) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(200000));
  // Mid TRR 82 learned the route from its parent 92: it must reflect to
  // its clients but never advertise it back upward.
  const auto* uplink = at(82).out_group(Speaker::kGroupUplink);
  EXPECT_TRUE(uplink == nullptr || uplink->size() == 0u);
  const auto* down = at(82).out_group(Speaker::kGroupClients);
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(down->size(), 1u);
}

TEST_F(HierarchyTest, ClientLearnedRoutesClimb) {
  Build();
  at(2).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({1299, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(200000));
  // Mid TRR 82 advertises its client-learned best upward...
  const auto* uplink = at(82).out_group(Speaker::kGroupUplink);
  ASSERT_NE(uplink, nullptr);
  EXPECT_EQ(uplink->size(), 1u);
  // ...and the whole AS converges on egress 2.
  ASSERT_NE(at(1).loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(at(1).loc_rib().best(kPfx)->egress(), 2u);
}

TEST_F(HierarchyTest, WithdrawUnwindsTheWholeChain) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  sched.run_to_quiescence(200000);
  ASSERT_NE(at(2).loc_rib().best(kPfx), nullptr);
  at(1).withdraw_ebgp(kNbr, kPfx);
  ASSERT_TRUE(sched.run_to_quiescence(200000));
  for (const RouterId id : {1u, 2u, 81u, 82u, 91u, 92u}) {
    EXPECT_EQ(at(id).rib_in_size(), 0u) << id;
    EXPECT_EQ(at(id).rib_out_size(), 0u) << id;
  }
}

TEST_F(HierarchyTest, BetterBranchWins) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 64512, 15169}).build());
  sched.run_to_quiescence(200000);
  at(2).inject_ebgp(kNbr + 1,
                    RouteBuilder{kPfx}.as_path({1299, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(200000));
  // Shorter path via client 2 displaces everything, including at the
  // originating branch.
  ASSERT_NE(at(1).loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(at(1).loc_rib().best(kPfx)->egress(), 2u);
  // Client 1's own route was withdrawn from its mid TRR.
  EXPECT_EQ(at(81).adj_rib_in().peer_size(1), 0u);
}

}  // namespace
}  // namespace abrr::ibgp
