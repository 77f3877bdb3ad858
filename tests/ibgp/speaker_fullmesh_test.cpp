// Full-mesh iBGP: the gold standard ABRR emulates (§2.2).
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
constexpr RouterId kEbgpNeighbor = 0x80000001;

class FullMeshTest : public ::testing::Test {
 protected:
  void Build(std::size_t n, sim::Time mrai = 0) {
    for (RouterId id = 1; id <= n; ++id) {
      SpeakerConfig cfg;
      cfg.id = id;
      cfg.asn = 65000;
      cfg.mode = IbgpMode::kFullMesh;
      cfg.mrai = mrai;
      cfg.proc_delay = sim::msec(1);
      speakers.push_back(std::make_unique<Speaker>(cfg, sched, net));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        net.connect(speakers[i]->id(), speakers[j]->id(), sim::msec(2));
        speakers[i]->add_peer(PeerInfo{.id = speakers[j]->id()});
        speakers[j]->add_peer(PeerInfo{.id = speakers[i]->id()});
      }
    }
    for (auto& s : speakers) s->start();
  }

  Route route(std::uint32_t lp, std::vector<bgp::Asn> path) {
    return RouteBuilder{kPfx}.local_pref(lp).as_path(bgp::AsPath{std::move(path)}).build();
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::vector<std::unique_ptr<Speaker>> speakers;
};

TEST_F(FullMeshTest, SingleRouteReachesEveryRouter) {
  Build(4);
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  ASSERT_TRUE(sched.run_to_quiescence(100000));

  for (const auto& s : speakers) {
    const Route* best = s->loc_rib().best(kPfx);
    ASSERT_NE(best, nullptr) << "router " << s->id();
    EXPECT_EQ(best->egress(), speakers[0]->id());
  }
  // The injector's best is eBGP-learned, everyone else's is iBGP.
  EXPECT_EQ(speakers[0]->loc_rib().best(kPfx)->via, LearnedVia::kEbgp);
  EXPECT_EQ(speakers[2]->loc_rib().best(kPfx)->via, LearnedVia::kIbgp);
}

TEST_F(FullMeshTest, IbgpLearnedRoutesAreNeverReadvertised) {
  Build(3);
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  sched.run_to_quiescence(100000);
  // Routers 2 and 3 learned via iBGP: their mesh Adj-RIB-Out stays empty.
  EXPECT_GT(speakers[0]->rib_out_size(), 0u);
  EXPECT_EQ(speakers[1]->rib_out_size(), 0u);
  EXPECT_EQ(speakers[2]->rib_out_size(), 0u);
  // And router 1 received nothing.
  EXPECT_EQ(speakers[0]->counters().updates_received, 0u);
}

TEST_F(FullMeshTest, BetterRouteDisplacesAndTriggersWithdraw) {
  Build(3);
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001, 65002}));
  sched.run_to_quiescence(100000);
  ASSERT_EQ(speakers[2]->loc_rib().best(kPfx)->egress(), 1u);

  // Router 2 now learns a shorter (better) path over eBGP.
  speakers[1]->inject_ebgp(kEbgpNeighbor + 1, route(100, {65003}));
  ASSERT_TRUE(sched.run_to_quiescence(100000));

  // Everyone converges on router 2's egress...
  for (const auto& s : speakers) {
    EXPECT_EQ(s->loc_rib().best(kPfx)->egress(), 2u);
  }
  // ...and router 1, whose best is now iBGP-learned, withdrew its own
  // advertisement from the mesh.
  EXPECT_EQ(speakers[0]->rib_out_size(), 0u);
  EXPECT_EQ(speakers[2]->adj_rib_in().peer_size(1), 0u);
}

TEST_F(FullMeshTest, EbgpWithdrawRestoresAlternative) {
  Build(3);
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  speakers[1]->inject_ebgp(kEbgpNeighbor + 1, route(100, {65002, 65002}));
  sched.run_to_quiescence(100000);
  // Shorter path via router 1 wins everywhere.
  EXPECT_EQ(speakers[2]->loc_rib().best(kPfx)->egress(), 1u);

  speakers[0]->withdraw_ebgp(kEbgpNeighbor, kPfx);
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  for (const auto& s : speakers) {
    const Route* best = s->loc_rib().best(kPfx);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->egress(), 2u);
  }
}

TEST_F(FullMeshTest, FullWithdrawalEmptiesAllRibs) {
  Build(4);
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  sched.run_to_quiescence(100000);
  speakers[0]->withdraw_ebgp(kEbgpNeighbor, kPfx);
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  for (const auto& s : speakers) {
    EXPECT_EQ(s->loc_rib().best(kPfx), nullptr);
    EXPECT_EQ(s->rib_in_size(), 0u);
    EXPECT_EQ(s->rib_out_size(), 0u);
  }
}

TEST_F(FullMeshTest, HotPotatoFollowsIgpDistance) {
  Build(4);
  // Routers 3 and 4 choose between equal egresses 1 and 2 by IGP metric.
  speakers[2]->set_igp([](RouterId nh) -> std::int64_t {
    return nh == 1 ? 10 : 20;
  });
  speakers[3]->set_igp([](RouterId nh) -> std::int64_t {
    return nh == 1 ? 20 : 10;
  });
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  speakers[1]->inject_ebgp(kEbgpNeighbor + 1, route(100, {65002}));
  sched.run_to_quiescence(100000);
  EXPECT_EQ(speakers[2]->loc_rib().best(kPfx)->egress(), 1u);
  EXPECT_EQ(speakers[3]->loc_rib().best(kPfx)->egress(), 2u);
}

TEST_F(FullMeshTest, ImportPolicyCanRejectAndRewrite) {
  Build(2);
  speakers[0]->set_import_policy([](const Route& r) -> std::optional<Route> {
    if (r.attrs->as_path().contains(65099)) return std::nullopt;  // blocklist
    Route out = r;
    out.attrs = bgp::with_attrs(
        out.attrs, [](bgp::PathAttrs& a) { a.local_pref = 250; });
    return out;
  });
  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65099}));
  sched.run_to_quiescence(100000);
  EXPECT_EQ(speakers[0]->loc_rib().best(kPfx), nullptr);

  speakers[0]->inject_ebgp(kEbgpNeighbor, route(100, {65001}));
  sched.run_to_quiescence(100000);
  ASSERT_NE(speakers[0]->loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(speakers[0]->loc_rib().best(kPfx)->attrs->local_pref, 250u);
}

TEST_F(FullMeshTest, LocalOriginationPropagates) {
  Build(3);
  speakers[1]->originate(RouteBuilder{kPfx}.origin(bgp::Origin::kIgp).build());
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  for (const auto& s : speakers) {
    ASSERT_NE(s->loc_rib().best(kPfx), nullptr);
    EXPECT_EQ(s->loc_rib().best(kPfx)->egress(), 2u);
  }
  EXPECT_EQ(speakers[1]->loc_rib().best(kPfx)->via, LearnedVia::kLocal);
}

TEST_F(FullMeshTest, MraiBatchesBursts) {
  Build(2, /*mrai=*/sim::sec(5));
  // Ten successive attribute changes inside one MRAI window...
  for (std::uint32_t i = 0; i < 10; ++i) {
    speakers[0]->inject_ebgp(kEbgpNeighbor,
                             route(100 + i, {65001}));
    sched.run_until(sched.now() + sim::msec(100));
  }
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  // ...reach the peer as far fewer transmitted updates.
  EXPECT_LT(speakers[0]->counters().updates_transmitted, 5u);
  EXPECT_GE(speakers[0]->counters().updates_generated, 5u);
  // Final state is nevertheless correct.
  ASSERT_NE(speakers[1]->loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(speakers[1]->loc_rib().best(kPfx)->attrs->local_pref, 109u);
}

TEST_F(FullMeshTest, TiedRoutesLeaveEveryBorderRouterOnItsOwnExit) {
  Build(5);
  for (std::size_t i = 0; i < 5; ++i) {
    speakers[i]->inject_ebgp(
        kEbgpNeighbor + static_cast<RouterId>(i),
        route(100, {static_cast<bgp::Asn>(65001 + i), 65100}));
  }
  ASSERT_TRUE(sched.run_to_quiescence(1000000));
  // All paths tie through steps 1-4, so step 5 (eBGP over iBGP) makes
  // every border router stick with its own exit: all five keep
  // advertising, and nobody flaps.
  for (const auto& s : speakers) {
    const Route* best = s->loc_rib().best(kPfx);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->egress(), s->id());
    EXPECT_EQ(best->via, LearnedVia::kEbgp);
    EXPECT_GT(s->rib_out_size(), 0u);
  }
}

}  // namespace
}  // namespace abrr::ibgp
