// Table 1 "Client -> eBGP Neighbor" rows and the eBGP rewrite rules.
#include "ibgp/ebgp_export.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::LearnedVia;
using bgp::Route;
using bgp::RouteBuilder;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
constexpr bgp::Asn kOwnAs = 65000;
constexpr bgp::Asn kNeighborAs = 7018;
constexpr RouterId kNeighborId = 0x80000001;

Route ibgp_best() {
  return RouteBuilder{kPfx}
      .as_path({3356, 1299})
      .med(30)
      .local_pref(120)
      .originator(42)
      .cluster_list({7})
      .ext_community(bgp::kAbrrReflectedCommunity)
      .next_hop(9)
      .learned_from(42, LearnedVia::kIbgp)
      .build();
}

TEST(EbgpExport, PrependsOwnAsAndStripsInternalState) {
  const auto out =
      export_to_ebgp(ibgp_best(), kOwnAs, kNeighborAs, kNeighborId);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->attrs->as_path().first(), kOwnAs);
  EXPECT_EQ(out->attrs->as_path().length(), 3u);
  EXPECT_EQ(out->attrs->local_pref, bgp::kDefaultLocalPref);
  EXPECT_FALSE(out->attrs->med().has_value());  // stripped by default
  EXPECT_FALSE(out->attrs->originator_id().has_value());
  EXPECT_TRUE(out->attrs->cluster_list().empty());
  EXPECT_FALSE(
      out->attrs->has_ext_community(bgp::kAbrrReflectedCommunity));
}

TEST(EbgpExport, SendMedPolicyKeepsMed) {
  EbgpExportPolicy policy;
  policy.send_med = true;
  const auto out =
      export_to_ebgp(ibgp_best(), kOwnAs, kNeighborAs, kNeighborId, policy);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->attrs->med().has_value());
  EXPECT_EQ(*out->attrs->med(), 30u);
}

TEST(EbgpExport, SplitHorizonBlocksSender) {
  Route r = RouteBuilder{kPfx}
                .as_path({3356})
                .learned_from(kNeighborId, LearnedVia::kEbgp)
                .build();
  EXPECT_FALSE(
      export_to_ebgp(r, kOwnAs, kNeighborAs, kNeighborId).has_value());
  // A different neighbor still gets it.
  EXPECT_TRUE(
      export_to_ebgp(r, kOwnAs, 1299, kNeighborId + 1).has_value());
}

TEST(EbgpExport, AsPathLoopBlocksExport) {
  Route r = RouteBuilder{kPfx}
                .as_path({3356, kNeighborAs, 15169})
                .learned_from(5, LearnedVia::kIbgp)
                .build();
  EXPECT_FALSE(
      export_to_ebgp(r, kOwnAs, kNeighborAs, kNeighborId).has_value());
}

TEST(EbgpExport, NoExportCommunityHonored) {
  bgp::PathAttrs attrs;
  attrs.as_path = bgp::AsPath{3356};
  attrs.communities.push_back(kNoExport);
  Route r;
  r.prefix = kPfx;
  r.attrs = bgp::make_attrs(attrs);
  r.via = LearnedVia::kIbgp;
  EXPECT_FALSE(
      export_to_ebgp(r, kOwnAs, kNeighborAs, kNeighborId).has_value());
  EbgpExportPolicy lax;
  lax.honor_no_export = false;
  EXPECT_TRUE(
      export_to_ebgp(r, kOwnAs, kNeighborAs, kNeighborId, lax).has_value());
}

TEST(EbgpExport, StripCommunitiesPolicy) {
  bgp::PathAttrs attrs;
  attrs.as_path = bgp::AsPath{3356};
  attrs.communities.push_back(0x00010002);
  Route r;
  r.prefix = kPfx;
  r.attrs = bgp::make_attrs(attrs);
  r.via = LearnedVia::kIbgp;
  EbgpExportPolicy policy;
  policy.strip_communities = true;
  const auto out =
      export_to_ebgp(r, kOwnAs, kNeighborAs, kNeighborId, policy);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->attrs->communities().empty());
}

TEST(EbgpExport, InvalidRouteYieldsNothing) {
  EXPECT_FALSE(
      export_to_ebgp(Route{}, kOwnAs, kNeighborAs, kNeighborId).has_value());
}

// --- Speaker integration ------------------------------------------------

class EbgpSpeakerTest : public ::testing::Test {
 protected:
  EbgpSpeakerTest() {
    SpeakerConfig cfg;
    cfg.id = 1;
    cfg.asn = kOwnAs;
    cfg.mode = IbgpMode::kFullMesh;
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    speaker = std::make_unique<Speaker>(cfg, sched, net);
    speaker->set_ebgp_send_hook(
        [this](RouterId neighbor, const Ipv4Prefix& p,
               const std::optional<Route>& route) {
          log.emplace_back(neighbor, p, route);
        });
    speaker->start();
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::unique_ptr<Speaker> speaker;
  std::vector<std::tuple<RouterId, Ipv4Prefix, std::optional<Route>>> log;
};

TEST_F(EbgpSpeakerTest, BestRoutesFlowToNeighborsButNotBackToSender) {
  speaker->add_ebgp_neighbor(kNeighborId, kNeighborAs);
  speaker->add_ebgp_neighbor(kNeighborId + 1, 1299);
  speaker->inject_ebgp(
      kNeighborId,
      RouteBuilder{kPfx}.as_path({kNeighborAs, 15169}).build());
  sched.run_to_quiescence();
  // Only the OTHER neighbor hears about it.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(std::get<0>(log.front()), kNeighborId + 1);
  const auto& route = std::get<2>(log.front());
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->attrs->as_path().first(), kOwnAs);
  EXPECT_EQ(speaker->counters().ebgp_updates_sent, 1u);
}

TEST_F(EbgpSpeakerTest, WithdrawPropagatesToNeighbors) {
  speaker->add_ebgp_neighbor(kNeighborId + 1, 1299);
  speaker->inject_ebgp(
      kNeighborId,
      RouteBuilder{kPfx}.as_path({kNeighborAs, 15169}).build());
  sched.run_to_quiescence();
  log.clear();
  speaker->withdraw_ebgp(kNeighborId, kPfx);
  sched.run_to_quiescence();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(std::get<2>(log.front()).has_value());  // withdraw
}

TEST_F(EbgpSpeakerTest, LateNeighborGetsInitialTableSync) {
  speaker->inject_ebgp(
      kNeighborId,
      RouteBuilder{kPfx}.as_path({kNeighborAs, 15169}).build());
  sched.run_to_quiescence();
  EXPECT_TRUE(log.empty());
  speaker->add_ebgp_neighbor(kNeighborId + 1, 1299);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(std::get<2>(log.front()).has_value());
}

TEST_F(EbgpSpeakerTest, UnchangedBestDoesNotRefire) {
  speaker->add_ebgp_neighbor(kNeighborId + 1, 1299);
  const auto r =
      RouteBuilder{kPfx}.as_path({kNeighborAs, 15169}).build();
  speaker->inject_ebgp(kNeighborId, r);
  sched.run_to_quiescence();
  const auto before = log.size();
  speaker->inject_ebgp(kNeighborId, r);  // identical re-announce
  sched.run_to_quiescence();
  EXPECT_EQ(log.size(), before);
}

}  // namespace
}  // namespace abrr::ibgp
