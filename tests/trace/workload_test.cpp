#include "trace/workload.h"

#include <gtest/gtest.h>

#include <set>

namespace abrr::trace {
namespace {

topo::Topology tier1(sim::Rng& rng) {
  topo::TopologyParams tp;
  tp.pops = 13;
  tp.clients_per_pop = 8;
  tp.peering_router_fraction = 1.0;
  tp.peer_ases = 25;
  tp.peering_points_per_as = 8;
  tp.peering_skew = 0.8;
  return topo::make_tier1(tp, rng);
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : topo(tier1(rng)) {
    WorkloadParams wp;
    wp.prefixes = 3000;
    workload = Workload::generate(wp, topo, rng);
  }
  sim::Rng rng{42};
  topo::Topology topo;
  Workload workload;
};

TEST_F(WorkloadTest, GeneratesRequestedPrefixCount) {
  EXPECT_EQ(workload.prefix_count(), 3000u);
  const auto prefixes = workload.prefixes();
  const std::set<bgp::Ipv4Prefix> unique(prefixes.begin(), prefixes.end());
  EXPECT_EQ(unique.size(), 3000u);  // all distinct
}

TEST_F(WorkloadTest, PeerFractionRoughlyHonored) {
  std::size_t peers = 0;
  for (const auto& e : workload.table()) peers += e.from_peers ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(peers) / 3000.0, 0.76, 0.03);
}

TEST_F(WorkloadTest, EveryPrefixIsAnnouncedSomewhere) {
  for (const auto& e : workload.table()) {
    ASSERT_FALSE(e.anns.empty()) << e.prefix.to_string();
  }
}

TEST_F(WorkloadTest, PeerRoutesLandOnPeeringRoutersWithPeerLocalPref) {
  const auto peering = topo.peering_routers();
  const std::set<bgp::RouterId> peering_set(peering.begin(), peering.end());
  for (const auto& e : workload.table()) {
    for (const auto& a : e.anns) {
      if (e.from_peers) {
        EXPECT_TRUE(peering_set.count(a.router)) << e.prefix.to_string();
        EXPECT_EQ(a.local_pref, workload.params().peer_local_pref);
      } else {
        EXPECT_EQ(a.local_pref, workload.params().customer_local_pref);
      }
    }
  }
}

TEST_F(WorkloadTest, AnnouncingAsUsesAllItsPeeringPoints) {
  // A peer AS that carries a prefix announces at every one of its
  // peering points (§3.1: ~8 points per AS).
  const auto& entry = *std::find_if(
      workload.table().begin(), workload.table().end(),
      [](const PrefixEntry& e) { return e.from_peers; });
  std::map<bgp::Asn, std::size_t> per_as;
  for (const auto& a : entry.anns) ++per_as[a.first_as];
  for (const auto& [as, n] : per_as) {
    EXPECT_EQ(n, topo.points_of(as).size()) << "AS " << as;
  }
}

TEST_F(WorkloadTest, ToRouteSynthesizesConsistentPath) {
  const auto& entry = workload.table().front();
  const auto& a = entry.anns.front();
  const bgp::Route r = a.to_route(entry.prefix);
  EXPECT_EQ(r.prefix, entry.prefix);
  EXPECT_EQ(r.attrs->as_path().length(), a.path_length);
  EXPECT_EQ(r.attrs->as_path().first(), a.first_as);
  EXPECT_EQ(r.egress(), a.router);  // next-hop-self
  EXPECT_EQ(r.via, bgp::LearnedVia::kEbgp);
}

TEST_F(WorkloadTest, CalibrationMatchesPaperAt25PeerAses) {
  // §4: 10.2 best AS-level routes per prefix from peer ASes.
  const auto point = workload.average_bal(topo, 25, rng);
  EXPECT_NEAR(point.peer_only, 10.2, 1.0);
  // "All Sources" sits below "Peer ASes Only": customer prefixes add
  // little diversity (Figure 3).
  EXPECT_LT(point.all_sources, point.peer_only);
  EXPECT_GT(point.all_sources, 5.0);
}

TEST_F(WorkloadTest, BalGrowsWithPeerAses) {
  // Figure 3's monotone growth.
  double prev = 0;
  for (const std::size_t n : {1u, 5u, 10u, 18u, 25u}) {
    const auto point = workload.average_bal(topo, n, rng);
    EXPECT_GT(point.peer_only, prev * 0.95) << n;  // allow sample noise
    prev = point.peer_only;
  }
  EXPECT_GT(prev, 5.0);
}

TEST_F(WorkloadTest, CustomerRoutesDominateWhenPresent) {
  // Customer local-pref (100) beats peer local-pref (80): a customer
  // prefix's best AS-level set contains only customer routes.
  for (const auto& e : workload.table()) {
    if (e.from_peers) continue;
    const auto set =
        workload.best_as_level_for(e, {}, /*include_customers=*/true);
    ASSERT_FALSE(set.empty());
    EXPECT_LE(set.size(), workload.params().max_customer_attachments);
    break;
  }
}

TEST_F(WorkloadTest, BestAsLevelRespectsSelectedPeerSubset) {
  const auto& entry = *std::find_if(
      workload.table().begin(), workload.table().end(),
      [](const PrefixEntry& e) { return e.from_peers && e.anns.size() > 8; });
  const std::vector<bgp::Asn> one{entry.anns.front().first_as};
  const auto subset = workload.best_as_level_for(entry, one, false);
  for (const auto& r : subset) {
    EXPECT_EQ(r.attrs->as_path().first(), one.front());
  }
  const auto all = workload.best_as_level_for(entry, {}, false);
  EXPECT_GE(all.size(), subset.size());
}

TEST_F(WorkloadTest, RejectsOversizedPeerSelection) {
  EXPECT_THROW(workload.average_bal(topo, 26, rng), std::invalid_argument);
}

}  // namespace
}  // namespace abrr::trace
