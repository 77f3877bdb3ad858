// End-to-end integration on a Tier-1-like AS: the paper's headline
// properties hold on a realistic (scaled) testbed, not just on gadgets.
#include "harness/testbed.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/regenerator.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"
#include "verify/oscillation.h"

namespace abrr::harness {
namespace {

class TestbedIntegration : public ::testing::Test {
 protected:
  TestbedIntegration() {
    sim::Rng rng{31};
    topo::TopologyParams tp;
    tp.pops = 5;
    tp.clients_per_pop = 4;
    tp.peer_ases = 8;
    tp.peering_points_per_as = 3;
    topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 300;
    workload = trace::Workload::generate(wp, topology, rng);
    prefixes = workload.prefixes();
  }

  TestbedConfig options(ibgp::IbgpMode mode, std::size_t aps = 4) const {
    TestbedConfig o;
    o.mode = mode;
    o.abrr.num_aps = aps;
    o.timing.mrai = 0;
    o.timing.proc_delay = sim::msec(1);
    o.timing.latency_jitter = sim::msec(2);
    return o;
  }

  std::unique_ptr<Testbed> build_and_load(const TestbedConfig& o) {
    auto bed = std::make_unique<Testbed>(topology, o, prefixes);
    trace::RouteRegenerator regen{bed->scheduler(), workload,
                                  bed->inject_fn()};
    regen.load_snapshot(0, sim::sec(5));
    if (!bed->run_to_quiescence()) return nullptr;
    return bed;
  }

  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

TEST_F(TestbedIntegration, AllThreeArchitecturesConverge) {
  for (const auto mode : {ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr,
                          ibgp::IbgpMode::kAbrr}) {
    auto bed = build_and_load(options(mode));
    ASSERT_NE(bed, nullptr) << static_cast<int>(mode);
    // Every client has a route for every prefix.
    for (const bgp::RouterId id : bed->client_ids()) {
      for (const auto& p : prefixes) {
        ASSERT_NE(bed->speaker(id).loc_rib().best(p), nullptr);
      }
    }
  }
}

TEST_F(TestbedIntegration, AbrrIsExactlyEquivalentToFullMesh) {
  auto abrr = build_and_load(options(ibgp::IbgpMode::kAbrr));
  auto mesh = build_and_load(options(ibgp::IbgpMode::kFullMesh));
  ASSERT_NE(abrr, nullptr);
  ASSERT_NE(mesh, nullptr);
  const auto eq = verify::compare_loc_ribs(*abrr, *mesh, prefixes);
  EXPECT_EQ(eq.divergence_count, 0u)
      << "first example: router "
      << (eq.divergences.empty() ? 0 : eq.divergences.front().router);
  EXPECT_EQ(eq.compared, prefixes.size() * abrr->client_ids().size());
}

TEST_F(TestbedIntegration, AbrrForwardingIsCleanAndEfficient) {
  auto abrr = build_and_load(options(ibgp::IbgpMode::kAbrr));
  ASSERT_NE(abrr, nullptr);
  verify::ForwardingChecker checker{*abrr};
  const auto audit = checker.audit(prefixes);
  EXPECT_EQ(audit.loops, 0u);
  EXPECT_EQ(audit.delivered, audit.checked);
  const auto eff = verify::audit_efficiency(*abrr, workload);
  EXPECT_EQ(eff.inefficient, 0u);
  EXPECT_EQ(eff.off_as_level_set, 0u);
}

TEST_F(TestbedIntegration, WellEngineeredTbrrConvergesButMayLoseEfficiency) {
  // On a PoP-aligned topology (intra < inter metrics) TBRR converges --
  // the engineering ISPs rely on. Efficiency can still be lost relative
  // to the hot-potato optimum.
  auto tbrr = build_and_load(options(ibgp::IbgpMode::kTbrr));
  ASSERT_NE(tbrr, nullptr);
  const auto eff_tbrr = verify::audit_efficiency(*tbrr, workload);
  auto abrr = build_and_load(options(ibgp::IbgpMode::kAbrr));
  const auto eff_abrr = verify::audit_efficiency(*abrr, workload);
  EXPECT_GE(eff_tbrr.total_extra_metric, eff_abrr.total_extra_metric);
  EXPECT_EQ(eff_abrr.total_extra_metric, 0.0);
}

TEST_F(TestbedIntegration, ArrRibsAreSmallerThanTrrRibs) {
  // Figure 6's headline at testbed scale.
  auto tbrr = build_and_load(options(ibgp::IbgpMode::kTbrr));
  auto abrr = build_and_load(options(ibgp::IbgpMode::kAbrr, 8));
  ASSERT_NE(tbrr, nullptr);
  ASSERT_NE(abrr, nullptr);
  EXPECT_LT(abrr->rr_rib_in().avg, tbrr->rr_rib_in().avg);
  EXPECT_LT(abrr->rr_rib_out().avg, tbrr->rr_rib_out().avg);
}

TEST_F(TestbedIntegration, ArrSessionCountsMatchTheDesign) {
  auto abrr = build_and_load(options(ibgp::IbgpMode::kAbrr, 4));
  ASSERT_NE(abrr, nullptr);
  // Every ARR peers with every client and with ARRs of other APs (§3.3).
  const std::size_t n_clients = abrr->client_ids().size();
  const std::size_t n_arrs = 4 * 2;
  for (const bgp::RouterId rr : abrr->rr_ids()) {
    EXPECT_EQ(abrr->speaker(rr).peer_count(), n_clients + n_arrs - 2);
  }
  // Clients peer with all ARRs only.
  for (const bgp::RouterId c : abrr->client_ids()) {
    EXPECT_EQ(abrr->speaker(c).peer_count(), n_arrs);
  }
}

TEST_F(TestbedIntegration, NoOscillationOnTheRealisticTestbed) {
  auto bed = std::make_unique<Testbed>(
      topology, options(ibgp::IbgpMode::kAbrr), prefixes);
  verify::OscillationMonitor monitor{30};
  for (const bgp::RouterId id : bed->all_ids()) {
    monitor.attach(bed->speaker(id));
  }
  trace::RouteRegenerator regen{bed->scheduler(), workload, bed->inject_fn()};
  regen.load_snapshot(0, sim::sec(5));
  ASSERT_TRUE(bed->run_to_quiescence());
  EXPECT_FALSE(monitor.oscillating());
}

TEST_F(TestbedIntegration, CounterResetIsolatesPhases) {
  auto bed = build_and_load(options(ibgp::IbgpMode::kAbrr));
  ASSERT_NE(bed, nullptr);
  const auto during_load = bed->rr_counters();
  EXPECT_GT(during_load.received, 0u);
  bed->reset_counters();
  const auto after_reset = bed->rr_counters();
  EXPECT_EQ(after_reset.received, 0u);
  EXPECT_EQ(after_reset.generated, 0u);
}

TEST_F(TestbedIntegration, DeterministicAcrossRuns) {
  auto a = build_and_load(options(ibgp::IbgpMode::kAbrr));
  auto b = build_and_load(options(ibgp::IbgpMode::kAbrr));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto eq = verify::compare_loc_ribs(*a, *b, prefixes);
  EXPECT_EQ(eq.divergence_count, 0u);
  EXPECT_EQ(a->rr_counters().received, b->rr_counters().received);
  EXPECT_EQ(a->rr_counters().transmitted, b->rr_counters().transmitted);
}

TEST_F(TestbedIntegration, PrefixOutsideTheUniverseReachesClientsAndWithdraws) {
  auto bed = build_and_load(options(ibgp::IbgpMode::kAbrr));
  ASSERT_NE(bed, nullptr);
  const bgp::Ipv4Prefix fresh = bgp::Ipv4Prefix::parse("198.18.0.0/24");
  ASSERT_FALSE(bed->prefix_index().id_of(fresh).has_value());
  const std::size_t universe = bed->prefix_index().size();

  struct Sizes {
    std::size_t loc, in, out;
    bool operator==(const Sizes&) const = default;
  };
  const auto sizes = [&] {
    std::vector<Sizes> out;
    for (const bgp::RouterId id : bed->all_ids()) {
      const ibgp::Speaker& s = bed->speaker(id);
      out.push_back({s.loc_rib().size(), s.rib_in_size(), s.rib_out_size()});
    }
    return out;
  };
  const std::vector<Sizes> before = sizes();

  // The new prefix takes the next id; the ARRs find its AP through the
  // partition mapping rather than the bed's precomputed AP table.
  const topo::PeeringPoint& point = topology.peering_points.front();
  const bgp::Route route =
      bgp::RouteBuilder{fresh}.as_path({point.peer_as, 64999}).build();
  bed->inject_fn()(point.router, point.neighbor_id, fresh, route);
  ASSERT_TRUE(bed->run_to_quiescence());
  EXPECT_EQ(bed->prefix_index().id_of(fresh), universe);
  for (const bgp::RouterId id : bed->client_ids()) {
    const bgp::Route* best = bed->speaker(id).loc_rib().best(fresh);
    ASSERT_NE(best, nullptr) << "client " << id;
    EXPECT_EQ(best->egress(), point.router);
  }

  bed->inject_fn()(point.router, point.neighbor_id, fresh, std::nullopt);
  ASSERT_TRUE(bed->run_to_quiescence());
  for (const bgp::RouterId id : bed->all_ids()) {
    EXPECT_EQ(bed->speaker(id).loc_rib().best(fresh), nullptr);
    EXPECT_TRUE(bed->speaker(id).adj_rib_in().routes_for(fresh).empty());
  }
  EXPECT_TRUE(sizes() == before);
  EXPECT_EQ(bed->prefix_index().size(), universe + 1);  // ids are kept
}

TEST_F(TestbedIntegration, ClientsShareEachReflectedSetExceptContributors) {
  // Every client of an ARR receives its set for a prefix; the clients
  // that contributed none of its routes store it as one shared block,
  // and each contributor (sender exclusion) stores its own smaller set.
  auto bed = build_and_load(options(ibgp::IbgpMode::kAbrr));
  ASSERT_NE(bed, nullptr);
  const bgp::RouterId arr = bed->rr_ids().front();
  const auto* out =
      bed->speaker(arr).out_group(ibgp::Speaker::arr_group(bed->arr_ap(arr)));
  ASSERT_NE(out, nullptr);
  std::size_t shared_checked = 0;
  std::size_t excluded_checked = 0;
  std::vector<const bgp::Route*> paths;
  out->for_each([&](const bgp::Ipv4Prefix& prefix, const bgp::RouteSet& set) {
    if (set.size() < 2) return;
    const bgp::IndexedPrefix key{prefix, *bed->prefix_index().id_of(prefix)};
    // Receivers holding one block hand out pointers to the same routes.
    const bgp::Route* shared = nullptr;
    for (const bgp::RouterId client : bed->client_ids()) {
      if (client == arr) continue;
      const bool contributed =
          std::any_of(set.begin(), set.end(), [&](const bgp::Route& r) {
            return r.learned_from == client ||
                   r.attrs->originator_id() == client;
          });
      bed->speaker(client).adj_rib_in().routes_for(key, paths);
      std::erase_if(paths,
                    [&](const bgp::Route* r) { return r->learned_from != arr; });
      ASSERT_FALSE(paths.empty()) << prefix.to_string() << " at " << client;
      if (contributed) {
        EXPECT_LT(paths.size(), set.size());
        ++excluded_checked;
      } else {
        EXPECT_EQ(paths.size(), set.size());
        if (shared == nullptr) shared = paths.front();
        EXPECT_EQ(paths.front(), shared)
            << prefix.to_string() << " at " << client;
        ++shared_checked;
      }
    }
  });
  EXPECT_GT(shared_checked, 0u);
  EXPECT_GT(excluded_checked, 0u);
}

TEST_F(TestbedIntegration, CrashingEverySpeakerFreesEveryRouteSet) {
  for (const auto mode : {ibgp::IbgpMode::kTbrr, ibgp::IbgpMode::kAbrr}) {
    auto bed = build_and_load(options(mode));
    ASSERT_NE(bed, nullptr);
    EXPECT_GT(bed->route_sets().live_blocks(), 0u);
    EXPECT_GT(bed->memory().route_sets, 0u);
    for (const bgp::RouterId id : bed->all_ids()) bed->speaker(id).crash();
    EXPECT_EQ(bed->route_sets().live_blocks(), 0u)
        << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace abrr::harness
