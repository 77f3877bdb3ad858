// Property sweep (parameterized): for every architecture and a spread of
// random seeds / AP counts, the invariants the paper's design rests on
// must hold on randomly generated Tier-1 workloads:
//   P1 convergence (the event queue drains),
//   P2 full reachability (every client has every prefix),
//   P3 ABRR == full-mesh route selection, exactly,
//   P4 loop-free forwarding for ABRR and full-mesh,
//   P5 zero hot-potato violation for ABRR and full-mesh,
//   P6 ARR Adj-RIB-Out covers only its own partition.
#include <gtest/gtest.h>

#include <memory>

#include "harness/testbed.h"
#include "trace/regenerator.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

namespace abrr::harness {
namespace {

struct SweepCase {
  std::uint64_t seed;
  std::size_t num_aps;
  bool balanced;
};

class PropertySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  PropertySweep() {
    const auto param = GetParam();
    sim::Rng rng{param.seed};
    topo::TopologyParams tp;
    tp.pops = 4;
    tp.clients_per_pop = 4;
    tp.peer_ases = 6;
    tp.peering_points_per_as = 3;
    topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 150;
    workload = trace::Workload::generate(wp, topology, rng);
    prefixes = workload.prefixes();
  }

  std::unique_ptr<Testbed> build(ibgp::IbgpMode mode) {
    const auto param = GetParam();
    TestbedConfig o;
    o.mode = mode;
    o.abrr.num_aps = param.num_aps;
    o.abrr.balanced_aps = param.balanced;
    o.timing.mrai = 0;
    o.timing.proc_delay = sim::msec(1);
    o.timing.latency_jitter = sim::msec(3);
    o.seed = param.seed;
    auto bed = std::make_unique<Testbed>(topology, o, prefixes);
    trace::RouteRegenerator regen{bed->scheduler(), workload,
                                  bed->inject_fn()};
    regen.load_snapshot(0, sim::sec(3));
    converged = bed->run_to_quiescence(20'000'000);
    return bed;
  }

  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
  bool converged = false;
};

TEST_P(PropertySweep, AbrrInvariants) {
  auto abrr = build(ibgp::IbgpMode::kAbrr);
  ASSERT_TRUE(converged);  // P1
  for (const auto id : abrr->client_ids()) {   // P2
    for (const auto& p : prefixes) {
      ASSERT_NE(abrr->speaker(id).loc_rib().best(p), nullptr)
          << id << " " << p.to_string();
    }
  }
  auto mesh = build(ibgp::IbgpMode::kFullMesh);
  ASSERT_TRUE(converged);
  const auto eq = verify::compare_loc_ribs(*abrr, *mesh, prefixes);  // P3
  EXPECT_EQ(eq.divergence_count, 0u);

  for (Testbed* bed : {abrr.get(), mesh.get()}) {  // P4 + P5
    verify::ForwardingChecker checker{*bed};
    const auto audit = checker.audit(prefixes);
    EXPECT_EQ(audit.loops, 0u);
    EXPECT_EQ(audit.delivered, audit.checked);
    const auto eff = verify::audit_efficiency(*bed, workload);
    EXPECT_EQ(eff.inefficient, 0u);
    EXPECT_EQ(eff.off_as_level_set, 0u);
  }

  // P6: an ARR's Adj-RIB-Out stays inside its partition.
  const auto* partition = abrr->partition();
  ASSERT_NE(partition, nullptr);
  for (const auto rr : abrr->rr_ids()) {
    const auto ap = abrr->arr_ap(rr);
    const auto* out =
        abrr->speaker(rr).out_group(ibgp::Speaker::arr_group(ap));
    if (out == nullptr) continue;
    out->for_each([&](const bgp::Ipv4Prefix& p, const auto&) {
      const auto aps = partition->aps_of(p);
      EXPECT_TRUE(std::find(aps.begin(), aps.end(), ap) != aps.end())
          << "ARR " << rr << " leaked " << p.to_string();
    });
  }
}

TEST_P(PropertySweep, ArrSetsEqualGroundTruthBestAsLevel) {
  // §2.2: in steady state each ARR's reflected set for a prefix is
  // exactly the AS-wide best-AS-level set (what full-mesh would have
  // distributed), independent of where the ARR sits.
  auto abrr = build(ibgp::IbgpMode::kAbrr);
  ASSERT_TRUE(converged);
  const auto* partition = abrr->partition();
  ASSERT_NE(partition, nullptr);

  for (const auto& entry : workload.table()) {
    const auto truth = workload.best_as_level_for(
        entry, {}, /*include_customers=*/true);
    std::vector<bgp::RouterId> expected;
    for (const auto& r : truth) expected.push_back(r.egress());
    std::sort(expected.begin(), expected.end());

    for (const auto rr : abrr->rr_ids()) {
      const auto ap = abrr->arr_ap(rr);
      const auto aps = partition->aps_of(entry.prefix);
      if (std::find(aps.begin(), aps.end(), ap) == aps.end()) continue;
      const auto* out =
          abrr->speaker(rr).out_group(ibgp::Speaker::arr_group(ap));
      ASSERT_NE(out, nullptr);
      const auto* set = out->get(entry.prefix);
      ASSERT_NE(set, nullptr) << entry.prefix.to_string();
      std::vector<bgp::RouterId> got;
      for (const auto& r : *set) got.push_back(r.egress());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected)
          << "ARR " << rr << " " << entry.prefix.to_string();
    }
  }
}

TEST_P(PropertySweep, TbrrConvergesOnEngineeredTopology) {
  // The PoP-aligned topology with uniform peer MEDs is the engineered
  // regime ISPs rely on: TBRR must converge and deliver everything
  // (efficiency may lag; that is ABRR's selling point, not a bug here).
  auto tbrr = build(ibgp::IbgpMode::kTbrr);
  ASSERT_TRUE(converged);
  for (const auto id : tbrr->client_ids()) {
    for (const auto& p : prefixes) {
      ASSERT_NE(tbrr->speaker(id).loc_rib().best(p), nullptr);
    }
  }
  verify::ForwardingChecker checker{*tbrr};
  const auto audit = checker.audit(prefixes);
  EXPECT_EQ(audit.checked, audit.delivered + audit.loops);
}

TEST_P(PropertySweep, DeterminismAcrossRebuilds) {
  auto a = build(ibgp::IbgpMode::kAbrr);
  ASSERT_TRUE(converged);
  auto b = build(ibgp::IbgpMode::kAbrr);
  ASSERT_TRUE(converged);
  const auto eq = verify::compare_loc_ribs(*a, *b, prefixes);
  EXPECT_EQ(eq.divergence_count, 0u);
  EXPECT_EQ(a->rr_counters().transmitted, b->rr_counters().transmitted);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPartitions, PropertySweep,
    ::testing::Values(SweepCase{101, 1, false}, SweepCase{202, 2, false},
                      SweepCase{303, 4, false}, SweepCase{404, 4, true},
                      SweepCase{505, 8, false}, SweepCase{606, 8, true},
                      SweepCase{707, 16, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_aps" +
             std::to_string(info.param.num_aps) +
             (info.param.balanced ? "_balanced" : "_uniform");
    });

}  // namespace
}  // namespace abrr::harness
