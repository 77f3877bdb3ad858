// IGP dynamics: hot-potato shifts after metric changes and link
// failures, under ABRR vs full-mesh (they must stay equivalent).
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

namespace abrr::harness {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouteBuilder;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");

// Line: E1 --2-- M --2-- E2, with a client M between two equal exits.
topo::Topology line_topology() {
  topo::Topology t;
  t.params.pops = 1;
  t.clients = {
      {1, topo::RouterRole::kPeering, 0, 0},
      {2, topo::RouterRole::kAccess, 0, 0},
      {3, topo::RouterRole::kPeering, 0, 0},
  };
  t.reflectors = {{11, 0, 0}, {12, 0, 0}};
  t.graph.add_link(1, 2, 2);
  t.graph.add_link(2, 3, 3);  // E2 slightly farther
  t.graph.add_link(11, 2, 1);
  t.graph.add_link(12, 2, 1);
  return t;
}

TestbedConfig options(ibgp::IbgpMode mode) {
  TestbedConfig o;
  o.mode = mode;
  o.abrr.num_aps = 1;
  o.timing.mrai = 0;
  o.timing.proc_delay = sim::msec(1);
  o.timing.latency_jitter = 0;
  return o;
}

void inject(Testbed& bed) {
  bed.speaker(1).inject_ebgp(
      0x80000001, RouteBuilder{kPfx}.as_path({7018, 1}).build());
  bed.speaker(3).inject_ebgp(
      0x80000002, RouteBuilder{kPfx}.as_path({1299, 1}).build());
}

TEST(IgpEvent, MetricChangeShiftsHotPotato) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{line_topology(), options(ibgp::IbgpMode::kAbrr), prefixes};
  inject(bed);
  ASSERT_TRUE(bed.run_to_quiescence());
  ASSERT_EQ(bed.speaker(2).loc_rib().best(kPfx)->egress(), 1u);

  // The 1-2 link degrades: exit 3 becomes closer.
  bed.igp_event([](igp::Graph& g) { ASSERT_TRUE(g.set_metric(1, 2, 10)); });
  ASSERT_TRUE(bed.run_to_quiescence());
  EXPECT_EQ(bed.speaker(2).loc_rib().best(kPfx)->egress(), 3u);
}

TEST(IgpEvent, LinkFailureReroutes) {
  topo::Topology t = line_topology();
  t.graph.add_link(1, 3, 10);  // backup path so E1 stays reachable
  const std::vector<Ipv4Prefix> prefixes0{kPfx};
  Testbed bed{t, options(ibgp::IbgpMode::kAbrr), prefixes0};
  inject(bed);
  ASSERT_TRUE(bed.run_to_quiescence());
  ASSERT_EQ(bed.speaker(2).loc_rib().best(kPfx)->egress(), 1u);

  bed.igp_event([](igp::Graph& g) { ASSERT_TRUE(g.remove_link(1, 2)); });
  ASSERT_TRUE(bed.run_to_quiescence());
  // E1 now costs 2-3-1 = 13; exit 3 costs 3: hot-potato flips.
  EXPECT_EQ(bed.speaker(2).loc_rib().best(kPfx)->egress(), 3u);
  // Forwarding stays clean after the event.
  verify::ForwardingChecker checker{bed};
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  EXPECT_TRUE(checker.audit(prefixes).clean());
}

TEST(IgpEvent, AbrrTracksFullMeshThroughIgpChurn) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed abrr{line_topology(), options(ibgp::IbgpMode::kAbrr), prefixes};
  Testbed mesh{line_topology(), options(ibgp::IbgpMode::kFullMesh), prefixes};
  inject(abrr);
  inject(mesh);
  ASSERT_TRUE(abrr.run_to_quiescence());
  ASSERT_TRUE(mesh.run_to_quiescence());

  for (const igp::Metric m : {10, 1, 7, 2}) {
    const auto change = [m](igp::Graph& g) { g.set_metric(1, 2, m); };
    abrr.igp_event(change);
    mesh.igp_event(change);
    ASSERT_TRUE(abrr.run_to_quiescence());
    ASSERT_TRUE(mesh.run_to_quiescence());
    const auto eq = verify::compare_loc_ribs(abrr, mesh, prefixes);
    EXPECT_TRUE(eq.equivalent()) << "metric " << m;
  }
}

TEST(IgpEvent, UnreachableEgressDropsRoute) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{line_topology(), options(ibgp::IbgpMode::kAbrr), prefixes};
  bed.speaker(1).inject_ebgp(
      0x80000001, RouteBuilder{kPfx}.as_path({7018, 1}).build());
  ASSERT_TRUE(bed.run_to_quiescence());
  ASSERT_NE(bed.speaker(2).loc_rib().best(kPfx), nullptr);

  // Partition E1 entirely (no backup): its next hop becomes
  // unreachable and the route unusable at M.
  bed.igp_event([](igp::Graph& g) { g.remove_link(1, 2); });
  ASSERT_TRUE(bed.run_to_quiescence());
  EXPECT_EQ(bed.speaker(2).loc_rib().best(kPfx), nullptr);
}

}  // namespace
}  // namespace abrr::harness
