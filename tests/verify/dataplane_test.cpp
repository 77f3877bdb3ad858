// §2.3.2-2.3.3 data-plane gadget: TBRR's inconsistent egress choices can
// deflect packets into loops and off the hot-potato optimum; ABRR, on
// the same physical topology with the same (badly) placed RR boxes,
// produces loop-free, efficient forwarding.
//
// Line topology:  E1 --1-- R1 --1-- R2 --1-- E2
// Clusters cross the geography (the misconfiguration TBRR forbids):
// cluster 0 = {R1, E2} with its TRR next to E2, cluster 1 = {R2, E1}
// with its TRR next to E1. Both exits inject AS-level-equal routes.
// Each TRR hot-potatoes to its nearby client exit and reflects only
// that, so R1 is stably told "use E2" and R2 "use E1": the packet
// ping-pongs between R1 and R2 in a converged network.
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "ibgp/speaker.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

namespace abrr::verify {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;
using harness::Testbed;
using harness::TestbedConfig;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
constexpr bgp::RouterId kE1 = 1, kR1 = 2, kR2 = 3, kE2 = 4;
constexpr bgp::RouterId kRrA = 11, kRrB = 12;

topo::Topology gadget_topology() {
  topo::Topology t;
  t.params.pops = 2;
  t.clients = {
      {kE1, topo::RouterRole::kPeering, 0, 1},
      {kR1, topo::RouterRole::kAccess, 0, 0},
      {kR2, topo::RouterRole::kAccess, 1, 1},
      {kE2, topo::RouterRole::kPeering, 1, 0},
  };
  // The kind of cluster design ISPs must avoid with TBRR (§1) and that
  // ABRR renders harmless: each TRR sits next to its own exit client and
  // far from the routers it steers.
  t.reflectors = {
      {kRrA, 1, 0},  // serves {R1, E2}, placed near E2
      {kRrB, 0, 1},  // serves {R2, E1}, placed near E1
  };
  t.graph.add_link(kE1, kR1, 1);
  t.graph.add_link(kR1, kR2, 1);
  t.graph.add_link(kR2, kE2, 1);
  t.graph.add_link(kRrA, kE2, 1);  // stub attachments: no transit
  t.graph.add_link(kRrB, kE1, 1);
  return t;
}

Route exit_route(bgp::Asn neighbor_as) {
  return RouteBuilder{kPfx}.local_pref(100).as_path({neighbor_as, 65100}).build();
}

void inject_exits(Testbed& bed) {
  bed.speaker(kE1).inject_ebgp(0x80000001, exit_route(65001));
  bed.speaker(kE2).inject_ebgp(0x80000002, exit_route(65002));
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

trace::Workload ground_truth() {
  // The edge view matching inject_exits, for the efficiency audit.
  trace::PrefixEntry entry;
  entry.prefix = kPfx;
  entry.from_peers = true;
  trace::Announcement a1;
  a1.router = kE1;
  a1.neighbor = 0x80000001;
  a1.first_as = 65001;
  a1.path_length = 2;
  a1.origin_as = 65100;
  a1.local_pref = 100;
  trace::Announcement a2 = a1;
  a2.router = kE2;
  a2.neighbor = 0x80000002;
  a2.first_as = 65002;
  entry.anns = {a1, a2};
  return trace::Workload::from_parts({}, {entry});
}

TEST(DataPlaneGadget, TbrrDeflectionCreatesForwardingLoop) {
  Testbed bed{gadget_topology(), options(ibgp::IbgpMode::kTbrr),
              std::vector<Ipv4Prefix>{kPfx}};
  inject_exits(bed);
  ASSERT_TRUE(bed.run_to_quiescence());

  // R1 was steered to E2, R2 to E1 - each by its own cluster's TRR.
  ASSERT_NE(bed.speaker(kR1).loc_rib().best(kPfx), nullptr);
  EXPECT_EQ(bed.speaker(kR1).loc_rib().best(kPfx)->egress(), kE2);
  EXPECT_EQ(bed.speaker(kR2).loc_rib().best(kPfx)->egress(), kE1);

  ForwardingChecker checker{bed};
  const WalkResult walk = checker.walk(kR1, kPfx);
  EXPECT_EQ(walk.outcome, WalkResult::Outcome::kLoop);

  const std::vector<Ipv4Prefix> prefixes{kPfx};
  const ForwardingAudit audit = checker.audit(prefixes);
  EXPECT_GT(audit.loops, 0u);
  EXPECT_FALSE(audit.clean());
}

TEST(DataPlaneGadget, TbrrPathsAreInefficient) {
  Testbed bed{gadget_topology(), options(ibgp::IbgpMode::kTbrr),
              std::vector<Ipv4Prefix>{kPfx}};
  inject_exits(bed);
  ASSERT_TRUE(bed.run_to_quiescence());
  const auto edge = ground_truth();
  const EfficiencyReport report = audit_efficiency(bed, edge);
  EXPECT_GT(report.inefficient, 0u);
  EXPECT_GT(report.total_extra_metric, 0.0);
}

TEST(DataPlaneGadget, AbrrSameBoxesNoLoopNoInefficiency) {
  // Same topology, same two oddly-placed boxes now acting as the two
  // redundant ARRs of a single AP.
  Testbed bed{gadget_topology(), options(ibgp::IbgpMode::kAbrr),
              std::vector<Ipv4Prefix>{kPfx}};
  inject_exits(bed);
  ASSERT_TRUE(bed.run_to_quiescence());

  // Hot-potato restored: R1 exits at E1 (distance 1), R2 at E2.
  EXPECT_EQ(bed.speaker(kR1).loc_rib().best(kPfx)->egress(), kE1);
  EXPECT_EQ(bed.speaker(kR2).loc_rib().best(kPfx)->egress(), kE2);

  ForwardingChecker checker{bed};
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  const ForwardingAudit audit = checker.audit(prefixes);
  EXPECT_EQ(audit.loops, 0u);
  EXPECT_EQ(audit.delivered, audit.checked);

  const EfficiencyReport report = audit_efficiency(bed, ground_truth());
  EXPECT_TRUE(report.efficient()) << report.inefficient << " inefficient, "
                                  << report.off_as_level_set << " off-set";
}

TEST(DataPlaneGadget, AbrrMatchesFullMeshExactly) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed abrr{gadget_topology(), options(ibgp::IbgpMode::kAbrr), prefixes};
  Testbed mesh{gadget_topology(), options(ibgp::IbgpMode::kFullMesh),
               prefixes};
  inject_exits(abrr);
  inject_exits(mesh);
  ASSERT_TRUE(abrr.run_to_quiescence());
  ASSERT_TRUE(mesh.run_to_quiescence());

  const EquivalenceReport eq = compare_loc_ribs(abrr, mesh, prefixes);
  EXPECT_TRUE(eq.equivalent())
      << eq.divergence_count << " of " << eq.compared << " diverged";
}

TEST(DataPlaneGadget, TbrrDivergesFromFullMesh) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed tbrr{gadget_topology(), options(ibgp::IbgpMode::kTbrr), prefixes};
  Testbed mesh{gadget_topology(), options(ibgp::IbgpMode::kFullMesh),
               prefixes};
  inject_exits(tbrr);
  inject_exits(mesh);
  ASSERT_TRUE(tbrr.run_to_quiescence());
  ASSERT_TRUE(mesh.run_to_quiescence());
  const EquivalenceReport eq = compare_loc_ribs(tbrr, mesh, prefixes);
  EXPECT_FALSE(eq.equivalent());
}

}  // namespace
}  // namespace abrr::verify
