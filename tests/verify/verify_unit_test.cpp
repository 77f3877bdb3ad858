// Unit coverage for the verifiers themselves (the gadget tests exercise
// them end to end; these pin the edge cases and reporting behaviour).
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"
#include "verify/oscillation.h"

namespace abrr::verify {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouteBuilder;
using harness::Testbed;
using harness::TestbedConfig;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
const Ipv4Prefix kOther = Ipv4Prefix::parse("99.0.0.0/8");

topo::Topology tiny() {
  topo::Topology t;
  t.params.pops = 1;
  t.clients = {
      {1, topo::RouterRole::kPeering, 0, 0},
      {2, topo::RouterRole::kAccess, 0, 0},
  };
  t.reflectors = {{11, 0, 0}, {12, 0, 0}};
  t.graph.add_link(1, 2, 1);
  t.graph.add_link(11, 1, 1);
  t.graph.add_link(12, 2, 1);
  return t;
}

TestbedConfig abrr_options() {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kAbrr;
  o.abrr.num_aps = 1;
  o.timing.mrai = 0;
  o.timing.proc_delay = sim::msec(1);
  o.timing.latency_jitter = 0;
  return o;
}

TEST(ForwardingUnit, NoRouteOutcome) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{tiny(), abrr_options(), prefixes};
  ForwardingChecker checker{bed};
  const auto walk = checker.walk(1, kPfx);  // nothing injected
  EXPECT_EQ(walk.outcome, WalkResult::Outcome::kNoRoute);
  const auto audit = checker.audit(prefixes);
  EXPECT_EQ(audit.no_route, audit.checked);
  EXPECT_TRUE(audit.clean());  // no loops is clean even if unrouted
}

TEST(ForwardingUnit, DeliveredPathIsRecorded) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{tiny(), abrr_options(), prefixes};
  bed.speaker(1).inject_ebgp(0x80000001,
                             RouteBuilder{kPfx}.as_path({7018}).build());
  ASSERT_TRUE(bed.run_to_quiescence());
  ForwardingChecker checker{bed};
  const auto walk = checker.walk(2, kPfx);
  EXPECT_EQ(walk.outcome, WalkResult::Outcome::kDelivered);
  ASSERT_GE(walk.path.size(), 2u);
  EXPECT_EQ(walk.path.front(), 2u);
  EXPECT_EQ(walk.path.back(), 1u);
}

TEST(EquivalenceUnit, ReportsCapAndCount) {
  const std::vector<Ipv4Prefix> prefixes{kPfx, kOther};
  Testbed a{tiny(), abrr_options(), prefixes};
  Testbed b{tiny(), abrr_options(), prefixes};
  // Different state: only `a` learns the routes.
  a.speaker(1).inject_ebgp(0x80000001,
                           RouteBuilder{kPfx}.as_path({7018}).build());
  a.speaker(1).inject_ebgp(0x80000001,
                           RouteBuilder{kOther}.as_path({7018}).build());
  ASSERT_TRUE(a.run_to_quiescence());
  const auto eq = compare_loc_ribs(a, b, prefixes, /*max_report=*/1);
  EXPECT_FALSE(eq.equivalent());
  EXPECT_EQ(eq.divergence_count, 4u);  // 2 clients x 2 prefixes
  EXPECT_EQ(eq.divergences.size(), 1u);  // capped examples
  EXPECT_EQ(eq.compared, 4u);
  EXPECT_EQ(eq.divergences.front().egress_b, bgp::kNoRouter);
}

TEST(EquivalenceUnit, IdenticalBedsAreEquivalent) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed a{tiny(), abrr_options(), prefixes};
  Testbed b{tiny(), abrr_options(), prefixes};
  const auto eq = compare_loc_ribs(a, b, prefixes);
  EXPECT_TRUE(eq.equivalent());  // both empty
}

TEST(OscillationUnit, CountsFlipsPerRouterPrefix) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{tiny(), abrr_options(), prefixes};
  OscillationMonitor monitor{3};
  for (const auto id : bed.all_ids()) monitor.attach(bed.speaker(id));

  // Flap the route five times: five installs + withdrawals per router.
  for (int i = 0; i < 5; ++i) {
    bed.speaker(1).inject_ebgp(0x80000001,
                               RouteBuilder{kPfx}.as_path({7018}).build());
    ASSERT_TRUE(bed.run_to_quiescence());
    bed.speaker(1).withdraw_ebgp(0x80000001, kPfx);
    ASSERT_TRUE(bed.run_to_quiescence());
  }
  EXPECT_EQ(monitor.flips(1, kPfx), 10u);
  EXPECT_EQ(monitor.flips(1, kOther), 0u);
  EXPECT_GT(monitor.total_flips(), 20u);
  EXPECT_TRUE(monitor.oscillating());  // threshold 3 exceeded (by churn)
  monitor.reset();
  EXPECT_EQ(monitor.max_flips(), 0u);
  EXPECT_FALSE(monitor.oscillating());
}

TEST(EfficiencyUnit, EmptyEdgeReportsNothing) {
  const std::vector<Ipv4Prefix> prefixes{kPfx};
  Testbed bed{tiny(), abrr_options(), prefixes};
  const trace::Workload empty = trace::Workload::from_parts({}, {});
  const auto report = audit_efficiency(bed, empty);
  EXPECT_EQ(report.checked, 0u);
  EXPECT_TRUE(report.efficient());
  EXPECT_DOUBLE_EQ(report.avg_extra(), 0.0);
}

}  // namespace
}  // namespace abrr::verify
