// Testbed wiring details that the figure benches rely on.
#include <gtest/gtest.h>

#include "harness/testbed.h"

namespace abrr::harness {
namespace {

using bgp::Ipv4Prefix;

class TestbedOptionsTest : public ::testing::Test {
 protected:
  TestbedOptionsTest() {
    sim::Rng rng{3};
    topo::TopologyParams tp;
    tp.pops = 3;
    tp.clients_per_pop = 3;
    tp.peer_ases = 4;
    tp.peering_points_per_as = 2;
    topology = topo::make_tier1(tp, rng);
    for (std::uint32_t i = 0; i < 64; ++i) {
      prefixes.push_back(Ipv4Prefix{i << 25, 16});
    }
  }
  topo::Topology topology;
  std::vector<Ipv4Prefix> prefixes;
};

TEST_F(TestbedOptionsTest, AbrrCreatesExtraArrNodesWhenPoolIsShort) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kAbrr;
  o.abrr.num_aps = 8;  // needs 16 ARRs; the topology has only 6 boxes
  Testbed bed{topology, o, prefixes};
  EXPECT_EQ(bed.rr_ids().size(), 16u);
  // Every ARR id resolves to a speaker managing exactly one AP.
  std::vector<int> per_ap(8, 0);
  for (const auto id : bed.rr_ids()) {
    const auto ap = bed.arr_ap(id);
    ASSERT_GE(ap, 0);
    ASSERT_LT(ap, 8);
    ++per_ap[static_cast<std::size_t>(ap)];
  }
  for (const int n : per_ap) EXPECT_EQ(n, 2);
}

TEST_F(TestbedOptionsTest, TbrrUsesTopologyReflectorBoxes) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kTbrr;
  Testbed bed{topology, o, prefixes};
  EXPECT_EQ(bed.rr_ids().size(), topology.reflectors.size());
  // Clients peer with exactly their cluster's two TRRs.
  for (const auto id : bed.client_ids()) {
    EXPECT_EQ(bed.speaker(id).peer_count(), 2u);
  }
}

TEST_F(TestbedOptionsTest, FullMeshHasNoRrsAndAllPairs) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kFullMesh;
  Testbed bed{topology, o, prefixes};
  EXPECT_TRUE(bed.rr_ids().empty());
  const std::size_t n = bed.client_ids().size();
  EXPECT_EQ(bed.session_count(), n * (n - 1) / 2);
}

TEST_F(TestbedOptionsTest, BalancedPartitionIsUsed) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kAbrr;
  o.abrr.num_aps = 4;
  o.abrr.balanced_aps = true;
  Testbed bed{topology, o, prefixes};
  const auto* partition = bed.partition();
  ASSERT_NE(partition, nullptr);
  // Balanced on our synthetic uniform prefixes: each AP holds ~16.
  for (ibgp::ApId ap = 0; ap < 4; ++ap) {
    const auto n = partition->prefixes_in(ap, prefixes);
    EXPECT_NEAR(static_cast<double>(n), 16.0, 2.0);
  }
}

TEST_F(TestbedOptionsTest, DualWiresBothPlanes) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kDual;
  o.abrr.num_aps = 2;
  Testbed bed{topology, o, prefixes};
  // Clients peer with 2 TRRs + 4 ARRs.
  for (const auto id : bed.client_ids()) {
    EXPECT_EQ(bed.speaker(id).peer_count(), 6u);
  }
  // RR set = the topology's 6 TRR boxes + 4 freshly created ARRs.
  EXPECT_EQ(bed.rr_ids().size(), topology.reflectors.size() + 4u);
}

TEST_F(TestbedOptionsTest, InjectFnRoutesToTheRightSpeaker) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kFullMesh;
  o.timing.mrai = 0;
  o.timing.proc_delay = sim::msec(1);
  Testbed bed{topology, o, prefixes};
  const auto inject = bed.inject_fn();
  const auto client = bed.client_ids().front();
  inject(client, 0x80000001, prefixes[0],
         bgp::RouteBuilder{prefixes[0]}.as_path({7018}).build());
  ASSERT_TRUE(bed.run_to_quiescence());
  EXPECT_NE(bed.speaker(client).loc_rib().best(prefixes[0]), nullptr);
  inject(client, 0x80000001, prefixes[0], std::nullopt);
  ASSERT_TRUE(bed.run_to_quiescence());
  EXPECT_EQ(bed.speaker(client).loc_rib().best(prefixes[0]), nullptr);
}

}  // namespace
}  // namespace abrr::harness
