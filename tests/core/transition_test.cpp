// §2.4: incremental TBRR -> ABRR transition with no service interruption.
#include "core/transition.h"

#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "trace/regenerator.h"
#include "verify/equivalence.h"

namespace abrr::core {
namespace {

using harness::Testbed;
using harness::TestbedConfig;

class TransitionTest : public ::testing::Test {
 protected:
  TransitionTest() {
    sim::Rng rng{17};
    topo::TopologyParams tp;
    tp.pops = 4;
    tp.clients_per_pop = 4;
    tp.peer_ases = 6;
    tp.peering_points_per_as = 3;
    topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 200;
    workload = trace::Workload::generate(wp, topology, rng);
    prefixes = workload.prefixes();
  }

  TestbedConfig options(ibgp::IbgpMode mode) const {
    TestbedConfig o;
    o.mode = mode;
    o.abrr.num_aps = 4;
    o.timing.mrai = 0;
    o.timing.proc_delay = sim::msec(1);
    o.timing.latency_jitter = sim::msec(2);
    return o;
  }

  // Loads the snapshot and converges.
  void load(Testbed& bed) {
    trace::RouteRegenerator regen{bed.scheduler(), workload,
                                  bed.inject_fn()};
    regen.load_snapshot(0, sim::sec(5));
    ASSERT_TRUE(bed.run_to_quiescence());
  }

  // Every client has a route for every prefix (no blackholes).
  void assert_full_reachability(Testbed& bed) {
    for (const bgp::RouterId id : bed.client_ids()) {
      for (const auto& p : prefixes) {
        ASSERT_NE(bed.speaker(id).loc_rib().best(p), nullptr)
            << "blackhole at " << id << " for " << p.to_string();
      }
    }
  }

  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

TEST_F(TransitionTest, DualStartsOnTbrrPlane) {
  Testbed dual{topology, options(ibgp::IbgpMode::kDual), prefixes};
  TransitionController controller{*dual.partition()};
  for (const bgp::RouterId id : dual.all_ids()) {
    controller.attach(dual.speaker(id));
  }
  load(dual);
  assert_full_reachability(dual);

  Testbed tbrr{topology, options(ibgp::IbgpMode::kTbrr), prefixes};
  load(tbrr);
  const auto eq = verify::compare_loc_ribs(dual, tbrr, prefixes);
  EXPECT_TRUE(eq.equivalent())
      << eq.divergence_count << "/" << eq.compared << " diverged";
}

TEST_F(TransitionTest, PerApCutoverKeepsFullReachability) {
  Testbed dual{topology, options(ibgp::IbgpMode::kDual), prefixes};
  TransitionController controller{*dual.partition()};
  for (const bgp::RouterId id : dual.all_ids()) {
    controller.attach(dual.speaker(id));
  }
  load(dual);

  for (ibgp::ApId ap = 0; ap < 4; ++ap) {
    controller.cutover(ap);
    ASSERT_TRUE(dual.run_to_quiescence());
    assert_full_reachability(dual);
    EXPECT_EQ(controller.cutover_count(), static_cast<std::size_t>(ap + 1));
  }
  EXPECT_TRUE(controller.complete());
}

TEST_F(TransitionTest, FullyCutOverDualMatchesPureAbrr) {
  Testbed dual{topology, options(ibgp::IbgpMode::kDual), prefixes};
  TransitionController controller{*dual.partition()};
  for (const bgp::RouterId id : dual.all_ids()) {
    controller.attach(dual.speaker(id));
  }
  load(dual);
  for (ibgp::ApId ap = 0; ap < 4; ++ap) {
    controller.cutover(ap);
    ASSERT_TRUE(dual.run_to_quiescence());
  }

  Testbed abrr{topology, options(ibgp::IbgpMode::kAbrr), prefixes};
  load(abrr);
  const auto eq = verify::compare_loc_ribs(dual, abrr, prefixes);
  EXPECT_TRUE(eq.equivalent())
      << eq.divergence_count << "/" << eq.compared << " diverged";
}

TEST_F(TransitionTest, RollbackRestoresTbrrChoice) {
  Testbed dual{topology, options(ibgp::IbgpMode::kDual), prefixes};
  TransitionController controller{*dual.partition()};
  for (const bgp::RouterId id : dual.all_ids()) {
    controller.attach(dual.speaker(id));
  }
  load(dual);

  // Snapshot the TBRR-plane choices.
  std::vector<bgp::RouterId> before;
  for (const auto& p : prefixes) {
    const auto* r =
        dual.speaker(dual.client_ids().front()).loc_rib().best(p);
    before.push_back(r ? r->egress() : bgp::kNoRouter);
  }

  controller.cutover(0);
  ASSERT_TRUE(dual.run_to_quiescence());
  controller.rollback(0);
  ASSERT_TRUE(dual.run_to_quiescence());
  EXPECT_FALSE(controller.is_cutover(0));

  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const auto* r =
        dual.speaker(dual.client_ids().front()).loc_rib().best(prefixes[i]);
    EXPECT_EQ(r ? r->egress() : bgp::kNoRouter, before[i]);
  }
}

TEST_F(TransitionTest, ControllerRejectsNonDualSpeakers) {
  Testbed tbrr{topology, options(ibgp::IbgpMode::kTbrr), prefixes};
  TransitionController controller{PartitionScheme::uniform(4)};
  EXPECT_THROW(controller.attach(tbrr.speaker(tbrr.client_ids().front())),
               std::invalid_argument);
}

}  // namespace
}  // namespace abrr::core
