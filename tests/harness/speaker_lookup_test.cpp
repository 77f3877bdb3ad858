// Testbed::speaker() error reporting and reset_counters() idempotence.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/testbed.h"
#include "trace/regenerator.h"

namespace abrr::harness {
namespace {

class SpeakerLookup : public ::testing::Test {
 protected:
  SpeakerLookup() {
    sim::Rng rng{31};
    topo::TopologyParams tp;
    tp.pops = 3;
    tp.clients_per_pop = 2;
    tp.peer_ases = 4;
    tp.peering_points_per_as = 2;
    topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 60;
    workload = trace::Workload::generate(wp, topology, rng);
    prefixes = workload.prefixes();
  }

  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

TEST_F(SpeakerLookup, UnknownIdThrowsDescriptively) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kAbrr;
  o.abrr.num_aps = 2;
  Testbed bed{topology, o, prefixes};
  constexpr RouterId kBogus = 9999;
  ASSERT_FALSE(bed.has_speaker(kBogus));
  try {
    bed.speaker(kBogus);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    // The message names the offending id and the bed's speaker count —
    // not .at()'s bare "map::at".
    EXPECT_NE(what.find("9999"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(bed.all_ids().size())),
              std::string::npos)
        << what;
  }
  // const overload shares the path
  const Testbed& cbed = bed;
  EXPECT_THROW(cbed.speaker(kBogus), std::out_of_range);
  // and known ids still resolve
  EXPECT_NO_THROW(bed.speaker(bed.all_ids().front()));
}

TEST_F(SpeakerLookup, ResetCountersTwiceIsIdempotent) {
  TestbedConfig o;
  o.mode = ibgp::IbgpMode::kTbrr;
  Testbed bed{topology, o, prefixes};
  trace::RouteRegenerator regen{bed.scheduler(), workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec(2));
  ASSERT_TRUE(bed.run_to_quiescence());

  const obs::Labels one{{"speaker", std::to_string(bed.all_ids().front())}};
  ASSERT_GT(bed.client_counters().received + bed.rr_counters().received, 0u);

  bed.reset_counters();
  const auto rr_first = bed.rr_counters();
  EXPECT_EQ(bed.counter_delta("speaker.updates_received", one), 0u);
  EXPECT_EQ(rr_first.received, 0u);
  EXPECT_EQ(rr_first.generated, 0u);

  // A second reset with no traffic in between must be a no-op, not an
  // underflow or a stale-baseline swap.
  bed.reset_counters();
  const auto rr_second = bed.rr_counters();
  EXPECT_EQ(bed.counter_delta("speaker.updates_received", one), 0u);
  EXPECT_EQ(bed.counter_delta("speaker.routes_received", one), 0u);
  EXPECT_EQ(rr_second.received, 0u);
  EXPECT_EQ(rr_second.generated, 0u);
  EXPECT_EQ(rr_second.transmitted, 0u);
}

}  // namespace
}  // namespace abrr::harness
