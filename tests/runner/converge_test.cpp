// runner::converge on beds with hold timers: such a bed never drains
// (keepalives tick forever), so it runs to 40 s past its last input and
// counts as converged only when no UPDATE arrived in the last 10 s.
#include <gtest/gtest.h>

#include <optional>

#include "runner/trial.h"
#include "topo/topology.h"

namespace abrr::runner {
namespace {

ScenarioSpec held_spec() {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 40;
  spec.workload.snapshot_seconds = 2.0;
  spec.abrr.num_aps = 2;
  spec.timing.hold_time = sim::sec(3);
  return spec;
}

constexpr std::uint64_t kSeed = 21;

TEST(Converge, HoldTimerBedThatSettlesIsConverged) {
  const ScenarioSpec spec = held_spec();
  World world = build_world(spec, kSeed);
  const sim::Time inputs_end = sim::sec_f(spec.workload.snapshot_seconds);
  EXPECT_TRUE(converge(*world.bed, inputs_end));
  EXPECT_EQ(world.bed->scheduler().now(), inputs_end + sim::sec(40));
}

TEST(Converge, HoldTimerBedWhoseFeedKeepsFlappingIsNotConverged) {
  // One eBGP route flaps every second until well past the deadline: the
  // bed keeps exchanging UPDATEs in the last 10 s of its run.
  const ScenarioSpec spec = held_spec();
  World world = build_world(spec, kSeed);
  harness::Testbed& bed = *world.bed;
  const sim::Time inputs_end = sim::sec_f(spec.workload.snapshot_seconds);
  const topo::PeeringPoint& point = bed.topology().peering_points.front();
  const bgp::Ipv4Prefix prefix = world.workload().prefixes().front();
  const bgp::Route route =
      bgp::RouteBuilder{prefix}.as_path({point.peer_as, 64999}).build();
  const trace::InjectFn inject = bed.inject_fn();
  for (int i = 0; i < 50; ++i) {
    const bool up = i % 2 == 0;
    bed.scheduler().schedule_at(inputs_end + sim::sec(i), [&, up] {
      inject(point.router, point.neighbor_id, prefix,
             up ? std::optional<bgp::Route>{route} : std::nullopt);
    });
  }
  EXPECT_FALSE(converge(bed, inputs_end));
  EXPECT_EQ(bed.scheduler().now(), inputs_end + sim::sec(40));
}

}  // namespace
}  // namespace abrr::runner
