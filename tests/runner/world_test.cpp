// runner::World: the workload is held once, by the regenerator, and a
// TBRR bed's transient heap (MRAI pending state and channel queues)
// stays within a budget while the snapshot loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "runner/trial.h"
#include "topo/topology.h"

namespace abrr::runner {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kTbrr;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 40;
  spec.workload.snapshot_seconds = 2.0;
  return spec;
}

TEST(World, HoldsTheWorkloadOnce) {
  // A World is its bed and its regenerator, nothing beside them: the
  // workload it reads is the regenerator's copy.
  static_assert(sizeof(World) ==
                sizeof(std::unique_ptr<harness::Testbed>) +
                    sizeof(std::unique_ptr<trace::RouteRegenerator>));
  const ScenarioSpec spec = small_spec();
  const World world = build_world(spec, 5);
  EXPECT_EQ(&world.workload(), &world.regen->current());

  // It is the workload the generators draw for (spec, seed).
  sim::Rng rng{5};
  const topo::Topology topology = make_trial_topology(spec.topology, rng);
  const trace::Workload expected =
      make_trial_workload(spec.workload, topology, rng);
  EXPECT_EQ(world.workload().prefixes(), expected.prefixes());
  ASSERT_EQ(world.workload().table().size(), expected.table().size());
  for (std::size_t i = 0; i < expected.table().size(); ++i) {
    EXPECT_EQ(world.workload().table()[i].anns.size(),
              expected.table()[i].anns.size());
  }
}

TEST(World, TbrrLoadKeepsPendingAndQueueHeapInBudget) {
  // The paper's TBRR bed at 300 prefixes. Sampled every virtual second
  // of the load, the MRAI pending state and the channel queues together
  // never exceed the budget: pending pairs cost a bit each beside their
  // list entry, and drained queue chunks go back to the allocator.
  ScenarioSpec spec = ScenarioSpec::paper(ibgp::IbgpMode::kTbrr, 8, 42);
  spec.workload.prefixes = 300;
  World world = build_world(spec, 42);
  harness::Testbed& bed = *world.bed;
  std::size_t peak = 0;
  for (sim::Time t = 0; bed.scheduler().has_pending(); t += sim::sec(1)) {
    bed.run_until(t);
    const harness::MemoryBreakdown m = bed.memory();
    peak = std::max(peak, m.pending + m.channel_queues);
  }
  std::printf("peak pending + channel queues: %zu bytes\n", peak);
  // Seed 42 reads 5,721,920 bytes with a dedup hash set per peer and a
  // pool that kept every chunk, 1,789,600 with pending bits and a pool
  // that returns drained chunks.
  constexpr std::size_t kBudget = 2'500'000;
  EXPECT_LE(peak, kBudget);
}

}  // namespace
}  // namespace abrr::runner
