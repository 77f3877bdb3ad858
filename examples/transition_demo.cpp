// §2.4: migrating a running AS from TBRR to ABRR without interrupting
// service. Routers run both planes (kDual); a TransitionController flips
// the per-AP acceptance switch one Address Partition at a time, and
// after every step we verify that no (router, prefix) pair lost its
// route. Finally the fully cut-over network is compared against a pure
// ABRR deployment.
//
//   $ ./transition_demo
#include <cstdio>
#include <memory>

#include "core/transition.h"
#include "harness/testbed.h"
#include "trace/regenerator.h"
#include "verify/equivalence.h"

using namespace abrr;

int main() {
  sim::Rng rng{11};
  topo::TopologyParams tp;
  tp.pops = 6;
  tp.clients_per_pop = 5;
  tp.peer_ases = 10;
  tp.peering_points_per_as = 4;
  const auto topology = topo::make_tier1(tp, rng);
  trace::WorkloadParams wp;
  wp.prefixes = 500;
  const auto workload = trace::Workload::generate(wp, topology, rng);
  const auto prefixes = workload.prefixes();

  constexpr std::size_t kAps = 4;
  harness::TestbedConfig config;
  config.mode = ibgp::IbgpMode::kDual;  // both planes wired
  config.abrr.num_aps = kAps;
  config.timing.mrai = sim::sec(5);

  harness::Testbed bed{topology, config, prefixes};
  core::TransitionController controller{*bed.partition()};
  for (const auto id : bed.all_ids()) controller.attach(bed.speaker(id));

  trace::RouteRegenerator regen{bed.scheduler(), workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec(10));
  bed.run_to_quiescence();

  const auto reachable_pairs = [&] {
    std::size_t n = 0;
    for (const auto id : bed.client_ids()) {
      for (const auto& p : prefixes) {
        n += bed.speaker(id).loc_rib().best(p) != nullptr ? 1 : 0;
      }
    }
    return n;
  };
  const std::size_t full = bed.client_ids().size() * prefixes.size();

  std::printf("dual-plane AS loaded: %zu clients, %zu prefixes, "
              "%zu/%zu pairs reachable (TBRR plane active)\n\n",
              bed.client_ids().size(), prefixes.size(), reachable_pairs(),
              full);

  for (ibgp::ApId ap = 0; ap < static_cast<ibgp::ApId>(kAps); ++ap) {
    std::printf("cutting over AP %d -> ABRR ... ", ap);
    controller.cutover(ap);
    bed.run_to_quiescence();
    const std::size_t ok = reachable_pairs();
    std::printf("converged, %zu/%zu pairs reachable%s\n", ok, full,
                ok == full ? "" : "  <-- SERVICE LOSS");
  }
  std::printf("\ntransition complete: %s\n",
              controller.complete() ? "all APs on ABRR" : "INCOMPLETE");

  // Cross-check against a from-scratch pure ABRR deployment.
  harness::TestbedConfig pure = config;
  pure.mode = ibgp::IbgpMode::kAbrr;
  harness::Testbed abrr{topology, pure, prefixes};
  trace::RouteRegenerator regen2{abrr.scheduler(), workload,
                                 abrr.inject_fn()};
  regen2.load_snapshot(0, sim::sec(10));
  abrr.run_to_quiescence();
  const auto eq = verify::compare_loc_ribs(bed, abrr, prefixes);
  std::printf("route selection vs pure ABRR: %zu/%zu pairs diverge\n",
              eq.divergence_count, eq.compared);
  std::printf("TBRR can now be deconfigured (the dual plane kept\n");
  std::printf("advertising on both throughout, so rollback stayed\n");
  std::printf("possible at every step).\n");
  return 0;
}
