// Trace tooling walkthrough: synthesize a Tier-1 workload and a
// two-week-style update trace, persist both to an MRT-style file, read
// the file back, and replay it through the route regenerator against an
// ABRR testbed while watching the §4.2 counters.
//
//   $ ./trace_replay [path]
#include <cstdio>
#include <string>

#include "harness/testbed.h"
#include "trace/mrt.h"
#include "trace/regenerator.h"

using namespace abrr;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/abrr_tier1_trace.mrt";

  // 1. Synthesize and persist.
  sim::Rng rng{3};
  topo::TopologyParams tp;
  tp.pops = 8;
  tp.clients_per_pop = 6;
  tp.peering_router_fraction = 1.0;
  tp.peer_ases = 15;
  tp.peering_points_per_as = 5;
  const auto topology = topo::make_tier1(tp, rng);

  trace::WorkloadParams wp;
  wp.prefixes = 1000;
  const auto workload = trace::Workload::generate(wp, topology, rng);

  trace::TraceParams tparams;
  tparams.duration = sim::sec(90);
  tparams.events_per_second = 8;
  const auto trace = trace::UpdateTrace::generate(tparams, workload, rng);

  trace::write_mrt(path, workload, trace);
  std::printf("wrote %s: %zu prefixes, %zu edge events\n", path.c_str(),
              workload.prefix_count(), trace.events().size());

  // 2. Read it back (a different process would start here).
  const trace::MrtFile file = trace::read_mrt(path);
  std::printf("read back: %zu prefixes, %zu events, duration %.0fs\n\n",
              file.workload.prefix_count(), file.trace.events().size(),
              sim::to_seconds(file.trace.duration()));

  // 3. Replay against an ABRR testbed.
  harness::TestbedConfig config;
  config.mode = ibgp::IbgpMode::kAbrr;
  config.abrr.num_aps = 8;
  harness::Testbed bed{topology, config, file.workload.prefixes()};
  trace::RouteRegenerator regen{bed.scheduler(), file.workload,
                                bed.inject_fn()};

  regen.load_snapshot(0, sim::sec(15));
  bed.run_to_quiescence();
  std::printf("snapshot loaded: %llu eBGP announcements, RR RIB-In avg "
              "%.0f routes\n",
              static_cast<unsigned long long>(regen.injected()),
              bed.rr_rib_in().avg);

  bed.reset_counters();
  regen.play(file.trace, bed.scheduler().now());
  bed.run_to_quiescence();

  const auto rr = bed.rr_counters();
  const auto clients = bed.client_counters();
  std::printf("replayed %zu events:\n", file.trace.events().size());
  std::printf("  per ARR:    %.0f updates received, %.0f generated, "
              "%.0f transmitted\n",
              rr.avg_received(), rr.avg_generated(), rr.avg_transmitted());
  std::printf("  per client: %.0f updates received\n",
              clients.avg_received());
  std::printf("\nthe same file replays bit-identically on any machine\n");
  std::printf("(little-endian on disk, deterministic simulation).\n");
  return 0;
}
