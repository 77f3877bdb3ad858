// abrrlab — command-line laboratory around the library.
//
//   abrrlab gen   --out=FILE [--prefixes=N] [--seed=N] [--pops=N]
//                 [--trace-seconds=S] [--rate=EPS]
//       Synthesize a Tier-1 workload + update trace, write an MRT file.
//
//   abrrlab info  --in=FILE
//       Summarize an MRT file (prefixes, announcements, events).
//
//   abrrlab run   --in=FILE --mode=abrr|tbrr|mesh [--aps=N] [--seed=N]
//                 [--balanced]
//       Load the snapshot, replay the trace, print RIB sizes, update
//       counters, forwarding/efficiency audits.
//
//   abrrlab compare --in=FILE [--aps=N]
//       Run ABRR and full-mesh side by side and report equivalence.
//
// The topology is re-synthesized from the same seed (the MRT file
// stores the edge view; router placement is deterministic per seed).
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "harness/testbed.h"
#include "trace/mrt.h"
#include "trace/regenerator.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

using namespace abrr;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;

  static Args parse(int argc, char** argv) {
    Args a;
    if (argc > 1) a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
      std::string s = argv[i];
      if (s.rfind("--", 0) != 0) continue;
      const auto eq = s.find('=');
      if (eq == std::string::npos) {
        a.kv[s.substr(2)] = std::string{"1"};
      } else {
        a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
      }
    }
    return a;
  }
  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  std::uint64_t num(const std::string& key, std::uint64_t dflt) const {
    const auto it = kv.find(key);
    return it == kv.end() ? dflt : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

topo::Topology make_topology(std::uint64_t seed, std::uint32_t pops) {
  sim::Rng rng{seed};
  topo::TopologyParams tp;
  tp.pops = pops;
  tp.clients_per_pop = 8;
  tp.peering_router_fraction = 1.0;
  tp.peer_ases = 25;
  tp.peering_points_per_as = 8;
  tp.peering_skew = 0.8;
  return topo::make_tier1(tp, rng);
}

int cmd_gen(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen: --out=FILE required\n");
    return 2;
  }
  const std::uint64_t seed = args.num("seed", 42);
  sim::Rng rng{seed};
  const auto topology =
      make_topology(seed, static_cast<std::uint32_t>(args.num("pops", 13)));
  trace::WorkloadParams wp;
  wp.prefixes = args.num("prefixes", 4000);
  const auto workload = trace::Workload::generate(wp, topology, rng);
  trace::TraceParams tp;
  tp.duration = sim::sec(static_cast<std::int64_t>(
      args.num("trace-seconds", 120)));
  tp.events_per_second = static_cast<double>(args.num("rate", 8));
  const auto trace = trace::UpdateTrace::generate(tp, workload, rng);
  trace::write_mrt(out, workload, trace);
  std::printf("wrote %s (%zu prefixes, %zu events, seed %llu)\n",
              out.c_str(), workload.prefix_count(), trace.events().size(),
              static_cast<unsigned long long>(seed));
  return 0;
}

int cmd_info(const Args& args) {
  const auto file = trace::read_mrt(args.get("in", ""));
  std::size_t anns = 0, peers = 0;
  for (const auto& e : file.workload.table()) {
    anns += e.anns.size();
    peers += e.from_peers ? 1 : 0;
  }
  std::printf("prefixes:        %zu (%.0f%% peer-learned)\n",
              file.workload.prefix_count(),
              100.0 * static_cast<double>(peers) /
                  static_cast<double>(file.workload.prefix_count()));
  std::printf("announcements:   %zu (%.1f per prefix)\n", anns,
              static_cast<double>(anns) /
                  static_cast<double>(file.workload.prefix_count()));
  std::printf("trace events:    %zu over %.0fs\n",
              file.trace.events().size(),
              sim::to_seconds(file.trace.duration()));
  std::map<trace::EventKind, std::size_t> kinds;
  for (const auto& e : file.trace.events()) ++kinds[e.kind];
  std::printf("  withdraw %zu / reannounce %zu / med %zu / path %zu\n",
              kinds[trace::EventKind::kWithdraw],
              kinds[trace::EventKind::kReannounce],
              kinds[trace::EventKind::kMedChange],
              kinds[trace::EventKind::kPathChange]);
  return 0;
}

struct RunResult {
  std::unique_ptr<harness::Testbed> bed;
  trace::Workload final_edge;  // the regenerator's view after the replay
};

RunResult run_file(const trace::MrtFile& file, const Args& args,
                   ibgp::IbgpMode mode) {
  const std::uint64_t seed = args.num("seed", 42);
  const auto topology =
      make_topology(seed, static_cast<std::uint32_t>(args.num("pops", 13)));
  harness::TestbedConfig config;
  config.mode = mode;
  config.abrr.num_aps = args.num("aps", 8);
  config.abrr.balanced_aps = args.kv.count("balanced") != 0;
  config.seed = seed;
  auto bed = std::make_unique<harness::Testbed>(topology, config,
                                                file.workload.prefixes());
  trace::RouteRegenerator regen{bed->scheduler(), file.workload,
                                bed->inject_fn()};
  regen.load_snapshot(0, sim::sec(30));
  if (!bed->run_to_quiescence()) {
    std::fprintf(stderr, "snapshot did not converge\n");
    return {};
  }
  bed->reset_counters();
  regen.play(file.trace, bed->scheduler().now());
  bed->run_to_quiescence();
  return RunResult{std::move(bed), regen.current()};
}

int cmd_run(const Args& args) {
  const auto file = trace::read_mrt(args.get("in", ""));
  const std::string mode_str = args.get("mode", "abrr");
  ibgp::IbgpMode mode = ibgp::IbgpMode::kAbrr;
  if (mode_str == "tbrr") mode = ibgp::IbgpMode::kTbrr;
  if (mode_str == "mesh") mode = ibgp::IbgpMode::kFullMesh;

  auto result = run_file(file, args, mode);
  if (!result.bed) return 1;
  auto& bed = result.bed;

  const auto in = bed->rr_rib_in();
  const auto out = bed->rr_rib_out();
  const auto rr = bed->rr_counters();
  const auto clients = bed->client_counters();
  std::printf("mode %s: %zu speakers, %zu sessions\n", mode_str.c_str(),
              bed->all_ids().size(), bed->session_count());
  if (!bed->rr_ids().empty()) {
    std::printf("RR RIB-In  min/avg/max: %.0f / %.0f / %.0f\n", in.min,
                in.avg, in.max);
    std::printf("RR RIB-Out min/avg/max: %.0f / %.0f / %.0f\n", out.min,
                out.avg, out.max);
    std::printf("RR updates: %.0f received, %.0f generated, %.0f "
                "transmitted (per RR, replay phase)\n",
                rr.avg_received(), rr.avg_generated(),
                rr.avg_transmitted());
  }
  std::printf("client updates received: %.0f per client\n",
              clients.avg_received());

  // Audit against the post-replay edge state (flapped-down prefixes
  // legitimately have no route).
  verify::ForwardingChecker checker{*bed};
  const auto prefixes = file.workload.prefixes();
  const auto audit = checker.audit(prefixes);
  const auto eff = verify::audit_efficiency(*bed, result.final_edge);
  std::printf("forwarding: %zu/%zu delivered (%zu without a route at "
              "trace end), %zu loops; %zu hot-potato violations\n",
              audit.delivered, audit.checked, audit.no_route, audit.loops,
              eff.inefficient);
  return 0;
}

int cmd_compare(const Args& args) {
  const auto file = trace::read_mrt(args.get("in", ""));
  auto abrr = run_file(file, args, ibgp::IbgpMode::kAbrr);
  auto mesh = run_file(file, args, ibgp::IbgpMode::kFullMesh);
  if (!abrr.bed || !mesh.bed) return 1;
  const auto prefixes = file.workload.prefixes();
  const auto eq = verify::compare_loc_ribs(*abrr.bed, *mesh.bed, prefixes);
  std::printf("ABRR vs full-mesh: %zu pairs compared, %zu diverged%s\n",
              eq.compared, eq.divergence_count,
              eq.equivalent() ? " - exact emulation" : "");
  for (const auto& d : eq.divergences) {
    std::printf("  router %u %s: abrr->%u mesh->%u\n", d.router,
                d.prefix.to_string().c_str(), d.egress_a, d.egress_b);
  }
  return eq.equivalent() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  try {
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "compare") return cmd_compare(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: abrrlab gen|info|run|compare [--flags]\n"
               "  gen     --out=F [--prefixes=N --seed=N --pops=N "
               "--trace-seconds=S --rate=EPS]\n"
               "  info    --in=F\n"
               "  run     --in=F --mode=abrr|tbrr|mesh [--aps=N "
               "--balanced --seed=N]\n"
               "  compare --in=F [--aps=N --seed=N]\n");
  return 2;
}
