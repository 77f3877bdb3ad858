// abrrlab — command-line laboratory around the library. `abrrlab --help`
// lists the subcommands, `abrrlab CMD --help` the flags of one.
//
// The topology is re-synthesized from the seed and PoP count (the MRT
// file stores the edge view). gen draws the topology, then the workload,
// then the trace from one Rng{seed}, as runner::build_world does, so the
// file holds the workload of every trial of that seed and scale.
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "harness/testbed.h"
#include "runner/arg_parser.h"
#include "runner/trial.h"
#include "trace/mrt.h"
#include "trace/regenerator.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

using namespace abrr;

namespace {

constexpr const char* kUsage =
    R"(usage: abrrlab gen|info|run|compare [--flags]
  gen      synthesize a Tier-1 workload + update trace, write an MRT file
  info     summarize an MRT file (prefixes, announcements, events)
  run      load the snapshot, replay the trace, print RIB sizes, update
           counters and the forwarding/efficiency audits
  compare  run ABRR and full-mesh side by side, report equivalence
`abrrlab CMD --help` lists the flags of CMD.
)";

/// The flags of one subcommand. The spec holds the topology scale, the
/// workload and trace shape, the iBGP mode and the AP knobs at its
/// defaults (the paper's 13-PoP Tier-1 subset).
struct Options {
  runner::ScenarioSpec spec;
  std::uint64_t seed = 42;
  std::string in;
  std::string out;
};

/// Parses `argv` (argv[0] is the subcommand) with the flags `command`
/// takes; exits 2 on an unknown flag, a malformed value or an unknown
/// --mode.
Options parse_options(const std::string& command, int argc, char** argv) {
  Options o;
  o.spec.workload.trace_seconds = 120;
  o.spec.workload.trace_events_per_second = 8;
  std::string mode = "abrr";
  runner::ArgParser p{"abrrlab " + command};
  if (command == "gen") {
    p.add("out", "MRT file to write", &o.out);
    p.add("prefixes", "prefixes in the snapshot", &o.spec.workload.prefixes);
    p.add("trace-seconds", "update-trace length (simulated seconds)",
          &o.spec.workload.trace_seconds);
    p.add("rate", "update-trace events per second",
          &o.spec.workload.trace_events_per_second);
  } else {
    p.add("in", "MRT file to read", &o.in);
  }
  if (command == "run") {
    p.add("mode", "iBGP mode: fullmesh|tbrr|abrr|dual", &mode);
  }
  if (command == "run" || command == "compare") {
    p.add("aps", "ABRR address partitions", &o.spec.abrr.num_aps);
    p.add("balanced", "balance the APs on the file's prefixes",
          &o.spec.abrr.balanced_aps);
  }
  if (command != "info") {
    p.add("seed",
          "RNG seed of the topology (gen: also of the workload and trace)",
          &o.seed);
    p.add("pops", "PoPs/clusters in the Tier-1 topology",
          &o.spec.topology.pops);
  }
  p.parse(argc, argv);
  const auto parsed = runner::parse_mode(mode);
  if (!parsed) {
    std::fprintf(stderr, "abrrlab %s: unknown --mode '%s' (expected "
                 "fullmesh|tbrr|abrr|dual)\n", command.c_str(), mode.c_str());
    std::exit(2);
  }
  o.spec.mode = *parsed;
  return o;
}

int cmd_gen(const Options& o) {
  if (o.out.empty()) {
    std::fprintf(stderr, "abrrlab gen: --out=FILE required\n");
    return 2;
  }
  sim::Rng rng{o.seed};
  const auto topology = runner::make_trial_topology(o.spec.topology, rng);
  const auto workload =
      runner::make_trial_workload(o.spec.workload, topology, rng);
  trace::TraceParams tp;
  tp.duration = sim::sec_f(o.spec.workload.trace_seconds);
  tp.events_per_second = o.spec.workload.trace_events_per_second;
  const auto trace = trace::UpdateTrace::generate(tp, workload, rng);
  trace::write_mrt(o.out, workload, trace);
  std::printf("wrote %s (%zu prefixes, %zu events, seed %llu)\n",
              o.out.c_str(), workload.prefix_count(), trace.events().size(),
              static_cast<unsigned long long>(o.seed));
  return 0;
}

int cmd_info(const Options& o) {
  const auto file = trace::read_mrt(o.in);
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

RunResult run_file(const trace::MrtFile& file, const Options& o,
                   ibgp::IbgpMode mode) {
  auto spec = o.spec;
  spec.mode = mode;
  sim::Rng rng{o.seed};
  auto bed = std::make_unique<harness::Testbed>(
      runner::make_trial_topology(spec.topology, rng),
      spec.testbed_config(o.seed), file.workload.prefixes());
  trace::RouteRegenerator regen{bed->scheduler(), file.workload,
                                bed->inject_fn()};
  regen.load_snapshot(0, sim::sec(30));
  if (!bed->run_to_quiescence()) {
    std::fprintf(stderr, "snapshot did not converge\n");
    return {};
  }
  bed->reset_counters();
  regen.play(file.trace, bed->scheduler().now());
  if (!bed->run_to_quiescence()) {
    std::fprintf(stderr, "trace replay did not converge\n");
    return {};
  }
  return RunResult{std::move(bed), regen.current()};
}

int cmd_run(const Options& o) {
  const auto file = trace::read_mrt(o.in);
  auto result = run_file(file, o, o.spec.mode);
  if (!result.bed) return 1;
  auto& bed = result.bed;

  const auto in = bed->rr_rib_in();
  const auto out = bed->rr_rib_out();
  const auto rr = bed->rr_counters();
  const auto clients = bed->client_counters();
  std::printf("mode %s: %zu speakers, %zu sessions\n",
              runner::mode_name(o.spec.mode),
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

int cmd_compare(const Options& o) {
  const auto file = trace::read_mrt(o.in);
  auto abrr = run_file(file, o, ibgp::IbgpMode::kAbrr);
  auto mesh = run_file(file, o, ibgp::IbgpMode::kFullMesh);
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
  const std::string command = argc > 1 ? argv[1] : "";
  int (*cmd)(const Options&) = command == "gen"       ? cmd_gen
                               : command == "info"    ? cmd_info
                               : command == "run"     ? cmd_run
                               : command == "compare" ? cmd_compare
                                                      : nullptr;
  if (cmd == nullptr) {
    const bool help = command == "--help" || command == "-h";
    if (!help && !command.empty()) {
      std::fprintf(stderr, "abrrlab: unknown command '%s'\n",
                   command.c_str());
    }
    std::fputs(kUsage, help ? stdout : stderr);
    return help ? 0 : 2;
  }
  const Options options = parse_options(command, argc - 1, argv + 1);
  try {
    return cmd(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
