// Fault resilience: ABRR vs TBRR under router crashes (§2.3.1).
//
// Two scenarios per architecture, both with hold-timer failure
// detection armed (hold time 3s):
//   rr_crash     — one reflector (ARR / TRR) dies for 10s and restarts
//   border_crash — one border router dies for 10s, restarts with state
//                  loss and has its eBGP feeds re-synced
// Reported per run: how long detection took, how long any surviving
// client was missing a route it had (blackout), how long after the
// restart the whole bed took to return to its exact pre-fault RIB state
// (recovery), the update churn the episode caused, and whether the
// recovered bed is full-mesh-equivalent.
//
// Each (mode, scenario) cell is one ScenarioSpec with fault.enabled;
// the trial executor (runner/trial.cpp) runs the crash episode and the
// in-trial full-mesh equivalence check. --jobs=N runs cells
// concurrently with identical output. --json_out opens with the build
// stamp (host CPUs, compiler, build type, git revision).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "build_stamp.h"
#include "common.h"

namespace abrr::bench {
namespace {

constexpr sim::Time kHold = sim::sec(3);
constexpr sim::Time kOutage = sim::sec(10);

void print_row(const runner::TrialResult& r) {
  std::printf(
      "%-22s victim=%-4u detect=%8.1fms blackout=%8.1fms "
      "recover=%9.1fms churn=%8" PRIu64 " dropped=%6" PRIu64
      " restored=%d fm_equiv=%d\n",
      r.scenario.c_str(), r.victim, r.detection_ms, r.blackout_ms,
      r.recovery_ms, r.churn_updates, r.dropped_messages,
      r.fingerprint_restored ? 1 : 0, r.fullmesh_equivalent ? 1 : 0);
}

void write_json(const std::string& path, const std::string& revision,
                const ExperimentConfig& cfg,
                const std::vector<runner::TrialResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_resilience\",\n");
  write_build_stamp(f, revision);
  std::fprintf(f,
               "  \"config\": {\"prefixes\": %zu, \"pops\": %u, "
               "\"seed\": %" PRIu64 ", \"hold_time_ms\": %.0f, "
               "\"outage_ms\": %.0f},\n",
               cfg.prefixes, cfg.pops, cfg.seed, sim::to_msec(kHold),
               sim::to_msec(kOutage));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runner::TrialResult& r = results[i];
    // Spec names are "mode/scenario"; keep the historical JSON schema
    // (bare scenario in its own field).
    const std::size_t slash = r.scenario.find('/');
    const std::string scenario =
        slash == std::string::npos ? r.scenario : r.scenario.substr(slash + 1);
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"scenario\": \"%s\", \"victim\": %u,\n"
        "     \"detection_ms\": %.1f, \"blackout_ms\": %.1f, "
        "\"recovery_ms\": %.1f,\n"
        "     \"churn_updates\": %" PRIu64 ", \"churn_routes\": %" PRIu64
        ", \"dropped_messages\": %" PRIu64 ",\n"
        "     \"fingerprint\": \"%016" PRIx64
        "\", \"fingerprint_restored\": %s, \"fullmesh_equivalent\": %s}%s\n",
        r.mode.c_str(), scenario.c_str(), r.victim, r.detection_ms,
        r.blackout_ms, r.recovery_ms, r.churn_updates, r.churn_routes,
        r.dropped_messages, r.fingerprint,
        r.fingerprint_restored ? "true" : "false",
        r.fullmesh_equivalent ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace abrr::bench

int main(int argc, char** argv) {
  using namespace abrr;
  using namespace abrr::bench;

  ExperimentConfig cfg;
  std::string json_out;
  runner::ArgParser parser{"fault_resilience"};
  cfg.register_flags(parser);
  parser.add("json_out", "write the case table as JSON here", &json_out);
  parser.parse(argc, argv);
  cfg.finish(Seeds::kMany);
  // Before the report makes the checkout dirty (build_stamp.h).
  const std::string revision = git_revision();

  std::vector<runner::ScenarioSpec> specs;
  for (const auto mode : {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr}) {
    for (const auto scenario :
         {harness::FaultOptions::Scenario::kRrCrash,
          harness::FaultOptions::Scenario::kBorderCrash}) {
      auto spec = paper_spec(mode, /*num_aps=*/8, cfg);
      spec.name = std::string{runner::mode_name(mode)} + "/" +
                  (scenario == harness::FaultOptions::Scenario::kRrCrash
                       ? "rr_crash"
                       : "border_crash");
      spec.workload.snapshot_seconds = 20.0;
      spec.fault.enabled = true;
      spec.fault.scenario = scenario;
      spec.fault.hold_time = kHold;
      spec.fault.outage = kOutage;
      spec.fault.verify_fullmesh = true;
      specs.push_back(std::move(spec));
    }
  }

  std::printf("fault_resilience: %zu prefixes, hold=%.0fms, outage=%.0fms\n",
              cfg.prefixes, sim::to_msec(kHold), sim::to_msec(kOutage));
  runner::ExperimentRunner run{{.jobs = cfg.jobs}};
  const auto results = run.run(specs);

  MetricsSink sink{"fault_resilience", cfg.metrics_out};
  for (const runner::TrialResult& r : results) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", r.scenario.c_str(),
                   r.error.c_str());
      return 1;
    }
    print_row(r);
    sink.capture(r.scenario, r.metrics_json);
  }
  if (!json_out.empty()) write_json(json_out, revision, cfg, results);
  return 0;
}
