// Figure 7: number of updates received and generated by an ARR/TRR over
// the (compressed) two-week update replay, for ABRR with 1..32 APs and
// TBRR with 13 clusters. Counters start after the initial snapshot has
// converged, exactly as in §4.2.
//
// Paper findings reproduced in shape:
//   - updates RECEIVED by an ARR grow with #APs but flatten out;
//   - updates GENERATED by an ARR shrink dramatically with #APs and are
//     a small fraction of a TRR's (a route change touches only its two
//     ARRs, but possibly many TRRs).
//
// Declared as ScenarioSpecs with a trace replay; ExperimentRunner
// executes them (--jobs=N for concurrency, identical output).
#include <cstdio>
#include <vector>

#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  // The paper replayed a two-week realtime feed: per-session update
  // streams are SPARSE relative to the 5s MRAI. Mirror that by default
  // (a dense feed saturates MRAI coalescing on every session and hides
  // the received-updates growth with #APs).
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "fig7_update_counts",
      {.trace_seconds = 240.0, .trace_events_per_second = 4.0},
      bench::Seeds::kMany);

  std::vector<runner::ScenarioSpec> specs;
  const auto with_trace = [&](runner::ScenarioSpec spec) {
    spec.workload.trace_seconds = cfg.trace_seconds;
    spec.workload.trace_events_per_second = cfg.trace_events_per_second;
    specs.push_back(std::move(spec));
  };
  for (const std::size_t aps : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto spec = bench::paper_spec(ibgp::IbgpMode::kAbrr, aps, cfg);
    spec.name = "ABRR/" + std::to_string(aps) + "AP";
    with_trace(std::move(spec));
  }
  {
    auto spec = bench::paper_spec(ibgp::IbgpMode::kTbrr, cfg.pops, cfg);
    spec.name = "TBRR/" + std::to_string(cfg.pops) + "cl";
    with_trace(std::move(spec));
  }

  runner::ExperimentRunner run{{.jobs = cfg.jobs}};
  const auto results = run.run(specs);

  std::printf("# Figure 7: updates received/generated per RR over the\n");
  std::printf("# update replay (%llu events over %.0fs simulated)\n",
              static_cast<unsigned long long>(
                  results.empty() ? 0 : results.front().trace_events),
              cfg.trace_seconds);
  std::printf("# prefixes=%zu seed=%llu\n\n", cfg.prefixes,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("%-14s %14s %14s %14s %8s\n", "config", "received/RR",
              "generated/RR", "wire-B/RR", "#RRs");

  bench::MetricsSink sink{"fig7_update_counts", cfg.metrics_out};
  for (const runner::TrialResult& r : results) {
    if (!r.error.empty() || !r.converged) {
      std::printf("%-14s %s\n", r.scenario.c_str(),
                  r.error.empty() ? "DID NOT CONVERGE (snapshot)"
                                  : r.error.c_str());
      continue;
    }
    // Bandwidth: the measured RFC 4271 wire length of every transmitted
    // message.
    std::printf("%-14s %14.0f %14.0f %14.0f %8zu\n", r.scenario.c_str(),
                r.rr_totals.avg_received(), r.rr_totals.avg_generated(),
                r.rr_totals.avg_wire_bytes(), r.rr_totals.speakers);
    sink.capture(r.scenario, r.metrics_json);
  }
  return 0;
}
