// Figure 6: experimental RIB-In / RIB-Out sizes (min, avg, max across
// RRs) after the initial snapshot, for ABRR with 1..32 uniform APs
// (2 ARRs each) and TBRR with the 13-cluster peering-router testbed,
// together with the Appendix A analytical expectation.
//
// Paper findings reproduced here in shape:
//   - ARR averages track the analysis; min/max spread up to ~50% because
//     uniform (equal-size) address ranges hold unequal prefix counts;
//   - TRR analysis OVERestimates the measurement (uniformity
//     assumptions), ~35% on RIB-In and ~13% on RIB-Out in the paper;
//   - ARR RIBs are substantially smaller than TRR RIBs throughout.
//
// The scenarios are declared as ScenarioSpecs and executed by
// ExperimentRunner (--jobs=N runs them concurrently; output is
// identical at any job count).
#include <cstdio>
#include <vector>

#include "analysis/rib_model.h"
#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "fig6_rib_sizes", bench::Seeds::kMany);

  std::vector<runner::ScenarioSpec> specs;
  for (const std::size_t aps : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto spec = bench::paper_spec(ibgp::IbgpMode::kAbrr, aps, cfg);
    spec.name = "ABRR/" + std::to_string(aps) + "AP";
    specs.push_back(std::move(spec));
  }
  {
    auto spec = bench::paper_spec(ibgp::IbgpMode::kTbrr, cfg.pops, cfg);
    spec.name = "TBRR/" + std::to_string(cfg.pops) + "cl";
    specs.push_back(std::move(spec));
  }

  // The analysis overlay needs the measured #BAL (best AS-level routes
  // per prefix, all sources) of the workload the trials regenerate.
  sim::Rng rng{cfg.seed};
  const runner::ScenarioSpec& paper = specs.front();
  const auto topology = runner::make_trial_topology(paper.topology, rng);
  const auto workload =
      runner::make_trial_workload(paper.workload, topology, rng);
  const double bal =
      workload.average_bal(topology, topology.peer_as_list.size(), rng)
          .all_sources;

  runner::ExperimentRunner run{{.jobs = cfg.jobs}};
  const auto results = run.run(specs);

  std::printf("# Figure 6: RIB sizes of an ARR/TRR (experiment vs analysis)\n");
  std::printf("# prefixes=%zu clients=%zu measured #BAL=%.2f seed=%llu\n\n",
              cfg.prefixes, topology.clients.size(), bal,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("%-14s %9s %9s %9s %9s | %9s %9s %9s %9s\n", "config",
              "in-min", "in-avg", "in-max", "in-anl", "out-min", "out-avg",
              "out-max", "out-anl");

  bench::MetricsSink sink{"fig6_rib_sizes", cfg.metrics_out};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runner::TrialResult& r = results[i];
    if (!r.error.empty() || !r.converged) {
      std::printf("%-14s %s\n", r.scenario.c_str(),
                  r.error.empty() ? "DID NOT CONVERGE" : r.error.c_str());
      continue;
    }
    sink.capture(r.scenario, r.metrics_json);

    // Results arrive in expanded (spec x seed) order.
    const runner::ScenarioSpec& spec = specs[i / cfg.seeds.size()];
    const bool is_abrr = spec.mode == ibgp::IbgpMode::kAbrr;
    analysis::ModelParams p;
    p.prefixes = static_cast<double>(cfg.prefixes);
    p.bal = bal;
    double anl_in = 0, anl_out = 0;
    if (is_abrr) {
      p.aps = static_cast<double>(spec.abrr.num_aps);
      p.rrs = 2.0 * p.aps;
      anl_in = analysis::AbrrModel::rib_in(p);
      anl_out = analysis::AbrrModel::rib_out(p);
    } else {
      p.aps = cfg.pops;  // clusters
      p.rrs = 2.0 * cfg.pops;
      anl_in = analysis::TbrrModel::rib_in(p);
      anl_out = analysis::TbrrModel::rib_out(p);
    }
    std::printf("%-14s %9.0f %9.0f %9.0f %9.0f | %9.0f %9.0f %9.0f %9.0f\n",
                r.scenario.c_str(), r.rib_in.min, r.rib_in.avg, r.rib_in.max,
                anl_in, r.rib_out.min, r.rib_out.avg, r.rib_out.max, anl_out);
    if (!is_abrr) {
      std::printf("# TRR analysis overestimate: RIB-In %.1f%%, "
                  "RIB-Out %.1f%% (paper: 34.9%%, 13.4%%)\n",
                  100.0 * (anl_in - r.rib_in.avg) / r.rib_in.avg,
                  100.0 * (anl_out - r.rib_out.avg) / r.rib_out.avg);
    }
  }
  return 0;
}
