// Figure 3: average number of best AS-level routes per prefix as a
// function of the number of peer ASes, for the "Peer ASes Only" and
// "All Sources" views, plus the regression line F(#PASs) used as #BAL
// throughout the Appendix A analysis (§3.1).
//
// Paper anchors: ~10.2 routes/prefix on peer-learned prefixes at 25
// peer ASes; All-Sources lower (customers add little diversity); both
// curves roughly linear in the number of peer ASes.
#include <cstdio>
#include <vector>

#include "analysis/regression.h"
#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(argc, argv, "fig3_bal_routes");
  const auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);
  sim::Rng rng{cfg.seed};
  const auto topology = runner::make_trial_topology(paper.topology, rng);
  const auto workload =
      runner::make_trial_workload(paper.workload, topology, rng);

  std::printf("# Figure 3: best AS-level routes per prefix\n");
  std::printf("# prefixes=%zu peer_ases=%u points/AS=%u seed=%llu\n",
              cfg.prefixes, paper.topology.peer_ases,
              paper.topology.points_per_as,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("%-10s %-16s %-12s\n", "#PeerASes", "PeerASesOnly",
              "AllSources");

  std::vector<double> xs, peer_ys, all_ys;
  for (std::size_t n = 1; n <= paper.topology.peer_ases; ++n) {
    // Average several random peer subsets per point (the paper selects
    // peers at random).
    double peer = 0, all = 0;
    constexpr int kSamples = 3;
    for (int s = 0; s < kSamples; ++s) {
      const auto point = workload.average_bal(topology, n, rng);
      peer += point.peer_only;
      all += point.all_sources;
    }
    peer /= kSamples;
    all /= kSamples;
    std::printf("%-10zu %-16.2f %-12.2f\n", n, peer, all);
    xs.push_back(static_cast<double>(n));
    peer_ys.push_back(peer);
    all_ys.push_back(all);
  }

  const auto fit = analysis::fit_line(xs, all_ys);
  std::printf("\n# F(#PASs) regression on All Sources (used as #BAL):\n");
  std::printf("#   F(x) = %.4f * x + %.4f   (R^2 = %.4f)\n", fit.slope,
              fit.intercept, fit.r2);
  std::printf("#   paper anchor: ~10.2 best AS-level routes per PEER\n");
  std::printf("#   prefix at 25 peer ASes; measured: %.2f\n",
              peer_ys.back());
  return 0;
}
