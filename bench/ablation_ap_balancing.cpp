// Ablation: uniform vs prefix-balanced Address Partitions.
//
// §4.1: with equal-size address ranges the per-ARR RIB sizes vary by as
// much as 50% around the mean because real prefixes clump in allocated
// blocks; the paper notes ISPs can control this by choosing ranges with
// equal prefix shares. This bench quantifies the spread both ways.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(argc, argv, "ablation_ap_balancing");
  const auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);

  std::printf("# Ablation: AP balancing (%zu prefixes, 8 APs, 2 ARRs each)\n\n",
              cfg.prefixes);
  std::printf("%-10s %9s %9s %9s %11s | %9s %9s %9s %11s\n", "scheme",
              "in-min", "in-avg", "in-max", "in-spread%", "out-min",
              "out-avg", "out-max", "out-spread%");

  bench::MetricsSink sink{"ablation_ap_balancing", cfg.metrics_out};
  const auto run = [&](bool balanced) {
    auto spec = paper;
    spec.abrr.balanced_aps = balanced;
    const runner::World world = runner::build_world(spec, cfg.seed);
    harness::Testbed& bed = *world.bed;
    if (!runner::converge(bed, sim::sec_f(spec.workload.snapshot_seconds))) {
      std::printf("%-10s DID NOT CONVERGE\n", balanced ? "balanced" : "uniform");
      return;
    }
    sink.capture(balanced ? "balanced" : "uniform", bed);
    const auto in = bed.rr_rib_in();
    const auto out = bed.rr_rib_out();
    const auto spread = [](const harness::Aggregate& a) {
      return a.avg > 0 ? 100.0 * (a.max - a.min) / a.avg : 0.0;
    };
    std::printf("%-10s %9.0f %9.0f %9.0f %11.1f | %9.0f %9.0f %9.0f %11.1f\n",
                balanced ? "balanced" : "uniform", in.min, in.avg, in.max,
                spread(in), out.min, out.avg, out.max, spread(out));
  };

  run(false);
  run(true);
  std::printf("\n# expectation: balanced partitions collapse the RIB-Out\n");
  std::printf("# spread; the RIB-In spread shrinks too but keeps the\n");
  std::printf("# client-role (unmanaged) share, which is AP-independent.\n");
  return 0;
}
