// Ablation: MED policy vs TBRR convergence on the Tier-1 testbed.
//
// With diverse per-peering-point MEDs (adversarial but legal), TBRR's
// route hiding plus MED's partial order produces persistent RFC 3345
// oscillations even under deterministic-MED. The two standard ISP
// mitigations — zeroing peer MEDs (our default workload policy) or
// always-compare-med — restore convergence. ABRR converges under every
// policy: for any prefix it is logically centralized (§2.3.1).
#include <cstdio>

#include "common.h"
#include "verify/oscillation.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "ablation_med_policy", {.prefixes = 600, .pops = 5});

  std::printf("# Ablation: MED policy vs convergence (%zu prefixes)\n\n",
              cfg.prefixes);
  std::printf("%-9s %-26s %-12s %10s\n", "scheme", "MED policy", "converged",
              "max-flips");

  bench::MetricsSink sink{"ablation_med_policy", cfg.metrics_out};
  const auto run = [&](ibgp::IbgpMode mode, bool diverse_meds,
                       bool always_compare, const char* label) {
    auto spec = bench::paper_spec(mode, 8, cfg);
    spec.workload.per_point_meds = diverse_meds;
    spec.workload.snapshot_seconds = 10;
    spec.timing.mrai = 0;  // oscillate fast rather than slowly
    spec.timing.proc_delay = sim::msec(2);
    spec.decision.always_compare_med = always_compare;
    const auto world = runner::build_world(spec, cfg.seed);
    harness::Testbed& bed = *world.bed;
    verify::OscillationMonitor monitor{30};
    for (const auto id : bed.all_ids()) monitor.attach(bed.speaker(id));
    // Its own cap, not converge()'s: the diverse-MED TBRR rows
    // oscillate forever by design.
    const bool converged = bed.run_to_quiescence(4'000'000);
    sink.capture(label, bed);
    std::printf("%-9s %-26s %-12s %10zu\n",
                mode == ibgp::IbgpMode::kTbrr ? "TBRR" : "ABRR", label,
                converged ? "yes" : "NO (capped)", monitor.max_flips());
  };

  run(ibgp::IbgpMode::kTbrr, false, false, "uniform peer MEDs");
  run(ibgp::IbgpMode::kTbrr, true, false, "diverse MEDs");
  run(ibgp::IbgpMode::kTbrr, true, true, "diverse + always-compare");
  run(ibgp::IbgpMode::kAbrr, true, false, "diverse MEDs");
  return 0;
}
