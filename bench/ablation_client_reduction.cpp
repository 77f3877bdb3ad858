// Ablation: §3.4 client-side storage reduction.
//
// The paper argues ABRR clients "only need to store the best routes"
// because ARRs resend the whole best-AS-level set on every change. Our
// default keeps the full set on data-plane border routers because a
// reflected low-MED route is the witness that suppresses the client's
// own higher-MED route from the same neighbor AS (deterministic-MED
// group elimination); discarding it can silently diverge from
// full-mesh. This bench measures the memory saved by forcing the
// reduction and the equivalence it costs.
#include <cstdio>

#include "common.h"
#include "verify/equivalence.h"

int main(int argc, char** argv) {
  using namespace abrr;
  // A small bed keeps the full-mesh reference affordable.
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "ablation_client_reduction", {.prefixes = 1200, .pops = 7});
  auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);
  paper.topology.clients_per_pop = 6;
  // Diverse per-point MEDs: the regime where a reflected low-MED route
  // is the witness that suppresses a client's own higher-MED route.
  // (With the default uniform-MED policy the reduction is lossless.)
  paper.workload.per_point_meds = true;

  // Each world is built from the same (spec, seed), so all three beds
  // load one workload.
  const auto build = [&](ibgp::IbgpMode mode, bool force_reduction) {
    auto spec = paper;
    spec.mode = mode;
    spec.abrr.force_client_reduction = force_reduction;
    auto world = runner::build_world(spec, cfg.seed);
    runner::converge(*world.bed, sim::sec_f(spec.workload.snapshot_seconds));
    return world;
  };
  const auto client_rib_in = [](harness::Testbed& bed) {
    double total = 0;
    for (const auto id : bed.client_ids()) {
      total += static_cast<double>(bed.speaker(id).rib_in_size());
    }
    return total / static_cast<double>(bed.client_ids().size());
  };

  const auto full_world = build(ibgp::IbgpMode::kAbrr, false);
  const auto reduced_world = build(ibgp::IbgpMode::kAbrr, true);
  const auto mesh_world = build(ibgp::IbgpMode::kFullMesh, false);
  harness::Testbed& full = *full_world.bed;
  harness::Testbed& reduced = *reduced_world.bed;
  harness::Testbed& mesh = *mesh_world.bed;
  const auto prefixes = full_world.workload().prefixes();

  const auto eq_full = verify::compare_loc_ribs(full, mesh, prefixes);
  const auto eq_reduced =
      verify::compare_loc_ribs(reduced, mesh, prefixes);

  bench::MetricsSink sink{"ablation_client_reduction", cfg.metrics_out};
  sink.capture("full_set", full);
  sink.capture("reduced", reduced);
  sink.capture("full_mesh", mesh);

  std::printf("# Ablation: §3.4 client storage reduction (%zu prefixes)\n\n",
              cfg.prefixes);
  std::printf("%-22s %18s %24s\n", "client storage", "RIB-In/client",
              "divergence vs full-mesh");
  std::printf("%-22s %18.0f %14zu / %zu\n", "full set (default)",
              client_rib_in(full), eq_full.divergence_count,
              eq_full.compared);
  std::printf("%-22s %18.0f %14zu / %zu\n", "reduced (paper §3.4)",
              client_rib_in(reduced), eq_reduced.divergence_count,
              eq_reduced.compared);
  std::printf("\n# memory saved by the reduction: %.1f%%\n",
              100.0 * (1.0 - client_rib_in(reduced) / client_rib_in(full)));
  std::printf("# divergences appear only on prefixes where the reducing\n");
  std::printf("# client also has its own eBGP routes (MED witnesses lost).\n");
  return 0;
}
