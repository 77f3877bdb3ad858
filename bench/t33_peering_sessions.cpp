// §3.3-§3.4: iBGP peering-session requirements per role, analytical
// model at the paper's full scale plus the same quantities measured on
// the scaled testbed (model and measurement must agree exactly — the
// wiring is deterministic).
//
// Paper anchors: busiest TRR ~200 sessions (average ~100); an ARR needs
// >1000 (every router); ABRR clients 20-30 sessions at 10-15 APs vs 2
// for TBRR clients; full mesh needs ~n^2/2 total.
#include <algorithm>
#include <cstdio>

#include "analysis/session_model.h"
#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(argc, argv, "t33_peering_sessions");

  std::printf("# §3.3: analytical session counts at the paper's scale\n");
  std::printf("# (2000 routers; sweeping #APs/clusters, 2 RRs each)\n\n");
  std::printf("%-8s %14s %14s %16s %16s\n", "#APs", "ARR sessions",
              "TRR sessions", "ABRR client", "TBRR client");
  for (const double aps : {10, 15, 27, 50, 100}) {
    analysis::SessionParams p;
    p.routers = 2000;
    p.aps = aps;
    std::printf("%-8.0f %14.0f %14.0f %16.0f %16.0f\n", aps,
                analysis::SessionModel::arr_sessions(p),
                analysis::SessionModel::trr_sessions(p),
                analysis::SessionModel::abrr_client_sessions(p),
                analysis::SessionModel::tbrr_client_sessions(p));
  }
  {
    analysis::SessionParams p;
    p.routers = 2000;
    p.aps = 50;
    std::printf("\n# total sessions at 50 APs/clusters: full-mesh %.0f,"
                " TBRR %.0f, ABRR %.0f\n",
                analysis::SessionModel::full_mesh_total(p),
                analysis::SessionModel::tbrr_total(p),
                analysis::SessionModel::abrr_total(p));
  }

  // Measured on the scaled testbed: each bed is built (its snapshot
  // load scheduled, never run) and its sessions counted.
  const auto world = [&](ibgp::IbgpMode mode, std::size_t aps) {
    return runner::build_world(bench::paper_spec(mode, aps, cfg), cfg.seed);
  };
  bench::MetricsSink sink{"t33_peering_sessions", cfg.metrics_out};
  const auto measure = [&](const harness::Testbed& bed, const char* label) {
    std::size_t rr_max = 0;
    double rr_sum = 0;
    for (const auto id : bed.rr_ids()) {
      const auto n = bed.speaker(id).peer_count();
      rr_max = std::max(rr_max, n);
      rr_sum += static_cast<double>(n);
    }
    double cl_sum = 0;
    for (const auto id : bed.client_ids()) {
      cl_sum += static_cast<double>(bed.speaker(id).peer_count());
    }
    const double rr_avg =
        bed.rr_ids().empty()
            ? 0.0
            : rr_sum / static_cast<double>(bed.rr_ids().size());
    std::printf("#   %-10s RR avg %.0f / max %zu sessions; client avg "
                "%.1f; AS total %zu\n",
                label, rr_avg, rr_max,
                cl_sum / static_cast<double>(bed.client_ids().size()),
                bed.session_count());
    sink.capture(label, bed);
  };
  const auto abrr = world(ibgp::IbgpMode::kAbrr, 8);
  std::printf("\n# measured on the %zu-router testbed (8 APs / %u"
              " clusters):\n",
              abrr.bed->topology().clients.size(), cfg.pops);
  measure(*abrr.bed, "ABRR");
  measure(*world(ibgp::IbgpMode::kTbrr, cfg.pops).bed, "TBRR");
  measure(*world(ibgp::IbgpMode::kFullMesh, 0).bed, "full-mesh");
  return 0;
}
