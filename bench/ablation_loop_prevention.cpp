// Ablation: loop-prevention machinery (§2.3.2).
//
// TBRR uses the RFC 4456 ORIGINATOR_ID + CLUSTER_LIST, whose wire cost
// grows with every reflection hop. ABRR needs only a single "reflected"
// bit (an extended community) because an ARR must never re-reflect:
// the paper calls Cluster List / Originator ID "overkill" for ABRR.
// This bench measures (a) per-route attribute overhead on reflected
// routes in both schemes and (b) that the single bit actually breaks
// the §2.3.2 misconfiguration loop (three routers all believing they
// are the ARR).
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  using namespace abrr;
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "ablation_loop_prevention", {.prefixes = 800});
  auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);
  paper.workload.snapshot_seconds = 20.0;

  std::printf("# Ablation: loop-prevention attribute overhead\n\n");

  struct Stats {
    double bytes = 0;
    double routes = 0;
    double cluster_hops = 0;
    double with_originator = 0;
    double with_bit = 0;
  };
  bench::MetricsSink sink{"ablation_loop_prevention", cfg.metrics_out};
  const auto measure = [&](ibgp::IbgpMode mode) {
    auto spec = paper;
    spec.mode = mode;
    const runner::World world = runner::build_world(spec, cfg.seed);
    harness::Testbed& bed = *world.bed;
    runner::converge(bed, sim::sec_f(spec.workload.snapshot_seconds));
    Stats s;
    for (const auto id : bed.client_ids()) {
      bed.speaker(id).adj_rib_in().for_each([&](const bgp::Route& r) {
        if (r.via != bgp::LearnedVia::kIbgp) return;
        s.routes += 1;
        // Attribute bytes attributable to loop prevention.
        s.cluster_hops += static_cast<double>(r.attrs->cluster_list().size());
        s.with_originator += r.attrs->originator_id() ? 1 : 0;
        s.with_bit +=
            r.attrs->has_ext_community(bgp::kAbrrReflectedCommunity) ? 1 : 0;
        s.bytes += 4.0 * static_cast<double>(r.attrs->cluster_list().size()) +
                   (r.attrs->originator_id() ? 4.0 : 0.0) +
                   (r.attrs->has_ext_community(bgp::kAbrrReflectedCommunity)
                        ? 8.0
                        : 0.0);
      });
    }
    sink.capture(mode == ibgp::IbgpMode::kAbrr ? "ABRR" : "TBRR", bed);
    return s;
  };

  const Stats tbrr = measure(ibgp::IbgpMode::kTbrr);
  const Stats abrr = measure(ibgp::IbgpMode::kAbrr);

  std::printf("%-8s %16s %16s %16s %14s\n", "scheme", "loop-prev B/route",
              "cluster hops/rt", "originator %", "refl-bit %");
  std::printf("%-8s %16.2f %16.2f %16.1f %14.1f\n", "TBRR",
              tbrr.bytes / tbrr.routes, tbrr.cluster_hops / tbrr.routes,
              100.0 * tbrr.with_originator / tbrr.routes,
              100.0 * tbrr.with_bit / tbrr.routes);
  std::printf("%-8s %16.2f %16.2f %16.1f %14.1f\n", "ABRR",
              abrr.bytes / abrr.routes, abrr.cluster_hops / abrr.routes,
              100.0 * abrr.with_originator / abrr.routes,
              100.0 * abrr.with_bit / abrr.routes);

  std::printf("\n# ABRR pays a flat 8-byte extended community (+4B\n");
  std::printf("# originator, kept for diagnostics) per reflected route;\n");
  std::printf("# TBRR pays 4 bytes per reflection hop plus originator,\n");
  std::printf("# and the cluster list grows with the topology depth.\n");
  std::printf("# The bit is sufficient because ARRs never re-reflect;\n");
  std::printf("# bench/anomaly_gadgets demonstrates it breaking the\n");
  std::printf("# three-way misconfiguration loop of §2.3.2.\n");
  return 0;
}
