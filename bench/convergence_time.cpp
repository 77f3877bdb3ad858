// §3.5: iBGP convergence time. ABRR shortens the reflected path from
// three iBGP hops (client -> TRR -> TRR -> client) to two
// (client -> ARR -> client), so when the 5-second MRAI timer is armed
// ("warm"), each removed hop removes up to one MRAI round.
//
// Method: after the testbed converges, a priming change arms the MRAI
// timers on the propagation path; 200ms later the measured change is
// injected at one border router, and we record the simulated time until
// every client has switched to the new egress.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "common.h"

namespace {

using namespace abrr;

struct Sample {
  double cold_ms;
  double warm_ms;
};

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::ExperimentConfig::from_args(
      argc, argv, "convergence_time", {.prefixes = 400, .pops = 6});
  auto paper = bench::paper_spec(ibgp::IbgpMode::kAbrr, 8, cfg);
  paper.workload.snapshot_seconds = 20.0;

  std::printf("# §3.5: event-to-convergence time (MRAI = 5s on iBGP)\n");
  std::printf("# prefixes=%zu clients=%u events=20 per scheme\n\n",
              cfg.prefixes,
              paper.topology.pops * paper.topology.clients_per_pop);
  std::printf("%-10s %12s %12s %12s %12s\n", "scheme", "cold-p50/ms",
              "cold-p95/ms", "warm-p50/ms", "warm-p95/ms");

  bench::MetricsSink sink{"convergence_time", cfg.metrics_out};
  const auto measure = [&](ibgp::IbgpMode mode, const char* label) {
    auto spec = paper;
    spec.mode = mode;
    const runner::World world = runner::build_world(spec, cfg.seed);
    harness::Testbed* bed = world.bed.get();
    const trace::Workload& workload = world.workload();
    if (!runner::converge(*bed, sim::sec_f(spec.workload.snapshot_seconds))) {
      std::printf("%-10s DID NOT CONVERGE\n", label);
      return;
    }

    // An unbeatable route (high local-pref) injected at `origin` must
    // reach every client; convergence = all clients hold exactly it.
    const auto all_converged = [&](const bgp::Ipv4Prefix& p,
                                   bgp::RouterId egress,
                                   std::uint32_t local_pref) {
      for (const auto id : bed->client_ids()) {
        const auto* best = bed->speaker(id).loc_rib().best(p);
        if (best == nullptr || best->egress() != egress ||
            best->attrs->local_pref != local_pref) {
          return false;
        }
      }
      return true;
    };

    sim::Rng pick{cfg.seed + 7};

    const auto measure_one = [&](int event) {
      const auto& entry =
          workload.table()[pick.index(workload.table().size())];
      const auto origin_id =
          bed->client_ids()[pick.index(bed->client_ids().size())];
      auto& origin = bed->speaker(origin_id);
      const sim::Time start = bed->scheduler().now();
      origin.inject_ebgp(0x9000000 + event,
                         bgp::RouteBuilder{entry.prefix}
                             .local_pref(200)
                             .as_path({64999})
                             .build());
      sim::Time end = start;
      while (!all_converged(entry.prefix, origin_id, 200)) {
        if (!bed->scheduler().has_pending()) break;
        bed->run_until(bed->scheduler().now() + sim::msec(20));
        end = bed->scheduler().now();
        if (end - start > sim::sec(60)) break;  // stuck guard
      }
      const double ms = sim::to_seconds(end - start) * 1000.0;
      // Clean up: withdraw the synthetic route again.
      origin.withdraw_ebgp(0x9000000 + event, entry.prefix);
      bed->run_until(bed->scheduler().now() + sim::sec(12));
      return ms;
    };

    // Cold: the network is quiet, every MRAI timer idle -- updates fly
    // through with only propagation + processing delay per hop.
    std::vector<double> cold, warm;
    for (int event = 0; event < 10; ++event) {
      cold.push_back(measure_one(event));
      bed->run_to_quiescence(500'000'000);
    }

    // Warm: continuous background churn (flapping synthetic prefixes at
    // random border routers) keeps session MRAI timers armed at
    // uncorrelated phases -- the busy-network regime -- so each
    // reflected hop waits out a residual MRAI interval.
    constexpr std::size_t kChurnSlots = 64;
    std::vector<bgp::RouterId> churn_origin(kChurnSlots, bgp::kNoRouter);
    std::vector<bgp::Ipv4Prefix> churn_prefixes;
    for (std::size_t s = 0; s < kChurnSlots; ++s) {
      // Spread across the whole address space so every AP's sessions
      // carry churn.
      churn_prefixes.push_back(bgp::Ipv4Prefix{
          static_cast<bgp::Ipv4Addr>(s << 26) | 0x00010000u, 24});
    }
    bool churn_on = true;
    std::function<void()> churn = [&] {
      if (!churn_on) return;
      const std::size_t s = pick.index(kChurnSlots);
      if (churn_origin[s] == bgp::kNoRouter) {
        const auto id =
            bed->client_ids()[pick.index(bed->client_ids().size())];
        churn_origin[s] = id;
        bed->speaker(id).inject_ebgp(
            0x91000000 + static_cast<bgp::RouterId>(s),
            bgp::RouteBuilder{churn_prefixes[s]}
                .local_pref(80)
                .as_path({64990, 64991})
                .build());
      } else {
        bed->speaker(churn_origin[s])
            .withdraw_ebgp(0x91000000 + static_cast<bgp::RouterId>(s),
                           churn_prefixes[s]);
        churn_origin[s] = bgp::kNoRouter;
      }
      bed->scheduler().schedule_after(sim::msec(60), churn);
    };
    bed->scheduler().schedule_after(0, churn);
    bed->run_until(bed->scheduler().now() + sim::sec(15));  // randomize phases
    for (int event = 10; event < 20; ++event) {
      warm.push_back(measure_one(event));
    }
    churn_on = false;
    bed->run_to_quiescence(500'000'000);
    sink.capture(label, *bed);
    std::printf("%-10s %12.0f %12.0f %12.0f %12.0f\n", label,
                percentile(cold, 0.5), percentile(cold, 0.95),
                percentile(warm, 0.5), percentile(warm, 0.95));
  };

  measure(ibgp::IbgpMode::kFullMesh, "full-mesh");
  measure(ibgp::IbgpMode::kAbrr, "ABRR");
  measure(ibgp::IbgpMode::kTbrr, "TBRR");
  std::printf("\n# expectation: warm TBRR pays up to one extra MRAI round\n");
  std::printf("# (3 iBGP hops vs ABRR's 2); cold paths differ only by\n");
  std::printf("# per-hop processing and propagation delay.\n");
  return 0;
}
