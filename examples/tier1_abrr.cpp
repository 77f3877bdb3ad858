// Tier-1 scenario: the deployment the paper's introduction motivates.
//
// Synthesizes a 13-PoP Tier-1 AS (peering routers, 25 peer ASes at ~8
// peering points each), generates a calibrated RIB snapshot, and runs
// the same network twice: full-mesh iBGP (the gold standard that does
// not scale) and ABRR with 8 Address Partitions. It then demonstrates
// the paper's three headline properties:
//   1. ABRR selects exactly the routes full-mesh would select,
//   2. forwarding is loop-free and hot-potato optimal,
//   3. each ARR holds a small slice of the full-mesh state.
//
//   $ ./tier1_abrr [--prefixes=N]
#include <cstdio>

#include "runner/arg_parser.h"
#include "runner/trial.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

using namespace abrr;

int main(int argc, char** argv) {
  // One spec for both beds: the §4 topology with a steeper gateway-PoP
  // skew (Zipf 1.0), default timing and 8 APs; seed 7.
  runner::ScenarioSpec spec;
  spec.topology.peering_skew = 1.0;
  spec.workload.prefixes = 2000;
  spec.workload.snapshot_seconds = 20;
  constexpr std::uint64_t kSeed = 7;

  runner::ArgParser parser{"tier1_abrr"};
  parser.add("prefixes", "peer prefixes in the synthetic RIB",
             &spec.workload.prefixes);
  parser.parse(argc, argv);
  if (spec.workload.prefixes == 0) {
    std::fprintf(stderr, "tier1_abrr: --prefixes must be >= 1\n");
    return 2;
  }

  const sim::Time snapshot_end = sim::sec_f(spec.workload.snapshot_seconds);
  const auto world = [&](ibgp::IbgpMode mode) {
    spec.mode = mode;
    return runner::build_world(spec, kSeed);
  };

  const auto mesh_world = world(ibgp::IbgpMode::kFullMesh);
  harness::Testbed& mesh = *mesh_world.bed;
  const auto& workload = mesh_world.workload();
  const auto prefixes = workload.prefixes();
  std::printf("Tier-1 AS: %zu routers, %zu eBGP peering points, %zu"
              " prefixes\n\n",
              mesh.topology().clients.size(),
              mesh.topology().peering_points.size(),
              spec.workload.prefixes);

  std::printf("loading the snapshot under full-mesh iBGP...\n");
  if (!runner::converge(mesh, snapshot_end)) {
    std::printf("  full mesh did not converge\n");
    return 1;
  }
  std::printf("  %zu iBGP sessions, converged at t=%.1fs\n\n",
              mesh.session_count(), sim::to_seconds(mesh.scheduler().now()));

  std::printf("loading the same snapshot under ABRR (8 APs x 2 ARRs)...\n");
  const auto abrr_world = world(ibgp::IbgpMode::kAbrr);
  harness::Testbed& abrr = *abrr_world.bed;
  if (!runner::converge(abrr, snapshot_end)) {
    std::printf("  ABRR did not converge\n");
    return 1;
  }
  std::printf("  %zu iBGP sessions, converged at t=%.1fs\n\n",
              abrr.session_count(), sim::to_seconds(abrr.scheduler().now()));

  // 1. Full-mesh equivalence.
  const auto eq = verify::compare_loc_ribs(abrr, mesh, prefixes);
  std::printf("[1] route selection: %zu (router, prefix) pairs compared, "
              "%zu diverged %s\n",
              eq.compared, eq.divergence_count,
              eq.equivalent() ? "- exact full-mesh emulation" : "(!)");

  // 2. Data-plane health.
  verify::ForwardingChecker checker{abrr};
  const auto audit = checker.audit(prefixes);
  const auto eff = verify::audit_efficiency(abrr, workload);
  std::printf("[2] forwarding: %zu walks, %zu delivered, %zu loops; "
              "%zu hot-potato violations\n",
              audit.checked, audit.delivered, audit.loops,
              eff.inefficient);

  // 3. State per reflector.
  const auto mesh_state =
      mesh.speaker(mesh.client_ids().front()).rib_in_size();
  const auto arr = abrr.rr_rib_in();
  std::printf("[3] state: a full-mesh router holds %zu Adj-RIB-In routes;"
              " an ARR holds %.0f on average (min %.0f / max %.0f)\n",
              mesh_state, arr.avg, arr.min, arr.max);

  std::printf("\nABRR placement freedom: the 16 ARRs were attached to\n");
  std::printf("random PoPs; none of the three results above depends on\n");
  std::printf("where they sit (S2.3.3 of the paper).\n");
  return 0;
}
