// Shared scenario for the fault-injection tests: one small Tier-1
// topology + workload (built once), helpers to spin up testbeds in any
// iBGP mode, and a converged full-mesh baseline to verify against.
#pragma once

#include <memory>
#include <vector>

#include "harness/testbed.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/workload.h"

namespace abrr::fault::testing {

struct Scenario {
  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

inline const Scenario& scenario() {
  static const Scenario* s = [] {
    sim::Rng rng{31};
    topo::TopologyParams tp;
    tp.pops = 2;
    tp.clients_per_pop = 2;
    tp.peer_ases = 3;
    tp.peering_points_per_as = 2;
    auto topology = topo::make_tier1(tp, rng);

    trace::WorkloadParams wp;
    wp.prefixes = 48;
    auto workload = trace::Workload::generate(wp, topology, rng);

    auto* out = new Scenario{std::move(topology), std::move(workload), {}};
    out->prefixes = out->workload.prefixes();
    return out;
  }();
  return *s;
}

/// A testbed + its regenerator, with the initial snapshot loaded and
/// converged. hold_time > 0 arms failure detection (and keeps the event
/// queue alive, so such beds must advance with run_until, never
/// run_to_quiescence).
struct Bed {
  std::unique_ptr<harness::Testbed> bed;
  std::unique_ptr<trace::RouteRegenerator> regen;

  harness::Testbed& operator*() { return *bed; }
  harness::Testbed* operator->() { return bed.get(); }
};

inline Bed make_bed(ibgp::IbgpMode mode, sim::Time hold_time) {
  const Scenario& s = scenario();
  harness::TestbedConfig o;
  o.mode = mode;
  o.abrr.num_aps = 2;
  o.abrr.arrs_per_ap = 2;
  o.timing.mrai = sim::msec(500);
  o.seed = 5;
  o.timing.hold_time = hold_time;

  Bed out;
  out.bed = std::make_unique<harness::Testbed>(s.topology, o, s.prefixes);
  out.regen = std::make_unique<trace::RouteRegenerator>(
      out.bed->scheduler(), s.workload, out.bed->inject_fn());
  out.regen->load_snapshot(0, sim::sec(2));
  if (hold_time > 0) {
    out.bed->run_until(sim::sec(10));
  } else {
    out.bed->run_to_quiescence();
  }
  return out;
}

/// The untouched full-mesh reference (no timers, fully quiesced).
inline Bed make_baseline() {
  return make_bed(ibgp::IbgpMode::kFullMesh, /*hold_time=*/0);
}

}  // namespace abrr::fault::testing
