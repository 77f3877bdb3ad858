// End-to-end determinism of the observability stack under a seeded
// chaos drill: two same-seed runs must serialize bit-identical
// artifacts (metrics JSON, gauge CSV, chrome trace), and turning
// observability ON must not perturb the simulation itself (identical
// RIB fingerprints with obs on and off).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/injector.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "harness/testbed.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/workload.h"

namespace abrr {
namespace {

struct Drill {
  std::unique_ptr<harness::Testbed> bed;
  std::string metrics_json;
  std::string series_csv;
  std::string trace_json;
};

Drill run_drill(bool obs_enabled) {
  sim::Rng rng{23};
  topo::TopologyParams tp;
  tp.pops = 2;
  tp.clients_per_pop = 2;
  tp.peer_ases = 3;
  tp.peering_points_per_as = 2;
  const auto topology = topo::make_tier1(tp, rng);
  trace::WorkloadParams wp;
  wp.prefixes = 40;
  const auto workload = trace::Workload::generate(wp, topology, rng);
  const auto prefixes = workload.prefixes();

  harness::TestbedConfig o;
  o.mode = ibgp::IbgpMode::kAbrr;
  o.abrr.num_aps = 2;
  o.abrr.arrs_per_ap = 2;
  o.timing.mrai = sim::msec(500);
  o.seed = 5;
  o.timing.hold_time = sim::sec(2);
  o.obs.enabled = obs_enabled;
  o.obs.sample_period = sim::msec(250);

  Drill d;
  d.bed = std::make_unique<harness::Testbed>(topology, o, prefixes);
  trace::RouteRegenerator regen{d.bed->scheduler(), workload,
                                d.bed->inject_fn()};
  regen.load_snapshot(0, sim::sec(2));
  d.bed->run_until(sim::sec(10));

  fault::ChaosParams chaos;
  chaos.events = 6;
  chaos.start = d.bed->scheduler().now() + sim::sec(1);
  chaos.horizon = d.bed->scheduler().now() + sim::sec(15);
  sim::Rng chaos_rng{99};
  const auto sessions = d.bed->network().sessions();
  const auto schedule = fault::FaultSchedule::chaos(
      chaos, d.bed->all_ids(), sessions, chaos_rng);
  fault::FaultInjector injector{*d.bed, schedule};
  injector.set_resync(fault::make_workload_resync(*d.bed, regen));
  injector.arm();
  d.bed->run_until(chaos.horizon + sim::sec(20));

  if (obs_enabled) {
    d.metrics_json = d.bed->metrics().to_json(/*aggregate=*/false);
    d.series_csv = d.bed->sampler()->to_csv();
    d.trace_json = d.bed->tracer()->to_chrome_json();
  }
  return d;
}

TEST(DrillDeterminism, SameSeedYieldsBitIdenticalArtifacts) {
  const Drill a = run_drill(/*obs_enabled=*/true);
  const Drill b = run_drill(/*obs_enabled=*/true);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.series_csv, b.series_csv);
  EXPECT_EQ(a.trace_json, b.trace_json);
  // The drill actually exercised the stack.
  EXPECT_GT(a.bed->tracer()->recorded(), 0u);
  EXPECT_GT(a.bed->sampler()->rows(), 10u);
  EXPECT_GE(a.bed->metrics().name_count(), 12u);
}

TEST(DrillDeterminism, ObservabilityDoesNotPerturbTheSimulation) {
  const Drill on = run_drill(/*obs_enabled=*/true);
  const Drill off = run_drill(/*obs_enabled=*/false);
  EXPECT_EQ(fault::rib_fingerprint(*on.bed), fault::rib_fingerprint(*off.bed));
  EXPECT_EQ(on.bed->scheduler().now(), off.bed->scheduler().now());
  // Registry counters run either way (they are plain arithmetic); the
  // event-driven machinery exists only when enabled.
  EXPECT_EQ(off.bed->tracer(), nullptr);
  EXPECT_EQ(off.bed->sampler(), nullptr);
  for (const char* name :
       {"speaker.updates_received", "speaker.updates_transmitted",
        "speaker.wire_bytes_transmitted", "net.messages", "net.dropped"}) {
    EXPECT_EQ(on.bed->metrics().sum_counters(name),
              off.bed->metrics().sum_counters(name))
        << name;
  }
}

}  // namespace
}  // namespace abrr
