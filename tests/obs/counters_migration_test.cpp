// Transition test for the SpeakerCounters -> registry migration: the
// registry-backed role totals (Testbed::rr_counters/client_counters)
// must equal manual sums over the per-speaker counter views, both raw
// and after a reset_counters() baseline (per-speaker counter_delta
// sums). This pins the label wiring
// (role=rr|client per speaker) to the id-list partition the old
// CounterTotals aggregation path summed over.
#include <gtest/gtest.h>

#include <string>

#include "harness/testbed.h"
#include "obs/metrics.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/workload.h"

namespace abrr {
namespace {

struct Scenario {
  topo::Topology topology;
  trace::Workload workload;
  std::vector<bgp::Ipv4Prefix> prefixes;
};

const Scenario& scenario() {
  static const Scenario* s = [] {
    sim::Rng rng{17};
    topo::TopologyParams tp;
    tp.pops = 2;
    tp.clients_per_pop = 3;
    tp.peer_ases = 3;
    tp.peering_points_per_as = 2;
    auto topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 60;
    auto workload = trace::Workload::generate(wp, topology, rng);
    auto* out = new Scenario{std::move(topology), std::move(workload), {}};
    out->prefixes = out->workload.prefixes();
    return out;
  }();
  return *s;
}

harness::RoleTotals manual_totals(harness::Testbed& bed,
                                  const std::vector<bgp::RouterId>& ids) {
  harness::RoleTotals t;
  for (const auto id : ids) {
    const auto c = bed.speaker(id).counters();
    t.received += c.updates_received;
    t.generated += c.updates_generated;
    t.transmitted += c.updates_transmitted;
    t.wire_bytes += c.wire_bytes_transmitted;
  }
  t.speakers = ids.size();
  return t;
}

harness::RoleTotals manual_deltas(harness::Testbed& bed,
                                  const std::vector<bgp::RouterId>& ids) {
  harness::RoleTotals t;
  for (const auto id : ids) {
    const obs::Labels one{{"speaker", std::to_string(id)}};
    t.received += bed.counter_delta("speaker.updates_received", one);
    t.generated += bed.counter_delta("speaker.updates_generated", one);
    t.transmitted += bed.counter_delta("speaker.updates_transmitted", one);
    t.wire_bytes += bed.counter_delta("speaker.wire_bytes_transmitted", one);
  }
  t.speakers = ids.size();
  return t;
}

void expect_equal(const harness::RoleTotals& a, const harness::RoleTotals& b) {
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.transmitted, b.transmitted);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.speakers, b.speakers);
}

harness::Testbed make_bed(ibgp::IbgpMode mode) {
  const Scenario& s = scenario();
  harness::TestbedConfig o;
  o.mode = mode;
  o.abrr.num_aps = 2;
  o.abrr.arrs_per_ap = 2;
  o.timing.mrai = sim::msec(500);
  o.seed = 5;
  return harness::Testbed{s.topology, o, s.prefixes};
}

void converge(harness::Testbed& bed) {
  const Scenario& s = scenario();
  trace::RouteRegenerator regen{bed.scheduler(), s.workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec(2));
  ASSERT_TRUE(bed.run_to_quiescence());
}

TEST(CountersMigration, RegistryTotalsMatchManualSums) {
  for (const auto mode : {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr}) {
    auto bed = make_bed(mode);
    converge(bed);
    expect_equal(bed.rr_counters(), manual_totals(bed, bed.rr_ids()));
    expect_equal(bed.client_counters(),
                 manual_totals(bed, bed.client_ids()));
    // Totals are non-trivial, not vacuously equal zeros.
    EXPECT_GT(bed.rr_counters().transmitted, 0u);
    EXPECT_GT(bed.client_counters().received, 0u);
  }
}

TEST(CountersMigration, BaselinedTotalsMatchManualDeltaSums) {
  auto bed = make_bed(ibgp::IbgpMode::kAbrr);
  converge(bed);
  bed.reset_counters();
  // Fresh activity after the baseline: a best-path change at a client.
  const auto origin = bed.client_ids().front();
  const auto& entry = scenario().workload.table().front();
  bed.speaker(origin).inject_ebgp(0x9100001,
                                  bgp::RouteBuilder{entry.prefix}
                                      .local_pref(200)
                                      .as_path({64999})
                                      .build());
  ASSERT_TRUE(bed.run_to_quiescence());
  expect_equal(bed.rr_counters(), manual_deltas(bed, bed.rr_ids()));
  expect_equal(bed.client_counters(), manual_deltas(bed, bed.client_ids()));
  EXPECT_GT(bed.rr_counters().received, 0u);
}

TEST(CountersMigration, RegistrySumMatchesPerSpeakerViews) {
  auto bed = make_bed(ibgp::IbgpMode::kAbrr);
  converge(bed);
  std::uint64_t manual = 0;
  for (const auto id : bed.all_ids()) {
    manual += bed.speaker(id).counters().updates_received;
  }
  EXPECT_EQ(bed.metrics().sum_counters("speaker.updates_received"), manual);
  // role=rr + role=client partitions the whole speaker population.
  EXPECT_EQ(
      bed.metrics().sum_counters("speaker.updates_received",
                                 obs::Labels{{"role", "rr"}}) +
          bed.metrics().sum_counters("speaker.updates_received",
                                     obs::Labels{{"role", "client"}}),
      manual);
}

}  // namespace
}  // namespace abrr
