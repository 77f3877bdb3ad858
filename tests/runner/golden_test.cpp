// Golden outputs: pins the exact results of small paper-shaped trials.
//
// The determinism tests prove that a trial's output does not depend on
// worker count or submission order; they cannot notice a change that
// alters every run the same way. This table can: it records, for ABRR,
// TBRR and full-mesh at two seeds each, the RIB fingerprint, the number
// of simulator events, the iBGP update counts and both byte counts. A
// hot-path change that keeps behaviour must reproduce every value.
//
// The values were recorded before the allocation-free UPDATE path
// (moved payloads, reused buffers, stored attribute sizes) replaced the
// copying one. If a deliberate behaviour change moves them, the failure
// message prints the new row to paste in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "runner/trial.h"

namespace abrr::runner {
namespace {

/// The §4 shape at a fraction of its size: 4 PoPs x 3 clients, 6 peer
/// ASes x 3 points, 150 prefixes, a 10 s snapshot load and a 10 s
/// update trace (which exercises MRAI batching).
ScenarioSpec small_paper(ibgp::IbgpMode mode) {
  ScenarioSpec spec = ScenarioSpec::paper(mode, /*num_aps=*/4, /*seed=*/0);
  spec.name = std::string{"golden/"} + mode_name(mode);
  spec.topology.pops = 4;
  spec.topology.clients_per_pop = 3;
  spec.topology.peer_ases = 6;
  spec.topology.points_per_as = 3;
  spec.workload.prefixes = 150;
  spec.workload.snapshot_seconds = 10.0;
  spec.workload.trace_seconds = 10.0;
  spec.seeds = {3, 4};
  return spec;
}

/// Sum of one counter in an aggregated MetricsRegistry::to_json dump.
std::uint64_t counter(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\",\"value\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(json.substr(at + key.size()));
}

struct Golden {
  std::string scenario;
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t sched_events;
  std::uint64_t updates_received;
  std::uint64_t updates_transmitted;
  std::uint64_t net_bytes;
  std::uint64_t net_modeled_bytes;
};

Golden observe(const TrialResult& r) {
  return Golden{r.scenario,
                r.seed,
                r.fingerprint,
                r.sched_events,
                counter(r.metrics_json, "speaker.updates_received"),
                counter(r.metrics_json, "speaker.updates_transmitted"),
                counter(r.metrics_json, "net.bytes"),
                counter(r.metrics_json, "net.modeled_bytes")};
}

std::string row(const Golden& g) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %llu, 0x%016llxULL, %llu, %llu, %llu, %llu, %llu},",
                g.scenario.c_str(), static_cast<unsigned long long>(g.seed),
                static_cast<unsigned long long>(g.fingerprint),
                static_cast<unsigned long long>(g.sched_events),
                static_cast<unsigned long long>(g.updates_received),
                static_cast<unsigned long long>(g.updates_transmitted),
                static_cast<unsigned long long>(g.net_bytes),
                static_cast<unsigned long long>(g.net_modeled_bytes));
  return buf;
}

// clang-format off
const Golden kGolden[] = {
    {"golden/abrr", 3, 0x8432a9ed21b8e1b3ULL, 16795, 12699, 12699, 1494538, 1324161},
    {"golden/abrr", 4, 0x58d60f67f428f795ULL, 16920, 12713, 12713, 1670052, 1478943},
    {"golden/tbrr", 3, 0xffcf51221c608ac6ULL, 21397, 18245, 18245, 1356065, 1262414},
    {"golden/tbrr", 4, 0xeb9b3fba06ea3a74ULL, 19768, 16595, 16595, 1274394, 1196646},
    {"golden/fullmesh", 3, 0x33679af22bd83a1dULL, 18280, 15400, 15400, 905652, 804012},
    {"golden/fullmesh", 4, 0xef79e85c0244d671ULL, 11159, 8217, 8217, 507826, 460999},
};
// clang-format on

TEST(GoldenOutputs, SmallPaperTrialsMatchRecordedValues) {
  std::vector<ScenarioSpec> specs;
  for (const auto mode : {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr,
                          ibgp::IbgpMode::kFullMesh}) {
    specs.push_back(small_paper(mode));
  }
  const std::vector<TrialResult> results =
      ExperimentRunner{{.jobs = 1}}.run(specs);

  std::string table;
  for (const TrialResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.scenario << ": " << r.error;
    EXPECT_TRUE(r.converged) << r.scenario << " seed " << r.seed;
    table += "    " + row(observe(r)) + "\n";
  }
  ASSERT_EQ(results.size(), std::size(kGolden)) << "observed rows:\n"
                                                << table;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Golden got = observe(results[i]);
    const Golden& want = kGolden[i];
    SCOPED_TRACE(want.scenario + " seed " + std::to_string(want.seed));
    EXPECT_EQ(got.scenario, want.scenario);
    EXPECT_EQ(got.seed, want.seed);
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.sched_events, want.sched_events);
    EXPECT_EQ(got.updates_received, want.updates_received);
    EXPECT_EQ(got.updates_transmitted, want.updates_transmitted);
    EXPECT_EQ(got.net_bytes, want.net_bytes);
    EXPECT_EQ(got.net_modeled_bytes, want.net_modeled_bytes);
  }
  if (HasFailure()) ADD_FAILURE() << "observed rows:\n" << table;
}

}  // namespace
}  // namespace abrr::runner
