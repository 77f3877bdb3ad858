// The runner's central guarantee: the serialized TrialResults are
// byte-identical no matter how many workers execute the batch or in
// which order specs are submitted. Exercises all four iBGP modes, with
// and without fault episodes and observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "runner/runner.h"

namespace abrr::runner {
namespace {

/// A deliberately tiny bed so the matrix stays fast: 3 PoPs, 2 clients
/// each, 48 prefixes, short snapshot.
ScenarioSpec tiny(ibgp::IbgpMode mode) {
  ScenarioSpec spec;
  spec.name = mode_name(mode);
  spec.mode = mode;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 48;
  spec.workload.snapshot_seconds = 5.0;
  spec.abrr.num_aps = 2;
  spec.seeds = {11, 12};
  return spec;
}

std::vector<ScenarioSpec> all_modes() {
  std::vector<ScenarioSpec> specs;
  for (const auto mode :
       {ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr,
        ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kDual}) {
    specs.push_back(tiny(mode));
  }
  return specs;
}

std::vector<std::string> serialized(const std::vector<TrialResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const TrialResult& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.scenario << ": " << r.error;
    out.push_back(r.serialize());
  }
  return out;
}

/// Key -> canonical bytes, for order-independent comparison.
std::map<std::string, std::string> keyed(
    const std::vector<TrialResult>& results) {
  std::map<std::string, std::string> out;
  for (const TrialResult& r : results) {
    out[r.scenario + "#" + std::to_string(r.seed)] = r.serialize();
  }
  return out;
}

TEST(RunnerDeterminism, JobsOneEqualsJobsFourAllModes) {
  const auto specs = all_modes();
  const auto r1 = ExperimentRunner{{.jobs = 1}}.run(specs);
  const auto r4 = ExperimentRunner{{.jobs = 4}}.run(specs);
  ASSERT_EQ(r1.size(), 8u);  // 4 modes x 2 seeds
  EXPECT_EQ(serialized(r1), serialized(r4));
}

TEST(RunnerDeterminism, ShuffledSubmissionSameResults) {
  auto specs = all_modes();
  const auto baseline = keyed(ExperimentRunner{{.jobs = 1}}.run(specs));
  std::reverse(specs.begin(), specs.end());
  std::swap(specs[0], specs[2]);
  const auto shuffled = keyed(ExperimentRunner{{.jobs = 4}}.run(specs));
  EXPECT_EQ(baseline, shuffled);
}

TEST(RunnerDeterminism, WithObservability) {
  std::vector<ScenarioSpec> specs;
  for (const auto mode : {ibgp::IbgpMode::kTbrr, ibgp::IbgpMode::kAbrr}) {
    auto spec = tiny(mode);
    spec.obs.enabled = true;
    spec.obs.sample_period = sim::msec(500);
    specs.push_back(std::move(spec));
  }
  const auto r1 = ExperimentRunner{{.jobs = 1}}.run(specs);
  const auto r4 = ExperimentRunner{{.jobs = 4}}.run(specs);
  EXPECT_EQ(serialized(r1), serialized(r4));
}

TEST(RunnerDeterminism, WithFaultEpisodes) {
  std::vector<ScenarioSpec> specs;
  for (const auto mode :
       {ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr,
        ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kDual}) {
    auto spec = tiny(mode);
    spec.seeds = {11};
    spec.fault.enabled = true;
    spec.fault.hold_time = sim::sec(1);
    spec.fault.outage = sim::sec(3);
    spec.fault.verify_fullmesh = false;
    // full-mesh has no reflector to crash; take a border router there
    spec.fault.scenario = mode == ibgp::IbgpMode::kFullMesh
                              ? harness::FaultOptions::Scenario::kBorderCrash
                              : harness::FaultOptions::Scenario::kRrCrash;
    specs.push_back(std::move(spec));
  }
  const auto r1 = ExperimentRunner{{.jobs = 1}}.run(specs);
  const auto r4 = ExperimentRunner{{.jobs = 4}}.run(specs);
  for (const auto& r : r1) {
    EXPECT_TRUE(r.fault_ran) << r.scenario;
  }
  EXPECT_EQ(serialized(r1), serialized(r4));
}

TEST(RunnerDeterminism, WallClockIsExcludedFromSerialization) {
  auto spec = tiny(ibgp::IbgpMode::kAbrr);
  spec.seeds = {11};
  const std::vector<ScenarioSpec> specs{spec};
  auto results = ExperimentRunner{{.jobs = 1}}.run(specs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].wall_ms, 0.0);
  const std::string a = results[0].serialize();
  results[0].wall_ms = 12345.0;
  EXPECT_EQ(a, results[0].serialize());
}

TEST(Runner, InvalidSpecRefusedUpFront) {
  auto bad = tiny(ibgp::IbgpMode::kAbrr);
  bad.abrr.arrs_per_ap = 0;
  const std::vector<ScenarioSpec> specs{bad};
  try {
    ExperimentRunner{{.jobs = 1}}.run(specs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("abrr.arrs_per_ap"),
              std::string::npos);
  }
}

TEST(Runner, SweepRunsCrossProduct) {
  auto base = tiny(ibgp::IbgpMode::kAbrr);
  base.name = "mini";
  SweepAxes axes;
  axes.modes = {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr};
  axes.seeds = {11, 12};
  const auto results = ExperimentRunner{{.jobs = 2}}.run_sweep(base, axes);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].scenario, "mini/abrr/ap2/seed11");
  EXPECT_EQ(results[3].scenario, "mini/tbrr/seed12");
  for (const auto& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.converged) << r.scenario;
  }
}

}  // namespace
}  // namespace abrr::runner
