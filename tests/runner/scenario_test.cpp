// ScenarioSpec validation + sweep expansion.
#include "runner/scenario.h"
#include "runner/trial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

namespace abrr::runner {
namespace {

bool has_error(const std::vector<ValidationError>& errors,
               const std::string& field) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const ValidationError& e) {
                       return e.field == field;
                     });
}

TEST(ScenarioSpec, DefaultsAreValid) {
  EXPECT_TRUE(ScenarioSpec{}.validate().empty());
  EXPECT_TRUE(ScenarioSpec::paper(ibgp::IbgpMode::kAbrr, 8, 42)
                  .validate()
                  .empty());
}

TEST(ScenarioSpec, RejectsZeroArrsPerAp) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.abrr.arrs_per_ap = 0;
  EXPECT_TRUE(has_error(spec.validate(), "abrr.arrs_per_ap"));
}

TEST(ScenarioSpec, RejectsMultipathOutsideTbrr) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kFullMesh;
  spec.multipath = true;
  EXPECT_TRUE(has_error(spec.validate(), "multipath"));

  spec.mode = ibgp::IbgpMode::kAbrr;
  EXPECT_TRUE(has_error(spec.validate(), "multipath"));

  spec.mode = ibgp::IbgpMode::kTbrr;
  EXPECT_TRUE(spec.validate().empty());
  spec.mode = ibgp::IbgpMode::kDual;
  EXPECT_TRUE(spec.validate().empty());
}

TEST(ScenarioSpec, RejectsBalancedApsWithoutPrefixes) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.abrr.balanced_aps = true;
  spec.workload.prefixes = 0;
  const auto errors = spec.validate();
  EXPECT_TRUE(has_error(errors, "abrr.balanced_aps"));
  EXPECT_TRUE(has_error(errors, "workload.prefixes"));
}

TEST(ScenarioSpec, RejectsAbrrKnobsOnNonAbrrModes) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kTbrr;
  spec.abrr.balanced_aps = true;
  spec.abrr.force_client_reduction = true;
  const auto errors = spec.validate();
  EXPECT_TRUE(has_error(errors, "abrr.balanced_aps"));
  EXPECT_TRUE(has_error(errors, "abrr.force_client_reduction"));
}

TEST(ScenarioSpec, RejectsEmptySeedsAndName) {
  ScenarioSpec spec;
  spec.name.clear();
  spec.seeds.clear();
  const auto errors = spec.validate();
  EXPECT_TRUE(has_error(errors, "name"));
  EXPECT_TRUE(has_error(errors, "seeds"));
}

TEST(ScenarioSpec, RejectsFaultNonsense) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kFullMesh;
  spec.fault.enabled = true;
  spec.fault.hold_time = 0;
  spec.fault.scenario = harness::FaultOptions::Scenario::kRrCrash;
  const auto errors = spec.validate();
  EXPECT_TRUE(has_error(errors, "fault.hold_time"));
  EXPECT_TRUE(has_error(errors, "fault.scenario"));  // no RR to crash
}

TEST(ScenarioSpec, RendersStructuredErrors) {
  ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.abrr.arrs_per_ap = 0;
  const std::string rendered = render_errors(spec.validate());
  EXPECT_NE(rendered.find("abrr.arrs_per_ap"), std::string::npos);
}

TEST(ScenarioSpec, ModeNamesRoundTrip) {
  for (const auto mode :
       {ibgp::IbgpMode::kFullMesh, ibgp::IbgpMode::kTbrr,
        ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kDual}) {
    const auto parsed = parse_mode(mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_mode("rrabr").has_value());
}

TEST(ScenarioSweep, CrossProductInDeclaredOrder) {
  ScenarioSpec base;
  base.name = "base";
  SweepAxes axes;
  axes.modes = {ibgp::IbgpMode::kAbrr, ibgp::IbgpMode::kTbrr};
  axes.num_aps = {4, 8};
  axes.seeds = {1, 2};
  const auto specs = base.sweep(axes);
  // TBRR never reads abrr.*, so it skips the AP axis: 2x2 + 2.
  ASSERT_EQ(specs.size(), 6u);
  // modes outermost, seeds innermost
  EXPECT_EQ(specs[0].name, "base/abrr/ap4/seed1");
  EXPECT_EQ(specs[1].name, "base/abrr/ap4/seed2");
  EXPECT_EQ(specs[2].name, "base/abrr/ap8/seed1");
  EXPECT_EQ(specs[4].name, "base/tbrr/seed1");
  EXPECT_EQ(specs[5].name, "base/tbrr/seed2");
  std::set<std::pair<ibgp::IbgpMode, std::uint64_t>> non_abrr;
  for (const auto& s : specs) {
    ASSERT_EQ(s.seeds.size(), 1u);
    EXPECT_TRUE(s.validate().empty());
    if (s.mode != ibgp::IbgpMode::kAbrr) {
      EXPECT_TRUE(non_abrr.emplace(s.mode, s.seeds.front()).second)
          << "duplicated non-ABRR child " << s.name;
    }
  }
  EXPECT_EQ(non_abrr.size(), 2u);
}

TEST(ScenarioSweep, EmptyAxesKeepBaseValues) {
  ScenarioSpec base;
  base.seeds = {7, 9};
  base.abrr.num_aps = 5;
  const auto specs = base.sweep({});
  ASSERT_EQ(specs.size(), 2u);  // only the base seed list expands
  EXPECT_EQ(specs[0].abrr.num_aps, 5u);
  EXPECT_EQ(specs[0].seeds.front(), 7u);
  EXPECT_EQ(specs[1].seeds.front(), 9u);
}

TEST(ScenarioSpec, FaultHoldTimeReachesTestbedConfig) {
  ScenarioSpec spec;
  spec.fault.enabled = true;
  spec.fault.hold_time = sim::sec(3);
  EXPECT_EQ(spec.testbed_config(1).timing.hold_time, sim::sec(3));
  spec.fault.enabled = false;
  EXPECT_EQ(spec.testbed_config(1).timing.hold_time, 0);
}

// The MED ablations' knob reaches the generator: with it, peer routes
// carry per-point MEDs; without it, every peer MED is zeroed.
TEST(ScenarioSpec, PerPointMedsReachTheWorkload) {
  ScenarioSpec spec;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 3;
  spec.workload.prefixes = 60;
  for (const bool diverse : {false, true}) {
    spec.workload.per_point_meds = diverse;
    sim::Rng rng{3};
    const auto topology = make_trial_topology(spec.topology, rng);
    const auto workload = make_trial_workload(spec.workload, topology, rng);
    EXPECT_EQ(workload.params().per_point_meds, diverse);
    std::size_t nonzero = 0;
    for (const auto& entry : workload.table()) {
      if (!entry.from_peers) continue;
      for (const auto& a : entry.anns) nonzero += a.med.value_or(0) != 0;
    }
    if (diverse) {
      EXPECT_GT(nonzero, 0u);
    } else {
      EXPECT_EQ(nonzero, 0u);
    }
  }
}

}  // namespace
}  // namespace abrr::runner
