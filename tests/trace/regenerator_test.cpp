#include "trace/regenerator.h"

#include <gtest/gtest.h>

#include <map>

namespace abrr::trace {
namespace {

struct Injection {
  RouterId router;
  RouterId neighbor;
  Ipv4Prefix prefix;
  bool announce;
  sim::Time at;
};

class RegeneratorTest : public ::testing::Test {
 protected:
  RegeneratorTest() {
    topo::TopologyParams tp;
    tp.pops = 3;
    tp.clients_per_pop = 3;
    tp.peer_ases = 4;
    tp.peering_points_per_as = 2;
    topo = topo::make_tier1(tp, rng);
    WorkloadParams wp;
    wp.prefixes = 100;
    workload = Workload::generate(wp, topo, rng);
  }

  InjectFn recorder() {
    return [this](RouterId router, RouterId neighbor, const Ipv4Prefix& p,
                  const std::optional<bgp::Route>& route) {
      log.push_back(
          Injection{router, neighbor, p, route.has_value(), sched.now()});
    };
  }

  sim::Rng rng{5};
  sim::Scheduler sched;
  topo::Topology topo;
  Workload workload;
  std::vector<Injection> log;
};

TEST_F(RegeneratorTest, SnapshotLoadInjectsEveryAnnouncement) {
  std::size_t expected = 0;
  for (const auto& e : workload.table()) expected += e.anns.size();

  RouteRegenerator regen{sched, workload, recorder()};
  regen.load_snapshot(0, sim::sec(10));
  sched.run_to_quiescence();
  EXPECT_EQ(log.size(), expected);
  EXPECT_EQ(regen.injected(), expected);
  for (const auto& i : log) EXPECT_TRUE(i.announce);
}

TEST_F(RegeneratorTest, SnapshotLoadIsPacedOverTheWindow) {
  RouteRegenerator regen{sched, workload, recorder()};
  regen.load_snapshot(sim::sec(1), sim::sec(10));
  sched.run_to_quiescence();
  ASSERT_FALSE(log.empty());
  EXPECT_GE(log.front().at, sim::sec(1));
  EXPECT_LE(log.back().at, sim::sec(11));
  // Spread, not a single burst.
  EXPECT_GT(log.back().at - log.front().at, sim::sec(5));
}

TEST_F(RegeneratorTest, WithdrawEventsWithdrawEveryPointOfTheAs) {
  RouteRegenerator regen{sched, workload, recorder()};
  const auto& entry = workload.table().front();
  const Asn as = entry.anns.front().first_as;
  std::size_t points = 0;
  for (const auto& a : entry.anns) points += a.first_as == as ? 1 : 0;

  UpdateTrace trace = UpdateTrace::from_events(
      {TraceEvent{sim::sec(1), EventKind::kWithdraw, 0, as}}, sim::sec(2));
  regen.play(trace, 0);
  sched.run_to_quiescence();
  EXPECT_EQ(log.size(), points);
  for (const auto& i : log) {
    EXPECT_FALSE(i.announce);
    EXPECT_EQ(i.prefix, entry.prefix);
  }
}

TEST_F(RegeneratorTest, MedChangeReannouncesWithNewMed) {
  RouteRegenerator regen{sched, workload, recorder()};
  const auto& entry = workload.table().front();
  const Asn as = entry.anns.front().first_as;
  UpdateTrace trace = UpdateTrace::from_events(
      {TraceEvent{sim::sec(1), EventKind::kMedChange, 0, as}}, sim::sec(2));
  regen.play(trace, 0);
  sched.run_to_quiescence();
  ASSERT_FALSE(log.empty());
  for (const auto& i : log) EXPECT_TRUE(i.announce);
  // The regenerator's working copy reflects the mutation.
  const auto& mutated = regen.current().table().front();
  EXPECT_EQ(mutated.prefix, entry.prefix);
}

TEST_F(RegeneratorTest, SpeedupCompressesReplay) {
  RouteRegenerator regen{sched, workload, recorder()};
  UpdateTrace trace = UpdateTrace::from_events(
      {TraceEvent{sim::sec(100), EventKind::kWithdraw, 0,
                  workload.table().front().anns.front().first_as}},
      sim::sec(200));
  regen.play(trace, 0, /*speedup=*/10.0);
  sched.run_to_quiescence();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().at, sim::sec(10));
}

TEST_F(RegeneratorTest, DownStateTracksWithdrawals) {
  RouteRegenerator regen{sched, workload, recorder()};
  const auto& entry = workload.table().front();
  const Asn as = entry.anns.front().first_as;

  // Withdraw at t=1s: the regenerator's edge view must exclude the
  // withdrawn announcements from ground-truth queries.
  UpdateTrace down = UpdateTrace::from_events(
      {TraceEvent{sim::sec(1), EventKind::kWithdraw, 0, as}}, sim::sec(10));
  regen.play(down, 0);
  sched.run_to_quiescence();
  const auto& after = regen.current().table().front();
  for (const auto& a : after.anns) {
    EXPECT_EQ(a.down, a.first_as == as);
  }
  const auto set = regen.current().best_as_level_for(after, {}, true);
  for (const auto& r : set) {
    EXPECT_NE(r.attrs->as_path().first(), as);
  }

  // Re-announce: the state comes back.
  UpdateTrace up = UpdateTrace::from_events(
      {TraceEvent{sim::sec(2), EventKind::kReannounce, 0, as}},
      sim::sec(10));
  regen.play(up, sched.now());
  sched.run_to_quiescence();
  for (const auto& a : regen.current().table().front().anns) {
    EXPECT_FALSE(a.down);
  }
}

TEST_F(RegeneratorTest, RejectsBadArguments) {
  EXPECT_THROW(RouteRegenerator(sched, workload, nullptr),
               std::invalid_argument);
  RouteRegenerator regen{sched, workload, recorder()};
  EXPECT_THROW(regen.play(UpdateTrace{}, 0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace abrr::trace
