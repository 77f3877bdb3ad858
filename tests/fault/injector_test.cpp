// Fault injector semantics against a live ABRR testbed: flaps, link
// outages, bursts and crashes, each followed by provable recovery.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <string>

#include "fault/recovery.h"
#include "fault/schedule.h"
#include "fault_scenario.h"

namespace abrr::fault {
namespace {

using testing::Bed;
using testing::make_baseline;
using testing::make_bed;
using testing::scenario;

constexpr sim::Time kHold = sim::sec(2);

/// Arms `schedule` on an ABRR bed with hold timers, runs well past the
/// last outage, and returns the recovery report against full mesh.
RecoveryReport run_and_verify(Bed& bed, FaultSchedule schedule,
                              InjectorCounters* counters_out = nullptr) {
  FaultInjector injector{*bed, std::move(schedule)};
  injector.set_resync(make_workload_resync(*bed, *bed.regen));
  injector.arm();
  bed->run_until(injector.last_event_end() + sim::sec(30));
  if (counters_out) *counters_out = injector.counters();

  Bed baseline = make_baseline();
  return verify_recovery(*bed, *baseline, testing::scenario().prefixes);
}

TEST(FaultInjectorTest, SessionFlapRecoversToFullMeshState) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const auto sessions = bed->network().sessions();
  ASSERT_FALSE(sessions.empty());

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kSessionReset;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = sim::sec(3);
  ev.a = sessions.front().first;
  ev.b = sessions.front().second;
  schedule.add(ev);

  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_EQ(c.session_resets, 1u);
  EXPECT_TRUE(report.ok()) << report.equivalence.divergence_count
                           << " divergences";
}

TEST(FaultInjectorTest, ShortLinkOutageIsInvisibleToBgp) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const auto sessions = bed->network().sessions();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kLinkDown;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = sim::msec(300);  // well under the hold time
  ev.a = sessions.front().first;
  ev.b = sessions.front().second;
  schedule.add(ev);

  bed->reset_counters();
  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(c.repairs, 0u);  // TCP rode it out: no session event at all
  EXPECT_EQ(bed->counter_delta("speaker.hold_expirations"), 0u);
}

TEST(FaultInjectorTest, LongLinkOutageTriggersDetectionAndResync) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const auto sessions = bed->network().sessions();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kLinkDown;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = 4 * kHold;  // both ends must time the session out
  ev.a = sessions.front().first;
  ev.b = sessions.front().second;
  schedule.add(ev);

  bed->reset_counters();
  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(c.repairs, 1u);
  const auto expirations = [&](bgp::RouterId id) {
    return bed->counter_delta("speaker.hold_expirations",
                              obs::Labels{{"speaker", std::to_string(id)}});
  };
  EXPECT_GE(expirations(ev.a) + expirations(ev.b), 1u);
}

TEST(FaultInjectorTest, LossBurstRepairsOnlyWhenMessagesWereLost) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const auto sessions = bed->network().sessions();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kLossBurst;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = sim::sec(4);
  ev.a = sessions.front().first;
  ev.b = sessions.front().second;
  ev.loss_prob = 0.5;  // keepalives flow during the burst; some die
  schedule.add(ev);

  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_EQ(c.bursts, 1u);
  EXPECT_TRUE(report.ok()) << report.equivalence.divergence_count
                           << " divergences";
  EXPECT_GT(bed->network().total_dropped(), 0u);
}

TEST(FaultInjectorTest, DelayBurstNeedsNoRepair) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const auto sessions = bed->network().sessions();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kDelayBurst;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = sim::sec(2);
  ev.a = sessions.front().first;
  ev.b = sessions.front().second;
  ev.extra_delay = sim::msec(400);  // under the hold time: no expiry
  schedule.add(ev);

  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(c.repairs, 0u);
}

TEST(FaultInjectorTest, BorderRouterCrashRestartResyncsEbgp) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const bgp::RouterId victim = bed->client_ids().front();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kRouterCrash;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = 3 * kHold;
  ev.a = victim;
  schedule.add(ev);

  InjectorCounters c;
  const auto report = run_and_verify(bed, schedule, &c);
  EXPECT_EQ(c.crashes, 1u);
  EXPECT_EQ(c.restarts, 1u);
  EXPECT_GT(c.resync_routes, 0u);  // its eBGP feeds came back
  EXPECT_TRUE(report.ok()) << report.equivalence.divergence_count
                           << " divergences";
  EXPECT_TRUE(bed->speaker(victim).alive());
  EXPECT_GT(bed->speaker(victim).loc_rib().size(), 0u);
}

TEST(FaultInjectorTest, CrashShorterThanHoldTimeStillResyncs) {
  // Peers never notice the crash; the restart dance alone must restore
  // consistency (the restarted router lost everything).
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, kHold);
  const bgp::RouterId victim = bed->client_ids().front();

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kRouterCrash;
  ev.at = bed->scheduler().now() + sim::sec(1);
  ev.duration = sim::msec(500);
  ev.a = victim;
  schedule.add(ev);

  const auto report = run_and_verify(bed, schedule);
  EXPECT_TRUE(report.ok()) << report.equivalence.divergence_count
                           << " divergences";
}

TEST(FaultInjectorTest, ArmTwiceThrows) {
  Bed bed = make_bed(ibgp::IbgpMode::kAbrr, /*hold_time=*/0);
  FaultInjector injector{*bed, FaultSchedule{}};
  injector.arm();
  EXPECT_THROW(injector.arm(), std::logic_error);
}

}  // namespace
}  // namespace abrr::fault
