#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace abrr::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_FALSE(s.has_pending());
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_TRUE(s.run_to_quiescence());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  s.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  Time fired = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { fired = s.now(); });
  });
  s.run_to_quiescence();
  EXPECT_EQ(fired, 150);
}

TEST(Scheduler, PastDeadlinesClampToNow) {
  Scheduler s;
  Time fired = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { fired = s.now(); });  // in the past
  });
  s.run_to_quiescence();
  EXPECT_EQ(fired, 100);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(10, [&] { ran = true; });
  s.cancel(id);
  EXPECT_TRUE(s.run_to_quiescence());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelUnknownIdIsNoop) {
  Scheduler s;
  s.cancel(12345);
  EXPECT_TRUE(s.run_to_quiescence());
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  for (Time t : {10, 20, 30, 40}) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(25), 2u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  EXPECT_TRUE(s.has_pending());
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, CallbackCanCancelLaterEvent) {
  Scheduler s;
  bool ran = false;
  EventId later = 0;
  later = s.schedule_at(20, [&] { ran = true; });
  s.schedule_at(10, [&] { s.cancel(later); });
  s.run_to_quiescence();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, MaxEventsBoundsExecution) {
  Scheduler s;
  // A self-perpetuating event chain never drains...
  std::function<void()> tick = [&] { s.schedule_after(1, tick); };
  s.schedule_after(1, tick);
  // ...so run_to_quiescence must give up after max_events.
  EXPECT_FALSE(s.run_to_quiescence(1000));
  EXPECT_EQ(s.events_executed(), 1000u);
}

TEST(Scheduler, CancellingFiredOrUnknownIdsDoesNotCorruptHasPending) {
  Scheduler s;
  // Regression: cancel() used to record every id it was handed, even
  // ids that already fired or never existed. The stale tombstones grew
  // without bound and, because has_pending() compared queue size
  // against the tombstone count, enough of them made a scheduler with
  // live events claim it had none.
  const EventId fired = s.schedule_after(1, [] {});
  s.run_to_quiescence();
  for (int i = 0; i < 100; ++i) {
    s.cancel(fired);            // already fired
    s.cancel(EventId{9'000'000} + static_cast<EventId>(i));  // never existed
  }
  EXPECT_FALSE(s.has_pending());

  bool ran = false;
  s.schedule_after(1, [&] { ran = true; });
  EXPECT_TRUE(s.has_pending());  // the bogus cancels must not mask it
  s.run_to_quiescence();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(s.has_pending());
}

TEST(Scheduler, DoubleCancelCountsOnce) {
  Scheduler s;
  const EventId a = s.schedule_after(1, [] {});
  bool ran = false;
  s.schedule_after(2, [&] { ran = true; });
  s.cancel(a);
  s.cancel(a);  // second cancel of the same id must be a no-op
  EXPECT_TRUE(s.has_pending());
  s.run_to_quiescence();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RejectsEmptyCallback) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(1, {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Scheduler, WeakEventsDoNotBlockQuiescence) {
  Scheduler s;
  bool weak_ran = false;
  s.schedule_weak_at(5, [&] { weak_ran = true; });
  EXPECT_FALSE(s.has_pending());       // only weak work pending
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_EQ(s.weak_pending_count(), 1u);
  EXPECT_TRUE(s.run_to_quiescence());  // returns without firing it
  EXPECT_FALSE(weak_ran);
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, WeakEventsFireWhileStrongWorkExists) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_weak_at(5, [&] { order.push_back(1); });
  s.schedule_at(10, [&] { order.push_back(2); });
  EXPECT_TRUE(s.has_pending());
  s.run_to_quiescence();
  // The weak event at t=5 precedes the strong one at t=10, so it fires
  // on the way; quiescence stops once only weak events remain.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunUntilFiresWeakEventsUpToDeadline) {
  Scheduler s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.schedule_weak_after(10, tick);
  };
  s.schedule_weak_after(10, tick);
  s.run_until(35);
  EXPECT_EQ(ticks, 3);  // t = 10, 20, 30
  EXPECT_EQ(s.now(), 35);
}

TEST(Scheduler, CancelledWeakEventLeavesAccountingClean) {
  Scheduler s;
  const EventId id = s.schedule_weak_at(5, [] {});
  s.cancel(id);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.weak_pending_count(), 0u);
  EXPECT_FALSE(s.has_pending());
  // A strong event after a cancelled weak one runs normally.
  bool ran = false;
  s.schedule_at(6, [&] { ran = true; });
  EXPECT_TRUE(s.run_to_quiescence());
  EXPECT_TRUE(ran);
}

TEST(Scheduler, WeakEventResumesWhenStrongWorkReturns) {
  Scheduler s;
  int weak = 0;
  std::function<void()> tick = [&] {
    ++weak;
    s.schedule_weak_after(10, tick);
  };
  s.schedule_weak_after(10, tick);
  s.run_to_quiescence();
  EXPECT_EQ(weak, 0);
  // New strong work past the weak deadline pulls the weak event along.
  s.schedule_at(25, [] {});
  s.run_to_quiescence();
  EXPECT_EQ(weak, 2);  // t = 10, 20
}

// A randomized workload mixing plain events with FIFO chains whose
// events fire in order (as a network channel's deliveries do). Every
// fired event may create more work. With `reserve` set, a chain event
// takes its sequence number when created but is pushed only once its
// predecessor has fired; otherwise it is plain-scheduled when created,
// which defines the reference order. Returns (label, time) per firing.
std::vector<std::pair<int, Time>> run_mixed(std::uint64_t seed,
                                            bool reserve) {
  struct Pending {
    Time at;
    std::uint64_t seq;
    int label;
  };
  struct Chain {
    Time last = 0;
    std::deque<Pending> queue;
  };
  constexpr int kChains = 4;
  constexpr int kEvents = 4000;

  Scheduler s;
  std::mt19937_64 rng{seed};
  std::vector<Chain> chains(kChains);
  std::vector<std::pair<int, Time>> fired;
  int created = 0;

  std::function<void(int)> fire;
  std::function<void(Chain&)> arm = [&](Chain& chain) {
    const Pending& head = chain.queue.front();
    s.schedule_reserved(head.at, head.seq, [&, c = &chain] {
      const int label = c->queue.front().label;
      c->queue.pop_front();
      if (!c->queue.empty()) arm(*c);
      fire(label);
    });
  };
  const auto create = [&] {
    const int label = created++;
    const Time at = s.now() + static_cast<Time>(rng() % 40);
    if (rng() % 2 == 0) {
      s.schedule_at(at, [&, label] { fire(label); });
      return;
    }
    Chain& chain = chains[rng() % kChains];
    const Time due = at > chain.last ? at : chain.last + 1;
    chain.last = due;
    if (!reserve) {
      s.schedule_at(due, [&, label] { fire(label); });
      return;
    }
    chain.queue.push_back(Pending{due, s.reserve_seq(), label});
    if (chain.queue.size() == 1) arm(chain);
  };
  fire = [&](int label) {
    fired.emplace_back(label, s.now());
    const int spawn = static_cast<int>(rng() % 3);
    for (int i = 0; i < spawn && created < kEvents; ++i) create();
  };

  for (int i = 0; i < 50; ++i) create();
  EXPECT_TRUE(s.run_to_quiescence());
  return fired;
}

TEST(Scheduler, ReservedSequenceFiresWherePlainSchedulingWould) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 42u, 1234u}) {
    const auto reference = run_mixed(seed, /*reserve=*/false);
    const auto reserved = run_mixed(seed, /*reserve=*/true);
    ASSERT_GT(reference.size(), 1000u) << "seed " << seed;
    EXPECT_EQ(reserved, reference) << "seed " << seed;
  }
}

TEST(Scheduler, ReservedEventTiesBreakByReservationOrder) {
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t early = s.reserve_seq();
  s.schedule_at(10, [&] { order.push_back(2); });
  const std::uint64_t late = s.reserve_seq();
  s.schedule_reserved(10, late, [&] { order.push_back(3); });
  s.schedule_reserved(10, early, [&] { order.push_back(1); });
  EXPECT_EQ(s.pending_count(), 3u);
  EXPECT_TRUE(s.run_to_quiescence());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ScheduleReservedRejectsPastTimeAndUnreservedSeq) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run_to_quiescence();
  const std::uint64_t seq = s.reserve_seq();
  EXPECT_THROW(s.schedule_reserved(99, seq, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_reserved(100, seq + 1, [] {}),
               std::invalid_argument);
  EXPECT_FALSE(s.has_pending());
  s.schedule_reserved(100, seq, [] {});
  EXPECT_TRUE(s.has_pending());
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(msec(1), 1000);
  EXPECT_EQ(sec(1), 1'000'000);
  EXPECT_EQ(sec_f(0.5), 500'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(2)), 2.0);
  EXPECT_EQ(kDay, 24 * kHour);
}

}  // namespace
}  // namespace abrr::sim
