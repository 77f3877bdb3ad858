// Allocation-path suite (CTest label "alloc"): the trial-owned Arena,
// the scheduler's pooled event slabs, the interner's TrialScope slab
// reuse, and a determinism re-check proving the arena/pool machinery
// keeps --jobs=N output byte-identical. bench/run_bench.sh runs this
// suite as a preflight before publishing benchmark numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/attrs_intern.h"
#include "runner/runner.h"
#include "sim/arena.h"
#include "sim/scheduler.h"

namespace abrr {
namespace {

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

TEST(Arena, TriviallyDestructibleTypesSkipFinalizers) {
  // An arena destroys nothing: reset() only rewinds (create() refuses a
  // type with a destructor at compile time).
  sim::Arena arena;
  std::uint64_t* p = arena.create<std::uint64_t>(42u);
  EXPECT_EQ(*p, 42u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(Arena, ResetReusesChunksAndAddresses) {
  sim::Arena arena{1024};
  // Force growth past the first chunk.
  std::vector<void*> first_round;
  for (int i = 0; i < 64; ++i) {
    first_round.push_back(arena.allocate(64, 8));
  }
  const std::size_t chunks = arena.chunk_count();
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(chunks, 1u);

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks) << "reset must retain chunks";
  EXPECT_EQ(arena.bytes_reserved(), reserved);

  // The second trial refills the exact pages the first one warmed.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(arena.allocate(64, 8), first_round[i]) << "allocation " << i;
  }
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  sim::Arena arena{1024};
  void* big = arena.allocate(16 * 1024, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
  EXPECT_GE(arena.bytes_reserved(), 16u * 1024);
  // Small allocations keep working after the oversized one.
  void* small = arena.allocate(16, 8);
  ASSERT_NE(small, nullptr);
}

TEST(Arena, ReserveIsIdempotentAndPreventsMidTrialGrowth) {
  sim::Arena arena;
  arena.reserve(200 * 1024);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, 200u * 1024);
  arena.reserve(200 * 1024);  // already satisfied: no new chunks
  EXPECT_EQ(arena.chunk_count(), chunks);

  // Fill within the reserved budget; the chunk set must not grow.
  std::size_t used = 0;
  while (used + 128 <= 200 * 1024) {
    arena.allocate(128, 8);
    used += 128;
  }
  EXPECT_EQ(arena.chunk_count(), chunks);
}

// ---------------------------------------------------------------------
// Scheduler event pool
// ---------------------------------------------------------------------

TEST(SchedulerPool, GrowsInSlabsAndRecyclesAfterQuiescence) {
  sim::Scheduler sched;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(i, [&fired] { ++fired; });
  }
  EXPECT_EQ(sched.pool_in_use(), 1000u);
  const std::size_t capacity = sched.pool_capacity();
  EXPECT_GE(capacity, 1000u);
  EXPECT_EQ(capacity % 256, 0u) << "pool grows in whole slabs";

  ASSERT_TRUE(sched.run_to_quiescence());
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(sched.pool_in_use(), 0u);
  EXPECT_EQ(sched.pool_capacity(), capacity) << "slabs are retained";

  // A second wave of the same size reuses the freed slots: no growth.
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_after(1, [&fired] { ++fired; });
  }
  EXPECT_EQ(sched.pool_capacity(), capacity);
  ASSERT_TRUE(sched.run_to_quiescence());
  EXPECT_EQ(fired, 2000);
}

TEST(SchedulerPool, CancelReleasesSlotImmediately) {
  sim::Scheduler sched;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sched.schedule_at(100 + i, [] {}));
  }
  EXPECT_EQ(sched.pool_in_use(), 10u);
  for (const sim::EventId id : ids) sched.cancel(id);
  EXPECT_EQ(sched.pool_in_use(), 0u);
  EXPECT_FALSE(sched.has_pending());

  // The freed slots satisfy new scheduling without growing the pool.
  const std::size_t capacity = sched.pool_capacity();
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(200 + i, [&fired] { ++fired; });
  }
  EXPECT_EQ(sched.pool_capacity(), capacity);
  ASSERT_TRUE(sched.run_to_quiescence());
  EXPECT_EQ(fired, 200);
}

TEST(SchedulerPool, StaleIdsNeverAliasRecycledSlots) {
  sim::Scheduler sched;
  int first = 0;
  const sim::EventId stale = sched.schedule_at(1, [&first] { ++first; });
  ASSERT_TRUE(sched.run_to_quiescence());
  EXPECT_EQ(first, 1);

  // The fired event's slot is recycled for the next scheduling; the old
  // id's generation no longer matches, so cancelling it is a no-op.
  int second = 0;
  sched.schedule_at(2, [&second] { ++second; });
  EXPECT_EQ(sched.pool_in_use(), 1u);
  sched.cancel(stale);
  EXPECT_EQ(sched.pool_in_use(), 1u) << "stale cancel must not hit new event";
  ASSERT_TRUE(sched.run_to_quiescence());
  EXPECT_EQ(second, 1);
}

TEST(SchedulerPool, DoubleCancelIsHarmless) {
  sim::Scheduler sched;
  const sim::EventId id = sched.schedule_at(5, [] {});
  sched.cancel(id);
  sched.cancel(id);  // generation already bumped: no-op
  sched.cancel(0);   // 0 is never valid
  EXPECT_EQ(sched.pool_in_use(), 0u);
  EXPECT_TRUE(sched.run_to_quiescence());
}

TEST(SchedulerPool, EmptyCallbackIsRejected) {
  sim::Scheduler sched;
  EXPECT_THROW(sched.schedule_at(1, {}), std::invalid_argument);
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

// ---------------------------------------------------------------------
// Interner trial scope
// ---------------------------------------------------------------------

bgp::PathAttrs sample_attrs(std::uint32_t pref) {
  bgp::PathAttrs attrs;
  attrs.as_path = bgp::AsPath{{64512, 7018}};
  attrs.local_pref = pref;
  attrs.next_hop = 0x0A000001;
  return attrs;
}

TEST(InternerTrialScope, RedirectsGlobalAndResetsOnEntry) {
  bgp::AttrsInterner& outer = bgp::AttrsInterner::global();
  {
    bgp::AttrsInterner::TrialScope scope{256};
    EXPECT_EQ(&bgp::AttrsInterner::global(), &scope.interner());
    EXPECT_NE(&scope.interner(), &outer);
    EXPECT_EQ(scope.interner().live_blocks(), 0u) << "entry resets the pool";
  }
  EXPECT_EQ(&bgp::AttrsInterner::global(), &outer);
}

TEST(InternerTrialScope, SlabsAreReusedAcrossTrials) {
  bgp::AttrsPtr first_block = nullptr;
  std::uint64_t resets_before = 0;
  {
    bgp::AttrsInterner::TrialScope scope{256};
    first_block = scope.interner().intern(sample_attrs(100));
    for (std::uint32_t i = 0; i < 64; ++i) {
      scope.interner().intern(sample_attrs(200 + i));
    }
    EXPECT_EQ(scope.interner().live_blocks(), 65u);
    resets_before = scope.interner().slab_resets();
  }
  {
    // Same thread -> same trial pool. Entry resets it, and the first
    // block of the new trial lands on the exact slab address the
    // previous trial's first block occupied.
    bgp::AttrsInterner::TrialScope scope{256};
    EXPECT_EQ(scope.interner().slab_resets(), resets_before + 1);
    EXPECT_EQ(scope.interner().live_blocks(), 0u);
    bgp::AttrsPtr reused = scope.interner().intern(sample_attrs(100));
    EXPECT_EQ(reused, first_block) << "slab storage must be recycled";
  }
}

TEST(InternerTrialScope, ExitLeavesBlocksAliveUntilNextEntry) {
  bgp::AttrsPtr block = nullptr;
  {
    bgp::AttrsInterner::TrialScope scope{64};
    block = scope.interner().intern(sample_attrs(77));
  }
  // Exit restores the previous interner but does NOT reset: the inline
  // (jobs<=1) runner path may still be reading the trial's last routes.
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->local_pref, 77u);
  EXPECT_NE(block->content_hash, 0u);
}

TEST(InternerTrialScope, CanonicalizesWithinOneTrial) {
  bgp::AttrsInterner::TrialScope scope{64};
  bgp::AttrsPtr a = scope.interner().intern(sample_attrs(5));
  bgp::AttrsPtr b = scope.interner().intern(sample_attrs(5));
  bgp::AttrsPtr c = scope.interner().intern(sample_attrs(6));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(scope.interner().hits(), 1u);
  EXPECT_EQ(scope.interner().misses(), 2u);
}

// ---------------------------------------------------------------------
// Determinism with arenas: the allocation machinery must not leak any
// execution-order dependence into results. Alloc telemetry (attr_blocks,
// sched_events, ...) is PART of serialize(), so this also proves the
// pools behave identically at every --jobs level.
// ---------------------------------------------------------------------

runner::ScenarioSpec tiny(ibgp::IbgpMode mode) {
  runner::ScenarioSpec spec;
  spec.name = runner::mode_name(mode);
  spec.mode = mode;
  spec.topology.pops = 3;
  spec.topology.clients_per_pop = 2;
  spec.topology.peer_ases = 4;
  spec.topology.points_per_as = 2;
  spec.workload.prefixes = 48;
  spec.workload.snapshot_seconds = 5.0;
  spec.abrr.num_aps = 2;
  spec.seeds = {21, 22};
  return spec;
}

TEST(AllocDeterminism, JobsOneVsFourVsShuffled) {
  std::vector<runner::ScenarioSpec> specs{tiny(ibgp::IbgpMode::kAbrr),
                                          tiny(ibgp::IbgpMode::kTbrr)};
  const auto r1 = runner::ExperimentRunner{{.jobs = 1}}.run(specs);
  const auto r4 = runner::ExperimentRunner{{.jobs = 4}}.run(specs);
  ASSERT_EQ(r1.size(), 4u);
  ASSERT_EQ(r4.size(), 4u);
  std::map<std::string, std::string> baseline;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i].error.empty()) << r1[i].error;
    EXPECT_GT(r1[i].attr_blocks, 0u);
    EXPECT_GT(r1[i].sched_events, 0u);
    EXPECT_GT(r1[i].sched_pool_capacity, 0u);
    EXPECT_EQ(r1[i].serialize(), r4[i].serialize());
    baseline[r1[i].scenario + "#" + std::to_string(r1[i].seed)] =
        r1[i].serialize();
  }

  std::reverse(specs.begin(), specs.end());
  const auto shuffled = runner::ExperimentRunner{{.jobs = 4}}.run(specs);
  for (const auto& r : shuffled) {
    const auto it = baseline.find(r.scenario + "#" + std::to_string(r.seed));
    ASSERT_NE(it, baseline.end());
    EXPECT_EQ(it->second, r.serialize()) << r.scenario;
  }
}

}  // namespace
}  // namespace abrr
