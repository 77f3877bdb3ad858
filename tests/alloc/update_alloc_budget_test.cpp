// Allocation budget of the UPDATE fan-out (CTest label "alloc").
//
// Replaces the global operator new with a counting one and runs a small
// ABRR testbed from an empty state to quiescence, then through a short
// update trace. An UPDATE carries a handle to a set in the shared
// route-set store, whose blocks come from an arena, so delivering one
// allocates nothing of its own; everything else on the path (network
// delivery, input queue, drain batch, Adj-RIB-Out commit, MRAI dedup,
// AP lookup, byte accounting) must reuse storage too. What remains is
// the growth that the table load itself needs: RIB slots and run lists,
// store arena chunks, interner arena chunks. The run measures 0.913
// allocations per delivered UPDATE (30,767 for 33,686); the test asserts
// at most kBudget = 1.0, amortized over the run, a 9.5% margin for that
// growth. (An attribute block is one arena allocation with its lists
// inline; while blocks kept their AS path and lists in vectors of their
// own, every interning miss added those: 1.058 per UPDATE. Before sets
// crossed the network by handle, each UPDATE's route vector was an
// allocation of its own too: 1.883.)
//
// Its own binary: the replaced operator new applies to the whole
// program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "bgp/attrs_intern.h"
#include "harness/testbed.h"
#include "runner/scenario.h"
#include "runner/trial.h"
#include "trace/regenerator.h"
#include "trace/update_trace.h"
#include "trace/workload.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace abrr {
namespace {

/// Counts global allocations made between construction and stop().
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(AllocationCounter, SeesVectorAllocations) {
  AllocationCounter counter;
  auto v = std::make_unique<std::vector<int>>(10);
  v->push_back(1);
  const std::uint64_t seen = counter.stop();
  EXPECT_GE(seen, 1u);
  EXPECT_EQ(v->size(), 11u);
}

/// A small ABRR deployment in the paper's shape: 4 PoPs x 4 clients,
/// 4 APs x 2 ARRs, 300 prefixes.
runner::ScenarioSpec small_abrr() {
  runner::ScenarioSpec spec =
      runner::ScenarioSpec::paper(ibgp::IbgpMode::kAbrr, 4, 0);
  spec.topology.pops = 4;
  spec.topology.clients_per_pop = 4;
  spec.topology.peer_ases = 8;
  spec.topology.points_per_as = 3;
  spec.workload.prefixes = 300;
  spec.workload.snapshot_seconds = 10.0;
  spec.workload.trace_seconds = 20.0;
  return spec;
}

constexpr double kBudget = 1.0;

TEST(UpdateAllocationBudget, AllocationsPerDeliveredUpdateStayWithinBudget) {
  const runner::ScenarioSpec spec = small_abrr();
  const std::uint64_t seed = 5;
  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};
  const runner::World world = runner::build_world(spec, seed);
  harness::Testbed& bed = *world.bed;
  trace::TraceParams tparams;
  tparams.duration = sim::sec_f(spec.workload.trace_seconds);
  tparams.events_per_second = spec.workload.trace_events_per_second;
  sim::Rng trace_rng{seed + 1};
  const trace::UpdateTrace churn =
      trace::UpdateTrace::generate(tparams, world.workload(), trace_rng);

  // The snapshot load is already scheduled: counting starts with its
  // delivery.
  AllocationCounter counter;
  ASSERT_TRUE(bed.run_to_quiescence());
  world.regen->play(churn, bed.scheduler().now());
  ASSERT_TRUE(bed.run_to_quiescence());
  const std::uint64_t allocations = counter.stop();

  const std::uint64_t delivered =
      bed.metrics().sum_counters("speaker.updates_received");
  ASSERT_GT(delivered, 10'000u);
  const double per_update =
      static_cast<double>(allocations) / static_cast<double>(delivered);
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("delivered_updates", static_cast<int>(delivered));
  EXPECT_LE(per_update, kBudget) << allocations << " allocations for "
                             << delivered << " delivered UPDATEs";
  std::printf("%llu allocations / %llu delivered UPDATEs = %.3f per UPDATE\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(delivered), per_update);
}

}  // namespace
}  // namespace abrr
