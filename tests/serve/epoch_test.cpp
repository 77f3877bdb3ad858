// Epoch-based reclamation (serve/epoch.h): retired objects are freed
// exactly once, never while any reader still pins an epoch that could
// reference them, and always once no reader can.
#include "serve/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace abrr::serve {
namespace {

/// Counts destructions so tests can assert exactly-once reclamation.
struct Probe {
  explicit Probe(int* counter) : counter(counter) {}
  ~Probe() { ++*counter; }
  int* counter;
};

TEST(EpochDomain, PinAnnouncesAndUnpinClears) {
  EpochDomain d{4};
  const std::size_t slot = d.register_reader();
  EXPECT_EQ(d.min_pinned(), EpochDomain::kQuiescent);
  const std::uint64_t e = d.pin(slot);
  EXPECT_EQ(e, d.current());
  EXPECT_EQ(d.min_pinned(), e);
  d.unpin(slot);
  EXPECT_EQ(d.min_pinned(), EpochDomain::kQuiescent);
  d.unregister_reader(slot);
}

TEST(EpochDomain, MinPinnedIsTheOldestReader) {
  EpochDomain d{4};
  const std::size_t a = d.register_reader();
  const std::size_t b = d.register_reader();
  const std::uint64_t ea = d.pin(a);
  d.advance();
  const std::uint64_t eb = d.pin(b);
  EXPECT_LT(ea, eb);
  EXPECT_EQ(d.min_pinned(), ea);
  d.unpin(a);
  EXPECT_EQ(d.min_pinned(), eb);
  d.unpin(b);
  d.unregister_reader(a);
  d.unregister_reader(b);
}

TEST(EpochDomain, SlotExhaustionThrowsAndUnregisterFrees) {
  EpochDomain d{2};
  const std::size_t a = d.register_reader();
  const std::size_t b = d.register_reader();
  EXPECT_THROW(d.register_reader(), std::runtime_error);
  d.unregister_reader(a);
  EXPECT_NO_THROW(d.register_reader());
  d.unregister_reader(b);
}

TEST(RetireBin, ReclaimFreesOnlyOlderTagsExactlyOnce) {
  int freed = 0;
  {
    RetireBin<Probe> bin;
    bin.retire(1, std::make_unique<const Probe>(&freed));
    bin.retire(2, std::make_unique<const Probe>(&freed));
    bin.retire(3, std::make_unique<const Probe>(&freed));
    EXPECT_EQ(bin.pending(), 3u);
    EXPECT_EQ(bin.reclaim(2), 1u);  // frees tag 1 only
    EXPECT_EQ(freed, 1);
    EXPECT_EQ(bin.reclaim(2), 0u);  // idempotent
    EXPECT_EQ(freed, 1);
    EXPECT_EQ(bin.reclaim(EpochDomain::kQuiescent), 2u);
    EXPECT_EQ(freed, 3);
    bin.retire(4, std::make_unique<const Probe>(&freed));
  }  // destruction frees the leftover exactly once
  EXPECT_EQ(freed, 4);
}

TEST(RetireBin, PinnedEpochBlocksReclamation) {
  EpochDomain d{2};
  RetireBin<Probe> bin;
  int freed = 0;

  const std::size_t slot = d.register_reader();
  const std::uint64_t e = d.pin(slot);  // reader enters at epoch e

  // Writer retires the previous object at the CURRENT epoch, then
  // advances — exactly the publish protocol.
  bin.retire(d.current(), std::make_unique<const Probe>(&freed));
  d.advance();
  EXPECT_EQ(d.min_pinned(), e);
  EXPECT_EQ(bin.reclaim(d.min_pinned()), 0u);  // tag == e, reader pins e
  EXPECT_EQ(freed, 0);

  d.unpin(slot);
  EXPECT_EQ(bin.reclaim(d.min_pinned()), 1u);
  EXPECT_EQ(freed, 1);
  d.unregister_reader(slot);
}

/// The full writer/reader hand-off under real threads: one writer
/// publishing via pointer exchange + retire/advance/reclaim, two
/// readers pinning around every access. TSan (tsan-serve preset) checks
/// the ordering; the destructor counter checks exactly-once frees.
TEST(EpochDomain, ConcurrentPublishReclaimSmoke) {
  constexpr int kRounds = 2000;
  EpochDomain domain{4};
  RetireBin<std::vector<std::uint64_t>> bin;
  std::atomic<const std::vector<std::uint64_t>*> live{
      new std::vector<std::uint64_t>(8, 0)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_checks{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&domain, &live, &stop, &total_checks] {
      const std::size_t slot = domain.register_reader();
      while (!stop.load(std::memory_order_acquire)) {
        domain.pin(slot);
        const auto* snap = live.load(std::memory_order_acquire);
        // Every cell carries the version; a torn or freed snapshot
        // would break the all-equal invariant (and trip ASan/TSan).
        for (std::size_t i = 1; i < snap->size(); ++i) {
          ASSERT_EQ((*snap)[i], (*snap)[0]);
        }
        domain.unpin(slot);
        total_checks.fetch_add(1, std::memory_order_relaxed);
      }
      domain.unregister_reader(slot);
    });
  }

  std::size_t reclaimed = 0;
  for (int v = 1; v <= kRounds; ++v) {
    const auto* old = live.exchange(
        new std::vector<std::uint64_t>(8, static_cast<std::uint64_t>(v)),
        std::memory_order_seq_cst);
    bin.retire(domain.current(),
               std::unique_ptr<const std::vector<std::uint64_t>>{old});
    domain.advance();
    reclaimed += bin.reclaim(domain.min_pinned());
    // One CPU: hand the readers a chance to interleave with publishes.
    if (v % 16 == 0) std::this_thread::yield();
  }
  // Keep the final snapshot live until the readers have demonstrably
  // overlapped the publish stream (the whole point of the smoke test).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (total_checks.load(std::memory_order_relaxed) < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  reclaimed += bin.reclaim(domain.min_pinned());
  EXPECT_GT(total_checks.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(reclaimed, static_cast<std::size_t>(kRounds));
  EXPECT_EQ(bin.pending(), 0u);
  delete live.exchange(nullptr, std::memory_order_acq_rel);
}

}  // namespace
}  // namespace abrr::serve
