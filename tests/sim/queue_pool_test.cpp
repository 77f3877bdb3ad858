#include "sim/queue_pool.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <vector>

namespace abrr::sim {
namespace {

TEST(QueuePool, InterleavedQueuesStayFifo) {
  // Random pushes and pops across several queues, checked against one
  // std::deque per queue; lengths cross chunk boundaries many times.
  QueuePool<int> pool;
  constexpr int kQueues = 5;
  std::vector<QueuePool<int>::Queue> queues(kQueues);
  std::vector<std::deque<int>> model(kQueues);
  std::mt19937 rng{3};
  for (int step = 0; step < 20'000; ++step) {
    const auto q = static_cast<std::size_t>(rng() % kQueues);
    if (rng() % 3 != 0) {
      pool.push(queues[q], int{step});
      model[q].push_back(step);
    } else if (!model[q].empty()) {
      ASSERT_FALSE(queues[q].empty());
      ASSERT_EQ(pool.front(queues[q]), model[q].front());
      pool.pop(queues[q]);
      model[q].pop_front();
    }
    ASSERT_EQ(queues[q].empty(), model[q].empty());
  }
  for (int q = 0; q < kQueues; ++q) {
    for (const int v : model[q]) {
      ASSERT_EQ(pool.front(queues[q]), v);
      pool.pop(queues[q]);
    }
    EXPECT_TRUE(queues[q].empty());
  }
}

TEST(QueuePool, DrainedChunksAreSharedAcrossQueues) {
  // Storage follows the peak total length: a second queue filled after
  // the first drained reuses the first one's chunks.
  QueuePool<int> pool;
  QueuePool<int>::Queue a;
  QueuePool<int>::Queue b;
  for (int i = 0; i < 1000; ++i) pool.push(a, int{i});
  const std::size_t peak = pool.capacity();
  EXPECT_GE(peak, 1000u);
  while (!a.empty()) pool.pop(a);
  for (int i = 0; i < 1000; ++i) pool.push(b, int{i});
  EXPECT_EQ(pool.capacity(), peak);
}

TEST(QueuePool, DrainedBurstGoesBackBeyondTheIdleBound) {
  // A 10K-element burst over several queues needs hundreds of chunks;
  // once it drains, the pool keeps at most its idle list.
  QueuePool<int> pool;
  std::vector<QueuePool<int>::Queue> queues(4);
  for (int i = 0; i < 10'000; ++i) pool.push(queues[i % 4], int{i});
  const std::size_t peak_bytes = pool.bytes();
  EXPECT_GE(peak_bytes, 10'000 / 16 * QueuePool<int>::kChunkBytes);
  for (auto& q : queues) {
    while (!q.empty()) pool.pop(q);
  }
  const std::size_t idle_bound =
      QueuePool<int>::kMaxIdleChunks * QueuePool<int>::kChunkBytes;
  EXPECT_LE(pool.bytes(), idle_bound);
  EXPECT_GE(pool.capacity(), 10'000u);  // the high-water mark stays

  // Refilling reuses the idle chunks first, then allocates again.
  for (int i = 0; i < 10'000; ++i) pool.push(queues[0], int{i});
  EXPECT_EQ(pool.bytes(), 10'000 / 16 * QueuePool<int>::kChunkBytes);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(pool.front(queues[0]), i);
    pool.pop(queues[0]);
  }
  EXPECT_LE(pool.bytes(), idle_bound);
}

TEST(QueuePool, PopReleasesTheElement) {
  QueuePool<std::shared_ptr<int>> pool;
  QueuePool<std::shared_ptr<int>>::Queue q;
  auto value = std::make_shared<int>(7);
  pool.push(q, std::shared_ptr<int>{value});
  EXPECT_EQ(value.use_count(), 2);
  pool.pop(q);
  EXPECT_EQ(value.use_count(), 1);
}

}  // namespace
}  // namespace abrr::sim
