#include "sim/key_set.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace abrr::sim {
namespace {

TEST(KeySet, InsertReportsFirstSightOnly) {
  KeySet set;
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(KeySet, GrowsAndClearsWithoutLosingKeys) {
  KeySet set;
  // Keys that share their low bits, across several table doublings.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(set.insert(i << 32)) << i;
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(set.insert(i << 32)) << i;
  }
  EXPECT_EQ(set.size(), 1000u);

  // A large round, then a small one (which releases the big table),
  // then a large one again: every clear forgets everything.
  for (int round = 0; round < 3; ++round) {
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    const std::uint64_t n = round == 1 ? 3 : 1000;
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(set.insert(i << 32)) << "round " << round << " key " << i;
    }
    EXPECT_EQ(set.size(), n);
  }
}

}  // namespace
}  // namespace abrr::sim
