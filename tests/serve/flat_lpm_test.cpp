// Property tests for the flat LPM directory (bgp/flat_lpm.h): on any
// static table, LpmIndex must resolve every address to the same prefix
// a brute-force longest-covering-prefix scan finds, including /25+
// overflow lists, duplicate prefixes, and a default route; its
// leaf/parent structure must match a brute-force containment scan.
#include "bgp/flat_lpm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.h"

namespace abrr::bgp {
namespace {

std::vector<Ipv4Prefix> random_table(sim::Rng& rng, int n, int min_len,
                                     int max_len) {
  std::vector<Ipv4Prefix> table;
  table.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto addr =
        static_cast<Ipv4Addr>(rng.uniform_int(0, 0xFFFFFFFFll));
    const auto len =
        static_cast<std::uint8_t>(rng.uniform_int(min_len, max_len));
    table.emplace_back(addr, len);
  }
  return table;
}

/// The reference: the longest table prefix containing `addr`.
std::optional<Ipv4Prefix> longest_covering(
    const std::vector<Ipv4Prefix>& table, Ipv4Addr addr) {
  std::optional<Ipv4Prefix> best;
  for (const Ipv4Prefix& p : table) {
    if (p.contains(addr) && (!best || p.length() > best->length())) best = p;
  }
  return best;
}

/// The index's answer for `addr` as a prefix.
std::optional<Ipv4Prefix> indexed_match(const LpmIndex& index,
                                        Ipv4Addr addr) {
  const std::uint32_t slot = index.leaf_of(addr);
  if (slot == LpmIndex::kNoSlot) return std::nullopt;
  return index.prefix_at(slot);
}

/// Index and reference must agree on random probes plus every table
/// prefix's first/last address (the fill-boundary corner cases).
/// Duplicates need no tie rule: both sides answer with a prefix.
void expect_matches_reference(const std::vector<Ipv4Prefix>& table,
                              int probes, std::uint64_t probe_seed) {
  const LpmIndex index{table};
  const auto check = [&](Ipv4Addr addr) {
    EXPECT_EQ(indexed_match(index, addr), longest_covering(table, addr))
        << "addr=" << addr;
  };
  sim::Rng rng{probe_seed};
  for (int i = 0; i < probes; ++i) {
    check(static_cast<Ipv4Addr>(rng.uniform_int(0, 0xFFFFFFFFll)));
  }
  for (const Ipv4Prefix& prefix : table) {
    check(prefix.first());
    check(prefix.last());
  }
}

TEST(FlatLpm, MatchesTrieOnMixedLengths) {
  sim::Rng rng{7};
  expect_matches_reference(random_table(rng, 4000, 8, 24), 20000, 17);
}

TEST(FlatLpm, MatchesTrieWithOverflowPrefixes) {
  sim::Rng rng{8};
  // /25../32 exercise the per-/24 overflow lists, mixed with their
  // covering shorter prefixes.
  expect_matches_reference(random_table(rng, 3000, 16, 32), 20000, 18);
}

TEST(FlatLpm, MatchesTrieOnPureHostRoutes) {
  sim::Rng rng{9};
  expect_matches_reference(random_table(rng, 500, 25, 32), 10000, 19);
}

TEST(FlatLpm, DefaultRouteCoversEverything) {
  const std::vector<Ipv4Prefix> table{
      Ipv4Prefix{0, 0},            // 0.0.0.0/0
      Ipv4Prefix{0x0A000000, 8},   // 10.0.0.0/8
      Ipv4Prefix{0x0A010000, 16},  // 10.1.0.0/16
  };
  const LpmIndex index{table};
  EXPECT_EQ(indexed_match(index, 0xFFFFFFFF), table[0]);
  EXPECT_EQ(indexed_match(index, 0x0AFF0000), table[1]);
  EXPECT_EQ(indexed_match(index, 0x0A01FF00), table[2]);
  expect_matches_reference(table, 5000, 20);
}

TEST(FlatLpm, EmptyTableAndDefaultConstructed) {
  const LpmIndex empty{std::vector<Ipv4Prefix>{}};
  EXPECT_EQ(empty.leaf_of(0x0A000000), LpmIndex::kNoSlot);
  EXPECT_TRUE(empty.empty());
  const LpmIndex idx;
  EXPECT_EQ(idx.leaf_of(0), LpmIndex::kNoSlot);
  EXPECT_TRUE(idx.empty());
}

/// leaf_of == the longest containing prefix, parent_of == the longest
/// STRICTLY shorter containing prefix — checked against brute force on
/// a deduplicated universe.
TEST(LpmIndex, LeafAndParentMatchBruteForce) {
  sim::Rng rng{11};
  std::vector<Ipv4Prefix> universe;
  for (int i = 0; i < 600; ++i) {
    const auto addr =
        static_cast<Ipv4Addr>(rng.uniform_int(0, 0xFFFFFFFFll));
    const Ipv4Prefix p{addr,
                       static_cast<std::uint8_t>(rng.uniform_int(6, 30))};
    bool dup = false;
    for (const Ipv4Prefix& q : universe) dup = dup || q == p;
    if (!dup) universe.push_back(p);
  }
  const LpmIndex index{universe};
  ASSERT_EQ(index.size(), universe.size());

  for (int i = 0; i < 20000; ++i) {
    const auto addr =
        static_cast<Ipv4Addr>(rng.uniform_int(0, 0xFFFFFFFFll));
    std::uint32_t best = LpmIndex::kNoSlot;
    for (std::uint32_t s = 0; s < universe.size(); ++s) {
      if (!universe[s].contains(addr)) continue;
      if (best == LpmIndex::kNoSlot ||
          universe[s].length() > universe[best].length()) {
        best = s;
      }
    }
    ASSERT_EQ(index.leaf_of(addr), best) << "addr=" << addr;
  }

  for (std::uint32_t s = 0; s < universe.size(); ++s) {
    std::uint32_t expected = LpmIndex::kNoSlot;
    for (std::uint32_t t = 0; t < universe.size(); ++t) {
      if (t == s || !universe[t].contains(universe[s]) ||
          universe[t].length() >= universe[s].length()) {
        continue;
      }
      if (expected == LpmIndex::kNoSlot ||
          universe[t].length() > universe[expected].length()) {
        expected = t;
      }
    }
    EXPECT_EQ(index.parent_of(s), expected)
        << universe[s].to_string() << " slot=" << s;
  }
}

TEST(LpmIndex, DuplicatesShareTheFirstSlot) {
  const std::vector<Ipv4Prefix> universe{
      Ipv4Prefix{0x0A000000, 16},
      Ipv4Prefix{0x0A000000, 8},
      Ipv4Prefix{0x0A000000, 16},  // duplicate of slot 0
  };
  const LpmIndex index{universe};
  EXPECT_EQ(index.leaf_of(0x0A000001), 0u);
  // The duplicate aliases the canonical slot's parent.
  EXPECT_EQ(index.parent_of(0), 1u);
  EXPECT_EQ(index.parent_of(2), 1u);
  EXPECT_EQ(index.parent_of(1), LpmIndex::kNoSlot);
  expect_matches_reference(universe, 1000, 21);
}

}  // namespace
}  // namespace abrr::bgp
