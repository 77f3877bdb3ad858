// AttrsInterner: canonicalization, hash stability, and the no-sharing
// guarantees that the rest of the hot path relies on.
#include "bgp/attrs_intern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/route.h"
#include "sim/random.h"
#include "wire/codec.h"

namespace abrr::bgp {
namespace {

PathAttrs sample_attrs() {
  PathAttrs a;
  a.origin = Origin::kIgp;
  a.next_hop = 42;
  a.local_pref = 200;
  a.med = 15;
  a.as_path = AsPath{{7018, 64512}};
  a.cluster_list = {9, 4};
  a.originator_id = 7;
  a.ext_communities = {kAbrrReflectedCommunity};
  return a;
}

TEST(AttrsContentHash, StableAndNeverZero) {
  const PathAttrs a = sample_attrs();
  const std::uint64_t h1 = attrs_content_hash(a);
  const std::uint64_t h2 = attrs_content_hash(a);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
  EXPECT_NE(attrs_content_hash(PathAttrs{}), 0u);
}

TEST(AttrsContentHash, SensitiveToEverySemanticField) {
  const PathAttrs base = sample_attrs();
  const std::uint64_t h = attrs_content_hash(base);

  const auto differs = [&](auto mutate) {
    PathAttrs m = sample_attrs();
    mutate(m);
    return attrs_content_hash(m) != h;
  };
  EXPECT_TRUE(differs([](PathAttrs& a) { a.origin = Origin::kEgp; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.next_hop = 43; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.local_pref = 201; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.med = std::nullopt; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.med = 0; }));  // 0 != absent
  EXPECT_TRUE(differs([](PathAttrs& a) { a.as_path = AsPath{{7018}}; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.cluster_list = {4, 9}; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.originator_id = std::nullopt; }));
  EXPECT_TRUE(differs([](PathAttrs& a) { a.ext_communities.clear(); }));
}

TEST(AttrsInterner, CanonicalizesEqualBlocks) {
  const AttrsPtr a = make_attrs(sample_attrs());
  const AttrsPtr b = make_attrs(sample_attrs());
  // Equal content -> the very same canonical block.
  EXPECT_EQ(a, b);
  EXPECT_EQ(*a, *b);
  EXPECT_NE(a->content_hash, 0u);

  PathAttrs other = sample_attrs();
  other.local_pref = 300;
  const AttrsPtr c = make_attrs(std::move(other));
  EXPECT_NE(a, c);
  EXPECT_FALSE(*a == *c);
}

TEST(AttrsInterner, MutationThroughWithAttrsNeverAliases) {
  const AttrsPtr a = make_attrs(sample_attrs());
  const AttrsPtr b = with_attrs(a, [](PathAttrs& m) { m.local_pref = 999; });
  // The clone is a distinct block with a recomputed hash; the original
  // is untouched (no false sharing after mutation).
  EXPECT_NE(a, b);
  EXPECT_EQ(a->local_pref, 200u);
  EXPECT_EQ(b->local_pref, 999u);
  EXPECT_NE(a->content_hash, b->content_hash);
  EXPECT_EQ(a->content_hash, attrs_content_hash(*a));
  EXPECT_EQ(b->content_hash, attrs_content_hash(*b));

  // Mutating back to the original content re-canonicalizes to the
  // original block.
  const AttrsPtr c = with_attrs(b, [](PathAttrs& m) { m.local_pref = 200; });
  EXPECT_EQ(c, a);
}

TEST(AttrsInterner, BlocksAreStableAcrossTableGrowth) {
  // Slab storage hands out pointers that survive any amount of later
  // interning (the table may rehash; blocks never move).
  AttrsInterner& interner = AttrsInterner::global();
  PathAttrs first = sample_attrs();
  first.local_pref = 111111;
  const AttrsPtr a = make_attrs(PathAttrs{first});
  const std::uint64_t hash = a->content_hash;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    PathAttrs filler = sample_attrs();
    filler.local_pref = 200000 + i;
    make_attrs(std::move(filler));
  }
  EXPECT_GE(interner.live_blocks(), 2001u);
  EXPECT_EQ(a->content_hash, hash);
  EXPECT_EQ(make_attrs(PathAttrs{first}), a);  // still canonical
}

TEST(AttrsInterner, HitAndMissAccounting) {
  AttrsInterner& interner = AttrsInterner::global();
  PathAttrs unique = sample_attrs();
  unique.local_pref = 654321;
  interner.reset_stats();
  const AttrsPtr a = make_attrs(PathAttrs{unique});
  const AttrsPtr b = make_attrs(PathAttrs{unique});
  EXPECT_EQ(interner.misses(), 1u);
  EXPECT_EQ(interner.hits(), 1u);
  EXPECT_EQ(a, b);
}

TEST(AttrsInterner, EqualHashesWithUnequalContentStayDistinct) {
  // Blocks are found by content hash and confirmed by a deep compare:
  // colliding hashes must neither merge two blocks nor hide either one,
  // however long the collision run and across table growth.
  AttrsInterner interner;
  constexpr std::uint64_t kHash = 0x1234;
  const auto colliding = [&](std::uint32_t local_pref) {
    PathAttrs attrs = sample_attrs();
    attrs.local_pref = local_pref;
    return interner.intern(attrs, kHash);  // forced: the interner keeps it
  };
  const AttrsPtr a = colliding(1);
  const AttrsPtr b = colliding(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a->content_hash, kHash);
  EXPECT_EQ(b->content_hash, kHash);
  EXPECT_EQ(interner.live_blocks(), 2u);
  EXPECT_EQ(colliding(1), a);
  EXPECT_EQ(colliding(2), b);
  EXPECT_EQ(interner.misses(), 2u);
  EXPECT_EQ(interner.hits(), 2u);

  for (std::uint32_t lp = 3; lp < 100; ++lp) colliding(lp);
  EXPECT_EQ(interner.live_blocks(), 99u);
  EXPECT_EQ(colliding(1), a);
  EXPECT_EQ(colliding(2), b);
  EXPECT_EQ(colliding(99)->local_pref, 99u);
  EXPECT_EQ(interner.live_blocks(), 99u);
}

TEST(AttrsInterner, ResetEmptiesTheTable) {
  AttrsInterner interner;
  for (std::uint32_t lp = 0; lp < 50; ++lp) {
    PathAttrs attrs = sample_attrs();
    attrs.local_pref = lp;
    interner.intern(std::move(attrs));
  }
  EXPECT_EQ(interner.live_blocks(), 50u);
  interner.reset();
  EXPECT_EQ(interner.live_blocks(), 0u);
  // Nothing survives the reset: equal content interns as a miss again.
  interner.reset_stats();
  PathAttrs again = sample_attrs();
  again.local_pref = 7;
  const AttrsPtr block = interner.intern(PathAttrs{again});
  EXPECT_EQ(interner.misses(), 1u);
  EXPECT_EQ(interner.hits(), 0u);
  EXPECT_EQ(interner.live_blocks(), 1u);
  EXPECT_EQ(interner.intern(std::move(again)), block);
  EXPECT_EQ(interner.live_blocks(), 1u);
}

TEST(SameAnnouncement, HashFastPathAgreesWithDeepCompare) {
  const Ipv4Prefix pfx = Ipv4Prefix::parse("10.0.0.0/8");
  const Route a = RouteBuilder{pfx}.path_id(1).as_path({1, 2}).build();
  const Route b = RouteBuilder{pfx}.path_id(1).as_path({1, 2}).build();
  const Route c = RouteBuilder{pfx}.path_id(1).as_path({1, 3}).build();
  EXPECT_TRUE(a.same_announcement(b));
  EXPECT_FALSE(a.same_announcement(c));

  // Same content from another interner (a trial pool: distinct block,
  // equal hash) must still compare equal. Blocks from two interners meet
  // whenever routes outlive the scope that built them.
  AttrsInterner::TrialScope trial{0};
  const Route d = RouteBuilder{pfx}.path_id(1).as_path({1, 2}).build();
  EXPECT_NE(a.attrs, d.attrs);
  EXPECT_TRUE(a.same_announcement(d));
}

// ---------------------------------------------------------------------
// Compact blocks: a block is one arena allocation holding the builder's
// whole content, lists inline.
// ---------------------------------------------------------------------

// A random attribute set. Lists are empty, short or long enough to need
// the extended attribute length (and, for the AS path, two segments).
PathAttrs random_attrs(sim::Rng& rng) {
  const auto length = [&](std::int64_t long_len) {
    switch (rng.uniform_int(0, 3)) {
      case 0: return std::int64_t{0};
      case 3: return long_len;
      default: return rng.uniform_int(1, 6);
    }
  };
  const auto u32 = [&] {
    return static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
  };
  PathAttrs a;
  a.origin = static_cast<Origin>(rng.uniform_int(0, 2));
  a.next_hop = u32();
  a.local_pref = u32();
  if (rng.chance(0.5)) a.med = u32();
  if (rng.chance(0.5)) a.originator_id = u32();
  std::vector<Asn> path(static_cast<std::size_t>(length(300)));
  for (Asn& asn : path) asn = u32();
  a.as_path = AsPath{std::move(path)};
  a.communities.resize(static_cast<std::size_t>(length(70)));
  for (Community& c : a.communities) c = u32();
  a.ext_communities.resize(static_cast<std::size_t>(length(40)));
  for (ExtCommunity& c : a.ext_communities) {
    c = (static_cast<std::uint64_t>(u32()) << 32) | u32();
  }
  a.cluster_list.resize(static_cast<std::size_t>(length(70)));
  for (std::uint32_t& c : a.cluster_list) c = u32();
  return a;
}

TEST(AttrBlock, HoldsTheBuilderContentExactly) {
  sim::Rng rng{20240611};
  AttrsInterner interner;
  std::vector<std::pair<PathAttrs, AttrsPtr>> seen;
  for (int i = 0; i < 400; ++i) {
    const PathAttrs want = random_attrs(rng);
    const AttrsPtr block = interner.intern(want);

    // Interning and expanding back gives the builder.
    PathAttrs expanded;
    expanded.assign(*block);
    EXPECT_EQ(expanded, want);
    // The read accessors mean what the builder's fields mean.
    EXPECT_EQ(block->as_path(), want.as_path.view());
    EXPECT_EQ(block->as_path().first(), want.as_path.first());
    EXPECT_EQ(block->as_path().length(), want.as_path.length());
    for (const Asn asn : want.as_path.asns()) {
      EXPECT_TRUE(block->as_path().contains(asn));
    }
    EXPECT_EQ(block->med(), want.med);
    EXPECT_EQ(block->originator_id(), want.originator_id);
    EXPECT_TRUE(std::ranges::equal(block->cluster_list(), want.cluster_list));
    EXPECT_TRUE(std::ranges::equal(block->communities(), want.communities));
    for (const ExtCommunity c : want.ext_communities) {
      EXPECT_TRUE(block->has_ext_community(c));
    }
    EXPECT_EQ(block->has_ext_community(kAbrrReflectedCommunity),
              want.has_ext_community(kAbrrReflectedCommunity));

    // The stored hash and length are the builder's.
    EXPECT_EQ(block->content_hash, attrs_content_hash(want));
    EXPECT_EQ(block->encoded_size, encoded_attrs_size(want));

    // The encoder writes the same bytes for both forms.
    std::vector<std::uint8_t> from_block;
    std::vector<std::uint8_t> from_builder;
    wire::Encoder::append_path_attrs(*block, from_block);
    wire::Encoder::append_path_attrs(want, from_builder);
    EXPECT_EQ(from_block, from_builder);
    EXPECT_EQ(from_block.size(), block->encoded_size);

    seen.emplace_back(want, block);
  }
  // Equal content gives the same block, and only equal content does.
  interner.reset_stats();
  for (const auto& [attrs, block] : seen) {
    EXPECT_EQ(interner.intern(PathAttrs{attrs}), block);
  }
  EXPECT_EQ(interner.misses(), 0u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first == seen[0].first, seen[i].second == seen[0].second);
  }
}

TEST(AttrBlock, TypicalEbgpBlockTakesAtMost64Bytes) {
  // A 4-ASN path, no communities: the header plus 16 bytes of ASNs.
  AttrsInterner interner;
  PathAttrs a;
  a.origin = Origin::kIgp;
  a.next_hop = 0x0A000001;
  a.med = 10;
  a.as_path = AsPath{{7018, 3356, 1299, 15169}};
  interner.intern(a);
  EXPECT_LE(interner.arena_bytes(), 64u);
  EXPECT_EQ(interner.arena_allocations(), 1u);  // one allocation per block
}

}  // namespace
}  // namespace abrr::bgp
