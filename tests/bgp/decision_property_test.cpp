// Property tests for the decision process over randomized candidate
// sets (parameterized by seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "bgp/decision.h"
#include "sim/random.h"

namespace abrr::bgp {
namespace {

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");

// ---------------------------------------------------------------------
// Reference decision process: the step-by-step elimination the library
// used before its one-pass kernels. Each step keeps the candidates that
// minimise one key, in candidate order; the library must pick exactly
// what this picks.
// ---------------------------------------------------------------------

template <typename Key>
void keep_min(std::vector<const Route*>& routes, Key key) {
  if (routes.size() <= 1) return;
  auto best = key(*routes.front());
  for (std::size_t i = 1; i < routes.size(); ++i) {
    best = std::min(best, key(*routes[i]));
  }
  std::erase_if(routes, [&](const Route* r) { return key(*r) != best; });
}

std::vector<const Route*> reference_best_as_level(
    const std::vector<const Route*>& candidates, const DecisionConfig& cfg) {
  std::vector<const Route*> out;
  for (const Route* r : candidates) {
    if (r != nullptr && r->valid()) out.push_back(r);
  }
  keep_min(out, [](const Route& r) {
    return -static_cast<std::int64_t>(r.attrs->local_pref);
  });
  keep_min(out, [](const Route& r) { return r.attrs->as_path().length(); });
  keep_min(out,
           [](const Route& r) { return static_cast<int>(r.attrs->origin); });
  if (out.size() <= 1 || cfg.ignore_med) return out;
  if (cfg.always_compare_med) {
    keep_min(out, [&](const Route& r) { return cfg.med_of(r); });
    return out;
  }
  // Deterministic MED: per neighbor AS, keep the group's lowest MED.
  const std::vector<const Route*> pre = out;
  std::erase_if(out, [&](const Route* r) {
    for (const Route* o : pre) {
      if (o->neighbor_as() == r->neighbor_as() &&
          cfg.med_of(*o) < cfg.med_of(*r)) {
        return true;
      }
    }
    return false;
  });
  return out;
}

const Route* reference_select_best(const std::vector<const Route*>& candidates,
                                   RouterId self, const IgpDistanceFn& igp,
                                   const DecisionConfig& cfg) {
  std::vector<const Route*> s = reference_best_as_level(candidates, cfg);
  if (s.empty()) return nullptr;
  keep_min(s,
           [](const Route& r) { return r.via == LearnedVia::kIbgp ? 1 : 0; });
  const auto igp_cost = [&](const Route& r) -> std::int64_t {
    if (r.egress() == self) return 0;
    return igp ? igp(r.egress()) : 0;
  };
  keep_min(s, igp_cost);
  if (igp_cost(*s.front()) == kIgpInfinity) return nullptr;
  if (cfg.prefer_shorter_cluster_list) {
    keep_min(s, [](const Route& r) { return r.attrs->cluster_list().size(); });
  }
  keep_min(s, [](const Route& r) {
    return r.attrs->originator_id() ? *r.attrs->originator_id() : r.learned_from;
  });
  keep_min(s, [](const Route& r) { return r.learned_from; });
  keep_min(s, [](const Route& r) { return r.path_id; });
  return s.front();
}

// Candidates drawn from tiny value ranges so that every decision key
// ties often: two local-prefs, path lengths, origins and neighbor ASes,
// MEDs that may be missing, next hops that include the deciding router
// (kSelf) and an unreachable one (kDark), short cluster lists, optional
// originator ids, and repeated (peer, path id) pairs. Slots may also be
// null or hold an invalid route.
constexpr RouterId kSelf = 1;
constexpr RouterId kDark = 4;

std::vector<Route> tie_heavy_candidates(sim::Rng& rng, std::size_t n) {
  std::vector<Route> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.05)) {
      out.push_back(Route{});  // invalid: no attributes
      continue;
    }
    std::vector<Asn> path{static_cast<Asn>(7000 + rng.index(2))};
    if (rng.chance(0.5)) path.push_back(64512);
    std::vector<std::uint32_t> clusters(rng.index(3), 9);
    RouteBuilder b{kPfx};
    b.path_id(static_cast<PathId>(1 + rng.index(3)))
        .local_pref(rng.chance(0.5) ? 100 : 200)
        .as_path(AsPath{path})
        .origin(static_cast<Origin>(rng.index(2)))
        .next_hop(static_cast<RouterId>(kSelf + rng.index(4)))
        .cluster_list(clusters)
        .learned_from(static_cast<RouterId>(10 + rng.index(3)),
                      rng.chance(0.6) ? LearnedVia::kIbgp
                                      : LearnedVia::kEbgp);
    if (rng.chance(0.7)) {
      b.med(10 * static_cast<std::uint32_t>(rng.index(2)));
    } else {
      b.no_med();
    }
    if (rng.chance(0.5)) b.originator(static_cast<RouterId>(10 + rng.index(3)));
    out.push_back(b.build());
  }
  return out;
}

std::int64_t tie_heavy_igp(RouterId nh) {
  switch (nh) {
    case 2:
    case 3:
      return 5;  // equal-cost egresses
    case kDark:
      return kIgpInfinity;
    default:
      return 0;
  }
}

std::vector<DecisionConfig> all_configs() {
  std::vector<DecisionConfig> out;
  for (int bits = 0; bits < 16; ++bits) {
    DecisionConfig cfg;
    cfg.always_compare_med = (bits & 1) != 0;
    cfg.prefer_shorter_cluster_list = (bits & 2) == 0;
    cfg.missing_med_as_worst = (bits & 4) != 0;
    cfg.ignore_med = (bits & 8) != 0;
    out.push_back(cfg);
  }
  return out;
}

std::vector<Route> random_candidates(sim::Rng& rng, std::size_t n) {
  std::vector<Route> out;
  for (std::size_t i = 0; i < n; ++i) {
    RouteBuilder b{kPfx};
    b.path_id(static_cast<PathId>(i + 1))
        .local_pref(static_cast<std::uint32_t>(80 + 10 * rng.index(3)))
        .as_path({static_cast<Asn>(7000 + rng.index(5)), 64512,
                  static_cast<Asn>(30000 + rng.index(3))})
        .origin(static_cast<Origin>(rng.index(3)))
        .next_hop(static_cast<RouterId>(1 + rng.index(6)))
        .learned_from(static_cast<RouterId>(100 + i),
                      rng.chance(0.7) ? LearnedVia::kIbgp
                                      : LearnedVia::kEbgp);
    if (rng.chance(0.7)) b.med(10 * static_cast<std::uint32_t>(rng.index(4)));
    // Occasionally pad the path (longer).
    if (rng.chance(0.3)) {
      b.as_path({static_cast<Asn>(7000 + rng.index(5)), 64512, 64512,
                 static_cast<Asn>(30000 + rng.index(3))});
    }
    out.push_back(b.build());
  }
  return out;
}

bool in_set(const Route& r, const std::vector<Route>& set) {
  return std::any_of(set.begin(), set.end(), [&](const Route& s) {
    return s.path_id == r.path_id;
  });
}

class DecisionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionProperty, BestIsAlwaysInTheBestAsLevelSet) {
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 50; ++trial) {
    const auto candidates =
        random_candidates(rng, 1 + rng.index(20));
    const auto set = best_as_level_routes(candidates);
    const Route best = select_best_no_igp(candidates);
    ASSERT_TRUE(best.valid());
    EXPECT_TRUE(in_set(best, set));
  }
}

TEST_P(DecisionProperty, SetIsStableUnderRemovingLosers) {
  // Dropping any non-survivor must not change the survivor set.
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 30; ++trial) {
    const auto candidates = random_candidates(rng, 2 + rng.index(15));
    const auto set = best_as_level_routes(candidates);
    std::vector<Route> pruned;
    for (const Route& r : candidates) {
      if (in_set(r, set)) pruned.push_back(r);
    }
    const auto set2 = best_as_level_routes(pruned);
    ASSERT_EQ(set.size(), set2.size());
    for (const auto& r : set) EXPECT_TRUE(in_set(r, set2));
  }
}

TEST_P(DecisionProperty, SurvivorsShareAsLevelKeys) {
  // All survivors tie on local-pref, path length and origin.
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 30; ++trial) {
    const auto set =
        best_as_level_routes(random_candidates(rng, 1 + rng.index(20)));
    ASSERT_FALSE(set.empty());
    for (const Route& r : set) {
      EXPECT_EQ(r.attrs->local_pref, set.front().attrs->local_pref);
      EXPECT_EQ(r.attrs->as_path().length(),
                set.front().attrs->as_path().length());
      EXPECT_EQ(r.attrs->origin, set.front().attrs->origin);
    }
  }
}

TEST_P(DecisionProperty, PerGroupMedMinimality) {
  // Within each neighbor-AS group, every survivor carries the group's
  // minimum MED among the AS-level candidates.
  sim::Rng rng{GetParam()};
  DecisionConfig cfg;
  for (int trial = 0; trial < 30; ++trial) {
    const auto candidates = random_candidates(rng, 2 + rng.index(18));
    const auto pre = filter_as_level_pre_med(candidates);
    const auto set = best_as_level_routes(candidates, cfg);
    for (const Route& r : set) {
      for (const Route& other : pre) {
        if (other.neighbor_as() != r.neighbor_as()) continue;
        EXPECT_LE(cfg.med_of(r), cfg.med_of(other));
      }
    }
  }
}

TEST_P(DecisionProperty, SelectionIsOrderInvariant) {
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 30; ++trial) {
    auto candidates = random_candidates(rng, 2 + rng.index(15));
    const Route a = select_best_no_igp(candidates);
    rng.shuffle(std::span<Route>{candidates});
    const Route b = select_best_no_igp(candidates);
    ASSERT_EQ(a.valid(), b.valid());
    if (a.valid()) {
      EXPECT_EQ(a.path_id, b.path_id);
    }
  }
}

TEST_P(DecisionProperty, SequentialFoldCanDependOnOrderOnlyViaMed) {
  // With ignore_med the vendor fold must agree with the deterministic
  // path (the partial order collapses to a total order).
  sim::Rng rng{GetParam()};
  DecisionConfig fold;
  fold.deterministic_med = false;
  fold.ignore_med = true;
  DecisionConfig det;
  det.ignore_med = true;
  for (int trial = 0; trial < 30; ++trial) {
    const auto candidates = random_candidates(rng, 1 + rng.index(15));
    const Route a = select_best(candidates, 1, nullptr, fold);
    const Route b = select_best(candidates, 1, nullptr, det);
    ASSERT_EQ(a.valid(), b.valid());
    if (a.valid()) {
      EXPECT_EQ(a.path_id, b.path_id);
    }
  }
}

TEST_P(DecisionProperty, OnePassKernelsMatchTheEliminationReference) {
  sim::Rng rng{GetParam()};
  const IgpDistanceFn igp = tie_heavy_igp;
  const IgpDistanceFn no_igp;  // every next hop at distance 0
  std::vector<const Route*> out;
  std::vector<const Route*> scratch;
  int unreachable = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Route> routes =
        tie_heavy_candidates(rng, 1 + rng.index(12));
    std::vector<const Route*> candidates;
    for (const Route& r : routes) candidates.push_back(&r);
    if (rng.chance(0.1)) candidates.insert(candidates.begin(), nullptr);
    for (const DecisionConfig& cfg : all_configs()) {
      best_as_level_into(candidates, cfg, out);
      ASSERT_EQ(out, reference_best_as_level(candidates, cfg))
          << "trial " << trial;
      for (const IgpDistanceFn* fn : {&igp, &no_igp}) {
        const Route* expected =
            reference_select_best(candidates, kSelf, *fn, cfg);
        ASSERT_EQ(select_best_from(candidates, kSelf, *fn, cfg, scratch),
                  expected)
            << "trial " << trial;
        if (expected == nullptr && fn == &igp && !out.empty()) ++unreachable;
      }
    }
  }
  // The generator must exercise the "best AS-level routes all
  // unreachable" outcome, not only pick winners.
  EXPECT_GT(unreachable, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654u));

}  // namespace
}  // namespace abrr::bgp
