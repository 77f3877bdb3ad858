#include "bgp/decision.h"

#include <algorithm>
#include <compare>
#include <limits>
#include <utility>

namespace abrr::bgp {
namespace {

// Decision steps 1-3 as one lexicographic key: highest LOCAL_PREF,
// then shortest AS path, then lowest origin.
struct AsLevelKey {
  std::uint32_t inverse_local_pref;
  std::size_t path_length;
  Origin origin;

  auto operator<=>(const AsLevelKey&) const = default;
};

AsLevelKey as_level_key(const Route& r) {
  return AsLevelKey{std::numeric_limits<std::uint32_t>::max() -
                        r.attrs->local_pref,
                    r.attrs->as_path().length(), r.attrs->origin};
}

// Decision steps 5-8 as one lexicographic key. The steps form a total
// order over distinct (peer, path id) routes, so the winner is the key's
// minimum; on a full tie the first candidate wins.
struct TieBreakKey {
  int ibgp;                  // step 5: eBGP/local before iBGP
  std::int64_t igp;          // step 6: IGP metric to the NEXT_HOP
  std::size_t cluster_list;  // RFC 4456 §9 (0 when disabled)
  RouterId originator;       // step 7: ORIGINATOR_ID / advertising router
  RouterId learned_from;     // step 8: lowest peer address
  PathId path_id;            // determinism

  auto operator<=>(const TieBreakKey&) const = default;
};

// Value-API shim: materializes survivors as Route copies.
std::vector<Route> copy_out(const std::vector<const Route*>& ptrs) {
  std::vector<Route> out;
  out.reserve(ptrs.size());
  for (const Route* r : ptrs) out.push_back(*r);
  return out;
}

std::vector<const Route*> to_ptrs(std::span<const Route> candidates) {
  std::vector<const Route*> ptrs;
  ptrs.reserve(candidates.size());
  for (const Route& r : candidates) ptrs.push_back(&r);
  return ptrs;
}

}  // namespace

std::uint32_t DecisionConfig::med_of(const Route& r) const {
  if (ignore_med) return 0;
  if (const auto med = r.attrs->med()) return *med;
  return missing_med_as_worst ? std::numeric_limits<std::uint32_t>::max() : 0;
}

void filter_as_level_pre_med_into(std::span<const Route* const> candidates,
                                  std::vector<const Route*>& out) {
  // One pass: a candidate with a smaller key restarts the survivor list,
  // an equal one joins it, so survivors keep their candidate order.
  out.clear();
  AsLevelKey best{};
  for (const Route* r : candidates) {
    if (r == nullptr || !r->valid()) continue;
    const AsLevelKey key = as_level_key(*r);
    if (out.empty() || key < best) {
      out.clear();
      best = key;
      out.push_back(r);
    } else if (key == best) {
      out.push_back(r);
    }
  }
}

void best_as_level_into(std::span<const Route* const> candidates,
                        const DecisionConfig& cfg,
                        std::vector<const Route*>& out) {
  filter_as_level_pre_med_into(candidates, out);
  if (out.size() <= 1 || cfg.ignore_med) return;

  // Step 4: lowest MED. Default semantics compare only within a
  // neighbor-AS group (deterministic-MED elimination); the survivors of
  // every group together form the best AS-level set.
  if (cfg.always_compare_med) {
    std::uint32_t min_med = std::numeric_limits<std::uint32_t>::max();
    for (const Route* r : out) min_med = std::min(min_med, cfg.med_of(*r));
    std::erase_if(out,
                  [&](const Route* r) { return cfg.med_of(*r) != min_med; });
    return;
  }
  // Per-group minima in a flat scratch: candidate sets see a handful of
  // neighbor ASes, where a linear scan beats a node-based map.
  static thread_local std::vector<std::pair<Asn, std::uint32_t>> group_min;
  group_min.clear();
  for (const Route* r : out) {
    const Asn as = r->neighbor_as();
    const std::uint32_t med = cfg.med_of(*r);
    auto it = std::find_if(group_min.begin(), group_min.end(),
                           [&](const auto& g) { return g.first == as; });
    if (it == group_min.end()) {
      group_min.emplace_back(as, med);
    } else {
      it->second = std::min(it->second, med);
    }
  }
  std::erase_if(out, [&](const Route* r) {
    const Asn as = r->neighbor_as();
    const auto it = std::find_if(group_min.begin(), group_min.end(),
                                 [&](const auto& g) { return g.first == as; });
    return cfg.med_of(*r) != it->second;
  });
}

std::vector<Route> filter_as_level_pre_med(std::span<const Route> candidates) {
  const auto ptrs = to_ptrs(candidates);
  std::vector<const Route*> out;
  filter_as_level_pre_med_into(ptrs, out);
  return copy_out(out);
}

std::vector<Route> best_as_level_routes(std::span<const Route> candidates,
                                        const DecisionConfig& cfg) {
  const auto ptrs = to_ptrs(candidates);
  std::vector<const Route*> out;
  best_as_level_into(ptrs, cfg, out);
  return copy_out(out);
}

namespace {

const Route* select_best_sequential_from(
    std::span<const Route* const> candidates, RouterId self,
    const IgpDistanceFn& igp_distance, const DecisionConfig& cfg) {
  const auto igp_cost = [&](const Route& r) -> std::int64_t {
    const RouterId nh = r.egress();
    if (nh == self) return 0;
    return igp_distance ? igp_distance(nh) : 0;
  };
  // Pairwise comparison: returns true if `a` beats `b`.
  const auto beats = [&](const Route& a, const Route& b) {
    if (a.attrs->local_pref != b.attrs->local_pref) {
      return a.attrs->local_pref > b.attrs->local_pref;
    }
    if (a.attrs->as_path().length() != b.attrs->as_path().length()) {
      return a.attrs->as_path().length() < b.attrs->as_path().length();
    }
    if (a.attrs->origin != b.attrs->origin) {
      return a.attrs->origin < b.attrs->origin;
    }
    if (!cfg.ignore_med &&
        (cfg.always_compare_med || a.neighbor_as() == b.neighbor_as()) &&
        cfg.med_of(a) != cfg.med_of(b)) {
      return cfg.med_of(a) < cfg.med_of(b);
    }
    const int via_a = a.via == LearnedVia::kIbgp ? 1 : 0;
    const int via_b = b.via == LearnedVia::kIbgp ? 1 : 0;
    if (via_a != via_b) return via_a < via_b;
    if (igp_cost(a) != igp_cost(b)) return igp_cost(a) < igp_cost(b);
    if (cfg.prefer_shorter_cluster_list &&
        a.attrs->cluster_list().size() != b.attrs->cluster_list().size()) {
      return a.attrs->cluster_list().size() < b.attrs->cluster_list().size();
    }
    const RouterId oa = a.attrs->originator_id().value_or(a.learned_from);
    const RouterId ob = b.attrs->originator_id().value_or(b.learned_from);
    if (oa != ob) return oa < ob;
    if (a.learned_from != b.learned_from) {
      return a.learned_from < b.learned_from;
    }
    return a.path_id < b.path_id;
  };

  const Route* best = nullptr;
  for (const Route* r : candidates) {
    if (r == nullptr || !r->valid() || igp_cost(*r) == kIgpInfinity) continue;
    if (best == nullptr || beats(*r, *best)) best = r;
  }
  return best;
}

}  // namespace

const Route* select_best_from(std::span<const Route* const> candidates,
                              RouterId self, const IgpDistanceFn& igp_distance,
                              const DecisionConfig& cfg,
                              std::vector<const Route*>& scratch) {
  if (!cfg.deterministic_med) {
    return select_best_sequential_from(candidates, self, igp_distance, cfg);
  }
  best_as_level_into(candidates, cfg, scratch);

  // Steps 5-8: one lexicographic minimum, one IGP lookup per candidate
  // that can still win step 5.
  const Route* best = nullptr;
  TieBreakKey best_key{};
  for (const Route* r : scratch) {
    TieBreakKey key{};
    key.ibgp = r->via == LearnedVia::kIbgp ? 1 : 0;
    if (best != nullptr && key.ibgp > best_key.ibgp) continue;
    const RouterId nh = r->egress();
    key.igp = nh == self || !igp_distance ? 0 : igp_distance(nh);
    key.cluster_list =
        cfg.prefer_shorter_cluster_list ? r->attrs->cluster_list().size() : 0;
    key.originator = r->attrs->originator_id().value_or(r->learned_from);
    key.learned_from = r->learned_from;
    key.path_id = r->path_id;
    if (best == nullptr || key < best_key) {
      best = r;
      best_key = key;
    }
  }
  // Routes whose next hop is unreachable are unusable; when the best
  // one is unreachable, every route that survived step 5 is.
  if (best != nullptr && best_key.igp == kIgpInfinity) return nullptr;
  return best;
}

Route select_best_sequential(std::span<const Route> candidates, RouterId self,
                             const IgpDistanceFn& igp_distance,
                             const DecisionConfig& cfg) {
  const auto ptrs = to_ptrs(candidates);
  const Route* best =
      select_best_sequential_from(ptrs, self, igp_distance, cfg);
  return best != nullptr ? *best : Route{};
}

Route select_best(std::span<const Route> candidates, RouterId self,
                  const IgpDistanceFn& igp_distance,
                  const DecisionConfig& cfg) {
  const auto ptrs = to_ptrs(candidates);
  std::vector<const Route*> scratch;
  const Route* best =
      select_best_from(ptrs, self, igp_distance, cfg, scratch);
  return best != nullptr ? *best : Route{};
}

Route select_best_no_igp(std::span<const Route> candidates,
                         const DecisionConfig& cfg) {
  return select_best(candidates, kNoRouter, nullptr, cfg);
}

}  // namespace abrr::bgp
