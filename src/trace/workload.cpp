#include "trace/workload.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_set>

namespace abrr::trace {
namespace {

// Filler ASN for synthesized middle path hops.
constexpr Asn kFillerAs = 64512;

// Reduces a set of eBGP routes to per-router bests: what each border
// router would actually advertise into iBGP. The #BAL statistic and the
// ARR RIB contents both operate on this reduced view.
std::vector<bgp::Route> per_router_bests(std::vector<bgp::Route> routes,
                                         const bgp::DecisionConfig& cfg) {
  std::map<RouterId, std::vector<bgp::Route>> by_router;
  for (auto& r : routes) by_router[r.egress()].push_back(std::move(r));
  std::vector<bgp::Route> out;
  out.reserve(by_router.size());
  for (auto& [router, own] : by_router) {
    bgp::Route best = bgp::select_best_no_igp(own, cfg);
    if (best.valid()) out.push_back(std::move(best));
  }
  return out;
}

}  // namespace

bgp::Route Announcement::to_route(const Ipv4Prefix& prefix) const {
  std::vector<Asn> path;
  path.reserve(path_length);
  path.push_back(first_as);
  for (std::uint8_t i = 2; i < path_length; ++i) path.push_back(kFillerAs);
  if (path_length > 1) path.push_back(origin_as);

  bgp::RouteBuilder b{prefix};
  b.as_path(bgp::AsPath{std::move(path)})
      .origin(bgp::Origin::kIgp)
      .local_pref(local_pref)
      .next_hop(router)  // next-hop-self at the border
      .learned_from(neighbor, bgp::LearnedVia::kEbgp);
  if (med) b.med(*med);
  return b.build();
}

Workload Workload::generate(const WorkloadParams& params,
                            const topo::Topology& topo, sim::Rng& rng) {
  if (params.prefixes == 0) throw std::invalid_argument{"no prefixes"};
  Workload w;
  w.params_ = params;
  w.table_.reserve(params.prefixes);

  // Peering points grouped by peer AS, once.
  std::map<Asn, std::vector<const topo::PeeringPoint*>> points;
  for (const auto& p : topo.peering_points) points[p.peer_as].push_back(&p);

  std::vector<const topo::RouterSpec*> access;
  for (const auto& r : topo.clients) {
    if (r.role == topo::RouterRole::kAccess) access.push_back(&r);
  }
  if (access.empty()) {
    for (const auto& r : topo.clients) access.push_back(&r);
  }

  // Prefix addresses: skewed toward low space (realistic allocation
  // clumping), unique, /24 .. /18.
  std::unordered_set<Ipv4Prefix> used;
  const auto draw_prefix = [&] {
    for (;;) {
      const double u = rng.uniform01();
      const auto addr = static_cast<bgp::Ipv4Addr>(
          u * u * 0xDF000000);  // quadratic skew toward low addresses
      const auto len = static_cast<std::uint8_t>(rng.uniform_int(18, 24));
      const Ipv4Prefix p{addr, len};
      if (used.insert(p).second) return p;
    }
  };

  RouterId customer_neighbor = topo::kEbgpNeighborBase + 0x01000000;
  for (std::size_t i = 0; i < params.prefixes; ++i) {
    PrefixEntry entry;
    entry.prefix = draw_prefix();
    entry.from_peers = rng.chance(params.peer_fraction);
    const Asn origin_as = 30000 + static_cast<Asn>(i % 20000);

    if (entry.from_peers && !points.empty()) {
      const auto base_len = static_cast<std::uint8_t>(rng.uniform_int(2, 4));
      bool any = false;
      for (const auto& [peer_as, as_points] : points) {
        if (!rng.chance(params.peer_announce_prob)) continue;
        any = true;
        const std::uint8_t delta =
            rng.chance(params.path_tie_prob)
                ? 0
                : static_cast<std::uint8_t>(rng.uniform_int(1, 2));
        bool any_point_tied = false;
        for (const auto* point : as_points) {
          Announcement a;
          a.router = point->router;
          a.neighbor = point->neighbor_id;
          a.first_as = peer_as;
          const bool tied = rng.chance(params.point_tie_prob);
          any_point_tied = any_point_tied || tied;
          a.path_length =
              static_cast<std::uint8_t>(base_len + delta + (tied ? 0 : 1));
          a.med = params.per_point_meds
                      ? 10 * static_cast<std::uint32_t>(
                                 rng.uniform_int(0, params.med_levels - 1))
                      : 0;
          a.local_pref = params.peer_local_pref;
          a.origin_as = origin_as;
          entry.anns.push_back(a);
        }
        if (!any_point_tied) {
          // Keep the AS's shortest path observable at one point so that
          // path_tie_prob alone controls cross-AS ties.
          auto& last = entry.anns.back();
          last.path_length = static_cast<std::uint8_t>(base_len + delta);
        }
      }
      if (!any) {
        // Guarantee reachability: force one announcing AS.
        const auto it = std::next(points.begin(), rng.index(points.size()));
        for (const auto* point : it->second) {
          Announcement a;
          a.router = point->router;
          a.neighbor = point->neighbor_id;
          a.first_as = it->first;
          a.path_length = static_cast<std::uint8_t>(
              base_len + (rng.chance(params.point_tie_prob) ? 0 : 1));
          a.med = params.per_point_meds
                      ? 10 * static_cast<std::uint32_t>(
                                 rng.uniform_int(0, params.med_levels - 1))
                      : 0;
          a.local_pref = params.peer_local_pref;
          a.origin_as = origin_as;
          entry.anns.push_back(a);
        }
        entry.anns.back().path_length = base_len;
      }
    } else {
      entry.from_peers = false;
      const auto n = static_cast<std::uint32_t>(
          rng.uniform_int(1, params.max_customer_attachments));
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto* router = access[rng.index(access.size())];
        Announcement a;
        a.router = router->id;
        a.neighbor = customer_neighbor++;
        a.first_as = 25000 + static_cast<Asn>(i % 5000);
        a.path_length = static_cast<std::uint8_t>(rng.uniform_int(1, 2));
        a.local_pref = params.customer_local_pref;
        a.origin_as = a.path_length == 1 ? a.first_as : origin_as;
        entry.anns.push_back(a);
      }
    }
    w.table_.push_back(std::move(entry));
  }
  return w;
}

std::vector<Ipv4Prefix> Workload::prefixes() const {
  std::vector<Ipv4Prefix> out;
  out.reserve(table_.size());
  for (const auto& e : table_) out.push_back(e.prefix);
  return out;
}

std::vector<std::size_t> Workload::salient_indices(
    const PrefixEntry& entry, const bgp::DecisionConfig& cfg) const {
  // Salient = announcements backing the prefix's AS-wide best-AS-level
  // routes. A change to one of them reshapes what the whole AS selects
  // from (set membership, cluster bests), which is the class of events
  // a real update trace is made of. Falls back to per-router bests when
  // the mapping is empty.
  const auto set = best_as_level_for(entry, {}, /*include_customers=*/true,
                                     cfg);
  std::vector<std::size_t> out;
  for (const bgp::Route& r : set) {
    for (std::size_t i = 0; i < entry.anns.size(); ++i) {
      const Announcement& a = entry.anns[i];
      if (a.router == r.egress() && a.first_as == r.attrs->as_path().first() &&
          a.path_length == r.attrs->as_path().length()) {
        out.push_back(i);
        break;
      }
    }
  }
  if (out.empty()) {
    // Degenerate entry (should not happen): any announcement will do.
    for (std::size_t i = 0; i < entry.anns.size(); ++i) out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<bgp::Route> Workload::best_as_level_for(
    const PrefixEntry& entry, std::span<const Asn> peer_ases,
    bool include_customers, const bgp::DecisionConfig& cfg) const {
  std::vector<bgp::Route> routes;
  for (const Announcement& a : entry.anns) {
    if (a.down) continue;  // currently withdrawn at the edge
    const bool is_peer_route = entry.from_peers;
    if (is_peer_route) {
      if (!peer_ases.empty() &&
          std::find(peer_ases.begin(), peer_ases.end(), a.first_as) ==
              peer_ases.end()) {
        continue;
      }
    } else if (!include_customers) {
      continue;
    }
    routes.push_back(a.to_route(entry.prefix));
  }
  if (routes.empty()) return routes;
  return bgp::best_as_level_routes(per_router_bests(std::move(routes), cfg),
                                   cfg);
}

Workload::BalPoint Workload::average_bal(const topo::Topology& topo,
                                         std::size_t num_peer_ases,
                                         sim::Rng& rng,
                                         const bgp::DecisionConfig& cfg) const {
  const auto& all = topo.peer_as_list;
  if (num_peer_ases > all.size()) {
    throw std::invalid_argument{"more peer ASes requested than exist"};
  }
  std::vector<Asn> selected;
  for (const std::size_t idx : rng.sample_indices(all.size(), num_peer_ases)) {
    selected.push_back(all[idx]);
  }

  double peer_routes = 0, peer_prefixes = 0;
  double all_routes = 0, all_prefixes = 0;
  for (const PrefixEntry& entry : table_) {
    const auto peers_only =
        best_as_level_for(entry, selected, /*include_customers=*/false, cfg);
    if (!peers_only.empty()) {
      peer_routes += static_cast<double>(peers_only.size());
      peer_prefixes += 1;
    }
    const auto everything =
        best_as_level_for(entry, selected, /*include_customers=*/true, cfg);
    if (!everything.empty()) {
      all_routes += static_cast<double>(everything.size());
      all_prefixes += 1;
    }
  }
  BalPoint point;
  point.peer_only = peer_prefixes > 0 ? peer_routes / peer_prefixes : 0;
  point.all_sources = all_prefixes > 0 ? all_routes / all_prefixes : 0;
  return point;
}

}  // namespace abrr::trace
