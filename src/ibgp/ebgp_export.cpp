#include "ibgp/ebgp_export.h"

#include <algorithm>

namespace abrr::ibgp {

std::optional<bgp::Route> export_to_ebgp(const bgp::Route& best,
                                         bgp::Asn own_as,
                                         bgp::Asn neighbor_as,
                                         bgp::RouterId neighbor_id,
                                         const EbgpExportPolicy& policy) {
  if (!best.valid()) return std::nullopt;
  // Split horizon: never return a route to its sender (Table 1).
  if (best.via == bgp::LearnedVia::kEbgp &&
      best.learned_from == neighbor_id) {
    return std::nullopt;
  }
  // eBGP loop prevention: the neighbor would reject it anyway.
  if (best.attrs->as_path().contains(neighbor_as)) return std::nullopt;
  if (policy.honor_no_export) {
    const auto cs = best.attrs->communities();
    if (std::find(cs.begin(), cs.end(), kNoExport) != cs.end()) {
      return std::nullopt;
    }
  }

  bgp::Route out = best;
  out.attrs = bgp::with_attrs(best.attrs, [&](bgp::PathAttrs& a) {
    a.as_path = a.as_path.prepend(own_as);
    a.local_pref = bgp::kDefaultLocalPref;  // not carried over eBGP
    if (!policy.send_med) a.med.reset();
    a.originator_id.reset();
    a.cluster_list.clear();
    std::erase(a.ext_communities, bgp::kAbrrReflectedCommunity);
    if (policy.strip_communities) a.communities.clear();
    // NEXT_HOP self on the eBGP edge; the neighbor rewrites it again.
  });
  out.learned_from = bgp::kNoRouter;
  out.via = bgp::LearnedVia::kLocal;  // from the neighbor's viewpoint: new
  return out;
}

}  // namespace abrr::ibgp
