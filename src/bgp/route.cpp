#include "bgp/route.h"

namespace abrr::bgp {
namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void mix_route(std::uint64_t& h, const Route& r) {
  mix(h, r.path_id);
  // Interned blocks carry their content hash; one mix replaces the deep
  // attribute walk.
  if (r.attrs) mix(h, r.attrs->content_hash);
}

constexpr std::uint64_t kSetHashSeed = 0x84222325cbf29ce4ULL;

}  // namespace

std::uint64_t route_set_hash(std::span<const Route> routes) {
  std::uint64_t h = kSetHashSeed;
  for (const Route& r : routes) mix_route(h, r);
  return h == 0 ? 1 : h;
}

std::uint64_t route_set_hash(std::span<const Route* const> routes) {
  std::uint64_t h = kSetHashSeed;
  for (const Route* r : routes) mix_route(h, *r);
  return h == 0 ? 1 : h;
}

std::string Route::to_string() const {
  std::string out = prefix.to_string();
  out += " id=" + std::to_string(path_id);
  if (attrs) {
    out += " path=[" + attrs->as_path().to_string() + "]";
    out += " nh=" + std::to_string(attrs->next_hop);
    out += " lp=" + std::to_string(attrs->local_pref);
    if (const auto med = attrs->med()) out += " med=" + std::to_string(*med);
  }
  switch (via) {
    case LearnedVia::kLocal: out += " local"; break;
    case LearnedVia::kEbgp: out += " ebgp"; break;
    case LearnedVia::kIbgp: out += " ibgp"; break;
  }
  return out;
}

}  // namespace abrr::bgp
