#include "bgp/as_path.h"

namespace abrr::bgp {

std::string AsPathView::to_string() const {
  std::string out;
  for (const Asn asn : asns_) {
    if (!out.empty()) out += ' ';
    out += std::to_string(asn);
  }
  return out;
}

AsPath AsPath::prepend(Asn asn) const {
  std::vector<Asn> next;
  next.reserve(asns_.size() + 1);
  next.push_back(asn);
  next.insert(next.end(), asns_.begin(), asns_.end());
  return AsPath{std::move(next)};
}

}  // namespace abrr::bgp
