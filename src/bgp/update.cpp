#include "bgp/update.h"

namespace abrr::bgp {

std::string UpdateMessage::to_string() const {
  if (keepalive) return "KEEPALIVE";
  std::string out = prefix.to_string();
  out += full_set ? " SET{" : " ANN{";
  for (const Route& r : announce) {
    out += ' ' + std::to_string(r.path_id);
  }
  out += " }";
  if (!withdraw.empty()) {
    out += " WD{";
    for (const PathId id : withdraw) out += ' ' + std::to_string(id);
    out += " }";
  }
  return out;
}

}  // namespace abrr::bgp
