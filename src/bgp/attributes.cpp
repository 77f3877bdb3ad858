#include "bgp/attributes.h"

#include <algorithm>

#include "bgp/attrs_intern.h"

namespace abrr::bgp {

bool PathAttrs::has_ext_community(ExtCommunity c) const {
  return std::find(ext_communities.begin(), ext_communities.end(), c) !=
         ext_communities.end();
}

std::size_t PathAttrs::wire_size() const {
  // Per-attribute estimate: 3-byte attribute header plus the value.
  std::size_t size = 0;
  size += 3 + 1;                      // ORIGIN
  size += 3 + as_path.wire_size();    // AS_PATH
  size += 3 + 4;                      // NEXT_HOP
  size += 3 + 4;                      // LOCAL_PREF
  if (med) size += 3 + 4;             // MULTI_EXIT_DISC
  if (!communities.empty()) size += 3 + 4 * communities.size();
  if (!ext_communities.empty()) size += 3 + 8 * ext_communities.size();
  if (originator_id) size += 3 + 4;
  if (!cluster_list.empty()) size += 3 + 4 * cluster_list.size();
  return size;
}

namespace {

// Attribute header: flags, type and a one-octet length, or a two-octet
// length past 255 (the extended-length flag).
std::size_t attr_overhead(std::size_t value_len) {
  return value_len > 255 ? 4 : 3;
}

}  // namespace

std::size_t encoded_as_path_size(const AsPath& path) {
  const std::size_t n = path.length();
  if (n == 0) return 0;
  const std::size_t segments = (n + 254) / 255;
  return 2 * segments + 4 * n;
}

std::size_t encoded_attrs_size(const PathAttrs& attrs) {
  std::size_t size = 0;
  size += 3 + 1;  // ORIGIN
  const std::size_t ap = encoded_as_path_size(attrs.as_path);
  size += attr_overhead(ap) + ap;  // AS_PATH
  size += 3 + 4;                   // NEXT_HOP
  if (attrs.med) size += 3 + 4;    // MULTI_EXIT_DISC
  size += 3 + 4;                   // LOCAL_PREF (always present on iBGP)
  if (!attrs.communities.empty()) {
    const std::size_t v = 4 * attrs.communities.size();
    size += attr_overhead(v) + v;
  }
  if (attrs.originator_id) size += 3 + 4;
  if (!attrs.cluster_list.empty()) {
    const std::size_t v = 4 * attrs.cluster_list.size();
    size += attr_overhead(v) + v;
  }
  if (!attrs.ext_communities.empty()) {
    const std::size_t v = 8 * attrs.ext_communities.size();
    size += attr_overhead(v) + v;
  }
  return size;
}

AttrsPtr make_attrs(PathAttrs attrs) {
  // Unconditional recompute: a caller may hand in a modified copy of an
  // interned block, which would otherwise carry a stale cached hash.
  attrs.content_hash = attrs_content_hash(attrs);
  return AttrsInterner::global().intern(std::move(attrs));
}

namespace detail {

PathAttrs& clone_buffer() {
  static thread_local PathAttrs clone;
  return clone;
}

AttrsPtr intern_clone(PathAttrs& clone) {
  clone.content_hash = attrs_content_hash(clone);
  // intern() moves from its argument only when it stores a new block.
  return AttrsInterner::global().intern(std::move(clone));
}

}  // namespace detail

}  // namespace abrr::bgp
