#include "bgp/attributes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bgp/attrs_intern.h"

namespace abrr::bgp {

bool PathAttrs::has_ext_community(ExtCommunity c) const {
  return std::find(ext_communities.begin(), ext_communities.end(), c) !=
         ext_communities.end();
}

void PathAttrs::assign(const AttrsView& v) {
  origin = v.origin;
  next_hop = v.next_hop;
  local_pref = v.local_pref;
  med = v.med;
  originator_id = v.originator_id;
  as_path.assign(v.as_path.asns());
  communities.assign(v.communities.begin(), v.communities.end());
  ext_communities.assign(v.ext_communities.begin(), v.ext_communities.end());
  cluster_list.assign(v.cluster_list.begin(), v.cluster_list.end());
}

bool operator==(const AttrsView& a, const AttrsView& b) {
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  return a.origin == b.origin && a.next_hop == b.next_hop &&
         a.local_pref == b.local_pref && a.med == b.med &&
         a.originator_id == b.originator_id && a.as_path == b.as_path &&
         same(a.communities, b.communities) &&
         same(a.ext_communities, b.ext_communities) &&
         same(a.cluster_list, b.cluster_list);
}

namespace {

// Appends `list` at `out`; returns the end of the copy.
template <typename T>
std::byte* copy_out(std::byte* out, std::span<const T> list) {
  if (list.empty()) return out;
  std::memcpy(out, list.data(), list.size_bytes());
  return out + list.size_bytes();
}

std::uint16_t count16(std::size_t n) { return static_cast<std::uint16_t>(n); }

}  // namespace

AttrBlock::AttrBlock(const PathAttrs& attrs, std::uint64_t hash)
    : content_hash(hash),
      next_hop(attrs.next_hop),
      local_pref(attrs.local_pref),
      encoded_size(0),
      origin(attrs.origin),
      flags_(static_cast<std::uint8_t>((attrs.med ? kHasMed : 0) |
                                       (attrs.originator_id ? kHasOriginator
                                                            : 0))),
      med_(attrs.med.value_or(0)),
      originator_id_(attrs.originator_id.value_or(0)),
      n_ext_communities_(count16(attrs.ext_communities.size())),
      n_asns_(count16(attrs.as_path.length())),
      n_communities_(count16(attrs.communities.size())),
      n_cluster_list_(count16(attrs.cluster_list.size())) {
  const std::size_t size = encoded_attrs_size(attrs);
  encoded_size = size <= 0xffff ? static_cast<std::uint16_t>(size) : 0;
  std::byte* out = reinterpret_cast<std::byte*>(this + 1);
  out = copy_out(out, std::span<const ExtCommunity>{attrs.ext_communities});
  out = copy_out(out, std::span<const Asn>{attrs.as_path.asns()});
  out = copy_out(out, std::span<const Community>{attrs.communities});
  copy_out(out, std::span<const std::uint32_t>{attrs.cluster_list});
}

std::size_t AttrBlock::bytes_for(const AttrsView& v) {
  constexpr std::size_t kMax = 0xffff;
  if (v.as_path.length() > kMax || v.communities.size() > kMax ||
      v.ext_communities.size() > kMax || v.cluster_list.size() > kMax) {
    throw std::length_error{"attribute list longer than 65535 entries"};
  }
  return sizeof(AttrBlock) + v.ext_communities.size_bytes() +
         v.as_path.asns().size_bytes() + v.communities.size_bytes() +
         v.cluster_list.size_bytes();
}

bool AttrBlock::has_ext_community(ExtCommunity c) const {
  const std::span<const ExtCommunity> ext = ext_communities();
  return std::find(ext.begin(), ext.end(), c) != ext.end();
}

namespace {

// Attribute header: flags, type and a one-octet length, or a two-octet
// length past 255 (the extended-length flag).
std::size_t attr_overhead(std::size_t value_len) {
  return value_len > 255 ? 4 : 3;
}

}  // namespace

std::size_t encoded_as_path_size(AsPathView path) {
  const std::size_t n = path.length();
  if (n == 0) return 0;
  const std::size_t segments = (n + 254) / 255;
  return 2 * segments + 4 * n;
}

std::size_t encoded_attrs_size(const AttrsView& attrs) {
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

AttrsPtr make_attrs(const PathAttrs& attrs) {
  return AttrsInterner::global().intern(attrs);
}

namespace detail {

PathAttrs& clone_buffer() {
  static thread_local PathAttrs clone;
  return clone;
}

}  // namespace detail

}  // namespace abrr::bgp
