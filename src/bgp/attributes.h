// BGP path attributes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/as_path.h"
#include "bgp/types.h"

namespace abrr::bgp {

/// ORIGIN attribute; lower is preferred (decision step 3).
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

/// Standard community (RFC 1997).
using Community = std::uint32_t;

/// Extended community (RFC 4360), 8 octets.
using ExtCommunity = std::uint64_t;

/// The ABRR "reflected" marker (§2.3.2): a single bit carried as an
/// extended community telling ARRs that an update has already been
/// reflected once and must not be reflected again. This replaces the
/// heavier Cluster-List/Originator-ID machinery for loop prevention.
inline constexpr ExtCommunity kAbrrReflectedCommunity = 0xABBA'0000'0000'0001ULL;

/// The attribute set carried by a route.
///
/// Immutable once built and shared between RIB entries by plain
/// pointer. make_attrs() canonicalizes blocks through the calling
/// thread's AttrsInterner (bgp/attrs_intern.h), mirroring how real BGP
/// implementations intern attribute sets (Quagga's attrhash), so equal
/// live blocks are pointer-identical. Blocks live in interner-owned
/// slabs and stay valid until that interner is reset between trials —
/// copying a Route is pointer-cheap, with no refcount traffic.
struct PathAttrs {
  AsPath as_path;
  Origin origin = Origin::kIncomplete;
  /// Exact RFC 4271 encoded length of this block (encoded_attrs_size),
  /// stored by AttrsInterner::intern() so byte accounting never re-walks
  /// an interned block; 0 = not stored (a block built outside the
  /// interner, or one longer than 65535 bytes). Like content_hash, not a
  /// semantic field: operator== ignores it. Placed beside `origin`, where
  /// it fills padding.
  std::uint16_t encoded_size = 0;
  /// NEXT_HOP. Border routers apply next-hop-self, so inside the AS this
  /// is the RouterId of the egress border router.
  Ipv4Addr next_hop = 0;
  std::uint32_t local_pref = kDefaultLocalPref;
  /// MULTI_EXIT_DISC; absent means "not set" (treated as 0 = best by the
  /// default decision configuration).
  std::optional<std::uint32_t> med;
  std::vector<Community> communities;
  std::vector<ExtCommunity> ext_communities;
  /// ORIGINATOR_ID (RFC 4456), set by the first reflector.
  std::optional<RouterId> originator_id;
  /// CLUSTER_LIST (RFC 4456), prepended by each reflector.
  std::vector<std::uint32_t> cluster_list;

  /// Precomputed 64-bit content hash; 0 = not computed yet. Every block
  /// produced by make_attrs() carries one, making set hashing and
  /// announcement comparison integer compares. Not a semantic field:
  /// operator== ignores it (equal content implies equal hash anyway).
  std::uint64_t content_hash = 0;

  bool has_ext_community(ExtCommunity c) const;

  /// Wire-size estimate of the attribute block in bytes.
  std::size_t wire_size() const;

  friend bool operator==(const PathAttrs& a, const PathAttrs& b) {
    return a.origin == b.origin && a.next_hop == b.next_hop &&
           a.local_pref == b.local_pref && a.med == b.med &&
           a.originator_id == b.originator_id && a.as_path == b.as_path &&
           a.communities == b.communities &&
           a.ext_communities == b.ext_communities &&
           a.cluster_list == b.cluster_list;
  }
};

/// Exact RFC 4271 length of the AS_PATH attribute value: one (type,
/// count) prelude per 255-ASN segment, 4 octets per ASN (RFC 6793
/// four-octet AS numbers). An empty path is a zero-length value.
std::size_t encoded_as_path_size(const AsPath& path);

/// Exact length of the RFC 4271 path-attribute list that
/// wire::Encoder::append_path_attrs() writes for `attrs` (attribute list
/// only, no message framing), computed without encoding.
std::size_t encoded_attrs_size(const PathAttrs& attrs);

/// Shared immutable attribute handle: a stable pointer into the owning
/// AttrsInterner's slab storage (see lifetime note above).
using AttrsPtr = const PathAttrs*;

/// Interns an attribute set (by-value construction helper): computes the
/// content hash and canonicalizes through AttrsInterner::global().
AttrsPtr make_attrs(PathAttrs attrs);

namespace detail {
/// with_attrs()'s per-thread clone buffer. Copy-assigning into it reuses
/// its vectors' capacity.
PathAttrs& clone_buffer();
/// Recomputes the clone's content hash and interns it. On a hit the
/// clone keeps its storage for the next with_attrs(); only a new block
/// takes the vectors with it.
AttrsPtr intern_clone(PathAttrs& clone);
}  // namespace detail

/// Copy-on-write helper: clones `base`, applies `mutate`, and re-interns.
/// The clone's cached hash is recomputed so the mutated block gets a
/// fresh one. Deriving a block that is already interned (a reflector
/// re-marking a route it reflected before) allocates nothing. `mutate`
/// must not call with_attrs() itself.
template <typename Fn>
AttrsPtr with_attrs(AttrsPtr base, Fn&& mutate) {
  PathAttrs& copy = detail::clone_buffer();
  copy = *base;
  mutate(copy);
  return detail::intern_clone(copy);
}

}  // namespace abrr::bgp
