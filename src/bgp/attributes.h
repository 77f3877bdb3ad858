// BGP path attributes: the builder a codec or a route edit fills in
// (PathAttrs), and the compact interned block every route points to
// (AttrBlock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
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

struct AttrsView;
class AttrBlock;

/// A mutable attribute set: the form that builds or edits a block. The
/// wire codec decodes into one, RouteBuilder and the MRT reader fill one
/// in, and with_attrs() edits a copy of a block in one. Routes never
/// hold a PathAttrs: make_attrs() interns it into an AttrBlock.
struct PathAttrs {
  AsPath as_path;
  Origin origin = Origin::kIncomplete;
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

  bool has_ext_community(ExtCommunity c) const;

  /// Replaces the content with `v`'s, reusing this set's vectors.
  void assign(const AttrsView& v);
};

/// Read-only view of one attribute set's content, whichever form holds
/// it. The content hash, the encoded size, the encoder and the interner's
/// equality test read this, so each exists once for both forms.
struct AttrsView {
  AttrsView(const PathAttrs& a)  // NOLINT(google-explicit-constructor)
      : origin(a.origin),
        next_hop(a.next_hop),
        local_pref(a.local_pref),
        med(a.med),
        originator_id(a.originator_id),
        as_path(a.as_path.view()),
        communities(a.communities),
        ext_communities(a.ext_communities),
        cluster_list(a.cluster_list) {}
  AttrsView(const AttrBlock& b);  // NOLINT(google-explicit-constructor)

  Origin origin;
  Ipv4Addr next_hop;
  std::uint32_t local_pref;
  std::optional<std::uint32_t> med;
  std::optional<RouterId> originator_id;
  AsPathView as_path;
  std::span<const Community> communities;
  std::span<const ExtCommunity> ext_communities;
  std::span<const std::uint32_t> cluster_list;
};

/// Same content, field by field.
bool operator==(const AttrsView& a, const AttrsView& b);

inline bool operator==(const PathAttrs& a, const PathAttrs& b) {
  return AttrsView{a} == AttrsView{b};
}

/// An interned attribute set: one compact, read-only arena allocation.
///
/// A fixed 40-byte header (content hash, NEXT_HOP, LOCAL_PREF, MED and
/// ORIGINATOR_ID with presence flags, ORIGIN, the encoded size and a
/// 16-bit count per list) is followed inline by the extended
/// communities, the AS path, the communities and the CLUSTER_LIST, in
/// that order. Nothing in it owns heap memory, so it is trivially
/// destructible: the interner's arena drops blocks wholesale.
///
/// Only AttrsInterner builds blocks, and equal live blocks of one
/// interner are pointer-identical (Quagga's attrhash does the same). A
/// block stays valid until its interner is reset between trials, so
/// copying a Route is pointer-cheap, with no refcount traffic.
class AttrBlock {
 public:
  AttrBlock(const AttrBlock&) = delete;
  AttrBlock& operator=(const AttrBlock&) = delete;

  /// attrs_content_hash of the content; never 0. Set hashing and
  /// announcement comparison read it instead of walking the block.
  std::uint64_t content_hash;
  /// NEXT_HOP: with next-hop-self, the egress border router's RouterId.
  Ipv4Addr next_hop;
  std::uint32_t local_pref;
  /// Exact RFC 4271 encoded length (encoded_attrs_size), so byte
  /// accounting never re-walks a block; 0 when longer than 65535 bytes.
  std::uint16_t encoded_size;
  Origin origin;

  std::optional<std::uint32_t> med() const {
    if ((flags_ & kHasMed) == 0) return std::nullopt;
    return med_;
  }
  std::optional<RouterId> originator_id() const {
    if ((flags_ & kHasOriginator) == 0) return std::nullopt;
    return originator_id_;
  }
  AsPathView as_path() const {
    return AsPathView{{reinterpret_cast<const Asn*>(
                           tail() + n_ext_communities_ * sizeof(ExtCommunity)),
                       n_asns_}};
  }
  std::span<const ExtCommunity> ext_communities() const {
    return {reinterpret_cast<const ExtCommunity*>(tail()), n_ext_communities_};
  }
  std::span<const Community> communities() const {
    return {as_path().asns().data() + n_asns_, n_communities_};
  }
  std::span<const std::uint32_t> cluster_list() const {
    return {communities().data() + n_communities_, n_cluster_list_};
  }
  bool has_ext_community(ExtCommunity c) const;

  /// Same content (hash first, then field by field): blocks of two
  /// interners can meet when routes outlive the scope that built them.
  friend bool operator==(const AttrBlock& a, const AttrBlock& b) {
    return a.content_hash == b.content_hash && AttrsView{a} == AttrsView{b};
  }

 private:
  friend class AttrsInterner;

  /// Fills the header and copies the lists in behind it; the caller
  /// provides bytes_for(attrs) bytes at alignof(AttrBlock).
  AttrBlock(const PathAttrs& attrs, std::uint64_t hash);

  /// Bytes a block of `v`'s content takes. Throws std::length_error
  /// when a list has more than 65535 entries.
  static std::size_t bytes_for(const AttrsView& v);

  const std::byte* tail() const {
    return reinterpret_cast<const std::byte*>(this + 1);
  }

  static constexpr std::uint8_t kHasMed = 1;
  static constexpr std::uint8_t kHasOriginator = 2;

  std::uint8_t flags_;
  std::uint32_t med_;
  RouterId originator_id_;
  std::uint16_t n_ext_communities_;
  std::uint16_t n_asns_;
  std::uint16_t n_communities_;
  std::uint16_t n_cluster_list_;
};

static_assert(sizeof(AttrBlock) == 40);
static_assert(std::is_trivially_destructible_v<AttrBlock>);
static_assert(alignof(AttrBlock) == alignof(ExtCommunity));

inline AttrsView::AttrsView(const AttrBlock& b)
    : origin(b.origin),
      next_hop(b.next_hop),
      local_pref(b.local_pref),
      med(b.med()),
      originator_id(b.originator_id()),
      as_path(b.as_path()),
      communities(b.communities()),
      ext_communities(b.ext_communities()),
      cluster_list(b.cluster_list()) {}

/// Exact RFC 4271 length of the AS_PATH attribute value: one (type,
/// count) prelude per 255-ASN segment, 4 octets per ASN (RFC 6793
/// four-octet AS numbers). An empty path is a zero-length value.
std::size_t encoded_as_path_size(AsPathView path);

/// Exact length of the RFC 4271 path-attribute list that
/// wire::Encoder::append_path_attrs() writes for `attrs` (attribute list
/// only, no message framing), computed without encoding.
std::size_t encoded_attrs_size(const AttrsView& attrs);

/// Shared immutable attribute handle: a stable pointer into the owning
/// AttrsInterner's arena (see AttrBlock).
using AttrsPtr = const AttrBlock*;

/// Interns an attribute set through AttrsInterner::global(): returns the
/// live block with equal content, or a new one.
AttrsPtr make_attrs(const PathAttrs& attrs);

namespace detail {
/// with_attrs()'s per-thread edit buffer. Assigning a block into it
/// reuses its vectors' capacity.
PathAttrs& clone_buffer();
}  // namespace detail

/// Copy-on-write helper: expands `base` into a reused buffer, applies
/// `mutate`, and interns the result. Deriving a block that is already
/// interned (a reflector re-marking a route it reflected before)
/// allocates nothing. `mutate` must not call with_attrs() itself.
template <typename Fn>
AttrsPtr with_attrs(AttrsPtr base, Fn&& mutate) {
  PathAttrs& copy = detail::clone_buffer();
  copy.assign(*base);
  mutate(copy);
  return make_attrs(copy);
}

}  // namespace abrr::bgp
