// Wire-faithful BGP message codec: RFC 4271 UPDATE/KEEPALIVE framing
// with RFC 7911 add-paths (path-ID-tagged) prefixes.
//
// The simulator's UpdateMessage is a model-level object: one prefix,
// several announced routes (possibly with DIFFERENT attribute blocks)
// and replacement (`full_set`) semantics. A real BGP UPDATE carries
// exactly one path-attribute block, so the encoder maps one
// UpdateMessage onto a *train* of wire messages:
//
//   - KEEPALIVE            -> one 19-byte KEEPALIVE.
//   - announced routes     -> grouped by attribute block (first-seen
//     order; interned blocks make the grouping a pointer compare), one
//     UPDATE per group carrying the block once plus the group's
//     (path-id, prefix) NLRIs; a group whose NLRIs would push the
//     message past the 4096-byte RFC limit is split across UPDATEs.
//   - withdraw path-ids    -> WITHDRAWN ROUTES of the first UPDATE.
//   - full_set with no announced routes ("prefix gone") -> one
//     withdraw-only UPDATE carrying path-id 0. The model's sender keeps
//     no per-peer path-id state, so the explicit per-id withdraws a
//     real speaker would emit are represented by this single sentinel
//     entry; the byte cost is therefore a (documented) lower bound for
//     that rare message class.
//
// The decoder is the adversarial half: a strict, bounds-checked parser
// that never reads past its span and returns structured RFC 4271 §6.1 /
// §6.3 error (code, subcode, offset) triples instead of crashing —
// it is the fuzz target (tests/wire/fuzz_decode.cpp) and is reused by
// trace/mrt.cpp so the repo has exactly one path-attribute parser.
//
// Attribute coverage: ORIGIN, AS_PATH (4-octet ASNs, AS_SEQUENCE /
// AS_SET segments), NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, COMMUNITIES,
// ORIGINATOR_ID, CLUSTER_LIST and EXTENDED COMMUNITIES — everything
// PathAttrs models. Unknown optional attributes are skipped (transit
// semantics are out of scope); unknown well-known attributes are
// errors, per RFC 4271.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/prefix.h"
#include "bgp/update.h"

namespace abrr::wire {

// --- wire constants ---------------------------------------------------

inline constexpr std::size_t kHeaderSize = 19;       // marker+length+type
inline constexpr std::size_t kMaxMessageSize = 4096; // RFC 4271 §4.1
inline constexpr std::uint8_t kTypeUpdate = 2;
inline constexpr std::uint8_t kTypeKeepalive = 4;

/// Path attribute type codes (RFC 4271 §5.1, RFC 1997, RFC 4360,
/// RFC 4456).
enum class AttrType : std::uint8_t {
  kOrigin = 1,
  kAsPath = 2,
  kNextHop = 3,
  kMed = 4,
  kLocalPref = 5,
  kCommunities = 8,
  kOriginatorId = 9,
  kClusterList = 10,
  kExtCommunities = 16,
};

// --- structured decode errors ----------------------------------------

/// NOTIFICATION error code the failure would be reported under.
enum class ErrorCode : std::uint8_t {
  kMessageHeader = 1,  // RFC 4271 §6.1
  kUpdateMessage = 3,  // RFC 4271 §6.3
};

// §6.1 Message Header Error subcodes.
inline constexpr std::uint8_t kConnectionNotSynchronized = 1;
inline constexpr std::uint8_t kBadMessageLength = 2;
inline constexpr std::uint8_t kBadMessageType = 3;

// §6.3 UPDATE Message Error subcodes.
inline constexpr std::uint8_t kMalformedAttributeList = 1;
inline constexpr std::uint8_t kUnrecognizedWellKnownAttribute = 2;
inline constexpr std::uint8_t kMissingWellKnownAttribute = 3;
inline constexpr std::uint8_t kAttributeFlagsError = 4;
inline constexpr std::uint8_t kAttributeLengthError = 5;
inline constexpr std::uint8_t kInvalidOrigin = 6;
inline constexpr std::uint8_t kInvalidNextHop = 8;
inline constexpr std::uint8_t kOptionalAttributeError = 9;
inline constexpr std::uint8_t kInvalidNetworkField = 10;
inline constexpr std::uint8_t kMalformedAsPath = 11;

/// One structured parse failure: what a conforming speaker would put in
/// its NOTIFICATION, plus where in the input it tripped.
struct DecodeError {
  ErrorCode code = ErrorCode::kMessageHeader;
  std::uint8_t subcode = 0;
  std::size_t offset = 0;      // byte offset into the decoded buffer
  const char* detail = "";     // static human-readable context

  std::string to_string() const;
};

// --- decoded form -----------------------------------------------------

/// One add-paths (path-id, prefix) tuple (RFC 7911 §3).
struct PathEntry {
  bgp::PathId path_id = 0;
  bgp::Ipv4Prefix prefix;

  friend bool operator==(const PathEntry&, const PathEntry&) = default;
};

/// One parsed wire message.
struct DecodedUpdate {
  std::uint8_t type = kTypeUpdate;
  std::vector<PathEntry> withdrawn;
  /// Decoded attribute block (by value, NOT interned: the decoder must
  /// not touch shared state — it runs under the fuzzer).
  bgp::PathAttrs attrs;
  /// True when the message carried a non-empty attribute block.
  bool has_attrs = false;
  std::vector<PathEntry> nlri;
};

/// Decodes the single message at the front of `in`. On success fills
/// `out`, sets `consumed` to the message's wire length and returns
/// nullopt; on failure returns the error (out/consumed unspecified).
std::optional<DecodeError> decode_message(std::span<const std::uint8_t> in,
                                          DecodedUpdate& out,
                                          std::size_t& consumed);

/// Decodes a buffer of back-to-back messages (the encoder's output
/// form). Appends to `out`; stops at the first error.
std::optional<DecodeError> decode_all(std::span<const std::uint8_t> in,
                                      std::vector<DecodedUpdate>& out);

/// Parses exactly `in` as a path-attribute list (the UPDATE's "Path
/// Attributes" field). `require_mandatory` additionally enforces the
/// §6.3 missing-well-known check (ORIGIN, AS_PATH, NEXT_HOP) that
/// applies when the enclosing UPDATE announces NLRI. Shared with
/// trace/mrt.cpp so attribute parsing exists exactly once.
std::optional<DecodeError> decode_path_attrs(std::span<const std::uint8_t> in,
                                             bgp::PathAttrs& out,
                                             bool require_mandatory);

/// Folds a decoded message train (one Encoder::encode() output) back
/// into the model message. Announced routes get interned attribute
/// blocks via make_attrs(); the prefix is taken from the first NLRI or
/// withdrawn entry. Inverse of Encoder::encode up to the documented
/// full_set mapping.
bgp::UpdateMessage reassemble(const std::vector<DecodedUpdate>& msgs);

// --- encoder ----------------------------------------------------------

/// Serializer with a reused scratch buffer: after the first few
/// messages warm it up, encoding allocates nothing (the buffer and the
/// grouping scratch are retained across calls, trial-arena style). One
/// instance per Network / per trial; not thread-safe.
class Encoder {
 public:
  /// Encodes `msg` as its wire-message train. The returned view aliases
  /// the internal scratch buffer and is valid until the next encode().
  std::span<const std::uint8_t> encode(const bgp::UpdateMessage& msg);

  /// Appends the RFC 4271 encoding of one path-attribute block
  /// (attribute list only, no message framing) to `out`.
  static void append_path_attrs(const bgp::AttrsView& attrs,
                                std::vector<std::uint8_t>& out);

 private:
  std::vector<std::uint8_t> buf_;
  // encode() scratch: announced-route indices grouped by attrs block.
  std::vector<std::uint32_t> order_;
};

// --- exact size accounting --------------------------------------------

/// Exact encoded size of model messages, without encoding them.
///
/// Attribute-block lengths come from the interned block itself
/// (AttrBlock::encoded_size, stored when the block is interned), so an
/// ARR reflecting one block to hundreds of clients walks it once, at
/// intern time, and Network::send's byte accounting is O(#routes) field
/// reads. Holds only a reused grouping scratch; one per Network.
class WireSizer {
 public:
  /// Exact total wire length of the message train encode() would emit.
  std::uint64_t message_size(const bgp::UpdateMessage& msg);

  /// message_size() of the full-set UPDATE that announces `routes` for
  /// `prefix` (no routes: the prefix is withdrawn), without building it.
  std::uint64_t full_set_size(const bgp::Ipv4Prefix& prefix,
                              std::span<const bgp::Route> routes);

  /// Exact length of one attribute block (the stored length when the
  /// block has one, bgp::encoded_attrs_size otherwise).
  static std::size_t attrs_size(const bgp::AttrBlock& attrs);

 private:
  /// `n_withdraw` withdrawn path ids, then `announce` grouped by block.
  std::uint64_t train_size(const bgp::Ipv4Prefix& prefix,
                           std::size_t n_withdraw,
                           std::span<const bgp::Route> announce);

  std::vector<bgp::AttrsPtr> order_;  // message_size() scratch
};

}  // namespace abrr::wire
