#include "wire/codec.h"

#include <algorithm>
#include <cstring>

namespace abrr::wire {
namespace {

// --- primitive big-endian I/O ----------------------------------------

void put8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v >> 32));
  put32(out, static_cast<std::uint32_t>(v));
}

/// Strict forward-only reader; every accessor is bounds-checked by the
/// caller via need().
struct Cursor {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  std::size_t left() const { return in.size() - pos; }
  bool need(std::size_t n) const { return left() >= n; }
  std::uint8_t u8() { return in[pos++]; }
  std::uint16_t u16() {
    const std::uint16_t v =
        static_cast<std::uint16_t>(in[pos] << 8 | in[pos + 1]);
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | in[pos + i];
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | in[pos + i];
    pos += 8;
    return v;
  }
};

// --- NLRI helpers -----------------------------------------------------

std::size_t prefix_bytes(std::uint8_t len) {
  return (static_cast<std::size_t>(len) + 7) / 8;
}

/// Wire length of one add-paths NLRI entry: path-id + length octet +
/// packed address bytes.
std::size_t nlri_size(const bgp::Ipv4Prefix& p) {
  return 4 + 1 + prefix_bytes(p.length());
}

void put_nlri(std::vector<std::uint8_t>& out, bgp::PathId id,
              const bgp::Ipv4Prefix& p) {
  put32(out, id);
  put8(out, p.length());
  const std::uint32_t addr = p.address();
  for (std::size_t i = 0; i < prefix_bytes(p.length()); ++i) {
    out.push_back(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
  }
}

/// Parses one add-paths NLRI entry; shared by the withdrawn-routes and
/// NLRI fields. `field` names the field for error reporting.
std::optional<DecodeError> get_nlri(Cursor& c, std::size_t field_end,
                                    PathEntry& out) {
  const std::size_t at = c.pos;
  if (field_end - c.pos < 5) {
    return DecodeError{ErrorCode::kUpdateMessage, kInvalidNetworkField, at,
                       "truncated (path-id, length) NLRI prelude"};
  }
  out.path_id = c.u32();
  const std::uint8_t plen = c.u8();
  if (plen > 32) {
    return DecodeError{ErrorCode::kUpdateMessage, kInvalidNetworkField,
                       c.pos - 1, "prefix length > 32"};
  }
  const std::size_t nbytes = prefix_bytes(plen);
  if (field_end - c.pos < nbytes) {
    return DecodeError{ErrorCode::kUpdateMessage, kInvalidNetworkField, c.pos,
                       "truncated prefix body"};
  }
  std::uint32_t addr = 0;
  for (std::size_t i = 0; i < nbytes; ++i) {
    addr |= static_cast<std::uint32_t>(c.u8()) << (24 - 8 * i);
  }
  // Host bits below the mask are tolerated and masked off (the prefix
  // class canonicalizes), mirroring liberal real-world receivers.
  out.prefix = bgp::Ipv4Prefix{addr, plen};
  return std::nullopt;
}

// --- attribute encoding ----------------------------------------------

// Flag octets (RFC 4271 §4.3): optional 0x80, transitive 0x40,
// partial 0x20, extended-length 0x10.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtLen = 0x10;

void put_attr_header(std::vector<std::uint8_t>& out, std::uint8_t flags,
                     AttrType type, std::size_t len) {
  if (len > 255) {
    put8(out, flags | kFlagExtLen);
    put8(out, static_cast<std::uint8_t>(type));
    put16(out, static_cast<std::uint16_t>(len));
  } else {
    put8(out, flags);
    put8(out, static_cast<std::uint8_t>(type));
    put8(out, static_cast<std::uint8_t>(len));
  }
}

void put_as_path(std::vector<std::uint8_t>& out, bgp::AsPathView path) {
  const std::span<const bgp::Asn> asns = path.asns();
  std::size_t i = 0;
  while (i < asns.size()) {
    const std::size_t count = std::min<std::size_t>(255, asns.size() - i);
    put8(out, 2);  // AS_SEQUENCE
    put8(out, static_cast<std::uint8_t>(count));
    for (std::size_t k = 0; k < count; ++k) put32(out, asns[i + k]);
    i += count;
  }
}

}  // namespace

std::string DecodeError::to_string() const {
  std::string out = code == ErrorCode::kMessageHeader ? "header-error("
                                                      : "update-error(";
  out += std::to_string(subcode);
  out += ") at byte ";
  out += std::to_string(offset);
  out += ": ";
  out += detail;
  return out;
}

// --- encoder ----------------------------------------------------------

void Encoder::append_path_attrs(const bgp::AttrsView& attrs,
                                std::vector<std::uint8_t>& out) {
  // Canonical ascending type-code order.
  put_attr_header(out, kFlagTransitive, AttrType::kOrigin, 1);
  put8(out, static_cast<std::uint8_t>(attrs.origin));

  put_attr_header(out, kFlagTransitive, AttrType::kAsPath,
                  bgp::encoded_as_path_size(attrs.as_path));
  put_as_path(out, attrs.as_path);

  put_attr_header(out, kFlagTransitive, AttrType::kNextHop, 4);
  put32(out, attrs.next_hop);

  if (attrs.med) {
    put_attr_header(out, kFlagOptional, AttrType::kMed, 4);
    put32(out, *attrs.med);
  }

  put_attr_header(out, kFlagTransitive, AttrType::kLocalPref, 4);
  put32(out, attrs.local_pref);

  if (!attrs.communities.empty()) {
    put_attr_header(out, kFlagOptional | kFlagTransitive,
                    AttrType::kCommunities, 4 * attrs.communities.size());
    for (const bgp::Community c : attrs.communities) put32(out, c);
  }

  if (attrs.originator_id) {
    put_attr_header(out, kFlagOptional, AttrType::kOriginatorId, 4);
    put32(out, *attrs.originator_id);
  }

  if (!attrs.cluster_list.empty()) {
    put_attr_header(out, kFlagOptional, AttrType::kClusterList,
                    4 * attrs.cluster_list.size());
    for (const std::uint32_t id : attrs.cluster_list) put32(out, id);
  }

  if (!attrs.ext_communities.empty()) {
    put_attr_header(out, kFlagOptional | kFlagTransitive,
                    AttrType::kExtCommunities,
                    8 * attrs.ext_communities.size());
    for (const bgp::ExtCommunity c : attrs.ext_communities) put64(out, c);
  }
}

namespace {

/// Opens a message: writes marker + length placeholder + type, returns
/// the offset of the message start for the later length patch.
std::size_t begin_message(std::vector<std::uint8_t>& out, std::uint8_t type) {
  const std::size_t start = out.size();
  out.insert(out.end(), 16, 0xFF);
  put16(out, 0);  // patched by end_message
  put8(out, type);
  return start;
}

void end_message(std::vector<std::uint8_t>& out, std::size_t start) {
  const std::size_t len = out.size() - start;
  out[start + 16] = static_cast<std::uint8_t>(len >> 8);
  out[start + 17] = static_cast<std::uint8_t>(len);
}

}  // namespace

std::span<const std::uint8_t> Encoder::encode(const bgp::UpdateMessage& msg) {
  buf_.clear();
  if (msg.keepalive) {
    const std::size_t start = begin_message(buf_, kTypeKeepalive);
    end_message(buf_, start);
    return buf_;
  }

  // Withdrawn routes ride in their own leading withdraw-only UPDATE(s):
  // mixing them into an announcing message is equally legal wire but
  // would entangle the two 4096-byte split computations.
  const bool withdraw_all = msg.full_set && msg.announce.empty();
  const std::size_t n_withdraw =
      msg.full_set ? (withdraw_all ? 1 : 0) : msg.withdraw.size();
  std::size_t w = 0;
  while (w < n_withdraw) {
    const std::size_t start = begin_message(buf_, kTypeUpdate);
    const std::size_t wlen_at = buf_.size();
    put16(buf_, 0);  // withdrawn routes length, patched below
    std::size_t used = kHeaderSize + 2 + 2;
    while (w < n_withdraw) {
      const std::size_t entry = nlri_size(msg.prefix);
      if (used + entry > kMaxMessageSize) break;
      put_nlri(buf_, withdraw_all ? 0 : msg.withdraw[w], msg.prefix);
      used += entry;
      ++w;
    }
    const std::size_t wlen = buf_.size() - wlen_at - 2;
    buf_[wlen_at] = static_cast<std::uint8_t>(wlen >> 8);
    buf_[wlen_at + 1] = static_cast<std::uint8_t>(wlen);
    put16(buf_, 0);  // total path attribute length
    end_message(buf_, start);
  }

  // Group announced routes by attribute block, first-seen order. With
  // interned attributes this is a pointer compare; announce sets are
  // small (≈ best-route fan-in), so the quadratic scan beats hashing.
  order_.clear();
  for (std::uint32_t i = 0; i < msg.announce.size(); ++i) {
    bool seen = false;
    for (const std::uint32_t j : order_) {
      if (msg.announce[j].attrs == msg.announce[i].attrs) {
        seen = true;
        break;
      }
    }
    if (!seen) order_.push_back(i);
  }

  for (const std::uint32_t g : order_) {
    const bgp::AttrsPtr attrs = msg.announce[g].attrs;
    const std::size_t alen = WireSizer::attrs_size(*attrs);
    std::size_t i = g;  // first member of the group
    while (i < msg.announce.size()) {
      const std::size_t start = begin_message(buf_, kTypeUpdate);
      put16(buf_, 0);  // no withdrawn routes
      put16(buf_, static_cast<std::uint16_t>(alen));
      append_path_attrs(*attrs, buf_);
      std::size_t used = kHeaderSize + 2 + 2 + alen;
      bool wrote = false;
      for (; i < msg.announce.size(); ++i) {
        const bgp::Route& r = msg.announce[i];
        if (r.attrs != attrs) continue;
        const std::size_t entry = nlri_size(msg.prefix);
        if (wrote && used + entry > kMaxMessageSize) break;
        put_nlri(buf_, r.path_id, msg.prefix);
        used += entry;
        wrote = true;
      }
      end_message(buf_, start);
      // Find the next unwritten member (i stopped at a split point or
      // the end; members before i are all written).
    }
  }

  if (buf_.empty()) {
    // Degenerate model message (nothing announced or withdrawn): the
    // closest wire form is an empty UPDATE (the End-of-RIB marker).
    const std::size_t start = begin_message(buf_, kTypeUpdate);
    put16(buf_, 0);
    put16(buf_, 0);
    end_message(buf_, start);
  }
  return buf_;
}

// --- exact size accounting --------------------------------------------

std::size_t WireSizer::attrs_size(const bgp::AttrBlock& attrs) {
  return attrs.encoded_size != 0 ? attrs.encoded_size
                                 : bgp::encoded_attrs_size(attrs);
}

std::uint64_t WireSizer::message_size(const bgp::UpdateMessage& msg) {
  if (msg.keepalive) return kHeaderSize;
  const bool withdraw_all = msg.full_set && msg.announce.empty();
  return train_size(msg.prefix,
                    msg.full_set ? (withdraw_all ? 1 : 0) : msg.withdraw.size(),
                    msg.announce);
}

std::uint64_t WireSizer::full_set_size(const bgp::Ipv4Prefix& prefix,
                                       std::span<const bgp::Route> routes) {
  return train_size(prefix, routes.empty() ? 1 : 0, routes);
}

std::uint64_t WireSizer::train_size(const bgp::Ipv4Prefix& prefix,
                                    std::size_t n_withdraw,
                                    std::span<const bgp::Route> announce) {
  std::uint64_t total = 0;
  const std::size_t entry = nlri_size(prefix);

  // Withdraw-only leading message train (mirrors Encoder::encode).
  while (n_withdraw > 0) {
    const std::size_t fit = (kMaxMessageSize - kHeaderSize - 4) / entry;
    const std::size_t take = std::min(n_withdraw, std::max<std::size_t>(fit, 1));
    total += kHeaderSize + 4 + take * entry;
    n_withdraw -= take;
  }

  // Announce groups, first-seen order.
  order_.clear();
  for (const bgp::Route& r : announce) {
    if (std::find(order_.begin(), order_.end(), r.attrs) == order_.end()) {
      order_.push_back(r.attrs);
    }
  }
  for (const bgp::AttrsPtr attrs : order_) {
    const std::size_t alen = attrs_size(*attrs);
    std::size_t members = 0;
    for (const bgp::Route& r : announce) {
      if (r.attrs == attrs) ++members;
    }
    const std::size_t base = kHeaderSize + 4 + alen;
    std::size_t fit = base < kMaxMessageSize
                          ? (kMaxMessageSize - base) / entry
                          : 0;
    fit = std::max<std::size_t>(fit, 1);  // encoder always writes one
    while (members > 0) {
      const std::size_t take = std::min(members, fit);
      total += base + take * entry;
      members -= take;
    }
  }

  if (total == 0) total = kHeaderSize + 4;  // empty UPDATE (End-of-RIB)
  return total;
}

// --- decoder ----------------------------------------------------------

namespace {

std::optional<DecodeError> parse_entries(Cursor& c, std::size_t field_end,
                                         std::vector<PathEntry>& out) {
  while (c.pos < field_end) {
    PathEntry e;
    if (auto err = get_nlri(c, field_end, e)) return err;
    out.push_back(e);
  }
  return std::nullopt;
}

struct AttrSpec {
  std::uint8_t type;
  bool optional_;
  bool transitive;
};

/// Expected flag classes for the attribute types we model.
constexpr AttrSpec kKnownAttrs[] = {
    {1, false, true},   // ORIGIN
    {2, false, true},   // AS_PATH
    {3, false, true},   // NEXT_HOP
    {4, true, false},   // MED
    {5, false, true},   // LOCAL_PREF
    {8, true, true},    // COMMUNITIES
    {9, true, false},   // ORIGINATOR_ID
    {10, true, false},  // CLUSTER_LIST
    {16, true, true},   // EXT_COMMUNITIES
};

const AttrSpec* find_spec(std::uint8_t type) {
  for (const AttrSpec& s : kKnownAttrs) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

std::optional<DecodeError> parse_as_path(std::span<const std::uint8_t> value,
                                         std::size_t base_offset,
                                         bgp::PathAttrs& out) {
  std::vector<bgp::Asn> asns;
  Cursor c{value};
  while (c.left() > 0) {
    if (!c.need(2)) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAsPath,
                         base_offset + c.pos, "truncated segment header"};
    }
    const std::uint8_t seg_type = c.u8();
    const std::uint8_t count = c.u8();
    if (seg_type != 1 && seg_type != 2) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAsPath,
                         base_offset + c.pos - 2, "bad segment type"};
    }
    if (count == 0) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAsPath,
                         base_offset + c.pos - 1, "empty segment"};
    }
    if (!c.need(4u * count)) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAsPath,
                         base_offset + c.pos, "segment overruns value"};
    }
    // AS_SETs (type 1, from aggregation) are outside the model; their
    // members are folded into the sequence so the parser stays total.
    for (std::uint8_t i = 0; i < count; ++i) asns.push_back(c.u32());
  }
  out.as_path = bgp::AsPath{std::move(asns)};
  return std::nullopt;
}

}  // namespace

std::optional<DecodeError> decode_path_attrs(std::span<const std::uint8_t> in,
                                             bgp::PathAttrs& out,
                                             bool require_mandatory) {
  out = bgp::PathAttrs{};
  out.local_pref = bgp::kDefaultLocalPref;
  bool seen[256] = {};
  Cursor c{in};
  while (c.left() > 0) {
    const std::size_t attr_at = c.pos;
    if (!c.need(3)) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                         attr_at, "truncated attribute header"};
    }
    const std::uint8_t flags = c.u8();
    const std::uint8_t type = c.u8();
    std::size_t len;
    if (flags & kFlagExtLen) {
      if (!c.need(2)) {
        return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                           c.pos, "truncated extended length"};
      }
      len = c.u16();
    } else {
      len = c.u8();
    }
    if (!c.need(len)) {
      return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                         attr_at, "attribute value overruns the list"};
    }
    if (seen[type]) {
      return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                         attr_at, "duplicate attribute"};
    }
    seen[type] = true;

    const AttrSpec* spec = find_spec(type);
    if (spec == nullptr) {
      if (!(flags & kFlagOptional)) {
        return DecodeError{ErrorCode::kUpdateMessage,
                           kUnrecognizedWellKnownAttribute, attr_at,
                           "unknown well-known attribute"};
      }
      c.pos += len;  // unknown optional: skip (transit not modeled)
      continue;
    }
    if (static_cast<bool>(flags & kFlagOptional) != spec->optional_ ||
        static_cast<bool>(flags & kFlagTransitive) != spec->transitive) {
      return DecodeError{ErrorCode::kUpdateMessage, kAttributeFlagsError,
                         attr_at, "flags disagree with attribute class"};
    }

    const std::span<const std::uint8_t> value = in.subspan(c.pos, len);
    const std::size_t value_at = c.pos;
    Cursor v{value};
    switch (static_cast<AttrType>(type)) {
      case AttrType::kOrigin: {
        if (len != 1) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at, "ORIGIN length != 1"};
        }
        const std::uint8_t o = v.u8();
        if (o > 2) {
          return DecodeError{ErrorCode::kUpdateMessage, kInvalidOrigin,
                             value_at, "ORIGIN value > 2"};
        }
        out.origin = static_cast<bgp::Origin>(o);
        break;
      }
      case AttrType::kAsPath: {
        if (auto err = parse_as_path(value, value_at, out)) return err;
        break;
      }
      case AttrType::kNextHop: {
        if (len != 4) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at, "NEXT_HOP length != 4"};
        }
        const std::uint32_t nh = v.u32();
        if (nh == 0 || nh == 0xFFFFFFFFu) {
          return DecodeError{ErrorCode::kUpdateMessage, kInvalidNextHop,
                             value_at, "NEXT_HOP is 0.0.0.0 or broadcast"};
        }
        out.next_hop = nh;
        break;
      }
      case AttrType::kMed: {
        if (len != 4) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at, "MED length != 4"};
        }
        out.med = v.u32();
        break;
      }
      case AttrType::kLocalPref: {
        if (len != 4) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at, "LOCAL_PREF length != 4"};
        }
        out.local_pref = v.u32();
        break;
      }
      case AttrType::kCommunities: {
        if (len == 0 || len % 4 != 0) {
          return DecodeError{ErrorCode::kUpdateMessage,
                             kOptionalAttributeError, value_at,
                             "COMMUNITIES length not a positive multiple of 4"};
        }
        for (std::size_t i = 0; i < len / 4; ++i) {
          out.communities.push_back(v.u32());
        }
        break;
      }
      case AttrType::kOriginatorId: {
        if (len != 4) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at, "ORIGINATOR_ID length != 4"};
        }
        out.originator_id = v.u32();
        break;
      }
      case AttrType::kClusterList: {
        if (len == 0 || len % 4 != 0) {
          return DecodeError{ErrorCode::kUpdateMessage, kAttributeLengthError,
                             value_at,
                             "CLUSTER_LIST length not a positive multiple of 4"};
        }
        for (std::size_t i = 0; i < len / 4; ++i) {
          out.cluster_list.push_back(v.u32());
        }
        break;
      }
      case AttrType::kExtCommunities: {
        if (len == 0 || len % 8 != 0) {
          return DecodeError{
              ErrorCode::kUpdateMessage, kOptionalAttributeError, value_at,
              "EXTENDED COMMUNITIES length not a positive multiple of 8"};
        }
        for (std::size_t i = 0; i < len / 8; ++i) {
          out.ext_communities.push_back(v.u64());
        }
        break;
      }
    }
    c.pos = value_at + len;
  }

  if (require_mandatory && (!seen[1] || !seen[2] || !seen[3])) {
    return DecodeError{ErrorCode::kUpdateMessage, kMissingWellKnownAttribute,
                       in.size(), "missing ORIGIN, AS_PATH or NEXT_HOP"};
  }
  return std::nullopt;
}

std::optional<DecodeError> decode_message(std::span<const std::uint8_t> in,
                                          DecodedUpdate& out,
                                          std::size_t& consumed) {
  out = DecodedUpdate{};
  if (in.size() < kHeaderSize) {
    return DecodeError{ErrorCode::kMessageHeader, kBadMessageLength,
                       in.size(), "truncated message header"};
  }
  for (std::size_t i = 0; i < 16; ++i) {
    if (in[i] != 0xFF) {
      return DecodeError{ErrorCode::kMessageHeader,
                         kConnectionNotSynchronized, i,
                         "marker octet is not 0xFF"};
    }
  }
  const std::size_t len =
      static_cast<std::size_t>(in[16]) << 8 | static_cast<std::size_t>(in[17]);
  if (len < kHeaderSize || len > kMaxMessageSize) {
    return DecodeError{ErrorCode::kMessageHeader, kBadMessageLength, 16,
                       "length outside [19, 4096]"};
  }
  if (len > in.size()) {
    return DecodeError{ErrorCode::kMessageHeader, kBadMessageLength, 16,
                       "length exceeds available bytes"};
  }
  const std::uint8_t type = in[18];
  out.type = type;
  consumed = len;

  if (type == kTypeKeepalive) {
    if (len != kHeaderSize) {
      return DecodeError{ErrorCode::kMessageHeader, kBadMessageLength, 16,
                         "KEEPALIVE with a body"};
    }
    return std::nullopt;
  }
  // The simulator's wire carries only UPDATE and KEEPALIVE; OPEN and
  // NOTIFICATION (types 1/3) are as unexpected here as garbage.
  if (type != kTypeUpdate) {
    return DecodeError{ErrorCode::kMessageHeader, kBadMessageType, 18,
                       "not an UPDATE or KEEPALIVE"};
  }

  Cursor c{in.first(len)};
  c.pos = kHeaderSize;
  if (!c.need(2)) {
    return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                       c.pos, "missing withdrawn-routes length"};
  }
  const std::size_t wlen = c.u16();
  if (!c.need(wlen)) {
    return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                       c.pos - 2, "withdrawn routes overrun the message"};
  }
  if (auto err = parse_entries(c, c.pos + wlen, out.withdrawn)) return err;

  if (!c.need(2)) {
    return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                       c.pos, "missing total-path-attribute length"};
  }
  const std::size_t alen = c.u16();
  if (!c.need(alen)) {
    return DecodeError{ErrorCode::kUpdateMessage, kMalformedAttributeList,
                       c.pos - 2, "path attributes overrun the message"};
  }
  const std::size_t attrs_at = c.pos;
  const std::size_t nlri_at = attrs_at + alen;
  const bool has_nlri = nlri_at < len;

  if (alen > 0) {
    if (auto err = decode_path_attrs(in.subspan(attrs_at, alen), out.attrs,
                                     /*require_mandatory=*/has_nlri)) {
      err->offset += attrs_at;
      return err;
    }
    out.has_attrs = true;
  } else if (has_nlri) {
    return DecodeError{ErrorCode::kUpdateMessage,
                       kMissingWellKnownAttribute, attrs_at,
                       "NLRI present but no path attributes"};
  }

  c.pos = nlri_at;
  if (auto err = parse_entries(c, len, out.nlri)) return err;
  return std::nullopt;
}

std::optional<DecodeError> decode_all(std::span<const std::uint8_t> in,
                                      std::vector<DecodedUpdate>& out) {
  std::size_t pos = 0;
  while (pos < in.size()) {
    DecodedUpdate msg;
    std::size_t consumed = 0;
    if (auto err = decode_message(in.subspan(pos), msg, consumed)) {
      err->offset += pos;
      return err;
    }
    out.push_back(std::move(msg));
    pos += consumed;
  }
  return std::nullopt;
}

bgp::UpdateMessage reassemble(const std::vector<DecodedUpdate>& msgs) {
  bgp::UpdateMessage out;
  if (msgs.size() == 1 && msgs.front().type == kTypeKeepalive) {
    out.keepalive = true;
    return out;
  }
  bool have_prefix = false;
  bool withdraw_all = false;
  for (const DecodedUpdate& m : msgs) {
    for (const PathEntry& e : m.withdrawn) {
      if (!have_prefix) {
        out.prefix = e.prefix;
        have_prefix = true;
      }
      if (e.path_id == 0) {
        withdraw_all = true;  // the encoder's "whole set gone" sentinel
      } else {
        out.withdraw.push_back(e.path_id);
      }
    }
    for (const PathEntry& e : m.nlri) {
      if (!have_prefix) {
        out.prefix = e.prefix;
        have_prefix = true;
      }
      bgp::Route r;
      r.prefix = e.prefix;
      r.path_id = e.path_id;
      r.attrs = bgp::make_attrs(m.attrs);
      out.announce.push_back(std::move(r));
    }
  }
  // full_set is replacement semantics above the wire; reconstruct it
  // the way the encoder maps it out (announcing trains and the
  // withdraw-all sentinel are full_set, explicit id withdraws are not).
  out.full_set = withdraw_all || (!out.announce.empty() && out.withdraw.empty());
  return out;
}

}  // namespace abrr::wire
