// Exact wire-layout and rejection tests for the RFC 4271/7911 codec.
//
// The layout tests pin every byte of representative encodings (so a
// codec change that moves a single octet fails loudly); the rejection
// tests cover every RFC 4271 §6.1/§6.3 subcode the decoder can return,
// one malformed input per subcode.
#include "wire/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bgp/route.h"

namespace abrr::wire {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;
using bgp::UpdateMessage;

void be16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void be32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  be16(out, static_cast<std::uint16_t>(v >> 16));
  be16(out, static_cast<std::uint16_t>(v));
}

/// Frames `body` as one BGP message of `type`; `forced_len` overrides
/// the length field for header-error tests.
std::vector<std::uint8_t> frame(std::uint8_t type,
                                const std::vector<std::uint8_t>& body,
                                int forced_len = -1) {
  std::vector<std::uint8_t> out(16, 0xFF);
  const std::size_t len =
      forced_len >= 0 ? static_cast<std::size_t>(forced_len)
                      : kHeaderSize + body.size();
  be16(out, static_cast<std::uint16_t>(len));
  out.push_back(type);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// UPDATE body from its three raw fields.
std::vector<std::uint8_t> update_body(
    const std::vector<std::uint8_t>& withdrawn,
    const std::vector<std::uint8_t>& attrs,
    const std::vector<std::uint8_t>& nlri) {
  std::vector<std::uint8_t> out;
  be16(out, static_cast<std::uint16_t>(withdrawn.size()));
  out.insert(out.end(), withdrawn.begin(), withdrawn.end());
  be16(out, static_cast<std::uint16_t>(attrs.size()));
  out.insert(out.end(), attrs.begin(), attrs.end());
  out.insert(out.end(), nlri.begin(), nlri.end());
  return out;
}

void attr(std::vector<std::uint8_t>& out, std::uint8_t flags,
          std::uint8_t type, const std::vector<std::uint8_t>& value) {
  out.push_back(flags);
  out.push_back(type);
  out.push_back(static_cast<std::uint8_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

/// A minimal valid mandatory attribute set (ORIGIN, AS_PATH, NEXT_HOP).
std::vector<std::uint8_t> mandatory_attrs() {
  std::vector<std::uint8_t> a;
  attr(a, 0x40, 1, {0});                                   // ORIGIN igp
  attr(a, 0x40, 2, {2, 1, 0x00, 0x00, 0xFD, 0xE9});        // AS_PATH [65001]
  attr(a, 0x40, 3, {10, 0, 0, 1});                         // NEXT_HOP
  return a;
}

/// One valid add-paths NLRI entry: path-id 7, 10.0.0.0/8.
std::vector<std::uint8_t> one_nlri() {
  std::vector<std::uint8_t> n;
  be32(n, 7);
  n.push_back(8);
  n.push_back(10);
  return n;
}

std::optional<DecodeError> decode(const std::vector<std::uint8_t>& in) {
  DecodedUpdate out;
  std::size_t consumed = 0;
  return decode_message(std::span<const std::uint8_t>{in}, out, consumed);
}

void expect_error(const std::vector<std::uint8_t>& in, ErrorCode code,
                  std::uint8_t subcode) {
  const auto err = decode(in);
  ASSERT_TRUE(err.has_value()) << "decoder accepted malformed input";
  EXPECT_EQ(err->code, code) << err->to_string();
  EXPECT_EQ(err->subcode, subcode) << err->to_string();
}

Route route(const Ipv4Prefix& prefix, bgp::PathId id,
            std::initializer_list<bgp::Asn> path, std::uint32_t next_hop) {
  return RouteBuilder{prefix}
      .path_id(id)
      .as_path(path)
      .origin(bgp::Origin::kIgp)
      .next_hop(next_hop)
      .local_pref(100)
      .build();
}

// --- exact layout -----------------------------------------------------

TEST(WireEncoder, KeepaliveIsExactly19Bytes) {
  Encoder enc;
  UpdateMessage m;
  m.keepalive = true;
  const auto out = enc.encode(m);
  std::vector<std::uint8_t> expect(16, 0xFF);
  be16(expect, 19);
  expect.push_back(kTypeKeepalive);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), expect);
}

TEST(WireEncoder, SingleAnnounceExactLayout) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  m.announce.push_back(
      route(m.prefix, 7, {65001, 65002}, 0x0A000001));
  const auto out = enc.encode(m);

  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 1, {0});  // ORIGIN igp
  attr(attrs, 0x40, 2,
       {2, 2, 0x00, 0x00, 0xFD, 0xE9, 0x00, 0x00, 0xFD, 0xEA});  // AS_PATH
  attr(attrs, 0x40, 3, {0x0A, 0x00, 0x00, 0x01});                // NEXT_HOP
  attr(attrs, 0x40, 5, {0, 0, 0, 100});                          // LOCAL_PREF
  std::vector<std::uint8_t> nlri;
  be32(nlri, 7);
  nlri.push_back(8);
  nlri.push_back(10);
  const auto expect = frame(kTypeUpdate, update_body({}, attrs, nlri));

  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), expect);
  EXPECT_EQ(out.size(), 60u);
}

TEST(WireEncoder, ExplicitWithdrawsLeadTheTrain) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("192.168.0.0/16");
  m.withdraw = {3, 9};
  const auto out = enc.encode(m);

  std::vector<std::uint8_t> withdrawn;
  be32(withdrawn, 3);
  withdrawn.push_back(16);
  withdrawn.push_back(192);
  withdrawn.push_back(168);
  be32(withdrawn, 9);
  withdrawn.push_back(16);
  withdrawn.push_back(192);
  withdrawn.push_back(168);
  const auto expect = frame(kTypeUpdate, update_body(withdrawn, {}, {}));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), expect);
}

TEST(WireEncoder, FullSetWithdrawUsesPathIdZeroSentinel) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;  // announce empty: "prefix gone entirely"
  const auto out = enc.encode(m);

  std::vector<std::uint8_t> withdrawn;
  be32(withdrawn, 0);
  withdrawn.push_back(8);
  withdrawn.push_back(10);
  const auto expect = frame(kTypeUpdate, update_body(withdrawn, {}, {}));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), expect);
}

TEST(WireEncoder, EmptyMessageIsEndOfRib) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  const auto out = enc.encode(m);
  EXPECT_EQ(out.size(), 23u);  // bare header + two zero lengths
  const auto expect = frame(kTypeUpdate, update_body({}, {}, {}));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), expect);
}

TEST(WireEncoder, GroupsAnnouncesByAttributeBlock) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  m.announce.push_back(route(m.prefix, 1, {65001}, 0x0A000001));
  m.announce.push_back(route(m.prefix, 2, {65002}, 0x0A000002));
  m.announce.push_back(route(m.prefix, 3, {65001}, 0x0A000001));
  ASSERT_EQ(m.announce[0].attrs, m.announce[2].attrs);  // interned

  const auto out = enc.encode(m);
  std::vector<DecodedUpdate> msgs;
  ASSERT_FALSE(decode_all(out, msgs).has_value());
  ASSERT_EQ(msgs.size(), 2u);  // two attribute blocks -> two UPDATEs
  // First-seen order: block of routes 1 and 3 first, then route 2's.
  ASSERT_EQ(msgs[0].nlri.size(), 2u);
  EXPECT_EQ(msgs[0].nlri[0].path_id, 1u);
  EXPECT_EQ(msgs[0].nlri[1].path_id, 3u);
  ASSERT_EQ(msgs[1].nlri.size(), 1u);
  EXPECT_EQ(msgs[1].nlri[0].path_id, 2u);
  EXPECT_EQ(msgs[0].attrs.as_path.first(), 65001u);
  EXPECT_EQ(msgs[1].attrs.as_path.first(), 65002u);
}

TEST(WireEncoder, SplitsGroupsAtTheMessageSizeLimit) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  for (std::uint32_t i = 1; i <= 1500; ++i) {
    m.announce.push_back(route(m.prefix, i, {65001}, 0x0A000001));
  }
  const auto out = enc.encode(m);
  std::vector<DecodedUpdate> msgs;
  ASSERT_FALSE(decode_all(out, msgs).has_value());
  ASSERT_GT(msgs.size(), 1u);
  std::size_t total = 0;
  std::uint32_t expect_id = 1;
  for (const DecodedUpdate& u : msgs) {
    total += u.nlri.size();
    for (const PathEntry& e : u.nlri) EXPECT_EQ(e.path_id, expect_id++);
  }
  EXPECT_EQ(total, 1500u);
  // Every message respects the RFC limit.
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t len = static_cast<std::size_t>(out[pos + 16]) << 8 |
                            out[pos + 17];
    EXPECT_LE(len, kMaxMessageSize);
    pos += len;
  }
  EXPECT_EQ(pos, out.size());
}

TEST(WireSizer, MatchesEncoderExactly) {
  Encoder enc;
  WireSizer sizer;
  const auto prefix = Ipv4Prefix::parse("10.1.0.0/16");

  std::vector<UpdateMessage> cases;
  {
    UpdateMessage m;
    m.keepalive = true;
    cases.push_back(m);
  }
  {
    UpdateMessage m;
    m.prefix = prefix;
    cases.push_back(m);  // End-of-RIB
  }
  {
    UpdateMessage m;
    m.prefix = prefix;
    m.full_set = true;
    cases.push_back(m);  // withdraw-all sentinel
  }
  {
    UpdateMessage m;
    m.prefix = prefix;
    m.withdraw = {1, 2, 3};
    cases.push_back(m);
  }
  {
    UpdateMessage m;
    m.prefix = prefix;
    m.full_set = true;
    for (std::uint32_t i = 1; i <= 900; ++i) {
      m.announce.push_back(route(prefix, i, {65001, 65002}, 0x0A000001));
      if (i % 3 == 0) {
        m.announce.push_back(route(prefix, 2000 + i, {65002}, 0x0A000002));
      }
    }
    cases.push_back(m);  // multi-group with splitting
  }
  for (const UpdateMessage& m : cases) {
    EXPECT_EQ(sizer.message_size(m), enc.encode(m).size());
  }
  // Interned blocks carry their exact length; the sizer reads it.
  const bgp::AttrBlock& block = *cases.back().announce.front().attrs;
  EXPECT_NE(block.encoded_size, 0u);
  EXPECT_EQ(block.encoded_size, bgp::encoded_attrs_size(block));
}

TEST(WireReassemble, InvertsTheEncoderMapping) {
  Encoder enc;
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  m.announce.push_back(route(m.prefix, 4, {65001, 64999}, 0x0A000001));
  m.announce.push_back(route(m.prefix, 5, {65002}, 0x0A000002));

  std::vector<DecodedUpdate> msgs;
  ASSERT_FALSE(decode_all(enc.encode(m), msgs).has_value());
  const UpdateMessage back = reassemble(msgs);
  EXPECT_EQ(back.prefix, m.prefix);
  EXPECT_TRUE(back.full_set);
  ASSERT_EQ(back.announce.size(), 2u);
  EXPECT_EQ(back.announce[0].path_id, 4u);
  EXPECT_EQ(back.announce[1].path_id, 5u);
  // Decoded blocks re-intern to the identical attribute pointers.
  EXPECT_EQ(back.announce[0].attrs, m.announce[0].attrs);
  EXPECT_EQ(back.announce[1].attrs, m.announce[1].attrs);
}

// --- §6.1 message header errors ---------------------------------------

TEST(WireDecoder, RejectsBadMarker) {
  auto in = frame(kTypeKeepalive, {});
  in[5] = 0x00;
  expect_error(in, ErrorCode::kMessageHeader, kConnectionNotSynchronized);
}

TEST(WireDecoder, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> in(10, 0xFF);
  expect_error(in, ErrorCode::kMessageHeader, kBadMessageLength);
}

TEST(WireDecoder, RejectsLengthBelowMinimum) {
  expect_error(frame(kTypeKeepalive, {}, 18), ErrorCode::kMessageHeader,
               kBadMessageLength);
}

TEST(WireDecoder, RejectsLengthAboveMaximum) {
  expect_error(frame(kTypeUpdate, {}, 4097), ErrorCode::kMessageHeader,
               kBadMessageLength);
}

TEST(WireDecoder, RejectsLengthBeyondBuffer) {
  expect_error(frame(kTypeUpdate, update_body({}, {}, {}), 100),
               ErrorCode::kMessageHeader, kBadMessageLength);
}

TEST(WireDecoder, RejectsKeepaliveWithBody) {
  expect_error(frame(kTypeKeepalive, {0x00}), ErrorCode::kMessageHeader,
               kBadMessageLength);
}

TEST(WireDecoder, RejectsUnknownMessageType) {
  expect_error(frame(9, update_body({}, {}, {})), ErrorCode::kMessageHeader,
               kBadMessageType);
  expect_error(frame(1, update_body({}, {}, {})), ErrorCode::kMessageHeader,
               kBadMessageType);  // OPEN never rides this transport
}

// --- §6.3 UPDATE errors -----------------------------------------------

TEST(WireDecoder, RejectsWithdrawnLengthOverrun) {
  std::vector<std::uint8_t> body;
  be16(body, 10);  // claims 10 withdrawn bytes, none follow
  expect_error(frame(kTypeUpdate, body), ErrorCode::kUpdateMessage,
               kMalformedAttributeList);
}

TEST(WireDecoder, RejectsAttributeLengthOverrun) {
  std::vector<std::uint8_t> body;
  be16(body, 0);
  be16(body, 50);  // claims 50 attribute bytes, none follow
  expect_error(frame(kTypeUpdate, body), ErrorCode::kUpdateMessage,
               kMalformedAttributeList);
}

TEST(WireDecoder, RejectsTruncatedAttributeHeader) {
  expect_error(frame(kTypeUpdate, update_body({}, {0x40, 1}, {})),
               ErrorCode::kUpdateMessage, kMalformedAttributeList);
}

TEST(WireDecoder, RejectsTruncatedExtendedLength) {
  expect_error(frame(kTypeUpdate, update_body({}, {0x50, 2, 0x01}, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsAttributeValueOverrun) {
  std::vector<std::uint8_t> attrs;
  attrs.push_back(0x40);
  attrs.push_back(1);
  attrs.push_back(9);  // ORIGIN claiming 9 value bytes, none follow
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsDuplicateAttribute) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 1, {0});
  attr(attrs, 0x40, 1, {1});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kMalformedAttributeList);
}

TEST(WireDecoder, RejectsUnknownWellKnownAttribute) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 77, {1, 2});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kUnrecognizedWellKnownAttribute);
}

TEST(WireDecoder, SkipsUnknownOptionalAttribute) {
  std::vector<std::uint8_t> attrs = mandatory_attrs();
  attr(attrs, 0xC0, 77, {1, 2, 3});  // unknown optional transitive
  EXPECT_FALSE(
      decode(frame(kTypeUpdate, update_body({}, attrs, one_nlri())))
          .has_value());
}

TEST(WireDecoder, RejectsMissingMandatoryAttribute) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 1, {0});  // ORIGIN only; AS_PATH and NEXT_HOP missing
  expect_error(frame(kTypeUpdate, update_body({}, attrs, one_nlri())),
               ErrorCode::kUpdateMessage, kMissingWellKnownAttribute);
}

TEST(WireDecoder, RejectsNlriWithoutAttributes) {
  expect_error(frame(kTypeUpdate, update_body({}, {}, one_nlri())),
               ErrorCode::kUpdateMessage, kMissingWellKnownAttribute);
}

TEST(WireDecoder, RejectsWrongFlagClass) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x80, 1, {0});  // ORIGIN marked optional
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeFlagsError);
}

TEST(WireDecoder, RejectsOriginBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 1, {0, 0});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsOriginBadValue) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 1, {3});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kInvalidOrigin);
}

TEST(WireDecoder, RejectsNextHopBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 3, {10, 0, 0});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsInvalidNextHop) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 3, {0, 0, 0, 0});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kInvalidNextHop);
  attrs.clear();
  attr(attrs, 0x40, 3, {0xFF, 0xFF, 0xFF, 0xFF});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kInvalidNextHop);
}

TEST(WireDecoder, RejectsMedBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x80, 4, {0, 1});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsCommunitiesBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0xC0, 8, {1, 2, 3, 4, 5, 6});  // not a multiple of 4
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kOptionalAttributeError);
}

TEST(WireDecoder, RejectsExtCommunitiesBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0xC0, 16, {1, 2, 3, 4});  // not a multiple of 8
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kOptionalAttributeError);
}

TEST(WireDecoder, RejectsClusterListBadLength) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x80, 10, {1, 2, 3});
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kAttributeLengthError);
}

TEST(WireDecoder, RejectsPrefixLengthOver32) {
  std::vector<std::uint8_t> nlri;
  be32(nlri, 1);
  nlri.push_back(33);
  expect_error(frame(kTypeUpdate, update_body({}, mandatory_attrs(), nlri)),
               ErrorCode::kUpdateMessage, kInvalidNetworkField);
}

TEST(WireDecoder, RejectsTruncatedNlri) {
  std::vector<std::uint8_t> nlri = {0, 0, 0};  // half a path-id
  expect_error(frame(kTypeUpdate, update_body({}, mandatory_attrs(), nlri)),
               ErrorCode::kUpdateMessage, kInvalidNetworkField);
  std::vector<std::uint8_t> nlri2;
  be32(nlri2, 1);
  nlri2.push_back(24);  // /24 needs 3 address bytes
  nlri2.push_back(10);
  expect_error(frame(kTypeUpdate, update_body({}, mandatory_attrs(), nlri2)),
               ErrorCode::kUpdateMessage, kInvalidNetworkField);
}

TEST(WireDecoder, RejectsMalformedAsPath) {
  std::vector<std::uint8_t> attrs;
  attr(attrs, 0x40, 2, {3, 1, 0, 0, 0, 1});  // segment type 3
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kMalformedAsPath);
  attrs.clear();
  attr(attrs, 0x40, 2, {2, 0});  // empty segment
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kMalformedAsPath);
  attrs.clear();
  attr(attrs, 0x40, 2, {2, 2, 0, 0, 0, 1});  // 2 ASNs claimed, 1 present
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kMalformedAsPath);
  attrs.clear();
  attr(attrs, 0x40, 2, {2});  // truncated segment header
  expect_error(frame(kTypeUpdate, update_body({}, attrs, {})),
               ErrorCode::kUpdateMessage, kMalformedAsPath);
}

TEST(WireDecoder, ReportsTrainOffsetInDecodeAll) {
  Encoder enc;
  UpdateMessage m;
  m.keepalive = true;
  const auto good = enc.encode(m);
  std::vector<std::uint8_t> in(good.begin(), good.end());
  const auto bad = frame(9, {});
  in.insert(in.end(), bad.begin(), bad.end());
  std::vector<DecodedUpdate> msgs;
  const auto err = decode_all(in, msgs);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->offset, 19u + 18u);  // type octet of the second message
  EXPECT_EQ(msgs.size(), 1u);         // first message was already parsed
}

}  // namespace
}  // namespace abrr::wire
