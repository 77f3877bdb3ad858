// Property tests for the wire codec.
//
// Two layers:
//  1. Seeded random model messages: the WireSizer's closed-form size
//     must equal the encoder's actual output byte count, the decoder
//     must accept every encoder output, and the wire bytes must be a
//     fixed point of decode -> reassemble -> encode (exact wire-level
//     round-trip; the model-level full_set flag is compared through the
//     documented mapping).
//  2. Real advertised route sets: converge a testbed in every IbgpMode
//     with packet capture on, then replay every captured frame through
//     the decoder and verify the same fixed-point property, and that
//     the capture's payload byte total equals the network's measured
//     byte accounting (the two are independent paths over the same
//     messages).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "harness/testbed.h"
#include "sim/random.h"
#include "topo/topology.h"
#include "trace/regenerator.h"
#include "trace/workload.h"
#include "wire/codec.h"

namespace abrr::wire {
namespace {

using bgp::Ipv4Prefix;
using bgp::UpdateMessage;

bgp::AttrsPtr random_attrs(sim::Rng& rng) {
  bgp::PathAttrs a;
  const std::size_t path_len = static_cast<std::size_t>(
      rng.uniform_int(0, 10) == 0 ? rng.uniform_int(256, 600)  // 2 segments
                                  : rng.uniform_int(0, 6));
  std::vector<bgp::Asn> asns;
  asns.reserve(path_len);
  for (std::size_t i = 0; i < path_len; ++i) {
    asns.push_back(static_cast<bgp::Asn>(rng.uniform_int(1, 70000)));
  }
  a.as_path = bgp::AsPath{std::move(asns)};
  a.origin = static_cast<bgp::Origin>(rng.uniform_int(0, 2));
  a.next_hop = static_cast<std::uint32_t>(rng.uniform_int(1, 0x7FFFFFFF));
  a.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 300));
  if (rng.chance(0.4)) {
    a.med = static_cast<std::uint32_t>(rng.uniform_int(0, 100));
  }
  const int n_comm = static_cast<int>(
      rng.uniform_int(0, 10) == 0 ? rng.uniform_int(64, 80)  // ext-length
                                  : rng.uniform_int(0, 3));
  for (int i = 0; i < n_comm; ++i) {
    a.communities.push_back(
        static_cast<bgp::Community>(rng.uniform_int(0, 1 << 30)));
  }
  if (rng.chance(0.3)) {
    a.originator_id = static_cast<bgp::RouterId>(rng.uniform_int(1, 500));
  }
  const int n_cl = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n_cl; ++i) {
    a.cluster_list.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(1, 500)));
  }
  if (rng.chance(0.3)) {
    a.ext_communities.push_back(bgp::kAbrrReflectedCommunity);
  }
  return bgp::make_attrs(std::move(a));
}

UpdateMessage random_message(sim::Rng& rng) {
  UpdateMessage m;
  if (rng.chance(0.05)) {
    m.keepalive = true;
    return m;
  }
  const auto len = static_cast<std::uint8_t>(rng.uniform_int(8, 32));
  const auto addr =
      static_cast<std::uint32_t>(rng.uniform_int(1, 0x7FFFFFFF));
  m.prefix = Ipv4Prefix{addr, len};

  // A handful of attribute blocks shared across routes, so grouping and
  // per-group splitting both get exercised.
  std::vector<bgp::AttrsPtr> blocks;
  const int n_blocks = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n_blocks; ++i) blocks.push_back(random_attrs(rng));

  const int n_announce = static_cast<int>(
      rng.uniform_int(0, 12) == 0 ? rng.uniform_int(500, 1200)  // forces split
                                  : rng.uniform_int(0, 8));
  for (int i = 0; i < n_announce; ++i) {
    bgp::Route r;
    r.prefix = m.prefix;
    r.path_id = static_cast<bgp::PathId>(rng.uniform_int(1, 1000));
    r.attrs = blocks[static_cast<std::size_t>(
        rng.uniform_int(0, n_blocks - 1))];
    m.announce.push_back(std::move(r));
  }
  m.full_set = rng.chance(0.5);
  if (!m.full_set) {
    // Path-id 0 is reserved for the encoder's withdraw-all sentinel;
    // real withdrawn ids are router ids (>= 1).
    const int n_withdraw = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n_withdraw; ++i) {
      m.withdraw.push_back(
          static_cast<bgp::PathId>(rng.uniform_int(1, 1000)));
    }
  }
  return m;
}

/// The fixed-point property: decoding and reassembling the wire bytes,
/// then encoding again, must reproduce the identical bytes.
void expect_wire_fixed_point(std::span<const std::uint8_t> bytes,
                             Encoder& enc) {
  std::vector<DecodedUpdate> msgs;
  const auto err = decode_all(bytes, msgs);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  const UpdateMessage back = reassemble(msgs);
  const auto again = enc.encode(back);
  ASSERT_EQ(again.size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), again.begin()));
}

TEST(WireRoundTrip, RandomMessagesSizeAndFixedPoint) {
  sim::Rng rng{20110823};  // the paper's publication date as seed
  Encoder enc;
  Encoder enc2;
  WireSizer sizer;
  for (int trial = 0; trial < 300; ++trial) {
    const UpdateMessage m = random_message(rng);
    const auto bytes = enc.encode(m);
    EXPECT_EQ(sizer.message_size(m), bytes.size()) << "trial " << trial;
    expect_wire_fixed_point(bytes, enc2);
  }
}

TEST(WireRoundTrip, ReassembleRecoversModelSemantics) {
  sim::Rng rng{7};
  Encoder enc;
  for (int trial = 0; trial < 200; ++trial) {
    const UpdateMessage m = random_message(rng);
    std::vector<DecodedUpdate> msgs;
    ASSERT_FALSE(decode_all(enc.encode(m), msgs).has_value());
    const UpdateMessage back = reassemble(msgs);

    EXPECT_EQ(back.keepalive, m.keepalive);
    if (m.keepalive) continue;
    if (!m.announce.empty() || !m.withdraw.empty() || m.full_set) {
      EXPECT_EQ(back.prefix, m.prefix);
    }
    // Announced routes survive as a set of (path_id, interned attrs);
    // the wire groups them by block, so order is grouped first-seen.
    std::multiset<std::pair<bgp::PathId, bgp::AttrsPtr>> want, got;
    for (const bgp::Route& r : m.announce) want.emplace(r.path_id, r.attrs);
    for (const bgp::Route& r : back.announce) {
      got.emplace(r.path_id, r.attrs);
    }
    EXPECT_EQ(got, want);
    // Explicit withdraws survive in order; full_set maps through the
    // documented sentinel/announce-train reconstruction.
    if (!m.full_set) {
      EXPECT_EQ(back.withdraw, m.withdraw);
    } else {
      EXPECT_TRUE(back.withdraw.empty());
      EXPECT_TRUE(back.full_set);
    }
  }
}

// --- real advertised route sets, all four IbgpModes --------------------

struct Scenario {
  topo::Topology topology;
  trace::Workload workload;
  std::vector<Ipv4Prefix> prefixes;
};

const Scenario& scenario() {
  static const Scenario* s = [] {
    sim::Rng rng{23};
    topo::TopologyParams tp;
    tp.pops = 2;
    tp.clients_per_pop = 3;
    tp.peer_ases = 3;
    tp.peering_points_per_as = 2;
    auto topology = topo::make_tier1(tp, rng);
    trace::WorkloadParams wp;
    wp.prefixes = 50;
    auto workload = trace::Workload::generate(wp, topology, rng);
    auto* out = new Scenario{std::move(topology), std::move(workload), {}};
    out->prefixes = out->workload.prefixes();
    return out;
  }();
  return *s;
}

class AllModesWire : public ::testing::TestWithParam<ibgp::IbgpMode> {};

TEST_P(AllModesWire, CapturedAdvertisementsRoundTrip) {
  const Scenario& s = scenario();
  harness::TestbedOptions o;
  o.mode = GetParam();
  o.num_aps = 2;
  o.arrs_per_ap = 2;
  o.mrai = sim::msec(500);
  o.seed = 11;
  o.obs.enabled = true;
  o.obs.pcap_frames = std::size_t{1} << 16;  // ample: nothing drops below
  harness::Testbed bed{s.topology, o, s.prefixes};

  trace::RouteRegenerator regen{bed.scheduler(), s.workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec(2));
  ASSERT_TRUE(bed.run_to_quiescence());

  const obs::PacketCapture* cap = bed.tracer()->packets();
  ASSERT_NE(cap, nullptr);
  ASSERT_GT(cap->size(), 0u);
  ASSERT_EQ(cap->dropped(), 0u);

  Encoder enc;
  std::size_t frames = 0;
  cap->for_each([&](sim::Time, std::uint32_t, std::uint32_t,
                    std::span<const std::uint8_t> payload) {
    ++frames;
    expect_wire_fixed_point(payload, enc);
  });
  EXPECT_EQ(frames, cap->size());

  // The capture and the byte accounting are independent walks over the
  // same sends; with nothing dropped they must agree exactly, and the
  // registry mirrors the aggregate.
  EXPECT_EQ(cap->payload_bytes(), bed.network().total_bytes());
  EXPECT_EQ(bed.metrics().sum_counters("net.bytes"),
            bed.network().total_bytes());
  EXPECT_EQ(bed.metrics().sum_counters("net.modeled_bytes"),
            bed.network().total_modeled_bytes());
  // Wire-faithful accounting diverges from the closed-form model -- that
  // delta is the point of measuring (EXPERIMENTS.md records it).
  EXPECT_NE(bed.network().total_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, AllModesWire,
                         ::testing::Values(ibgp::IbgpMode::kFullMesh,
                                           ibgp::IbgpMode::kTbrr,
                                           ibgp::IbgpMode::kAbrr,
                                           ibgp::IbgpMode::kDual));

}  // namespace
}  // namespace abrr::wire
