// MRAI batching: what a speaker transmits inside and after one Minimum
// Route Advertisement Interval, observed on the wire by a raw endpoint.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;

const Ipv4Prefix kP1 = Ipv4Prefix::parse("10.0.0.0/8");
const Ipv4Prefix kP2 = Ipv4Prefix::parse("20.0.0.0/8");
const Ipv4Prefix kP3 = Ipv4Prefix::parse("30.0.0.0/8");
constexpr RouterId kNbr = 0x80000001;
constexpr RouterId kSpeaker = 1;
constexpr RouterId kTap = 2;

struct Seen {
  sim::Time at;
  Ipv4Prefix prefix;
  std::vector<bgp::Asn> first_path;  // AS path of the first route
};

/// Speaker 1 (full mesh, MRAI 5 s) with one peer, 2, which is a raw
/// endpoint recording every message it receives.
class MraiTest : public ::testing::Test {
 protected:
  MraiTest() {
    SpeakerConfig cfg;
    cfg.id = kSpeaker;
    cfg.asn = 65000;
    cfg.mode = IbgpMode::kFullMesh;
    cfg.mrai = sim::sec(5);
    cfg.proc_delay = sim::msec(1);
    // Dense ids in prefix order, so a resync walks P1 before P2.
    for (const Ipv4Prefix& p : {kP1, kP2, kP3}) net.prefix_index()->add(p);
    speaker = std::make_unique<Speaker>(cfg, sched, net);
    net.connect(kSpeaker, kTap, sim::msec(1));
    speaker->add_peer(PeerInfo{.id = kTap});
    speaker->start();
    net.register_endpoint(kTap, [this](RouterId, const net::Message& m) {
      std::vector<bgp::Asn> path;
      if (m.routes) {
        const auto asns = m.routes.routes().front().attrs->as_path().asns();
        path.assign(asns.begin(), asns.end());
      }
      seen.push_back(Seen{sched.now(), m.prefix, path});
    });
  }

  Route route(const Ipv4Prefix& prefix, std::vector<bgp::Asn> path) {
    return RouteBuilder{prefix}.as_path(bgp::AsPath{std::move(path)}).build();
  }

  /// Injects at virtual time `at` (scheduled, so it runs inside the loop).
  void inject_at(sim::Time at, const Ipv4Prefix& prefix,
                 std::vector<bgp::Asn> path) {
    sched.schedule_at(at, [this, prefix, path] {
      speaker->inject_ebgp(kNbr, route(prefix, path));
    });
  }

  /// Messages seen in [from, to).
  std::vector<Seen> between(sim::Time from, sim::Time to) const {
    std::vector<Seen> out;
    for (const Seen& s : seen) {
      if (s.at >= from && s.at < to) out.push_back(s);
    }
    return out;
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::unique_ptr<Speaker> speaker;
  std::vector<Seen> seen;
};

TEST_F(MraiTest, RepeatWithinOneWindowIsSentOnceInFirstInsertionOrder) {
  // t=0: P1 goes out at once and arms the MRAI timer.
  inject_at(0, kP1, {7018});
  // Inside the window: P2, then P3, then P2 again.
  inject_at(sim::sec(1), kP2, {3356});
  inject_at(sim::sec(2), kP3, {1299});
  inject_at(sim::sec(3), kP2, {3356, 174});
  ASSERT_TRUE(sched.run_to_quiescence(100000));

  const auto first = between(0, sim::sec(1));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].prefix, kP1);

  // Nothing leaves during the window; the flush sends P2 once (its last
  // content) before P3, the order the pairs were first queued in.
  EXPECT_TRUE(between(sim::sec(1), sim::sec(5)).empty());
  const auto flush = between(sim::sec(5), sim::sec(60));
  ASSERT_EQ(flush.size(), 2u);
  EXPECT_EQ(flush[0].prefix, kP2);
  EXPECT_EQ(flush[0].first_path, (std::vector<bgp::Asn>{3356, 174}));
  EXPECT_EQ(flush[1].prefix, kP3);
}

TEST_F(MraiTest, SessionDownClearsPendingSoResyncResends) {
  inject_at(0, kP1, {7018});         // sent at once; arms MRAI
  inject_at(sim::sec(1), kP2, {3356});  // queued for the flush
  sched.schedule_at(sim::sec(2), [this] { speaker->session_down(kTap); });
  sched.schedule_at(sim::sec(3), [this] { speaker->session_up(kTap); });
  ASSERT_TRUE(sched.run_to_quiescence(100000));

  // Before the session went down only P1 made it out.
  const auto before = between(0, sim::sec(2));
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].prefix, kP1);

  // The resync walks the Adj-RIB-Out in id order. P1 goes out at once:
  // the MRAI timer was cancelled and the cleared sent hash no longer
  // suppresses it. P2 is queued again, which only works if the dedup set
  // forgot its earlier entry, and leaves at the next flush.
  const auto after = between(sim::sec(3), sim::sec(60));
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].prefix, kP1);
  EXPECT_LT(after[0].at, sim::sec(4));
  EXPECT_EQ(after[1].prefix, kP2);
  EXPECT_GE(after[1].at, sim::sec(8));
}

TEST_F(MraiTest, PrefixFirstSeenAfterTheUniverseIsSentOncePerWindow) {
  // The per-peer arrays are sized to the ids known when first used; a
  // prefix registered later lands past them and must still be queued
  // once per window.
  const Ipv4Prefix late = Ipv4Prefix::parse("99.0.0.0/8");
  inject_at(0, kP1, {7018});            // sent at once; arms MRAI
  inject_at(sim::sec(1), kP2, {3356});  // pending: sizes the bit stripe
  sched.schedule_at(sim::sec(1) + sim::msec(500), [this] {
    // 70 prefixes the speaker never sees push `late` past the first
    // 64-slot word of the pending bits.
    for (std::uint32_t i = 0; i < 70; ++i) {
      net.prefix_index()->add(Ipv4Prefix{(100 + i) << 24, 8});
    }
  });
  inject_at(sim::sec(2), late, {1299});
  inject_at(sim::sec(3), late, {1299, 2914});  // repeat: stays queued once
  inject_at(sim::sec(6), late, {6453});        // the next window
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  ASSERT_GT(net.prefix_index()->id_of(late).value(), 64u);

  EXPECT_TRUE(between(sim::sec(1), sim::sec(5)).empty());
  const auto first_flush = between(sim::sec(5), sim::sec(6));
  ASSERT_EQ(first_flush.size(), 2u);
  EXPECT_EQ(first_flush[0].prefix, kP2);
  EXPECT_EQ(first_flush[1].prefix, late);
  EXPECT_EQ(first_flush[1].first_path, (std::vector<bgp::Asn>{1299, 2914}));
  const auto second_flush = between(sim::sec(6), sim::sec(60));
  ASSERT_EQ(second_flush.size(), 1u);
  EXPECT_EQ(second_flush[0].prefix, late);
  EXPECT_EQ(second_flush[0].first_path, (std::vector<bgp::Asn>{6453}));
  EXPECT_GE(second_flush[0].at, sim::sec(10));
}

TEST_F(MraiTest, SessionResetClearsThePendingBits) {
  // P2 and P3 are pending when the session goes down. The resync must
  // queue both again (their bits were cleared with the list), and a
  // repeat of P2 inside the new window must not queue it twice.
  inject_at(0, kP1, {7018});
  inject_at(sim::sec(1), kP2, {3356});
  inject_at(sim::sec(1) + sim::msec(500), kP3, {1299});
  sched.schedule_at(sim::sec(2), [this] { speaker->session_down(kTap); });
  sched.schedule_at(sim::sec(3), [this] { speaker->session_up(kTap); });
  inject_at(sim::sec(4), kP2, {3356, 174});
  ASSERT_TRUE(sched.run_to_quiescence(100000));

  const auto after = between(sim::sec(3), sim::sec(60));
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].prefix, kP1);
  EXPECT_LT(after[0].at, sim::sec(4));
  EXPECT_EQ(after[1].prefix, kP2);
  EXPECT_EQ(after[1].first_path, (std::vector<bgp::Asn>{3356, 174}));
  EXPECT_GE(after[1].at, sim::sec(8));
  EXPECT_EQ(after[2].prefix, kP3);
}

}  // namespace
}  // namespace abrr::ibgp
