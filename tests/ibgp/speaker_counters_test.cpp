// Counter semantics: the §4.2 metrics must mean what the paper means by
// them (received = messages in, generated = Adj-RIB-Out group changes,
// transmitted = messages out, per-group splits).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/address_partition.h"
#include "ibgp/speaker.h"

namespace abrr::ibgp {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;

const Ipv4Prefix kPfx = Ipv4Prefix::parse("10.0.0.0/8");
constexpr RouterId kNbr = 0x80000001;

class CounterTest : public ::testing::Test {
 protected:
  CounterTest() : scheme(core::PartitionScheme::uniform(1)) {}

  Speaker& add(RouterId id, bool arr) {
    SpeakerConfig cfg;
    cfg.id = id;
    cfg.asn = 65000;
    cfg.mode = IbgpMode::kAbrr;
    cfg.ap_of = scheme.mapper();
    if (arr) {
      cfg.managed_aps = {0};
      cfg.data_plane = false;
    }
    cfg.mrai = 0;
    cfg.proc_delay = sim::msec(1);
    auto s = std::make_unique<Speaker>(cfg, sched, net);
    auto& ref = *s;
    speakers.emplace(id, std::move(s));
    return ref;
  }
  Speaker& at(RouterId id) { return *speakers.at(id); }

  // 3 clients, 1 ARR.
  void Build() {
    for (RouterId c : {1u, 2u, 3u}) add(c, false);
    add(10, true);
    for (RouterId c : {1u, 2u, 3u}) {
      net.connect(c, 10, sim::msec(1));
      at(10).add_peer(PeerInfo{.id = c, .rr_client = true});
      at(c).add_peer(PeerInfo{.id = 10, .reflector_for = {0}});
    }
    for (auto& [id, s] : speakers) s->start();
  }

  core::PartitionScheme scheme;
  sim::Scheduler sched;
  sim::Rng rng{1};
  net::Network net{sched, rng};
  std::map<RouterId, std::unique_ptr<Speaker>> speakers;
};

TEST_F(CounterTest, SingleAnnouncementAccounting) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  const auto& arr = at(10).counters();
  // ARR: one message in (client 1's advert), one group change, two
  // messages out (clients 2 and 3; client 1 is excluded as the sender).
  EXPECT_EQ(arr.updates_received, 1u);
  EXPECT_EQ(arr.updates_generated, 1u);
  EXPECT_EQ(arr.generated_to_clients, 1u);
  EXPECT_EQ(arr.generated_to_rrs, 0u);
  EXPECT_EQ(arr.updates_transmitted, 2u);
  EXPECT_EQ(arr.routes_transmitted, 2u);
  EXPECT_GT(arr.wire_bytes_transmitted, 2 * 19u);
  // Clients 2/3: one message in each, nothing out.
  EXPECT_EQ(at(2).counters().updates_received, 1u);
  EXPECT_EQ(at(2).counters().updates_transmitted, 0u);
  // Client 1: one message out, nothing received back.
  EXPECT_EQ(at(1).counters().updates_transmitted, 1u);
  EXPECT_EQ(at(1).counters().updates_received, 0u);
  EXPECT_EQ(at(1).counters().best_changes, 1u);
}

TEST_F(CounterTest, WithdrawalRoundTripCounts) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  sched.run_to_quiescence(100000);
  at(1).withdraw_ebgp(kNbr, kPfx);
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  const auto& arr = at(10).counters();
  EXPECT_EQ(arr.updates_received, 2u);     // announce + withdraw
  EXPECT_EQ(arr.updates_generated, 2u);    // set {r} then set {}
  EXPECT_EQ(arr.updates_transmitted, 4u);  // 2 peers x 2 changes
  EXPECT_EQ(at(2).counters().best_changes, 2u);  // install + remove
}

TEST_F(CounterTest, RoutesReceivedCountsSetContents) {
  Build();
  at(1).inject_ebgp(kNbr,
                    RouteBuilder{kPfx}.as_path({7018, 15169}).build());
  at(2).inject_ebgp(kNbr + 1,
                    RouteBuilder{kPfx}.as_path({1299, 15169}).build());
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  // Client 3 received the full 2-route set (possibly via one or two
  // messages depending on arrival batching).
  const auto& c3 = at(3).counters();
  EXPECT_GE(c3.routes_received, 2u);
  EXPECT_EQ(at(3).adj_rib_in().routes_for(kPfx).size(), 2u);
}

TEST_F(CounterTest, IdenticalReinjectionIsQuiet) {
  Build();
  const Route r = RouteBuilder{kPfx}.as_path({7018, 15169}).build();
  at(1).inject_ebgp(kNbr, r);
  sched.run_to_quiescence(100000);
  const auto arr_before = at(10).counters();
  at(1).inject_ebgp(kNbr, r);
  ASSERT_TRUE(sched.run_to_quiescence(100000));
  // No best change at client 1 => nothing re-advertised or reflected.
  EXPECT_EQ(at(10).counters().updates_received,
            arr_before.updates_received);
  EXPECT_EQ(at(10).counters().updates_transmitted,
            arr_before.updates_transmitted);
}

}  // namespace
}  // namespace abrr::ibgp
