// In-order delivery audit under fault injection: delay bursts, loss
// windows, link outages and endpoint death must never reorder the
// delivered stream of a directed channel (the invariant the network
// keeps by queueing each channel's in-flight messages in one FIFO whose
// head alone is scheduled).
#include <gtest/gtest.h>

#include <vector>

#include "bgp/route.h"
#include "net/network.h"

namespace abrr::net {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouteBuilder;

int tag_of(const Message& m) {
  return static_cast<int>(m.routes.routes().front().path_id);
}

class ChannelOrderTest : public ::testing::Test {
 protected:
  ChannelOrderTest() {
    net.register_endpoint(1, [](RouterId, const Message&) {});
    net.register_endpoint(2, [&](RouterId, const Message& m) {
      delivered.push_back(tag_of(m));
    });
    net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(20));
  }

  /// Every message is delivered or dropped by the end of a test, and
  /// either way its set is given back.
  void TearDown() override {
    EXPECT_EQ(net.route_sets()->live_blocks(), 0u);
  }

  /// A one-route message whose path id is `tag`.
  Message msg(int tag) {
    const Ipv4Prefix p = Ipv4Prefix::parse("10.0.0.0/8");
    const bgp::Route r = RouteBuilder{p}
                             .path_id(static_cast<bgp::PathId>(tag))
                             .as_path({65001})
                             .build();
    return Message{p, bgp::RouteSetRef{*net.route_sets(), {&r, 1}}};
  }

  /// The delivered tags must be a strictly increasing subsequence of
  /// what was sent (gaps = losses are fine, reordering is not).
  void expect_in_order() {
    for (std::size_t i = 1; i < delivered.size(); ++i) {
      ASSERT_LT(delivered[i - 1], delivered[i])
          << "reordered at position " << i;
    }
  }

  sim::Scheduler sched;
  sim::Rng rng{42};
  Network net{sched, rng};
  std::vector<int> delivered;
};

TEST_F(ChannelOrderTest, DelayBurstPreservesOrder) {
  int tag = 0;
  // Alternate impairment on and off while a stream is in flight: the
  // latency surcharge must never let later messages overtake.
  for (int phase = 0; phase < 6; ++phase) {
    const bool impaired = phase % 2 == 1;
    net.impair(1, 2, impaired ? sim::msec(300) : 0, 0);
    for (int i = 0; i < 10; ++i) net.send(1, 2, msg(tag++));
    sched.run_until(sched.now() + sim::msec(30));  // leave some in flight
  }
  net.impair(1, 2, 0, 0);
  sched.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 60u);
  expect_in_order();
}

TEST_F(ChannelOrderTest, LossBurstDropsButNeverReorders) {
  net.impair(1, 2, sim::msec(100), /*loss_prob=*/0.4);
  for (int i = 0; i < 200; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  EXPECT_LT(delivered.size(), 200u);  // p(no drop) = 0.6^200
  EXPECT_GT(delivered.size(), 0u);
  EXPECT_EQ(delivered.size() + net.total_dropped(), 200u);
  EXPECT_EQ(net.channel(1, 2)->dropped, net.total_dropped());
  expect_in_order();
}

TEST_F(ChannelOrderTest, LinkOutageBuffersAndFlushesInOrder) {
  for (int i = 0; i < 5; ++i) net.send(1, 2, msg(i));
  sched.run_until(sched.now() + sim::msec(1));  // all still in flight
  net.set_link(1, 2, false);
  for (int i = 5; i < 15; ++i) net.send(1, 2, msg(i));  // buffered
  sched.run_until(sched.now() + sim::sec(1));
  ASSERT_EQ(delivered.size(), 5u);  // only the pre-outage ones arrived
  net.set_link(1, 2, true);         // flush
  for (int i = 15; i < 20; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 20u);
  expect_in_order();
  EXPECT_EQ(net.total_dropped(), 0u);  // TCP rode the outage out
}

TEST_F(ChannelOrderTest, SessionResetDropsBufferedMessages) {
  net.set_link(1, 2, false);
  for (int i = 0; i < 8; ++i) net.send(1, 2, msg(i));
  net.session_reset(1, 2);  // connection torn down: send window is gone
  net.set_link(1, 2, true);
  for (int i = 8; i < 12; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered.front(), 8);
  EXPECT_EQ(net.total_dropped(), 8u);
  expect_in_order();
}

TEST_F(ChannelOrderTest, DeadEndpointDropsAtSend) {
  net.set_endpoint_up(2, false);
  for (int i = 0; i < 5; ++i) net.send(1, 2, msg(i));
  net.set_endpoint_up(2, true);
  for (int i = 5; i < 10; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(delivered.size(), 5u);
  EXPECT_EQ(delivered.front(), 5);
  EXPECT_EQ(net.total_dropped(), 5u);
  expect_in_order();
}

TEST_F(ChannelOrderTest, MixedFaultSoakKeepsEveryChannelOrdered) {
  // Random soak across all hooks; every delivered stream must stay a
  // strictly increasing subsequence of what was sent.
  sim::Rng chaos{7};
  int tag = 0;
  bool link_up = true;
  for (int round = 0; round < 40; ++round) {
    switch (chaos.index(6)) {
      case 0:
        net.impair(1, 2, chaos.uniform_int(0, sim::msec(200)), 0);
        break;
      case 1:
        net.impair(1, 2, 0, chaos.uniform01() * 0.5);
        break;
      case 2:
        link_up = !link_up;
        net.set_link(1, 2, link_up);
        break;
      case 3:
        net.session_reset(1, 2);
        break;
      default:
        break;  // plain traffic round
    }
    for (int i = 0; i < 8; ++i) net.send(1, 2, msg(tag++));
    sched.run_until(sched.now() + sim::msec(chaos.uniform_int(1, 50)));
  }
  net.impair(1, 2, 0, 0);
  if (!link_up) net.set_link(1, 2, true);
  sched.run_to_quiescence();
  expect_in_order();
  EXPECT_EQ(delivered.size() + net.total_dropped(),
            static_cast<std::size_t>(tag));
}

TEST_F(ChannelOrderTest, BurstOnOneChannelKeepsOrderOnOneSlab) {
  // Only the head of a channel's in-flight queue holds a scheduler
  // event, so a 10K-message burst under jitter, an outage and a reset
  // never grows the event pool past its first slab.
  constexpr int kBurst = 10'000;
  net.send(1, 2, msg(0));
  const std::size_t one_slab = sched.pool_capacity();
  ASSERT_GT(one_slab, 0u);
  int tag = 1;
  for (; tag < kBurst / 2; ++tag) net.send(1, 2, msg(tag));
  sched.run_until(sched.now() + sim::msec(10));  // part of it delivered
  net.set_link(1, 2, false);
  for (int i = 0; i < 100; ++i) net.send(1, 2, msg(tag++));  // buffered
  net.session_reset(1, 2);  // ...and lost with the connection
  for (int i = 0; i < 100; ++i) net.send(1, 2, msg(tag++));  // buffered
  sched.run_until(sched.now() + sim::msec(10));
  net.set_link(1, 2, true);  // flush behind what is still in flight
  for (; tag < kBurst; ++tag) net.send(1, 2, msg(tag));
  EXPECT_LE(sched.pending_count(), 1u);
  sched.run_to_quiescence();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kBurst - 100));
  EXPECT_EQ(net.total_dropped(), 100u);
  expect_in_order();
  EXPECT_EQ(sched.pool_capacity(), one_slab);
}

}  // namespace
}  // namespace abrr::net
