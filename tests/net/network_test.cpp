#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "bgp/route.h"

namespace abrr::net {
namespace {

using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;
using bgp::RouteSetRef;

const Ipv4Prefix kP = Ipv4Prefix::parse("10.0.0.0/8");

class NetworkTest : public ::testing::Test {
 protected:
  /// A one-route message on kP whose path id is `tag`.
  Message msg(int tag) {
    const Route r = RouteBuilder{kP}
                        .path_id(static_cast<bgp::PathId>(tag))
                        .as_path({65001})
                        .build();
    return Message{kP, RouteSetRef{*net.route_sets(), {&r, 1}}};
  }

  /// A message of `routes` routes on `prefix`, path ids `tag*100 + i`,
  /// alternating between two attribute blocks.
  Message multi(const Ipv4Prefix& prefix, int tag, int routes) {
    std::vector<Route> set;
    for (int i = 0; i < routes; ++i) {
      set.push_back(RouteBuilder{prefix}
                        .path_id(static_cast<bgp::PathId>(tag * 100 + i))
                        .as_path({65001u + static_cast<bgp::Asn>(i % 2)})
                        .build());
    }
    return Message{prefix, RouteSetRef{*net.route_sets(), set}};
  }

  sim::Scheduler sched;
  sim::Rng rng{1};
  Network net{sched, rng};
};

/// Another handle on `m`'s set.
Message copy_of(const Message& m) {
  return Message{m.prefix, m.routes.share(), m.keepalive};
}

TEST_F(NetworkTest, DeliversAfterLatency) {
  std::vector<sim::Time> arrivals;
  net.register_endpoint(2, [&](RouterId, const Message&) {
    arrivals.push_back(sched.now());
  });
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(1));
  sched.run_to_quiescence();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals.front(), sim::msec(5));
}

TEST_F(NetworkTest, FifoOrderSurvivesJitter) {
  std::vector<int> order;
  net.register_endpoint(2, [&](RouterId, const Message& m) {
    order.push_back(static_cast<int>(m.routes.routes().front().path_id));
  });
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(50));
  for (int i = 0; i < 20; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(NetworkTest, DirectionsAreIndependentChannels) {
  int at1 = 0, at2 = 0;
  net.register_endpoint(1, [&](RouterId, const Message&) { ++at1; });
  net.register_endpoint(2, [&](RouterId, const Message&) { ++at2; });
  net.connect(1, 2, sim::msec(1));
  net.send(1, 2, msg(0));
  net.send(2, 1, msg(1));
  sched.run_to_quiescence();
  EXPECT_EQ(at1, 1);
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(net.session_count(), 1u);
}

TEST_F(NetworkTest, CountsMessagesAndBytes) {
  net.register_endpoint(2, [](RouterId, const Message&) {});
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.connect(1, 2, sim::msec(1));
  const Message m = msg(0);
  net.send(1, 2, copy_of(m));
  net.send(1, 2, copy_of(m));
  sched.run_to_quiescence();
  EXPECT_EQ(net.total_messages(), 2u);
  // total_bytes() is measured: the exact RFC 4271 encoding of the
  // full-set UPDATE the message stands for.
  bgp::UpdateMessage update;
  update.prefix = m.prefix;
  update.announce.assign(m.routes.routes().begin(), m.routes.routes().end());
  update.full_set = true;
  const std::uint64_t encoded = wire::Encoder{}.encode(update).size();
  EXPECT_EQ(net.measure(m), encoded);
  EXPECT_EQ(net.total_bytes(), 2 * encoded);
  EXPECT_GT(net.total_bytes(), 0u);
  const ChannelState* ch = net.channel(1, 2);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->messages, 2u);
  EXPECT_EQ(ch->wire_bytes, net.total_bytes());
  EXPECT_EQ(net.channel(2, 1)->messages, 0u);
}

TEST_F(NetworkTest, WithdrawAndKeepaliveAreMeasuredAsTheirEncoding) {
  bgp::UpdateMessage withdraw;
  withdraw.prefix = kP;
  withdraw.full_set = true;
  EXPECT_EQ(net.measure(Message{kP, {}}),
            wire::Encoder{}.encode(withdraw).size());
  EXPECT_EQ(net.measure(Message{.keepalive = true}), wire::kHeaderSize);
}

TEST_F(NetworkTest, SenderIdentityIsDelivered) {
  RouterId from = 0;
  net.register_endpoint(2, [&](RouterId f, const Message&) { from = f; });
  net.register_endpoint(7, [](RouterId, const Message&) {});
  net.connect(7, 2, sim::msec(1));
  net.send(7, 2, msg(0));
  sched.run_to_quiescence();
  EXPECT_EQ(from, 7u);
}

TEST_F(NetworkTest, RejectsUnconnectedAndUnregistered) {
  net.register_endpoint(1, [](RouterId, const Message&) {});
  EXPECT_THROW(net.send(1, 2, msg(0)), std::logic_error);  // no channel
  net.connect(1, 3, sim::msec(1));
  EXPECT_THROW(net.send(1, 3, msg(0)), std::logic_error);  // no endpoint
  EXPECT_THROW(net.connect(1, 1, sim::msec(1)), std::invalid_argument);
  EXPECT_THROW(net.connect(1, 2, -1), std::invalid_argument);
}

TEST_F(NetworkTest, EndpointReplacementTakesEffectAtDelivery) {
  int via_new = 0;
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.register_endpoint(2, [](RouterId, const Message&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(0));
  // Replace the receiver while the message is in flight.
  net.register_endpoint(2, [&](RouterId, const Message&) { ++via_new; });
  sched.run_to_quiescence();
  EXPECT_EQ(via_new, 1);
}

bool same_payload(const Message& a, const Message& b) {
  if (a.prefix != b.prefix || a.keepalive != b.keepalive ||
      a.routes.size() != b.routes.size()) {
    return false;
  }
  const std::span<const Route> x = a.routes.routes();
  const std::span<const Route> y = b.routes.routes();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!x[i].same_announcement(y[i])) return false;
  }
  return true;
}

TEST_F(NetworkTest, ConstRefReceiverGetsIntactPayloadsInFifoOrder) {
  // Delivery moves each payload into the receiver; a receiver that takes
  // the message by const reference must still see every route, in send
  // order, under jitter.
  std::vector<Message> sent;
  std::vector<Message> got;
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.register_endpoint(2, [&](RouterId, const Message& m) {
    got.push_back(copy_of(m));
  });
  net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(50));
  for (int i = 0; i < 30; ++i) {
    sent.push_back(multi(kP, i, 1 + i % 5));
    net.send(1, 2, copy_of(sent.back()));
  }
  sched.run_to_quiescence();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(same_payload(got[i], sent[i])) << "message " << i;
  }
}

TEST_F(NetworkTest, RvalueReceiverTakesOwnershipOfThePayload) {
  std::vector<Message> kept;
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.register_endpoint(2, [&](RouterId, Message&& m) {
    kept.push_back(std::move(m));
  });
  net.connect(1, 2, sim::msec(1));
  const bgp::RouteSet* set = nullptr;
  {
    Message m = multi(kP, 1, 3);
    set = m.routes.get();
    net.send(1, 2, std::move(m));
  }
  // The message in flight holds the only reference.
  EXPECT_EQ(net.route_sets()->live_blocks(), 1u);
  sched.run_to_quiescence();
  ASSERT_EQ(kept.size(), 1u);
  // The receiver holds the very set that was sent, not a copy.
  EXPECT_EQ(kept.front().routes.get(), set);
  EXPECT_EQ(net.route_sets()->live_blocks(), 1u);
  kept.clear();
  EXPECT_EQ(net.route_sets()->live_blocks(), 0u);
}

TEST_F(NetworkTest, SendCountsTheBytesItIsGiven) {
  net.register_endpoint(1, [](RouterId, const Message&) {});
  net.register_endpoint(2, [](RouterId, const Message&) {});
  net.connect(1, 2, sim::msec(1));
  const Message m = multi(kP, 1, 3);
  const std::uint64_t bytes = net.measure(m);
  net.send(1, 2, copy_of(m), bytes);
  net.send(1, 2, copy_of(m));
  sched.run_to_quiescence();
  EXPECT_EQ(net.total_bytes(), 2 * bytes);
  EXPECT_EQ(net.channel(1, 2)->wire_bytes, 2 * bytes);
}

TEST_F(NetworkTest, EveryFaultPathReleasesTheSetsItDrops) {
  // Lost to an impairment, sent to a dead endpoint, buffered behind a
  // downed link and then reset: each message gives its set back.
  net.register_endpoint(1, [](RouterId, const Message&) {});
  int delivered = 0;
  net.register_endpoint(2, [&](RouterId, const Message&) { ++delivered; });
  net.connect(1, 2, sim::msec(1));
  net.impair(1, 2, 0, /*loss_prob=*/1.0);
  for (int i = 0; i < 5; ++i) net.send(1, 2, msg(i));
  net.impair(1, 2, 0, 0);
  net.set_endpoint_up(2, false);
  for (int i = 5; i < 10; ++i) net.send(1, 2, msg(i));
  net.set_endpoint_up(2, true);
  net.set_link(1, 2, false);
  for (int i = 10; i < 15; ++i) net.send(1, 2, msg(i));
  EXPECT_EQ(net.route_sets()->live_blocks(), 5u);  // the buffered ones
  net.session_reset(1, 2);
  EXPECT_EQ(net.route_sets()->live_blocks(), 0u);
  net.set_link(1, 2, true);
  for (int i = 15; i < 18; ++i) net.send(1, 2, msg(i));
  EXPECT_EQ(net.route_sets()->live_blocks(), 3u);  // in flight
  sched.run_to_quiescence();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(net.total_dropped(), 15u);
  EXPECT_EQ(net.route_sets()->live_blocks(), 0u);
}

TEST_F(NetworkTest, MessagesInFlightAtDestructionReleaseTheirSets) {
  // The network holds its store until its own queues are gone, so a
  // network destroyed with messages in flight and buffered frees cleanly
  // (the sanitizer builds check the order).
  auto owned = std::make_unique<Network>(sched, rng);
  std::weak_ptr<bgp::RouteSetStore> store = owned->route_sets();
  owned->register_endpoint(1, [](RouterId, const Message&) {});
  owned->register_endpoint(2, [](RouterId, const Message&) {});
  owned->connect(1, 2, sim::msec(5));
  const Route r = RouteBuilder{kP}.path_id(1).as_path({65001}).build();
  owned->send(1, 2, Message{kP, RouteSetRef{*owned->route_sets(), {&r, 1}}});
  owned->set_link(1, 2, false);
  owned->send(1, 2, Message{kP, RouteSetRef{*owned->route_sets(), {&r, 1}}});
  EXPECT_EQ(store.lock()->live_blocks(), 1u);
  owned.reset();
  EXPECT_TRUE(store.expired());
}

}  // namespace
}  // namespace abrr::net
