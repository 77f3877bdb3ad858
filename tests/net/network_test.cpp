#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "bgp/route.h"

namespace abrr::net {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouteBuilder;
using bgp::UpdateMessage;

UpdateMessage msg(int tag) {
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.announce.push_back(RouteBuilder{m.prefix}
                           .path_id(static_cast<bgp::PathId>(tag))
                           .as_path({65001})
                           .build());
  return m;
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  sim::Rng rng{1};
  Network net{sched, rng};
};

TEST_F(NetworkTest, DeliversAfterLatency) {
  std::vector<sim::Time> arrivals;
  net.register_endpoint(2, [&](RouterId, const UpdateMessage&) {
    arrivals.push_back(sched.now());
  });
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(1));
  sched.run_to_quiescence();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals.front(), sim::msec(5));
}

TEST_F(NetworkTest, FifoOrderSurvivesJitter) {
  std::vector<int> order;
  net.register_endpoint(2, [&](RouterId, const UpdateMessage& m) {
    order.push_back(static_cast<int>(m.announce.front().path_id));
  });
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(50));
  for (int i = 0; i < 20; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(NetworkTest, DirectionsAreIndependentChannels) {
  int at1 = 0, at2 = 0;
  net.register_endpoint(1, [&](RouterId, const UpdateMessage&) { ++at1; });
  net.register_endpoint(2, [&](RouterId, const UpdateMessage&) { ++at2; });
  net.connect(1, 2, sim::msec(1));
  net.send(1, 2, msg(0));
  net.send(2, 1, msg(1));
  sched.run_to_quiescence();
  EXPECT_EQ(at1, 1);
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(net.session_count(), 1u);
}

TEST_F(NetworkTest, CountsMessagesAndBytes) {
  net.register_endpoint(2, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(1));
  const auto m = msg(0);
  net.send(1, 2, m);
  net.send(1, 2, m);
  sched.run_to_quiescence();
  EXPECT_EQ(net.total_messages(), 2u);
  // total_bytes() is measured (exact RFC 4271 encoding); the legacy
  // closed-form estimate moves to total_modeled_bytes().
  EXPECT_EQ(net.total_modeled_bytes(), 2 * m.wire_size());
  EXPECT_EQ(net.measure(m).modeled, m.wire_size());
  EXPECT_EQ(net.total_bytes(), 2 * net.measure(m).wire);
  EXPECT_GT(net.total_bytes(), 0u);
  const ChannelState* ch = net.channel(1, 2);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->messages, 2u);
  EXPECT_EQ(ch->bytes, 2 * m.wire_size());
  EXPECT_EQ(ch->wire_bytes, net.total_bytes());
  EXPECT_EQ(net.channel(2, 1)->messages, 0u);
}

TEST_F(NetworkTest, SenderIdentityIsDelivered) {
  RouterId from = 0;
  net.register_endpoint(2,
                        [&](RouterId f, const UpdateMessage&) { from = f; });
  net.register_endpoint(7, [](RouterId, const UpdateMessage&) {});
  net.connect(7, 2, sim::msec(1));
  net.send(7, 2, msg(0));
  sched.run_to_quiescence();
  EXPECT_EQ(from, 7u);
}

TEST_F(NetworkTest, RejectsUnconnectedAndUnregistered) {
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  EXPECT_THROW(net.send(1, 2, msg(0)), std::logic_error);  // no channel
  net.connect(1, 3, sim::msec(1));
  EXPECT_THROW(net.send(1, 3, msg(0)), std::logic_error);  // no endpoint
  EXPECT_THROW(net.connect(1, 1, sim::msec(1)), std::invalid_argument);
  EXPECT_THROW(net.connect(1, 2, -1), std::invalid_argument);
}

TEST_F(NetworkTest, EndpointReplacementTakesEffectAtDelivery) {
  int via_new = 0;
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(2, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(0));
  // Replace the receiver while the message is in flight.
  net.register_endpoint(2,
                        [&](RouterId, const UpdateMessage&) { ++via_new; });
  sched.run_to_quiescence();
  EXPECT_EQ(via_new, 1);
}

/// A message of `routes` routes on `prefix`, path ids `tag*100 + i`,
/// alternating between two attribute blocks.
UpdateMessage multi(const Ipv4Prefix& prefix, int tag, int routes) {
  UpdateMessage m;
  m.prefix = prefix;
  m.full_set = true;
  for (int i = 0; i < routes; ++i) {
    m.announce.push_back(RouteBuilder{prefix}
                             .path_id(static_cast<bgp::PathId>(tag * 100 + i))
                             .as_path({65001u + static_cast<bgp::Asn>(i % 2)})
                             .build());
  }
  return m;
}

bool same_payload(const UpdateMessage& a, const UpdateMessage& b) {
  if (a.prefix != b.prefix || a.full_set != b.full_set ||
      a.keepalive != b.keepalive || a.withdraw != b.withdraw ||
      a.announce.size() != b.announce.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.announce.size(); ++i) {
    if (!a.announce[i].same_announcement(b.announce[i])) return false;
  }
  return true;
}

TEST_F(NetworkTest, ConstRefReceiverGetsIntactPayloadsInFifoOrder) {
  // Delivery moves each payload into the receiver; a receiver that takes
  // the message by const reference must still see every route, in send
  // order, under jitter.
  std::vector<UpdateMessage> sent;
  std::vector<UpdateMessage> got;
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(2, [&](RouterId, const UpdateMessage& m) {
    got.push_back(m);
  });
  net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(50));
  const Ipv4Prefix p = Ipv4Prefix::parse("10.0.0.0/8");
  for (int i = 0; i < 30; ++i) {
    sent.push_back(multi(p, i, 1 + i % 5));
    net.send(1, 2, sent.back());
  }
  sched.run_to_quiescence();
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(same_payload(got[i], sent[i])) << "message " << i;
  }
}

TEST_F(NetworkTest, RvalueReceiverTakesOwnershipOfThePayload) {
  std::vector<UpdateMessage> kept;
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(2, [&](RouterId, UpdateMessage&& m) {
    kept.push_back(std::move(m));
  });
  net.connect(1, 2, sim::msec(1));
  const UpdateMessage m = multi(Ipv4Prefix::parse("10.0.0.0/8"), 1, 3);
  net.send(1, 2, m);
  sched.run_to_quiescence();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(same_payload(kept.front(), m));
}

TEST_F(NetworkTest, SendCountsTheBytesItIsGiven) {
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(2, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(1));
  const UpdateMessage m = multi(Ipv4Prefix::parse("10.0.0.0/8"), 1, 3);
  const MessageBytes bytes = net.measure(m);
  net.send(1, 2, m, bytes);
  net.send(1, 2, m);
  sched.run_to_quiescence();
  EXPECT_EQ(net.total_bytes(), 2 * bytes.wire);
  EXPECT_EQ(net.total_modeled_bytes(), 2 * bytes.modeled);
}

}  // namespace
}  // namespace abrr::net
