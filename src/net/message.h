// What the network carries between speakers.
//
// Every iBGP transmission is a full-set UPDATE for one prefix (the
// sender's complete new set for it, see ibgp/speaker.h) or a KEEPALIVE.
// Its routes are a set stored in the network's RouteSetStore, carried by
// handle: a sender that sends one set to a whole peer group stores it
// once and hands every member another reference, and the receiver can
// keep the delivered set as it is. A message that is dropped, buffered
// and then reset, or discarded by a dead receiver gives its reference
// back when it is destroyed.
//
// bgp::UpdateMessage remains the wire codec's model; the network builds
// one from a Message only to capture its encoding.
#pragma once

#include <cstdint>
#include <limits>

#include "bgp/prefix.h"
#include "bgp/route_set_store.h"

namespace abrr::net {

/// Message::prefix_id of a message whose sender did not look it up.
inline constexpr std::uint32_t kNoPrefixId =
    std::numeric_limits<std::uint32_t>::max();

struct Message {
  bgp::Ipv4Prefix prefix;
  /// The announced set, in receiver form (learned_from = the sender, via
  /// iBGP); null when the prefix is withdrawn.
  bgp::RouteSetRef routes;
  /// BGP KEEPALIVE: no prefix or routes, it only refreshes the
  /// receiver's hold timer.
  bool keepalive = false;
  /// `prefix`'s dense id in the network's PrefixIndex, so the receiver
  /// need not look it up; kNoPrefixId when the sender did not.
  std::uint32_t prefix_id = kNoPrefixId;
};

// The id sits in what was padding.
static_assert(sizeof(Message) == 32);

}  // namespace abrr::net
