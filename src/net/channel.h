// Point-to-point control-plane channel between two routers.
//
// Models the BGP TCP session transport: reliable, in-order delivery with
// a configurable one-way latency. In-order delivery holds even under
// jitter because a message is never due before the previously sent one
// on the same directed channel, and the network keeps each channel's
// in-flight messages in one FIFO queue whose head alone is scheduled:
// delivering the head arms the next, so nothing can overtake.
//
// Fault model (driven by fault::FaultInjector through Network):
//  - link down: messages are buffered, not lost — TCP keeps
//    retransmitting across a short outage. The buffer is flushed in
//    order when the link restores, and discarded when either endpoint
//    tears the session down (the connection reset loses the window).
//  - impairment window: per-message extra delay and/or loss probability.
//    Loss is decided at send time, before the message is queued, so
//    delivered messages still form a gap-free FIFO stream.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "sim/time.h"

namespace abrr::net {

/// Per-directed-channel transport state.
struct ChannelState {
  sim::Time base_latency = sim::msec(1);
  /// Maximum extra random latency added per message (jitter).
  sim::Time jitter = 0;
  /// Departure time of the last message (for FIFO ordering).
  sim::Time last_delivery = 0;
  /// Messages and bytes carried (for the bandwidth accounting of §4.2).
  /// `wire_bytes` is the exact RFC 4271 encoded length (wire::WireSizer).
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;

  // --- fault state ----------------------------------------------------
  /// Link up? While down, sends are buffered (TCP retransmission).
  bool up = true;
  /// Impairment window: per-message latency surcharge.
  sim::Time extra_delay = 0;
  /// Impairment window: per-message loss probability (drop at send).
  double loss_prob = 0;
  /// Messages dropped by faults (loss bursts, dead endpoints, resets).
  std::uint64_t dropped = 0;
  /// Messages awaiting a link restore, in send order.
  std::vector<Message> buffered;
};

}  // namespace abrr::net
