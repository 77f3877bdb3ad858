// The control-plane message fabric connecting BGP speakers.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/types.h"
#include "bgp/update.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "wire/codec.h"

namespace abrr::net {

using bgp::RouterId;

/// Delivery callback: (sender, message). The message is handed over by
/// rvalue so a receiver can keep its payload without copying it; a
/// callable taking `const bgp::UpdateMessage&` works as well.
using Receiver = std::function<void(RouterId, bgp::UpdateMessage&&)>;

/// What one message adds to the byte counters.
struct MessageBytes {
  /// Exact RFC 4271 encoded length of the message train.
  std::uint64_t wire = 0;
  /// Closed-form estimate (bgp::UpdateMessage::wire_size).
  std::uint64_t modeled = 0;
};

/// Reliable in-order message fabric between registered endpoints.
///
/// Endpoints are BGP speakers; `connect` establishes a bidirectional
/// session transport with a one-way latency (optionally jittered).
/// Fault-injection hooks (link state, endpoint state, impairment
/// windows) preserve the reliable in-order contract for every message
/// that is actually delivered; see channel.h for the model.
class Network {
 public:
  Network(sim::Scheduler& scheduler, sim::Rng& rng)
      : scheduler_(&scheduler), rng_(&rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an endpoint's receive handler. Re-registering replaces it.
  void register_endpoint(RouterId id, Receiver receiver);

  /// Establishes the transport both ways with the given one-way latency
  /// and per-message jitter bound.
  void connect(RouterId a, RouterId b, sim::Time latency,
               sim::Time jitter = 0);

  bool connected(RouterId a, RouterId b) const;

  /// Sends a message; delivery is scheduled after the channel latency
  /// (plus jitter and any impairment surcharge), no earlier than the
  /// previous message on the same directed channel. Throws if the
  /// channel does not exist. While the link is down the message is
  /// buffered; while the destination endpoint is down it is dropped.
  /// `bytes` must be measure(msg): a sender that counts the bytes itself
  /// measures once and passes the result on.
  void send(RouterId from, RouterId to, bgp::UpdateMessage msg,
            MessageBytes bytes);

  /// send() for callers that do not count bytes themselves.
  void send(RouterId from, RouterId to, bgp::UpdateMessage msg) {
    const MessageBytes bytes = measure(msg);
    send(from, to, std::move(msg), bytes);
  }

  // --- fault-injection hooks -----------------------------------------

  /// Takes the link between `a` and `b` down or up (both directions).
  /// Down: sends buffer (TCP retransmission semantics). Up: buffered
  /// messages flush in their original order.
  void set_link(RouterId a, RouterId b, bool up);

  bool link_up(RouterId a, RouterId b) const;

  /// Marks an endpoint dead/alive (router crash). Messages towards a
  /// dead endpoint are dropped at send time — its TCP stack is gone, so
  /// nothing retransmits them.
  void set_endpoint_up(RouterId id, bool up);

  bool endpoint_up(RouterId id) const;

  /// Impairment window on both directions of a channel: every message
  /// gains `extra_delay` latency and is lost with probability
  /// `loss_prob` (decided at send). Clear with (0, 0).
  void impair(RouterId a, RouterId b, sim::Time extra_delay,
              double loss_prob);

  /// A session between `a` and `b` was torn down: the connection reset
  /// discards anything buffered on either direction. Harmless when no
  /// channel exists.
  void session_reset(RouterId a, RouterId b);

  /// Every connected (a, b) pair once, a < b, sorted — a deterministic
  /// enumeration for chaos-schedule target selection.
  std::vector<std::pair<RouterId, RouterId>> sessions() const;

  /// Mirrors the aggregate counters into `net.*` registry cells (and
  /// feeds the `net.msg_bytes` size histogram). Pass nullptr to detach.
  /// The registry must outlive the network. Purely additive accounting:
  /// scheduling and RNG use are untouched.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Records kMsgDrop events for fault-hook losses. Null disables.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Aggregate counters. total_bytes() is measured: the sum of the
  /// exact RFC 4271 encoded lengths each message occupies on the wire
  /// (wire::WireSizer, which reads each interned attribute block's stored
  /// length). total_modeled_bytes() keeps the legacy closed-form estimate
  /// for modeled-vs-measured comparison.
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_modeled_bytes() const { return total_modeled_bytes_; }
  /// Messages dropped by fault hooks (loss, dead endpoints, resets).
  std::uint64_t total_dropped() const { return total_dropped_; }

  /// Both byte counts of `msg`, as send() accounts them. Speakers use
  /// this for their own byte counters so every layer reports the same
  /// measured number.
  MessageBytes measure(const bgp::UpdateMessage& msg) {
    return MessageBytes{sizer_.message_size(msg), msg.wire_size()};
  }

  /// Per-directed-channel counters, or nullptr if not connected.
  const ChannelState* channel(RouterId from, RouterId to) const;

  std::size_t session_count() const { return channels_.size() / 2; }

 private:
  static std::uint64_t key(RouterId from, RouterId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Schedules the delivery of `msg` on channel (from, to) to `receiver`
  /// (the endpoint's registered slot), assigning its FIFO sequence
  /// number. The channel must exist and be up.
  void dispatch(RouterId from, RouterId to, ChannelState& ch,
                const Receiver& receiver, bgp::UpdateMessage msg);

  sim::Scheduler* scheduler_;
  sim::Rng* rng_;
  // Node-based maps with no erase: a delivery in flight holds pointers
  // to its channel and its endpoint's receiver slot, which stay valid
  // across rehashes, and re-registering an endpoint assigns into the
  // same slot.
  std::unordered_map<RouterId, Receiver> endpoints_;
  std::unordered_map<std::uint64_t, ChannelState> channels_;
  std::unordered_set<RouterId> down_endpoints_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_modeled_bytes_ = 0;
  std::uint64_t total_dropped_ = 0;

  // Exact-size oracle.
  wire::WireSizer sizer_;
  // Full encoder, used only when a pcap capture ring is attached.
  wire::Encoder encoder_;

  // Optional observability handles (null when not attached).
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_modeled_bytes_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Histogram* m_msg_bytes_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace abrr::net
