// The control-plane message fabric connecting BGP speakers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/prefix_index.h"
#include "bgp/route_set_store.h"
#include "bgp/types.h"
#include "net/channel.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/random.h"
#include "sim/queue_pool.h"
#include "sim/scheduler.h"
#include "wire/codec.h"

namespace abrr::net {

using bgp::RouterId;

/// Delivery callback: (sender, message). The message is handed over by
/// rvalue so a receiver can keep its set's reference; a callable taking
/// `const Message&` works as well.
using Receiver = std::function<void(RouterId, Message&&)>;

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
      : route_sets_(std::make_shared<bgp::RouteSetStore>()),
        prefix_index_(std::make_shared<bgp::PrefixIndex>()),
        scheduler_(&scheduler),
        rng_(&rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an endpoint's receive handler. Re-registering replaces it.
  void register_endpoint(RouterId id, Receiver receiver);

  /// The handler registered for `id` (throws std::out_of_range when there
  /// is none), so a caller can interpose on the endpoint's deliveries.
  const Receiver& receiver(RouterId id) const { return endpoints_.at(id); }

  /// Establishes the transport both ways with the given one-way latency
  /// and per-message jitter bound.
  void connect(RouterId a, RouterId b, sim::Time latency,
               sim::Time jitter = 0);

  bool connected(RouterId a, RouterId b) const;

  /// Sends a message; delivery is due after the channel latency (plus
  /// jitter and any impairment surcharge), no earlier than the previous
  /// message on the same directed channel, and fires exactly where a
  /// delivery event scheduled at send time would fire. Throws if the
  /// channel does not exist. While the link is down the message is
  /// buffered; while the destination endpoint is down it is dropped.
  /// The message's set must live in route_sets(). `bytes` must be
  /// measure(msg): a sender that counts the bytes itself measures once
  /// (for a set it sends to many peers, once for all of them) and passes
  /// the result on.
  void send(RouterId from, RouterId to, Message msg, std::uint64_t bytes);

  /// send() for callers that do not count bytes themselves.
  void send(RouterId from, RouterId to, Message msg) {
    const std::uint64_t bytes = measure(msg);
    send(from, to, std::move(msg), bytes);
  }

  /// The store every message's set lives in. The speakers of this
  /// network keep their RIBs' sets in it too, so a receiver can keep a
  /// delivered set by handle. The network holds it until its own
  /// in-flight messages are gone.
  const std::shared_ptr<bgp::RouteSetStore>& route_sets() const {
    return route_sets_;
  }

  /// The prefix numbering every speaker of this network shares, as it
  /// shares the store: a message carries its prefix's id in it.
  const std::shared_ptr<bgp::PrefixIndex>& prefix_index() const {
    return prefix_index_;
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
  /// length).
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Messages dropped by fault hooks (loss, dead endpoints, resets).
  std::uint64_t total_dropped() const { return total_dropped_; }

  /// Heap bytes of the channel table and the in-flight queue pool. The
  /// queued messages' sets are the store's (RouteSetStore::bytes).
  std::size_t queue_bytes() const;

  /// The encoded length of `msg`, as send() accounts it. Speakers use
  /// this for their own byte counters so every layer reports the same
  /// measured number.
  std::uint64_t measure(const Message& msg) {
    if (msg.keepalive) return wire::kHeaderSize;
    return sizer_.full_set_size(msg.prefix, msg.routes.routes());
  }

  /// Per-directed-channel counters, or nullptr if not connected.
  const ChannelState* channel(RouterId from, RouterId to) const;

  std::size_t session_count() const { return channels_.size() / 2; }

 private:
  /// A message on its way: due time and the scheduler sequence number it
  /// took at dispatch, which pin its place in the global event order.
  struct InFlight {
    sim::Time at = 0;
    std::uint64_t seq = 0;
    Message msg;
  };

  /// One directed channel: its public state plus its in-flight queue
  /// (in `in_flight_`). Only the queue's head has a scheduler event;
  /// delivering it arms the next, so the event heap holds one entry per
  /// busy channel.
  struct Channel {
    ChannelState state;
    RouterId from = bgp::kNoRouter;
    /// The destination's receiver slot; set on the first dispatch.
    const Receiver* receiver = nullptr;
    sim::QueuePool<InFlight>::Queue in_flight;
  };

  static std::uint64_t key(RouterId from, RouterId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Queues `msg` on `ch` behind its in-flight messages, fixing its due
  /// time and event sequence number now. The channel must be up and its
  /// endpoint registered (`receiver` is its slot).
  void dispatch(Channel& ch, const Receiver& receiver, Message msg);
  /// Schedules the delivery event of `ch`'s head message.
  void arm(Channel& ch);
  /// Delivers `ch`'s head message and arms the next one.
  void deliver(Channel& ch);

  // Declared first, so it outlives the messages below.
  std::shared_ptr<bgp::RouteSetStore> route_sets_;
  std::shared_ptr<bgp::PrefixIndex> prefix_index_;
  sim::Scheduler* scheduler_;
  sim::Rng* rng_;
  // Node-based maps with no erase: an armed delivery holds a pointer to
  // its channel, and a channel to its endpoint's receiver slot; both
  // stay valid across rehashes, and re-registering an endpoint assigns
  // into the same slot.
  std::unordered_map<RouterId, Receiver> endpoints_;
  std::unordered_map<std::uint64_t, Channel> channels_;
  // Every channel's in-flight messages, in one pool of nodes.
  sim::QueuePool<InFlight> in_flight_;
  std::unordered_set<RouterId> down_endpoints_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_dropped_ = 0;

  // Exact-size oracle.
  wire::WireSizer sizer_;
  // Full encoder, used only when a pcap capture ring is attached.
  wire::Encoder encoder_;

  // Optional observability handles (null when not attached).
  obs::Counter* m_messages_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Histogram* m_msg_bytes_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace abrr::net
