#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/heap_bytes.h"

namespace abrr::net {

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_messages_ = nullptr;
    m_bytes_ = nullptr;
    m_dropped_ = nullptr;
    m_msg_bytes_ = nullptr;
    return;
  }
  m_messages_ = metrics->counter("net.messages");
  m_bytes_ = metrics->counter("net.bytes");
  m_dropped_ = metrics->counter("net.dropped");
  m_msg_bytes_ = metrics->histogram("net.msg_bytes", obs::size_buckets());
}

std::size_t Network::queue_bytes() const {
  return sim::heap_bytes(channels_) + in_flight_.bytes();
}

void Network::register_endpoint(RouterId id, Receiver receiver) {
  if (!receiver) throw std::invalid_argument{"register_endpoint: empty"};
  endpoints_[id] = std::move(receiver);
}

void Network::connect(RouterId a, RouterId b, sim::Time latency,
                      sim::Time jitter) {
  if (a == b) throw std::invalid_argument{"connect: self session"};
  if (latency < 0 || jitter < 0) {
    throw std::invalid_argument{"connect: negative latency"};
  }
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    Channel& ch = channels_[key(from, to)];
    ch.from = from;
    ch.state.base_latency = latency;
    ch.state.jitter = jitter;
  }
}

bool Network::connected(RouterId a, RouterId b) const {
  return channels_.count(key(a, b)) != 0;
}

void Network::dispatch(Channel& ch, const Receiver& receiver, Message msg) {
  ChannelState& st = ch.state;
  sim::Time latency = st.base_latency + st.extra_delay;
  if (st.jitter > 0) latency += rng_->uniform_int(0, st.jitter);
  sim::Time at = scheduler_->now() + latency;
  if (at <= st.last_delivery) at = st.last_delivery + 1;  // FIFO
  st.last_delivery = at;
  ch.receiver = &receiver;
  // The sequence number is taken now, as a delivery event scheduled here
  // would take it; the event itself is pushed when the message reaches
  // the head of the queue.
  const bool idle = ch.in_flight.empty();
  in_flight_.push(ch.in_flight,
                  InFlight{at, scheduler_->reserve_seq(), std::move(msg)});
  if (idle) arm(ch);
}

void Network::arm(Channel& ch) {
  const InFlight& head = in_flight_.front(ch.in_flight);
  scheduler_->schedule_reserved(head.at, head.seq,
                                [this, chp = &ch] { deliver(*chp); });
}

void Network::deliver(Channel& ch) {
  Message msg = std::move(in_flight_.front(ch.in_flight).msg);
  in_flight_.pop(ch.in_flight);
  // Due times strictly increase along the queue, so the next head is
  // still ahead of this event and keeps its reserved place.
  if (!ch.in_flight.empty()) arm(ch);
  (*ch.receiver)(ch.from, std::move(msg));
}

void Network::send(RouterId from, RouterId to, Message msg,
                   std::uint64_t bytes) {
  assert(!msg.routes || msg.routes.store() == route_sets_.get());
  const auto cit = channels_.find(key(from, to));
  if (cit == channels_.end()) {
    throw std::logic_error{"send: no session " + std::to_string(from) +
                           " -> " + std::to_string(to)};
  }
  const auto eit = endpoints_.find(to);
  if (eit == endpoints_.end()) {
    throw std::logic_error{"send: unregistered endpoint " +
                           std::to_string(to)};
  }

  Channel& channel = cit->second;
  ChannelState& ch = channel.state;
  if (!down_endpoints_.empty() && down_endpoints_.count(to) != 0) {
    // The destination's TCP stack died with it; nothing retransmits.
    ++ch.dropped;
    ++total_dropped_;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to, 1);
    }
    return;
  }
  if (ch.loss_prob > 0 && rng_->chance(ch.loss_prob)) {
    // Lost before a sequence number is assigned: the delivered stream
    // stays gap-free.
    ++ch.dropped;
    ++total_dropped_;
    if (m_dropped_ != nullptr) m_dropped_->inc();
    if (tracer_ != nullptr) {
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to, 1);
    }
    return;
  }

  ++ch.messages;
  ch.wire_bytes += bytes;
  ++total_messages_;
  total_bytes_ += bytes;
  if (m_messages_ != nullptr) {
    m_messages_->inc();
    m_bytes_->inc(bytes);
    m_msg_bytes_->record(static_cast<double>(bytes));
  }
  if (tracer_ != nullptr && tracer_->packets() != nullptr) {
    // The codec's model of the message, built only to be encoded.
    bgp::UpdateMessage update;
    update.prefix = msg.prefix;
    const std::span<const bgp::Route> routes = msg.routes.routes();
    update.announce.assign(routes.begin(), routes.end());
    update.full_set = !msg.keepalive;
    update.keepalive = msg.keepalive;
    const auto encoded = encoder_.encode(update);
    tracer_->packets()->record(from, to, encoded.data(), encoded.size());
  }

  if (!ch.up) {
    // TCP rides out a short link outage: the message waits in the send
    // window and is retransmitted after the restore.
    ch.buffered.push_back(std::move(msg));
    return;
  }
  dispatch(channel, eit->second, std::move(msg));
}

void Network::set_link(RouterId a, RouterId b, bool up) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = channels_.find(key(from, to));
    if (it == channels_.end()) {
      throw std::logic_error{"set_link: no session " + std::to_string(a) +
                             " <-> " + std::to_string(b)};
    }
    Channel& channel = it->second;
    ChannelState& ch = channel.state;
    if (ch.up == up) continue;
    ch.up = up;
    if (!up) continue;
    std::vector<Message> flush;
    flush.swap(ch.buffered);
    // send() refused to buffer toward an unregistered endpoint.
    const Receiver& receiver = endpoints_.at(to);
    for (Message& msg : flush) {
      dispatch(channel, receiver, std::move(msg));
    }
  }
}

bool Network::link_up(RouterId a, RouterId b) const {
  const auto it = channels_.find(key(a, b));
  return it != channels_.end() && it->second.state.up;
}

void Network::set_endpoint_up(RouterId id, bool up) {
  if (up) {
    down_endpoints_.erase(id);
  } else {
    down_endpoints_.insert(id);
  }
}

bool Network::endpoint_up(RouterId id) const {
  return down_endpoints_.count(id) == 0;
}

void Network::impair(RouterId a, RouterId b, sim::Time extra_delay,
                     double loss_prob) {
  if (extra_delay < 0 || loss_prob < 0 || loss_prob > 1) {
    throw std::invalid_argument{"impair: bad parameters"};
  }
  for (const auto k : {key(a, b), key(b, a)}) {
    const auto it = channels_.find(k);
    if (it == channels_.end()) {
      throw std::logic_error{"impair: no session " + std::to_string(a) +
                             " <-> " + std::to_string(b)};
    }
    it->second.state.extra_delay = extra_delay;
    it->second.state.loss_prob = loss_prob;
  }
}

void Network::session_reset(RouterId a, RouterId b) {
  for (const auto k : {key(a, b), key(b, a)}) {
    const auto it = channels_.find(k);
    if (it == channels_.end()) continue;
    ChannelState& ch = it->second.state;
    if (ch.buffered.empty()) continue;
    ch.dropped += ch.buffered.size();
    total_dropped_ += ch.buffered.size();
    if (m_dropped_ != nullptr) m_dropped_->inc(ch.buffered.size());
    if (tracer_ != nullptr) {
      const RouterId from = static_cast<RouterId>(k >> 32);
      const RouterId to = static_cast<RouterId>(k & 0xffffffffULL);
      tracer_->record(obs::TraceEventKind::kMsgDrop, from, to,
                      ch.buffered.size());
    }
    ch.buffered.clear();
  }
}

std::vector<std::pair<RouterId, RouterId>> Network::sessions() const {
  std::vector<std::pair<RouterId, RouterId>> out;
  out.reserve(channels_.size() / 2);
  for (const auto& [k, ch] : channels_) {
    const RouterId from = static_cast<RouterId>(k >> 32);
    const RouterId to = static_cast<RouterId>(k & 0xffffffffULL);
    if (from < to) out.emplace_back(from, to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const ChannelState* Network::channel(RouterId from, RouterId to) const {
  const auto it = channels_.find(key(from, to));
  return it == channels_.end() ? nullptr : &it->second.state;
}

}  // namespace abrr::net
