#include "frontend/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

namespace abrr::frontend {
namespace {

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error{std::string{what} + ": " +
                           std::strerror(errno)};
}

}  // namespace

Server::Server(serve::RouteService& service, ServerOptions options)
    : service_(&service),
      options_(options),
      handle_ns_hist_(obs::latency_buckets_ns()) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error{"Server::start() called twice"};

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("frontend: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("frontend: bind 127.0.0.1");
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    throw_errno("frontend: listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("frontend: getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe2(wake_fds_, O_NONBLOCK) < 0) throw_errno("frontend: pipe2");

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { loop_main(); });
}

void Server::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  const char byte = 1;
  // Best-effort wake; the loop also polls with a bounded timeout.
  (void)!::write(wake_fds_[1], &byte, 1);
  if (loop_.joinable()) loop_.join();
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  started_ = false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.dropped_proto = dropped_proto_.load(std::memory_order_relaxed);
  s.dropped_slow = dropped_slow_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  return s;
}

obs::Histogram Server::handle_ns_hist() const {
  std::lock_guard<std::mutex> lock{hist_mutex_};
  return handle_ns_hist_;
}

void Server::loop_main() {
  // The loop thread's epoch slot: every connection's queries are
  // answered through this one reader (single-threaded loop).
  serve::RouteService::Reader reader{*service_};

  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (conn->out.size() > conn->out_off) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; shut the front-end down
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (pfds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    // Snapshot the polled count BEFORE accepting: accept_ready appends
    // connections that have no pollfd entry this round, so the walk
    // below must not index past the array it was built from.
    const std::size_t polled = conns_.size();
    if (pfds[1].revents & POLLIN) accept_ready();

    // Walk backwards so close_conn's swap-remove can't skip an entry
    // (a closed slot inherits conns_.back(), which this round either
    // already processed or never polled).
    for (std::size_t i = polled; i-- > 0;) {
      Conn& conn = *conns_[i];
      const short revents = pfds[2 + i].revents;
      if (revents == 0) continue;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        closed_.fetch_add(1, std::memory_order_relaxed);
        alive = false;
      }
      if (alive && (revents & POLLIN)) alive = read_ready(conn, reader);
      if (alive && (revents & POLLOUT)) alive = write_ready(conn);
      if (!alive) close_conn(i);
    }
  }

  for (std::size_t i = conns_.size(); i-- > 0;) close_conn(i);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; retry on the next poll round
    }
    if (conns_.size() >= options_.max_connections) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Server::read_ready(Conn& conn, serve::RouteService::Reader& reader) {
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      closed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      closed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    // A draining connection's input is discarded: framing is already
    // lost and only the pending ERROR flush matters.
    if (!conn.draining) {
      conn.in.insert(conn.in.end(), chunk, chunk + n);
    }
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  if (conn.draining) return true;
  if (!drain_frames(conn, reader)) return false;
  // Try to flush replies eagerly: for request/reply clients the socket
  // is almost always writable, so this saves one poll round trip per
  // pipelined burst.
  return write_ready(conn);
}

bool Server::drain_frames(Conn& conn, serve::RouteService::Reader& reader) {
  std::size_t off = 0;
  bool alive = true;
  while (alive && !conn.draining) {
    Frame frame;
    std::size_t consumed = 0;
    ProtoError err;
    const DecodeStatus status = decode_frame(
        std::span<const std::uint8_t>{conn.in.data() + off,
                                      conn.in.size() - off},
        frame, consumed, err);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      alive = protocol_error(conn, 0, err);
      break;
    }
    off += consumed;
    alive = handle_frame(conn, frame, reader);
  }
  if (off > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return alive;
}

bool Server::handle_frame(Conn& conn, const Frame& frame,
                          serve::RouteService::Reader& reader) {
  const std::uint16_t seq = frame.header.seq;
  const std::uint64_t t_begin = now_ns();
  switch (frame.header.type) {
    case FrameType::kHello: {
      if (!frame.payload.empty()) {
        return protocol_error(
            conn, seq,
            ProtoError{ProtoErrorCode::kBadPayload, 0,
                       "HELLO carries no payload"});
      }
      HelloAck ack;
      {
        const serve::RouteService::Reader::PinGuard snap{reader};
        if (snap) {
          ack.snapshot_version = snap->version;
          ack.fingerprint = snap->fingerprint;
          ack.routers = static_cast<std::uint32_t>(snap->router_ids.size());
          ack.prefixes = static_cast<std::uint32_t>(snap->index->size());
        }
      }
      append_hello_ack(conn.out, seq, ack);
      break;
    }
    case FrameType::kStats: {
      if (!frame.payload.empty()) {
        return protocol_error(
            conn, seq,
            ProtoError{ProtoErrorCode::kBadPayload, 0,
                       "STATS carries no payload"});
      }
      const serve::ServiceStats svc = service_->stats();
      StatsReply reply;
      reply.snapshot_version = svc.version;
      reply.fingerprint = svc.fingerprint;
      reply.publishes = svc.publishes;
      reply.lookups_served = lookups_.load(std::memory_order_relaxed);
      reply.batches_served = batches_.load(std::memory_order_relaxed);
      reply.connections_accepted =
          accepted_.load(std::memory_order_relaxed);
      reply.connections_dropped =
          dropped_proto_.load(std::memory_order_relaxed) +
          dropped_slow_.load(std::memory_order_relaxed);
      append_stats_reply(conn.out, seq, reply);
      break;
    }
    case FrameType::kLookupBatch: {
      if (const auto err = decode_lookup_batch(frame.payload, reqs_)) {
        return protocol_error(conn, seq, *err);
      }
      // Backpressure: size the reply before answering. A client that
      // pipelines faster than it drains gets disconnected here rather
      // than growing the outbox without bound.
      const std::size_t pending = conn.out.size() - conn.out_off;
      if (pending + lookup_reply_frame_size(reqs_.size()) >
          options_.max_outbox_bytes) {
        dropped_slow_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      resps_.resize(reqs_.size());
      const serve::BatchResult res = reader.lookup_batch(reqs_, resps_);
      append_lookup_reply(conn.out, seq, res.snapshot_version,
                          res.fingerprint, resps_);
      batches_.fetch_add(1, std::memory_order_relaxed);
      lookups_.fetch_add(reqs_.size(), std::memory_order_relaxed);
      break;
    }
    case FrameType::kHelloAck:
    case FrameType::kStatsReply:
    case FrameType::kLookupReply:
    case FrameType::kError:
      return protocol_error(
          conn, seq,
          ProtoError{ProtoErrorCode::kUnexpectedType, 5,
                     "reply-only frame type sent to the server"});
  }
  frames_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock{hist_mutex_};
    handle_ns_hist_.record(static_cast<double>(now_ns() - t_begin));
  }
  return true;
}

bool Server::protocol_error(Conn& conn, std::uint16_t seq,
                            const ProtoError& err) {
  dropped_proto_.fetch_add(1, std::memory_order_relaxed);
  append_error(conn.out, seq, err.code, err.detail);
  conn.draining = true;
  // Flush what we can right away; if the socket blocks, the poll loop
  // finishes the drain and closes.
  return write_ready(conn);
}

bool Server::write_ready(Conn& conn) {
  while (conn.out.size() > conn.out_off) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // peer vanished mid-write
    }
    conn.out_off += static_cast<std::size_t>(n);
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
  }
  conn.out.clear();
  conn.out_off = 0;
  return !conn.draining;  // drained a post-ERROR connection: close it
}

void Server::close_conn(std::size_t index) {
  ::close(conns_[index]->fd);
  if (index + 1 < conns_.size()) conns_[index] = std::move(conns_.back());
  conns_.pop_back();
  active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace abrr::frontend
