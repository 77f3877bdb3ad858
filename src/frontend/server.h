// TCP front-end for a RouteService (DESIGN.md §15).
//
// Threading model: ONE event-loop thread owns everything network-facing
// — the listening socket, every connection's buffers, and one
// RouteService::Reader that answers all LOOKUP_BATCH frames (the loop
// is single-threaded, so one epoch slot suffices; queries from any
// number of connections are answered through Reader::lookup_batch, one
// pin per frame). The loop never touches the writer thread's world and
// the writer never touches a socket.
//
// Backpressure: each connection has a bounded outbox. A reply that
// would push the outbox past max_outbox_bytes means the client is not
// draining its socket as fast as it pipelines requests — the connection
// is dropped (counted in dropped_slow) instead of buffering without
// bound. Malformed input gets one best-effort ERROR frame, then the
// connection closes; a protocol error loses framing by definition, so
// there is no recovery path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "frontend/proto.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace abrr::frontend {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Server::port() once start() returns).
  std::uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately
  /// (rejected_full); a malformed or slow client frees its slot on
  /// disconnect, so the bound is on concurrent connections only.
  std::size_t max_connections = 64;
  /// Per-connection outbox bound; exceeding it drops the connection.
  std::size_t max_outbox_bytes = 4u << 20;
  int listen_backlog = 64;
};

/// Front-end counters, readable from any thread while the loop runs.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;   // over max_connections
  std::uint64_t closed = 0;          // orderly client close / EOF
  std::uint64_t dropped_proto = 0;   // malformed frame -> ERROR + close
  std::uint64_t dropped_slow = 0;    // outbox bound exceeded
  std::uint64_t frames = 0;          // well-formed request frames served
  std::uint64_t batches = 0;         // LOOKUP_BATCH frames answered
  std::uint64_t lookups = 0;         // individual lookups answered
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t active = 0;          // currently open connections
};

class Server {
 public:
  /// The service must outlive the server and have been start()ed before
  /// queries arrive (the loop claims a Reader slot at startup).
  explicit Server(serve::RouteService& service, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port>, starts listening, and launches the loop
  /// thread. Throws std::runtime_error on socket/bind failures. When it
  /// returns, port() is connectable.
  void start();

  /// Wakes the loop, closes every connection and the listening socket,
  /// and joins the thread. Idempotent; also called by the destructor.
  void stop();

  std::uint16_t port() const { return port_; }
  ServerStats stats() const;

  /// Loop-side per-frame service time (ns), copied under a lock.
  obs::Histogram handle_ns_hist() const;

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;    // unparsed request bytes
    std::vector<std::uint8_t> out;   // encoded replies awaiting send
    std::size_t out_off = 0;         // bytes of `out` already sent
    bool draining = false;           // flush out, then close (post-ERROR)
  };

  void loop_main();
  void accept_ready();
  /// Returns false when the connection must close (EOF, error, drop).
  bool read_ready(Conn& conn, serve::RouteService::Reader& reader);
  bool write_ready(Conn& conn);
  /// Parses + answers every complete frame buffered in conn.in.
  bool drain_frames(Conn& conn, serve::RouteService::Reader& reader);
  bool handle_frame(Conn& conn, const Frame& frame,
                    serve::RouteService::Reader& reader);
  /// ERROR + drain; returns false (the caller closes after flushing).
  bool protocol_error(Conn& conn, std::uint16_t seq, const ProtoError& err);
  void close_conn(std::size_t index);

  serve::RouteService* service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: stop() -> poll wakeup
  std::uint16_t port_ = 0;

  std::thread loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<Conn>> conns_;  // loop thread only

  // Scratch reused across frames (loop thread only).
  std::vector<serve::LookupRequest> reqs_;
  std::vector<serve::LookupResponse> resps_;

  // Stats: loop publishes, anyone reads.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> dropped_proto_{0};
  std::atomic<std::uint64_t> dropped_slow_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> active_{0};

  mutable std::mutex hist_mutex_;
  obs::Histogram handle_ns_hist_;
};

}  // namespace abrr::frontend
