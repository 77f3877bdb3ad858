// RouteService: the serving mode's long-lived wrapper around one
// converged trial.
//
// Threading model (the writer/reader contract, DESIGN.md §14):
//  - start() launches the WRITER thread. It builds the whole world
//    there — Testbed, regenerator, interner TrialScope are all
//    thread-confined to it — converges it, publishes snapshot v1, then
//    replays the churn plan (update trace + restricted fault chaos) in
//    publish_period steps, republishing a delta-rebuilt snapshot after
//    every step that dirtied at least one (router, prefix).
//  - Readers (any thread) claim an epoch slot via Reader, pin around
//    each query, and only ever touch the immutable RibSnapshot — never
//    the testbed, the scheduler, or the interner.
//  - Retired snapshots are reclaimed by the writer once no pinned
//    epoch can still reference them (serve/epoch.h). A stuck reader
//    therefore pins memory; the writer bounds it by DEFERRING further
//    publishes once max_resident_snapshots would be exceeded, instead
//    of growing the retire backlog.
//
// Lifetime contract: destroy (or at least stop using) all Readers
// before destroying the service. stop() only stops the writer; the
// last published snapshot stays readable until destruction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "bgp/prefix_index.h"
#include "bgp/route.h"
#include "obs/metrics.h"
#include "runner/scenario.h"
#include "serve/epoch.h"
#include "serve/snapshot.h"

namespace abrr::harness {
class Testbed;
}  // namespace abrr::harness

namespace abrr::serve {

// --- the serving query contract (QueryApi) ------------------------------
//
// LookupRequest/LookupResponse are the transport-agnostic unit of the
// read path: in-process callers hand spans of them to
// Reader::lookup_batch, and the TCP front-end (src/frontend) carries
// the same structs as wire frames. A batch is answered under ONE epoch
// pin, so every response in it comes from the same snapshot.

/// One serving query: "what route does `router` use for `addr`?".
struct LookupRequest {
  bgp::RouterId router = bgp::kNoRouter;
  bgp::Ipv4Addr addr = 0;

  friend bool operator==(const LookupRequest&, const LookupRequest&) =
      default;
};

/// One flattened answer. Value semantics on purpose: unlike
/// RibSnapshot::Hit there is no pointer into the snapshot, so a
/// response stays valid after the pin is released (and can be put on a
/// wire verbatim). snapshot_version/fingerprint identify the snapshot
/// that answered — equal versions mean bit-identical RIB state, which
/// is what the socket-vs-in-process equivalence tests compare.
struct LookupResponse {
  std::uint64_t attrs_hash = 0;
  std::uint64_t snapshot_version = 0;
  std::uint64_t fingerprint = 0;
  bgp::Ipv4Addr prefix = 0;  // matched prefix (valid when hit == 1)
  bgp::Ipv4Addr next_hop = 0;
  bgp::RouterId learned_from = bgp::kNoRouter;
  bgp::PathId path_id = 0;
  std::uint8_t prefix_len = 0;
  std::uint8_t hit = 0;

  friend bool operator==(const LookupResponse&, const LookupResponse&) =
      default;
};

/// What one lookup_batch call answered with (all responses in the
/// batch carry this same version/fingerprint).
struct BatchResult {
  std::uint64_t snapshot_version = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t hits = 0;
};

/// Writer + reclamation telemetry, readable from any thread.
struct ServiceStats {
  std::uint64_t publishes = 0;
  std::uint64_t publishes_deferred = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t retired_pending = 0;
  std::uint64_t retired_peak = 0;  // max resident retired snapshots seen
  std::uint64_t version = 0;       // latest published snapshot version
  std::uint64_t fingerprint = 0;   // ...and its RIB fingerprint
  sim::Time virtual_time = 0;      // ...and its simulation clock
  bool done = false;               // writer finished the churn horizon
};

// --- the writer's RIB mirror -------------------------------------------

/// The writer's live copy of every router's Loc-RIB, kept current by the
/// bed's RIB listener (Testbed::attach_rib_listener): one RouteEntry per
/// LPM slot per router, the commutative per-router fingerprint sums, and
/// each router's last published (COW-shared) table. The slots are the
/// bed's prefix ids at init(); a prefix the bed first sees later has no
/// slot and is not served. Writer-thread only.
struct RibMirror {
  struct Router {
    RibSnapshot::Table entries;  // dense by LPM/prefix slot
    std::uint64_t sum = 0;       // commutative fingerprint sum
    std::shared_ptr<const RibSnapshot::Table> published;
    bool dirty = false;
  };

  std::vector<bgp::RouterId> ids;  // ascending
  std::vector<std::uint32_t> pos;  // RouterId -> index+1
  std::vector<Router> routers;     // parallel to ids
  std::shared_ptr<const bgp::LpmIndex> index;
  const bgp::PrefixIndex* prefixes = nullptr;
  bool any_dirty = false;

  /// Sizes the mirror for `bed`'s routers and its current prefix ids.
  void init(const harness::Testbed& bed);
  /// Listener callbacks: one router's best for `prefix` changed
  /// (nullptr = withdrawn), or its whole Loc-RIB was wiped.
  void on_change(bgp::RouterId id, const bgp::Ipv4Prefix& prefix,
                 const bgp::Route* best);
  void on_cleared(bgp::RouterId id);
  /// The routers' sums chained in id order; equals
  /// fault::rib_fingerprint() of the bed while every best route it holds
  /// has a slot.
  std::uint64_t fingerprint() const;
};

class RouteService {
 public:
  /// `spec.serve` configures the churn plan and reclamation bounds
  /// (spec.serve.enabled itself is not consulted here — constructing a
  /// RouteService IS opting in). Throws std::invalid_argument on an
  /// invalid spec.
  RouteService(runner::ScenarioSpec spec, std::uint64_t seed,
               std::size_t max_readers = 64);
  ~RouteService();

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  /// Launches the writer thread and blocks until the converged initial
  /// snapshot (version 1) is published. Rethrows writer build failures.
  void start();

  /// Asks the writer to stop at the next step boundary and joins it.
  /// Idempotent; also called by the destructor.
  void stop();

  /// True once the writer has replayed the full churn horizon (it may
  /// still be parked waiting for stop()).
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// True once the horizon-state snapshot (virtual_time == end of the
  /// churn plan) is live. Can lag done(): a reader pinned across the
  /// horizon makes the final publish defer; the parked writer keeps
  /// retrying until the pin clears or stop().
  bool horizon_published() const {
    return horizon_published_.load(std::memory_order_acquire);
  }

  /// Virtual time of the converged pre-churn state (snapshot v1).
  /// Recorded by the writer before start() returns; stable thereafter.
  /// Reading stats().virtual_time for this instead races the writer:
  /// it may have replayed part of the horizon before the caller runs
  /// again.
  sim::Time converged_time() const {
    return t0_virtual_.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;

  /// Per-reader-thread handle: one epoch slot.
  ///
  /// The read contract is lookup_batch(): requests in, flattened
  /// responses out, one epoch pin per batch. Raw pin()/unpin() no
  /// longer exist — callers that need to hold a snapshot across their
  /// own logic (rather than a query batch) take a PinGuard.
  class Reader {
   public:
    explicit Reader(RouteService& service);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// RAII epoch pin: holds the live snapshot for its whole lifetime.
    /// The snapshot pointer is only nullptr before a successful
    /// start(). Keep the scope tight — a long-lived guard pins retired
    /// snapshots in memory and eventually defers the writer.
    class PinGuard {
     public:
      explicit PinGuard(Reader& reader) : reader_(&reader) {
        reader.service_->epochs_.pin(reader.slot_);
        snap_ = reader.service_->live_.load(std::memory_order_acquire);
      }
      ~PinGuard() { reader_->service_->epochs_.unpin(reader_->slot_); }
      PinGuard(const PinGuard&) = delete;
      PinGuard& operator=(const PinGuard&) = delete;

      const RibSnapshot* get() const { return snap_; }
      const RibSnapshot* operator->() const { return snap_; }
      const RibSnapshot& operator*() const { return *snap_; }
      explicit operator bool() const { return snap_ != nullptr; }

     private:
      Reader* reader_;
      const RibSnapshot* snap_;
    };

    /// Pins the epoch for the guard's scope (guaranteed copy elision:
    /// the guard is constructed in place at the caller).
    PinGuard pin() { return PinGuard{*this}; }

    /// Answers reqs[i] into resps[i] under a single epoch pin, so the
    /// whole batch reflects ONE snapshot. Requires
    /// resps.size() >= reqs.size(). Total: before the first publish
    /// every request misses at snapshot_version 0 (the TCP front-end
    /// exposes this path to clients).
    BatchResult lookup_batch(std::span<const LookupRequest> reqs,
                             std::span<LookupResponse> resps);

    /// One query; convenience over lookup_batch for callers that don't
    /// batch (a batch of one).
    LookupResponse lookup(bgp::RouterId router, bgp::Ipv4Addr addr) {
      const LookupRequest req{router, addr};
      LookupResponse resp;
      lookup_batch({&req, 1}, {&resp, 1});
      return resp;
    }

   private:
    friend class PinGuard;

    RouteService* service_;
    std::size_t slot_;
  };

  /// Writer-side wall-clock snapshot publish latency (ns).
  obs::Histogram publish_latency() const;

  EpochDomain& epochs() { return epochs_; }

 private:
  friend class Reader;

  void writer_main();
  struct WriterState;  // everything thread-confined to the writer
  bool try_publish(WriterState& w, sim::Time now);
  std::size_t reclaim();

  runner::ScenarioSpec spec_;
  std::uint64_t seed_;

  EpochDomain epochs_;
  std::atomic<const RibSnapshot*> live_{nullptr};
  RetireBin<RibSnapshot> bin_;  // writer thread only (dtor after join)

  std::thread writer_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> horizon_published_{false};
  std::atomic<bool> started_{false};

  // start() handshake + build-failure propagation.
  std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  bool ready_ = false;
  std::string writer_error_;

  // Stats (writer publishes, anyone reads).
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> retired_peak_{0};
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> fingerprint_{0};
  std::atomic<std::int64_t> virtual_time_{0};
  std::atomic<std::int64_t> t0_virtual_{0};

  // Writer-side publish latency.
  mutable std::mutex hist_mutex_;
  obs::Histogram publish_hist_;
};

/// Batch-mode comparator for the snapshot-consistency contract: builds
/// the world from (spec, seed) with runner::build_world, as the writer
/// does, converges it, arms the identical churn plan, runs ONE
/// run_until to the absolute virtual time `at`, and returns
/// fault::rib_fingerprint of the bed. A
/// snapshot published at virtual_time T must carry exactly
/// batch_fingerprint_at(spec, seed, T).
std::uint64_t batch_fingerprint_at(const runner::ScenarioSpec& spec,
                                   std::uint64_t seed, sim::Time at);

/// The converged (pre-churn) virtual time of a (spec, seed) world —
/// snapshot v1's virtual_time.
sim::Time batch_converged_time(const runner::ScenarioSpec& spec,
                               std::uint64_t seed);

}  // namespace abrr::serve
