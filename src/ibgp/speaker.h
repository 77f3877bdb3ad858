// The BGP speaker: one per router, implementing the client, TRR and ARR
// roles for full-mesh iBGP, Topology-Based Route Reflection (single- and
// multi-path) and Address-Based Route Reflection.
//
// Advertisement rules follow Table 1 of the paper exactly; see the
// per-role comments in speaker.cpp. All iBGP transmissions use per-sender
// replacement semantics: an UpdateMessage is the complete new set of
// routes the sender advertises for that prefix (full_set), which for
// single-path modes is just a set of size one and models BGP's implicit
// per-prefix withdraw, and for ARRs models add-paths conveying the whole
// best-AS-level set with each update (§2.1, §3.4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/decision.h"
#include "bgp/prefix_index.h"
#include "bgp/rib.h"
#include "bgp/route.h"
#include "bgp/update.h"
#include "ibgp/ebgp_export.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/key_set.h"
#include "sim/scheduler.h"

namespace abrr::ibgp {

using bgp::Asn;
using bgp::Ipv4Prefix;
using bgp::PathId;
using bgp::Route;
using bgp::RouterId;

/// Which iBGP architecture the AS runs. kDual runs TBRR and ABRR side by
/// side with a per-prefix acceptance switch, enabling the §2.4
/// incremental transition.
enum class IbgpMode : std::uint8_t { kFullMesh, kTbrr, kAbrr, kDual };

/// Address-partition identifier (index into the deployment's AP table).
using ApId = std::int32_t;

/// Maps a prefix to the AP(s) it belongs to. A prefix spanning several
/// APs maps to all of them (§2.1). Supplied by core::ApMapper; the
/// speaker only needs the function.
using ApOfFn = std::function<std::vector<ApId>(const Ipv4Prefix&)>;

/// The APs of every prefix of a PrefixIndex, resolved once through an
/// ApOfFn. A testbed builds one and shares it between its speakers, as it
/// shares the PrefixIndex, so a speaker's per-message AP lookup is an
/// array read instead of a call returning a fresh vector.
class PrefixApTable {
 public:
  PrefixApTable(const bgp::PrefixIndex& index, const ApOfFn& ap_of);

  /// APs of the prefix with dense id `id`.
  std::span<const ApId> aps(std::uint32_t id) const {
    return {aps_.data() + begin_[id], aps_.data() + begin_[id + 1]};
  }

 private:
  std::vector<std::uint32_t> begin_;  // per id, offset into aps_; +1 end
  std::vector<ApId> aps_;
};

/// One iBGP peer as seen from this speaker. A peer can hold several
/// roles at once (e.g. in ABRR, router X can be both my client — I
/// reflect my AP to X — and my reflector for another AP).
struct PeerInfo {
  RouterId id = bgp::kNoRouter;
  /// I am an RR and this peer is my client: I reflect to it.
  bool rr_client = false;
  /// TBRR: peer is a fellow TRR (TRR full mesh).
  bool rr_peer = false;
  /// TBRR: peer is my reflector (I am its client).
  bool reflector_tbrr = false;
  /// ABRR: peer is my reflector for these APs.
  std::vector<ApId> reflector_for;
};

/// Per-speaker configuration.
struct SpeakerConfig {
  RouterId id = bgp::kNoRouter;
  Asn asn = 0;
  IbgpMode mode = IbgpMode::kFullMesh;
  bgp::DecisionConfig decision{};

  /// Has the client role: holds a Loc-RIB and originates/consumes routes.
  /// Pure control-plane RRs set this false for the forwarding plane but
  /// still maintain their table (the paper's ARRs keep unmanaged routes
  /// "in their role as a client").
  bool data_plane = true;

  /// TBRR: non-zero marks this speaker a TRR with that CLUSTER_ID.
  /// Redundant TRRs of one cluster share the id (RFC 4456 redundancy).
  std::uint32_t cluster_id = 0;
  /// TBRR-multi: TRRs maintain and advertise all best AS-level routes
  /// (the paper's fairer multi-path comparison, Appendix A.3).
  bool multipath = false;

  /// ABRR: the APs this speaker is an ARR for (empty = pure client).
  std::vector<ApId> managed_aps;
  /// ABRR: prefix -> APs mapping (required in ABRR mode).
  ApOfFn ap_of;
  /// ABRR §3.4 ablation: force data-plane clients to reduce each
  /// received best-AS-level set to a single stored route per ARR
  /// session. Control-plane speakers always reduce (safe: they have no
  /// eBGP routes of their own). Forcing it on border routers saves
  /// memory but discards the MED-kill witnesses a client needs to
  /// suppress its own higher-MED routes, so strict full-mesh
  /// equivalence can be lost — see bench/ablation_client_reduction.
  bool abrr_force_client_reduction = false;

  /// Minimum Route Advertisement Interval towards iBGP peers (§3.5);
  /// 0 disables MRAI.
  sim::Time mrai = sim::sec(5);
  /// iBGP session hold time; 0 disables failure detection entirely (the
  /// pre-fault-subsystem behaviour: sessions only fail by oracle).
  /// When set, the speaker keepalives every hold_time/3 and declares a
  /// peer down — triggering the bulk-withdraw path — once nothing was
  /// heard from it for a full hold time (RFC 4271 §6.5 semantics).
  sim::Time hold_time = 0;
  /// Input batch window: received updates are queued and processed
  /// together after this delay (models the BGP process scheduling that
  /// lets ARRs coalesce a routing event's client updates, §4.2).
  sim::Time proc_delay = sim::msec(50);
  /// Per-update processing cost added to the speaker's busy time.
  sim::Time proc_per_update = sim::usec(50);
};

/// Monotonic per-speaker counters (the paper's §4.2 metrics).
///
/// This is a point-in-time VIEW: the live cells are `speaker.<field>`
/// counters in the speaker's MetricsRegistry (labelled with `speaker=`
/// and `role=`), and Speaker::counters() materializes them here so
/// existing field-by-field consumers keep working.
struct SpeakerCounters {
  std::uint64_t updates_received = 0;     // messages received
  std::uint64_t routes_received = 0;      // routes inside those messages
  std::uint64_t updates_generated = 0;    // Adj-RIB-Out (peer-group) changes
  std::uint64_t generated_to_clients = 0;  // ...towards client groups
  std::uint64_t generated_to_rrs = 0;      // ...towards the TRR mesh
  std::uint64_t updates_transmitted = 0;  // messages sent
  std::uint64_t bytes_transmitted = 0;       // modeled (closed-form estimate)
  std::uint64_t wire_bytes_transmitted = 0;  // measured (RFC 4271 encoding)
  std::uint64_t routes_transmitted = 0;
  std::uint64_t loops_suppressed = 0;     // reflected-bit / cluster-list drops
  std::uint64_t misdirected = 0;          // client routes outside our APs
  std::uint64_t ebgp_updates_sent = 0;    // announce/withdraw to eBGP
  std::uint64_t best_changes = 0;         // Loc-RIB best flips
  // Fault/liveness metrics (all zero while hold_time == 0 and no faults
  // are injected; counters survive a crash — they model the testbed's
  // external observer, not device memory).
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalives_received = 0;
  std::uint64_t hold_expirations = 0;     // peers declared down by timeout
  std::uint64_t sessions_reestablished = 0;
};

/// A BGP speaker attached to a Network and a Scheduler.
class Speaker {
 public:
  /// `metrics`, when given, must outlive the speaker; the testbed passes
  /// its shared registry so per-speaker counters can be summed and
  /// snapshotted centrally. When null the speaker owns a private
  /// registry, so standalone construction (unit tests) keeps working.
  Speaker(SpeakerConfig config, sim::Scheduler& scheduler,
          net::Network& network, obs::MetricsRegistry* metrics = nullptr);

  Speaker(const Speaker&) = delete;
  Speaker& operator=(const Speaker&) = delete;

  const SpeakerConfig& config() const { return config_; }
  RouterId id() const { return config_.id; }
  bool is_rr() const {
    return config_.cluster_id != 0 || !config_.managed_aps.empty();
  }

  /// Adds an iBGP peer (the Network session must be connected already).
  void add_peer(const PeerInfo& peer);

  /// IGP distance oracle for decision step 6 (default: flat metric 0).
  void set_igp(bgp::IgpDistanceFn igp) { igp_ = std::move(igp); }

  /// Optional event tracer (update rx/tx, decision batches, session
  /// transitions, crash/restart). Null disables tracing; the tracer must
  /// outlive the speaker. Recording is passive — no behaviour change.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Import policy applied to eBGP routes before they enter the RIB
  /// (returns nullopt to reject). Policies live at clients (§2.1).
  using ImportPolicy = std::function<std::optional<Route>(const Route&)>;
  void set_import_policy(ImportPolicy policy) { import_ = std::move(policy); }

  /// Shared dense prefix numbering: switches the RIBs, the per-peer
  /// sent-hash state, and the dirty-prefix coalescing to flat storage
  /// indexed by PrefixId. Call right after construction (before routes
  /// arrive); map fallbacks cover prefixes outside the index. `aps`, when
  /// given, must be built over the same index from this speaker's
  /// config().ap_of; indexed prefixes then take their APs from it.
  void set_prefix_index(std::shared_ptr<const bgp::PrefixIndex> index,
                        std::shared_ptr<const PrefixApTable> aps = nullptr);

  /// §2.4 transition switch (kDual mode): returns true when the best-path
  /// decision for this prefix should use routes learned from ABRR (and
  /// ignore TBRR reflections), false for the opposite. Advertisement
  /// continues on both planes regardless. May be changed at runtime; call
  /// refresh_all() afterwards to re-run decisions.
  void set_abrr_acceptance(std::function<bool(const Ipv4Prefix&)> accept) {
    accept_abrr_ = std::move(accept);
  }

  /// Re-runs the decision pipeline for every known prefix (after an
  /// acceptance flip or IGP change).
  void refresh_all();

  /// Observer invoked whenever the Loc-RIB best for a prefix changes
  /// (nullptr route = withdrawn). Used by the oscillation monitor.
  using BestChangeHook = std::function<void(const Ipv4Prefix&, const Route*)>;
  void set_best_change_hook(BestChangeHook hook) {
    best_change_hook_ = std::move(hook);
  }

  /// Observer invoked when the Loc-RIB is wiped wholesale (crash()).
  /// Unlike best-change it carries no per-prefix detail: crashes clear
  /// every RIB without running the decision process, so per-prefix hooks
  /// never fire. RIB mirrors (the serving mode) need this to mark every
  /// prefix of the speaker dirty.
  using RibClearedHook = std::function<void()>;
  void set_rib_cleared_hook(RibClearedHook hook) {
    rib_cleared_hook_ = std::move(hook);
  }

  /// Registers the receive endpoint with the network. Call after wiring.
  void start();

  /// Injects an eBGP-learned route (from the route regenerator). The
  /// speaker applies next-hop-self and the import policy. `neighbor`
  /// identifies the eBGP session (use ids disjoint from RouterIds).
  void inject_ebgp(RouterId neighbor, Route route);

  /// Withdraws the eBGP route previously injected for (neighbor, prefix).
  void withdraw_ebgp(RouterId neighbor, const Ipv4Prefix& prefix);

  /// Locally originates a route (static/aggregate).
  void originate(Route route);

  // --- eBGP neighbors (Table 1: Client -> eBGP Neighbor) ---------------

  /// Registers an eBGP neighbor for export. Routes learned FROM a
  /// neighbor (inject_ebgp) do not require registration; registration
  /// controls what we advertise TO it.
  void add_ebgp_neighbor(RouterId neighbor, Asn neighbor_as,
                         const EbgpExportPolicy& policy = {});

  /// Observer for routes advertised/withdrawn to eBGP neighbors
  /// (our neighbors are trace stubs, so delivery is observational).
  using EbgpSendHook = std::function<void(
      RouterId neighbor, const Ipv4Prefix&, const std::optional<Route>&)>;
  void set_ebgp_send_hook(EbgpSendHook hook) {
    ebgp_send_hook_ = std::move(hook);
  }

  // --- session lifecycle ------------------------------------------------

  /// An iBGP peer's or eBGP neighbor's session dropped: purge every
  /// route learned from it and re-run decisions (bulk withdraw).
  /// Idempotent — a second down for an already-down iBGP peer is a
  /// no-op — and safe for unknown peers (this is the failover hot
  /// path). Tearing down an iBGP session also resets the transport
  /// (buffered in-flight messages are lost with the TCP connection).
  void session_down(RouterId peer);

  /// An iBGP session (re-)established: replay the full relevant
  /// Adj-RIB-Out state toward the peer (BGP initial table sync).
  /// Receiving any message from a peer we consider down also counts as
  /// (re-)establishment — the transport evidently works — and triggers
  /// the same replay toward it.
  void session_up(RouterId peer);

  /// True while this speaker considers the session to `peer` usable.
  /// Unknown peers report false.
  bool peer_up(RouterId peer) const;

  /// Peer ids in (deterministic) wiring order.
  const std::vector<RouterId>& peer_ids() const { return peer_order_; }

  // --- fault injection --------------------------------------------------

  /// The router process dies: every RIB, timer, queue and session is
  /// lost. The speaker ignores all input until restart(). Peers are NOT
  /// notified — they discover the crash through their hold timers (or
  /// the fault injector's explicit session events).
  void crash();

  /// The router comes back up with empty tables. Sessions stay down
  /// until re-established (session_up / first received message), and
  /// eBGP feeds must be re-injected by the neighbor (fault injector).
  void restart();

  bool alive() const { return alive_; }

  // --- Introspection ----------------------------------------------------

  const bgp::LocRib& loc_rib() const { return loc_rib_; }
  const bgp::AdjRibIn& adj_rib_in() const { return adj_rib_in_; }
  std::size_t rib_in_size() const { return adj_rib_in_.size(); }
  /// Total Adj-RIB-Out entries over all peer groups (§3.2 metric).
  std::size_t rib_out_size() const;
  /// Received updates queued but not yet drained (sampler gauge).
  std::size_t input_queue_size() const { return input_queue_.size(); }
  /// Point-in-time view of the registry-backed per-speaker counters.
  SpeakerCounters counters() const;
  /// The registry holding this speaker's counter cells (the testbed's
  /// shared registry, or the speaker's own when none was passed in).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  std::size_t peer_count() const { return peers_.size(); }

  /// The advertised set of one peer group (testing); group keys are
  /// kGroupClients / kGroupRrPeers / ap ids (ABRR).
  const bgp::AdjRibOut* out_group(int group) const;

  /// Peer-group keys.
  static constexpr int kGroupClients = -1;   // RR -> clients (TBRR)
  static constexpr int kGroupRrPeers = -2;   // TRR -> TRRs
  static constexpr int kGroupMesh = -3;      // full-mesh -> everyone
  static constexpr int kGroupUplink = -4;    // TBRR client -> its TRRs
  // ABRR groups: ARR->clients for AP a is group (2*a),
  //              client->ARRs of AP a is group (2*a + 1).
  static int arr_group(ApId ap) { return 2 * ap; }
  static int client_group(ApId ap) { return 2 * ap + 1; }

 private:
  struct OutGroup {
    bgp::AdjRibOut rib;
    std::vector<RouterId> members;
  };

  struct PeerState {
    PeerInfo info;
    /// Session usable? Cleared by session_down / crash / hold expiry;
    /// set by session_up (including the receive-side auto-up).
    bool up = true;
    /// Last time anything (update or keepalive) arrived from the peer.
    sim::Time last_heard = 0;
    // MRAI state.
    bool mrai_armed = false;
    sim::EventId mrai_timer = 0;
    // Pending (group, prefix) pairs awaiting the MRAI flush, in first-
    // insertion order; `pending_keys` holds their tx_key()s so each pair
    // is queued once per window.
    std::vector<std::pair<int, Ipv4Prefix>> pending;
    sim::KeySet pending_keys;
    // The groups this peer is a member of, in join order.
    std::vector<int> groups;
    // Last transmitted content hash per (group, prefix); 0 = nothing.
    // Flat when a PrefixIndex is available: one PrefixIndex-sized stripe
    // per entry of `groups`, allocated when that stripe is first used.
    // Map otherwise, keyed by tx_key().
    std::unordered_map<std::uint64_t, std::uint64_t> sent_hash_map;
    std::vector<std::uint64_t> sent_hash_flat;
  };

  struct Incoming {
    RouterId from;
    /// iBGP: the received message. eBGP: carries only the prefix.
    bgp::UpdateMessage msg;
    bool ebgp = false;
    /// eBGP: the injected or originated route, held inline so a feed
    /// event allocates nothing; an invalid route withdraws.
    Route ebgp_route;
  };

  /// Dense id of `prefix`, or nullopt when it has none (no index, or
  /// outside it). Resolved once per message, pipeline run and
  /// transmission, then handed down to the speaker's own arrays and, as
  /// a bgp::IndexedPrefix, to the RIBs.
  using PrefixId = std::optional<std::uint32_t>;
  PrefixId prefix_id(const Ipv4Prefix& prefix) const;

  // -- receive path --
  void receive(RouterId from, bgp::UpdateMessage&& msg);
  void enqueue(Incoming&& incoming);
  void drain_input();
  /// Applies one message to the Adj-RIB-In; appends dirty prefixes.
  /// Stamps and filters the message's routes in place.
  void apply(Incoming& incoming, std::vector<Ipv4Prefix>& dirty);
  /// Appends `prefix` to `dirty` unless already marked this drain epoch
  /// (dense-index dedup; unindexed prefixes are deduped by sort later).
  void mark_dirty(const Ipv4Prefix& prefix, PrefixId pid,
                  std::vector<Ipv4Prefix>& dirty);
  bool accept_route(const Route& route, const PeerState* peer) const;

  // -- decision + advertisement path --
  // The pipeline works over scratch buffers of `const Route*` pointing
  // into the Adj-RIB-In (and, for the ARR hand-off, one local copy);
  // routes are only materialized when an Adj-RIB-Out actually changes.
  void run_pipeline(const Ipv4Prefix& prefix);
  void reflect_tbrr(const Ipv4Prefix& prefix, PrefixId pid,
                    std::span<const Route* const> candidates);
  void reflect_abrr(const Ipv4Prefix& prefix, PrefixId pid,
                    std::span<const Route* const> candidates);
  void decide_local(const Ipv4Prefix& prefix, PrefixId pid,
                    std::span<const Route* const> candidates);
  void export_own_best(const Ipv4Prefix& prefix, PrefixId pid,
                       const Route* best);
  void export_ebgp(const Ipv4Prefix& prefix, PrefixId pid, const Route* best);

  /// Commits `routes` as a group's Adj-RIB-Out set for `prefix` (sorting
  /// them in place); on change, schedules per-member transmission under
  /// MRAI.
  void set_group_routes(int group, const Ipv4Prefix& prefix, PrefixId pid,
                        std::span<Route> routes);

  void schedule_send(RouterId peer, int group, const Ipv4Prefix& prefix);
  void flush_peer(RouterId peer);
  void transmit(PeerState& peer, int group, const Ipv4Prefix& prefix);

  std::uint64_t& sent_hash(PeerState& peer, int group,
                           const Ipv4Prefix& prefix, PrefixId pid);
  /// Exact (group, prefix) key for the pending set and the unindexed
  /// sent-hash map.
  static std::uint64_t tx_key(int group, const Ipv4Prefix& prefix);

  // -- liveness (hold/keepalive) --
  sim::Time keepalive_interval() const;
  /// Periodic per-speaker tick: expires silent peers' hold timers, then
  /// keepalives every up session, then re-arms itself.
  void keepalive_tick();
  /// Clears a peer's transmission state (MRAI, pending, sent hashes).
  void reset_peer_tx_state(PeerState& peer);

  OutGroup& group(int key);
  /// True when decisions for this prefix use the ABRR plane.
  bool uses_abrr(const Ipv4Prefix& prefix) const;
  /// Drops candidates from the plane the acceptance switch disables.
  /// Returns `in` untouched outside kDual; otherwise filters into
  /// scratch_accepted_ and returns a span over it.
  std::span<const Route* const> filter_accepted(
      const Ipv4Prefix& prefix, std::span<const Route* const> in);
  /// The prefix's APs: a view into the shared PrefixApTable for indexed
  /// prefixes, else config().ap_of's answer held in scratch_aps_ (valid
  /// until the next aps_of call).
  std::span<const ApId> aps_of(const Ipv4Prefix& prefix, PrefixId pid);
  bool manages_ap(ApId ap) const;
  bool manages_prefix(const Ipv4Prefix& prefix, PrefixId pid);
  /// Empties the reused per-drain buffers, releasing any that a burst
  /// grew past its retention bound.
  void trim_scratch();

  /// Registers the `speaker.*` counter cells and histograms with
  /// `metrics_` and caches the hot-path handles in `c_`.
  void register_metrics();

  SpeakerConfig config_;
  sim::Scheduler* scheduler_;
  net::Network* network_;
  bgp::IgpDistanceFn igp_;
  ImportPolicy import_;
  std::function<bool(const Ipv4Prefix&)> accept_abrr_;
  BestChangeHook best_change_hook_;
  RibClearedHook rib_cleared_hook_;
  std::shared_ptr<const bgp::PrefixIndex> prefix_index_;
  std::shared_ptr<const PrefixApTable> prefix_aps_;

  struct EbgpNeighborState {
    Asn asn = 0;
    EbgpExportPolicy policy;
    // Advertised-content hash per prefix (0 = nothing advertised).
    // Flat when a PrefixIndex is available, map otherwise.
    std::unordered_map<Ipv4Prefix, std::uint64_t> advertised;
    std::vector<std::uint64_t> advertised_flat;  // indexed by PrefixId
  };
  std::unordered_map<RouterId, EbgpNeighborState> ebgp_neighbors_;
  EbgpSendHook ebgp_send_hook_;

  std::unordered_map<RouterId, PeerState> peers_;
  /// Peer ids in add_peer order: a deterministic iteration order for
  /// the keepalive tick and crash teardown.
  std::vector<RouterId> peer_order_;
  std::unordered_map<int, OutGroup> groups_;

  bgp::AdjRibIn adj_rib_in_;
  bgp::LocRib loc_rib_;

  // Received messages awaiting the next drain. A drain swaps them into
  // drain_batch_, so the two vectors trade storage instead of
  // reallocating; trim_scratch() bounds what either keeps.
  std::vector<Incoming> input_queue_;
  std::vector<Incoming> drain_batch_;
  bool drain_scheduled_ = false;
  sim::EventId drain_event_ = 0;
  sim::Time busy_until_ = 0;

  // Liveness state.
  bool alive_ = true;
  bool keepalive_armed_ = false;
  sim::EventId keepalive_timer_ = 0;

  // Dirty-prefix coalescing for drain_input: per-PrefixId epoch stamps
  // so a drain batch dedups indexed prefixes in O(1) per touch.
  std::vector<std::uint64_t> dirty_mark_;
  std::uint64_t dirty_epoch_ = 0;

  // Reusable pipeline scratch (valid only within one run_pipeline call).
  // Route vectors hold the sets committed to Adj-RIB-Outs; the commit
  // copies them into the RIB's own storage.
  std::vector<Route> scratch_out_;
  std::vector<Route> scratch_to_rrs_;
  std::vector<ApId> scratch_aps_;
  // flush_peer's batch; swapped with a peer's pending list.
  std::vector<std::pair<int, Ipv4Prefix>> flush_batch_;
  std::vector<const Route*> scratch_candidates_;
  std::vector<const Route*> scratch_accepted_;
  std::vector<const Route*> scratch_eligible_;
  std::vector<const Route*> scratch_select_;
  std::vector<const Route*> scratch_bal_;
  std::vector<const Route*> scratch_target_;
  std::vector<Ipv4Prefix> scratch_dirty_;

  // Hot-path metric handles: looked up once at construction, incremented
  // directly (one add through a pointer) everywhere the old
  // SpeakerCounters fields were bumped. The cells live in *metrics_.
  struct CounterHandles {
    obs::Counter* updates_received = nullptr;
    obs::Counter* routes_received = nullptr;
    obs::Counter* updates_generated = nullptr;
    obs::Counter* generated_to_clients = nullptr;
    obs::Counter* generated_to_rrs = nullptr;
    obs::Counter* updates_transmitted = nullptr;
    obs::Counter* bytes_transmitted = nullptr;
    obs::Counter* wire_bytes_transmitted = nullptr;
    obs::Counter* routes_transmitted = nullptr;
    obs::Counter* loops_suppressed = nullptr;
    obs::Counter* misdirected = nullptr;
    obs::Counter* ebgp_updates_sent = nullptr;
    obs::Counter* best_changes = nullptr;
    obs::Counter* keepalives_sent = nullptr;
    obs::Counter* keepalives_received = nullptr;
    obs::Counter* hold_expirations = nullptr;
    obs::Counter* sessions_reestablished = nullptr;
    // Unlabelled, so every speaker on a shared registry feeds the same
    // distribution.
    obs::Histogram* update_routes = nullptr;  // routes per received update
    obs::Histogram* drain_batch = nullptr;    // dirty prefixes per drain
  };

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  CounterHandles c_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace abrr::ibgp
