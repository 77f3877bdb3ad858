// Experiment harness: builds a runnable AS (scheduler, network, IGP,
// speakers wired per architecture) from a Topology, and exposes the
// metrics the paper reports.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/address_partition.h"
#include "harness/options.h"
#include "ibgp/speaker.h"
#include "igp/spf.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "topo/topology.h"
#include "trace/regenerator.h"

namespace abrr::harness {

using bgp::Ipv4Prefix;
using bgp::RouterId;

/// Aggregate over a set of speakers (Figure 6's min/avg/max bars).
struct Aggregate {
  double min = 0;
  double max = 0;
  double avg = 0;
};

/// Counter sums used by Figure 7 and §4.2, computed by label-filtered
/// sums over the shared metrics registry (minus the reset_counters()
/// snapshot) — the registry cells are the single source of truth; there
/// is no parallel per-speaker accumulation path anymore.
struct RoleTotals {
  std::uint64_t received = 0;
  std::uint64_t generated = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t wire_bytes = 0;  // measured RFC 4271 encoded lengths
  std::size_t speakers = 0;

  double avg_received() const {
    return speakers ? static_cast<double>(received) / speakers : 0;
  }
  double avg_generated() const {
    return speakers ? static_cast<double>(generated) / speakers : 0;
  }
  double avg_transmitted() const {
    return speakers ? static_cast<double>(transmitted) / speakers : 0;
  }
  double avg_wire_bytes() const {
    return speakers ? static_cast<double>(wire_bytes) / speakers : 0;
  }
};

/// Heap bytes of a testbed by structure (Testbed::memory()), summed
/// over its speakers where the structure is per speaker.
struct MemoryBreakdown {
  /// Adj-RIB-In slots and run lists.
  std::size_t rib_in = 0;
  std::size_t loc_rib = 0;
  /// Adj-RIB-Out slots (one handle each) and the group tables.
  std::size_t rib_out = 0;
  /// The bed's RouteSetStore: every route set the Adj-RIB-Ins and
  /// Adj-RIB-Outs hold, once each, and its table.
  std::size_t route_sets = 0;
  std::size_t sent_hashes = 0;
  std::size_t pending = 0;
  /// The calling thread's active attribute interner (the trial's, inside
  /// runner::run_trial): slabs, table and the blocks' vectors.
  std::size_t attr_arena = 0;
  /// The network's channel table and in-flight queue pool.
  std::size_t channel_queues = 0;
  /// The scheduler's event slabs and event heap.
  std::size_t events = 0;

  std::size_t total() const {
    return rib_in + loc_rib + rib_out + route_sets + sent_hashes + pending +
           attr_arena + channel_queues + events;
  }
};

class Testbed {
 public:
  /// Builds and wires the testbed. `prefixes` is the experiment's prefix
  /// universe (dense indexing + AP balancing). The topology's reflector
  /// boxes become TRRs (TBRR) and/or the first ARR nodes (ABRR); extra
  /// pure control-plane ARR nodes are created when the partition needs
  /// more, attached to random PoPs (ABRR placement freedom, §2.3.3).
  Testbed(topo::Topology topology, const TestbedConfig& config,
          std::span<const Ipv4Prefix> prefixes);

  /// Frees the route-set store wholesale before its holders go.
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  net::Network& network() { return network_; }
  /// The observability bundle (registry always live; tracer/sampler only
  /// when TestbedConfig::obs.enabled).
  obs::Obs& obs() { return *obs_; }
  const obs::Obs& obs() const { return *obs_; }
  obs::MetricsRegistry& metrics() { return obs_->metrics(); }
  const obs::MetricsRegistry& metrics() const { return obs_->metrics(); }
  /// nullptr when observability is disabled.
  obs::Tracer* tracer() { return obs_->tracer(); }
  obs::Sampler* sampler() { return obs_->sampler(); }
  igp::SpfCache& spf() { return *spf_; }
  const topo::Topology& topology() const { return topology_; }
  const TestbedConfig& config() const { return config_; }
  const core::PartitionScheme* partition() const {
    return partition_ ? &*partition_ : nullptr;
  }

  /// Throws std::out_of_range naming the unknown id and the number of
  /// known speakers (not .at()'s bare "map::at" message).
  ibgp::Speaker& speaker(RouterId id);
  const ibgp::Speaker& speaker(RouterId id) const;
  bool has_speaker(RouterId id) const { return speakers_.count(id) != 0; }

  /// Every speaker with an RR role (TRRs or ARRs).
  const std::vector<RouterId>& rr_ids() const { return rr_ids_; }
  /// Every data-plane client.
  const std::vector<RouterId>& client_ids() const { return client_ids_; }
  /// All speakers.
  const std::vector<RouterId>& all_ids() const { return all_ids_; }

  /// Injection hook for the route regenerator.
  trace::InjectFn inject_fn();

  /// Runs until the event queue drains; returns false if max_events was
  /// hit first (non-convergence).
  bool run_to_quiescence(std::size_t max_events = 100'000'000);
  void run_until(sim::Time deadline) { scheduler_.run_until(deadline); }

  /// Zeroes every speaker's counters (e.g. after the initial table load,
  /// so Figure 7 counts only the update phase).
  void reset_counters();

  /// Sum of the registry counter `name` over the cells whose labels
  /// contain `filter`, minus the last reset_counters() snapshot. Speaker
  /// counters are `speaker.<SpeakerCounters field>`, labelled
  /// {speaker=<id>, role=rr|client}; an empty filter sums every speaker.
  std::uint64_t counter_delta(std::string_view name,
                              const obs::Labels& filter = {}) const;

  /// Applies an IGP change (link failure, metric change) through
  /// `mutate`, then recomputes SPF and re-runs every speaker's decision
  /// process — the control-plane reaction to an IGP event.
  void igp_event(const std::function<void(igp::Graph&)>& mutate);

  Aggregate rr_rib_in() const;
  Aggregate rr_rib_out() const;
  RoleTotals rr_counters() const;
  RoleTotals client_counters() const;

  std::size_t session_count() const { return network_.session_count(); }

  /// Heap bytes by structure, at this moment.
  MemoryBreakdown memory() const;

  /// Liveness/primary directory of the redundant ARRs per AP (empty for
  /// non-ABRR modes). The fault injector keeps it in sync with crashes.
  core::ArrDirectory& arr_directory() { return arr_directory_; }
  const core::ArrDirectory& arr_directory() const { return arr_directory_; }

  /// Records a router death/revival in the ARR directory (no-op for
  /// routers that are not ARRs — the directory ignores unknown ids).
  void mark_router_alive(RouterId id, bool alive) {
    arr_directory_.set_alive(id, alive);
  }

  /// The dense prefix numbering every speaker of the bed shares. Ids
  /// 0 .. n-1 are the prefix universe the bed was built over, in order
  /// (slot i == PrefixId i == the serving mode's LPM slot i); prefixes
  /// first seen later get the following ids.
  const bgp::PrefixIndex& prefix_index() const {
    return *network_.prefix_index();
  }

  /// The route-set store every speaker of the bed and every message in
  /// flight shares (the network's).
  const bgp::RouteSetStore& route_sets() const {
    return *network_.route_sets();
  }

  /// Resident-testbed hook: mirrors every Loc-RIB change into
  /// `on_change` (speaker id + best-change arguments; nullptr route =
  /// withdrawn) and every crash-wipe into `on_cleared`. Replaces any
  /// hooks previously set on the speakers — the serving mode owns them
  /// for the bed's remaining lifetime.
  void attach_rib_listener(
      std::function<void(RouterId, const Ipv4Prefix&, const bgp::Route*)>
          on_change,
      std::function<void(RouterId)> on_cleared);

 private:
  void wire_full_mesh();
  void wire_tbrr(bool dual);
  void wire_abrr(bool dual, std::span<const Ipv4Prefix> prefixes);
  void connect(RouterId a, RouterId b);
  ibgp::Speaker& make_speaker(ibgp::SpeakerConfig cfg);
  /// Registers the sampler's gauges and its refresh callback, then takes
  /// the first sample (obs-enabled testbeds only).
  void start_sampler();
  RoleTotals role_totals(const obs::Labels& filter,
                         std::size_t speakers) const;

  topo::Topology topology_;
  TestbedConfig config_;
  sim::Scheduler scheduler_;
  sim::Rng rng_;
  net::Network network_;
  std::unique_ptr<obs::Obs> obs_;
  std::unique_ptr<igp::SpfCache> spf_;
  std::optional<core::PartitionScheme> partition_;
  ibgp::ApOfFn ap_of_;
  /// ap_of_ over prefix_index(), shared by the ABRR speakers.
  std::shared_ptr<const ibgp::PrefixApTable> prefix_aps_;

  std::unordered_map<RouterId, std::unique_ptr<ibgp::Speaker>> speakers_;
  std::vector<RouterId> rr_ids_;
  std::vector<RouterId> client_ids_;
  std::vector<RouterId> all_ids_;
  /// ARR id -> managed AP (ABRR).
  std::unordered_map<RouterId, ibgp::ApId> arr_ap_;
  core::ArrDirectory arr_directory_;

  /// The registry's counters at the last reset_counters().
  obs::CounterSnapshot counter_baseline_;

 public:
  /// ARR's managed AP, or -1.
  ibgp::ApId arr_ap(RouterId id) const;
};

}  // namespace abrr::harness
