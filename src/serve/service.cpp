#include "serve/service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bgp/attrs_intern.h"
#include "bgp/prefix_index.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "harness/testbed.h"
#include "runner/trial.h"
#include "trace/update_trace.h"

namespace abrr::serve {
namespace {

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Converges a world runner::build_world just built (serving beds arm
/// no hold timers, so this drains the queue) and returns its virtual
/// clock: the converged time, where the churn plan starts.
sim::Time converge_world(const runner::ScenarioSpec& spec,
                         runner::World& w, const char* who) {
  if (!runner::converge(*w.bed,
                        sim::sec_f(spec.workload.snapshot_seconds))) {
    throw std::runtime_error{std::string{who} + ": no quiescence"};
  }
  return w.bed->scheduler().now();
}

/// Arms the churn plan from `t0`: the update-trace replay plus
/// (optionally) a fault-chaos schedule restricted to
/// session-reset/delay/loss — crash and link faults are weighted off
/// because hold_time stays 0 in serving beds (explicit session events
/// need no hold timers; a crash would go undetected forever). Returns
/// the chaos injector (nullptr without chaos); it must not outlive `w`.
std::unique_ptr<fault::FaultInjector> arm_churn(
    const runner::ScenarioSpec& spec, std::uint64_t seed, runner::World& w,
    sim::Time t0) {
  const runner::ServeOptions& so = spec.serve;
  if (so.churn_events_per_second > 0) {
    trace::TraceParams tp;
    tp.duration = sim::sec_f(so.churn_seconds);
    tp.events_per_second = so.churn_events_per_second;
    sim::Rng trace_rng{seed + 2};
    const trace::UpdateTrace trace =
        trace::UpdateTrace::generate(tp, w.workload(), trace_rng);
    w.regen->play(trace, t0);
  }
  if (so.chaos_events == 0) return nullptr;
  fault::ChaosParams cp;
  cp.events = so.chaos_events;
  cp.start = t0 + std::min<sim::Time>(sim::sec(1),
                                      sim::sec_f(so.churn_seconds * 0.25));
  cp.horizon = t0 + sim::sec_f(so.churn_seconds);
  cp.crash_weight = 0;
  cp.link_weight = 0;
  sim::Rng chaos_rng{seed + 3};
  fault::FaultSchedule schedule = fault::FaultSchedule::chaos(
      cp, w.bed->all_ids(), w.bed->network().sessions(), chaos_rng);
  auto injector =
      std::make_unique<fault::FaultInjector>(*w.bed, std::move(schedule));
  injector->set_resync(fault::make_workload_resync(*w.bed, *w.regen));
  injector->arm();
  return injector;
}

}  // namespace

void RibMirror::init(const harness::Testbed& bed) {
  prefixes = &bed.prefix_index();
  index = std::make_shared<const bgp::LpmIndex>(prefixes->prefixes());
  ids = bed.all_ids();
  std::sort(ids.begin(), ids.end());
  bgp::RouterId max_id = 0;
  for (const bgp::RouterId id : ids) max_id = std::max(max_id, id);
  pos.assign(static_cast<std::size_t>(max_id) + 1, 0);
  routers.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pos[ids[i]] = static_cast<std::uint32_t>(i) + 1;
    routers[i].entries.assign(prefixes->size(), RouteEntry{});
  }
}

void RibMirror::on_change(bgp::RouterId id, const bgp::Ipv4Prefix& prefix,
                          const bgp::Route* best) {
  Router& m = routers[pos[id] - 1];
  // Ids past the mirror were first seen after init: they have no LPM
  // slot and are not served.
  const std::optional<std::uint32_t> slot = prefixes->id_of(prefix);
  if (!slot || *slot >= m.entries.size()) return;
  RouteEntry& e = m.entries[*slot];
  if (e.present) {
    m.sum -= fault::fp_route_term(prefix.address(), prefix.length(),
                                  e.next_hop, e.attrs_hash);
  }
  if (best != nullptr) {
    e.attrs_hash = best->attrs->content_hash;
    e.next_hop = best->attrs->next_hop;
    e.learned_from = best->learned_from;
    e.path_id = best->path_id;
    e.present = 1;
    m.sum += fault::fp_route_term(prefix.address(), prefix.length(),
                                  e.next_hop, e.attrs_hash);
  } else {
    e = RouteEntry{};
  }
  m.dirty = true;
  any_dirty = true;
}

void RibMirror::on_cleared(bgp::RouterId id) {
  Router& m = routers[pos[id] - 1];
  std::fill(m.entries.begin(), m.entries.end(), RouteEntry{});
  m.sum = 0;
  m.dirty = true;
  any_dirty = true;
}

std::uint64_t RibMirror::fingerprint() const {
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    fp = fault::fp_chain(fp, ids[i], routers[i].sum);
  }
  return fp;
}

/// Everything thread-confined to the writer: the RIB mirror and the
/// registry handles of the bed it mirrors.
struct RouteService::WriterState {
  RibMirror rib;
  std::uint64_t next_version = 0;

  // Registry handles (the bed's writer-confined MetricsRegistry).
  obs::Gauge* g_version = nullptr;
  obs::Gauge* g_epoch = nullptr;
  obs::Gauge* g_pending = nullptr;
  obs::Counter* c_publishes = nullptr;
  obs::Counter* c_deferred = nullptr;
  obs::Counter* c_reclaimed = nullptr;
};

RouteService::RouteService(runner::ScenarioSpec spec, std::uint64_t seed,
                           std::size_t max_readers)
    : spec_(std::move(spec)),
      seed_(seed),
      epochs_(max_readers),
      publish_hist_(obs::latency_buckets_ns()) {
  spec_.serve.enabled = true;
  const std::vector<runner::ValidationError> errors = spec_.validate();
  if (!errors.empty()) {
    throw std::invalid_argument{"RouteService: " +
                                runner::render_errors(errors)};
  }
}

RouteService::~RouteService() {
  stop();
  // Contract: all Readers are gone by now, so the live snapshot and the
  // retire backlog (bin_ members destruct below) can be freed outright.
  delete live_.exchange(nullptr, std::memory_order_acq_rel);
}

void RouteService::start() {
  if (started_.exchange(true)) {
    throw std::logic_error{"RouteService::start() called twice"};
  }
  writer_ = std::thread([this] { writer_main(); });
  std::unique_lock<std::mutex> lock{ready_mutex_};
  ready_cv_.wait(lock, [this] { return ready_; });
  if (!writer_error_.empty()) {
    const std::string error = writer_error_;
    lock.unlock();
    stop();
    throw std::runtime_error{"serve writer failed: " + error};
  }
}

void RouteService::stop() {
  stop_.store(true, std::memory_order_release);
  if (writer_.joinable()) writer_.join();
}

std::size_t RouteService::reclaim() {
  const std::size_t n = bin_.reclaim(epochs_.min_pinned());
  if (n > 0) reclaimed_.fetch_add(n, std::memory_order_relaxed);
  pending_.store(bin_.pending(), std::memory_order_relaxed);
  return n;
}

bool RouteService::try_publish(WriterState& ws, sim::Time now) {
  reclaim();
  // Resident = the live snapshot + the new one + the retire backlog; a
  // stuck reader makes the backlog unreclaimable, so defer instead of
  // growing past the cap.
  if (bin_.pending() + 2 > spec_.serve.max_resident_snapshots) {
    deferred_.fetch_add(1, std::memory_order_relaxed);
    if (ws.c_deferred != nullptr) ws.c_deferred->inc();
    return false;
  }

  const std::uint64_t t_begin = now_ns();
  auto snap = std::make_unique<RibSnapshot>();
  snap->index = ws.rib.index;
  snap->virtual_time = now;
  snap->version = ++ws.next_version;
  const std::uint64_t fp = ws.rib.fingerprint();
  snap->fingerprint = fp;
  snap->router_ids = ws.rib.ids;
  snap->router_pos = ws.rib.pos;
  snap->tables.reserve(ws.rib.routers.size());
  for (RibMirror::Router& m : ws.rib.routers) {
    if (m.dirty || m.published == nullptr) {
      // Delta rebuild: only routers dirtied since the last publish get
      // a fresh table; the rest share the previous snapshot's.
      m.published = std::make_shared<const RibSnapshot::Table>(m.entries);
      m.dirty = false;
    }
    snap->tables.push_back(m.published);
  }
  ws.rib.any_dirty = false;

  const std::uint64_t version = snap->version;
  const RibSnapshot* old =
      live_.exchange(snap.release(), std::memory_order_seq_cst);
  const std::uint64_t tag = epochs_.current();
  if (old != nullptr) {
    bin_.retire(tag, std::unique_ptr<const RibSnapshot>(old));
    std::uint64_t peak = retired_peak_.load(std::memory_order_relaxed);
    while (bin_.pending() > peak &&
           !retired_peak_.compare_exchange_weak(peak, bin_.pending(),
                                                std::memory_order_relaxed)) {
    }
  }
  epochs_.advance();
  reclaim();

  publishes_.fetch_add(1, std::memory_order_relaxed);
  version_.store(version, std::memory_order_relaxed);
  fingerprint_.store(fp, std::memory_order_relaxed);
  virtual_time_.store(now, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock{hist_mutex_};
    publish_hist_.record(static_cast<double>(now_ns() - t_begin));
  }
  if (ws.c_publishes != nullptr) ws.c_publishes->inc();
  if (ws.c_reclaimed != nullptr) {
    const std::uint64_t total = reclaimed_.load(std::memory_order_relaxed);
    if (total > ws.c_reclaimed->value()) {
      ws.c_reclaimed->inc(total - ws.c_reclaimed->value());
    }
  }
  if (ws.g_version != nullptr) {
    ws.g_version->set(static_cast<double>(version));
    ws.g_epoch->set(static_cast<double>(epochs_.current()));
    ws.g_pending->set(static_cast<double>(bin_.pending()));
  }
  return true;
}

void RouteService::writer_main() {
  try {
    bgp::AttrsInterner::TrialScope attrs_scope{spec_.expected_attr_blocks()};
    WriterState ws;  // declared before the world: speaker hooks point into it
    runner::World w = runner::build_world(spec_, seed_);
    // build_world ran no event yet, so the mirror sees every best-change
    // from the start (no post-hoc RIB scan).
    ws.rib.init(*w.bed);
    w.bed->attach_rib_listener(
        [&ws](bgp::RouterId id, const bgp::Ipv4Prefix& prefix,
              const bgp::Route* best) { ws.rib.on_change(id, prefix, best); },
        [&ws](bgp::RouterId id) { ws.rib.on_cleared(id); });
    const sim::Time t0 = converge_world(spec_, w, "serve");
    const sim::Time t_end = t0 + sim::sec_f(spec_.serve.churn_seconds);
    obs::MetricsRegistry& reg = w.bed->metrics();
    ws.g_version = reg.gauge("serve.version");
    ws.g_epoch = reg.gauge("serve.published_epoch");
    ws.g_pending = reg.gauge("serve.retired_snapshots");
    ws.c_publishes = reg.counter("serve.publishes");
    ws.c_deferred = reg.counter("serve.publishes_deferred");
    ws.c_reclaimed = reg.counter("serve.reclaimed");

    try_publish(ws, t0);  // bin is empty: cannot defer
    t0_virtual_.store(t0, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock{ready_mutex_};
      ready_ = true;
    }
    ready_cv_.notify_all();

    const auto injector = arm_churn(spec_, seed_, w, t0);
    const sim::Time step =
        std::max<sim::Time>(1, sim::sec_f(spec_.serve.publish_period_seconds));
    sim::Time now = t0;
    while (!stop_.load(std::memory_order_acquire) && now < t_end) {
      now = std::min<sim::Time>(now + step, t_end);
      w.bed->run_until(now);
      if (ws.rib.any_dirty) try_publish(ws, now);
    }
    // Stamp the horizon state unconditionally (a clean republish is
    // cheap COW sharing): consumers see virtual_time reach the end of
    // the churn plan. Bounded retries before announcing done() so a
    // reader pinned across the horizon (descheduled mid-batch on a
    // loaded host) can't hold up completion indefinitely.
    for (int attempt = 0; attempt < 500; ++attempt) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (try_publish(ws, now)) {
        horizon_published_.store(true, std::memory_order_release);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done_.store(true, std::memory_order_release);
    // Park until stop(): keep reclaiming so a reader draining late
    // still lets retired snapshots go before destruction, and keep
    // retrying the horizon publish until the blocking pin clears
    // (deferral counters record every failed attempt).
    while (!stop_.load(std::memory_order_acquire)) {
      reclaim();
      if (!horizon_published_.load(std::memory_order_relaxed) &&
          try_publish(ws, now)) {
        horizon_published_.store(true, std::memory_order_release);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    reclaim();
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock{ready_mutex_};
      writer_error_ = e.what();
      ready_ = true;
    }
    ready_cv_.notify_all();
    done_.store(true, std::memory_order_release);
  }
}

ServiceStats RouteService::stats() const {
  ServiceStats s;
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.publishes_deferred = deferred_.load(std::memory_order_relaxed);
  s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  s.retired_pending = pending_.load(std::memory_order_relaxed);
  s.retired_peak = retired_peak_.load(std::memory_order_relaxed);
  s.version = version_.load(std::memory_order_relaxed);
  s.fingerprint = fingerprint_.load(std::memory_order_relaxed);
  s.virtual_time = virtual_time_.load(std::memory_order_relaxed);
  s.done = done_.load(std::memory_order_acquire);
  return s;
}

obs::Histogram RouteService::publish_latency() const {
  std::lock_guard<std::mutex> lock{hist_mutex_};
  return publish_hist_;
}

RouteService::Reader::Reader(RouteService& service)
    : service_(&service), slot_(service.epochs_.register_reader()) {}

RouteService::Reader::~Reader() {
  service_->epochs_.unregister_reader(slot_);
}

BatchResult RouteService::Reader::lookup_batch(
    std::span<const LookupRequest> reqs, std::span<LookupResponse> resps) {
  assert(resps.size() >= reqs.size());
  BatchResult out;
  const PinGuard pin{*this};
  const RibSnapshot* snap = pin.get();
  if (snap == nullptr) {
    // Nothing published yet (a front-end client can query before the
    // writer's first publish): every request misses at version 0.
    for (std::size_t i = 0; i < reqs.size(); ++i) resps[i] = LookupResponse{};
    return out;
  }
  out.snapshot_version = snap->version;
  out.fingerprint = snap->fingerprint;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    LookupResponse& r = resps[i];
    r = LookupResponse{};
    r.snapshot_version = snap->version;
    r.fingerprint = snap->fingerprint;
    if (const auto hit = snap->lookup(reqs[i].router, reqs[i].addr)) {
      r.attrs_hash = hit->entry->attrs_hash;
      r.prefix = hit->prefix.address();
      r.prefix_len = hit->prefix.length();
      r.next_hop = hit->entry->next_hop;
      r.learned_from = hit->entry->learned_from;
      r.path_id = hit->entry->path_id;
      r.hit = 1;
      ++out.hits;
    }
  }
  return out;
}

std::uint64_t batch_fingerprint_at(const runner::ScenarioSpec& spec,
                                   std::uint64_t seed, sim::Time at) {
  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};
  runner::World w = runner::build_world(spec, seed);
  const sim::Time t0 = converge_world(spec, w, "batch_fingerprint_at");
  const auto injector = arm_churn(spec, seed, w, t0);
  if (at > t0) w.bed->run_until(at);
  return fault::rib_fingerprint(*w.bed);
}

sim::Time batch_converged_time(const runner::ScenarioSpec& spec,
                               std::uint64_t seed) {
  bgp::AttrsInterner::TrialScope attrs_scope{spec.expected_attr_blocks()};
  runner::World w = runner::build_world(spec, seed);
  return converge_world(spec, w, "batch_converged_time");
}

}  // namespace abrr::serve
