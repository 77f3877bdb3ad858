// serve_churn: reads beside writes in one process.
//
// A RouteService (ABRR) replays a fixed churn horizon (update trace plus
// session/delay/loss chaos) and publishes COW snapshots, while 2
// closed-loop reader threads call Reader::lookup_batch with 64-lookup
// batches. Probes are uniform over routers x prefixes; that working set
// (routers x prefixes x 24-byte entries) is larger than one core's L2.
// No socket code runs. Busy threads: the writer and 2 readers.
//
// One repetition = start() (set-up), then the replay window from start()
// returning to horizon_published(), with the readers running throughout.
// Repetitions run for --seconds; set-up is their median, the rest a
// mean over them (a median would jump between the host's slow and fast
// stretches, see window_quantiles()):
//   setup_s    RouteService::start() (median)
//   work_s     replay_s: start() returning -> horizon_published() (mean)
//   ops_per_s  lookups answered per wall second of the window, both
//              readers together (mean)
//   op_p50_us  caller-side latency of one lookup_batch call: the mean,
//              over windows of kWindow consecutive samples of one
//              reader, of the window's median (window_quantiles())
//   op_p99_us  the same with each window's p99
// The check: every repetition's horizon fingerprint equals
// serve::batch_fingerprint_at(spec, seed, horizon), computed after the
// timed repetitions.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "serve/service.h"
#include "sim/random.h"
#include "spans.h"

namespace perfbench {
using namespace abrr;
namespace {

constexpr std::uint64_t kWorldSeed = 42;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPlanSize = 1u << 17;  // probes per reader
// Every kSampleEvery-th batch is timed and kept as a raw sample (at
// most kSampleCap per reader and repetition), which bounds the
// benchmark's own memory inside the measured process.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kSampleCap = 1u << 16;
constexpr int kMinReps = 3;
// Samples per latency window: about 0.1 s of one reader's batches.
constexpr std::size_t kWindow = 2048;
// Traced decomposition: every kDecompEvery-th batch also times the
// read path's public pieces in blocks (block time / calls).
constexpr std::uint64_t kDecompEvery = 16;
constexpr std::size_t kPinBlock = 64;
constexpr std::size_t kSpanCap = 1u << 16;

runner::ScenarioSpec serve_spec() {
  runner::ScenarioSpec spec;
  spec.name = "serve_churn/abrr";
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.topology.pops = 8;
  spec.topology.clients_per_pop = 6;
  spec.topology.peer_ases = 10;
  spec.topology.points_per_as = 4;
  spec.workload.prefixes = 2000;
  spec.abrr.num_aps = 2;
  spec.serve.enabled = true;
  spec.serve.churn_seconds = 150;
  spec.serve.churn_events_per_second = 100;
  spec.serve.chaos_events = 24;
  spec.serve.publish_period_seconds = 0.25;
  return spec;
}

/// Seeded probe picks, drawn before the world exists; map() turns them
/// into requests once the service's router list and LPM universe are
/// known (they are fixed for the life of a service).
struct ProbePlan {
  std::vector<std::uint32_t> router_pick, slot_pick, host_bits;

  ProbePlan(std::uint64_t seed, std::size_t n) {
    sim::Rng rng{seed};
    for (std::size_t i = 0; i < n; ++i) {
      router_pick.push_back(static_cast<std::uint32_t>(rng()));
      slot_pick.push_back(static_cast<std::uint32_t>(rng()));
      host_bits.push_back(static_cast<std::uint32_t>(rng()));
    }
  }

  std::vector<serve::LookupRequest> map(
      const std::vector<bgp::RouterId>& routers,
      const bgp::LpmIndex& index) const {
    std::vector<serve::LookupRequest> reqs(router_pick.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const bgp::Ipv4Prefix& p = index.prefix_at(slot_pick[i] % index.size());
      reqs[i].router = routers[router_pick[i] % routers.size()];
      reqs[i].addr = p.first() | (host_bits[i] & (p.last() - p.first()));
    }
    return reqs;
  }
};

/// Traced-only block timings of the read path's pieces (ns per call).
struct Decomp {
  std::vector<double> pin_ns, snapshot_lookup_ns, leaf_ns;
};

struct ReaderOut {
  std::vector<float> batch_ns;  // raw per-batch latency samples
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t version0 = 0;  // lookups answered at version 0
  std::int64_t done_ns = 0;    // first saw horizon_published()
  Decomp decomp;
};

void time_pieces(serve::RouteService::Reader& reader,
                 std::span<const serve::LookupRequest> reqs, Decomp& d,
                 SpanLog& log, std::uint64_t request) {
  {
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan s{log, "serve.pin_block", request};
      for (std::size_t i = 0; i < kPinBlock; ++i) {
        const serve::RouteService::Reader::PinGuard pin{reader};
        if (!pin) break;
      }
    }
    d.pin_ns.push_back(static_cast<double>(wall_ns() - t0) / kPinBlock);
  }
  const serve::RouteService::Reader::PinGuard pin{reader};
  std::uint64_t sink = 0;
  {
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan s{log, "serve.snapshot_lookup_block", request};
      for (const serve::LookupRequest& r : reqs) {
        if (const auto hit = pin->lookup(r.router, r.addr)) {
          sink += hit->entry->attrs_hash;
        }
      }
    }
    d.snapshot_lookup_ns.push_back(static_cast<double>(wall_ns() - t0) /
                                   static_cast<double>(reqs.size()));
  }
  {
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan s{log, "bgp.leaf_block", request};
      for (const serve::LookupRequest& r : reqs) {
        sink += pin->index->leaf_of(r.addr);
      }
    }
    d.leaf_ns.push_back(static_cast<double>(wall_ns() - t0) /
                        static_cast<double>(reqs.size()));
  }
  asm volatile("" : : "r"(sink));
}

void reader_main(serve::RouteService& service,
                 const std::vector<serve::LookupRequest>& plan,
                 ReaderOut& out, SpanLog* log) {
  serve::RouteService::Reader reader{service};
  std::vector<serve::LookupResponse> resps(kBatch);
  out.batch_ns.reserve(kSampleCap);
  std::size_t off = 0;
  for (std::uint64_t batch = 0;; ++batch) {
    const std::span<const serve::LookupRequest> reqs{plan.data() + off,
                                                     kBatch};
    serve::BatchResult br;
    const bool sampled =
        batch % kSampleEvery == 0 && out.batch_ns.size() < kSampleCap;
    const std::int64_t t0 = sampled ? wall_ns() : 0;
    if (log != nullptr) {
      ScopedSpan s{*log, "serve.lookup_batch", batch};
      br = reader.lookup_batch(reqs, resps);
    } else {
      br = reader.lookup_batch(reqs, resps);
    }
    if (sampled) out.batch_ns.push_back(static_cast<float>(wall_ns() - t0));
    out.lookups += kBatch;
    out.hits += br.hits;
    if (br.snapshot_version == 0) out.version0 += kBatch;
    if (log != nullptr && batch % kDecompEvery == 0) {
      // Half a plan ahead: probes this reader has not just warmed.
      const std::size_t ahead = (off + plan.size() / 2) % plan.size();
      time_pieces(reader, {plan.data() + ahead, kBatch}, out.decomp, *log,
                  batch);
    }
    off = (off + kBatch) % plan.size();
    if (service.horizon_published()) {
      out.done_ns = wall_ns();
      return;
    }
  }
}

struct Rep {
  double setup_s = 0;
  double replay_s = 0;
  double lookups_per_s = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t version0 = 0;
  serve::ServiceStats stats;  // at the horizon
  double publish_p50_ms = 0;
  double snapshot_mb = 0;
  std::vector<float> batch_ns;
  std::vector<double> win_p50_us, win_p99_us;  // per reader window
  Decomp decomp;
};

/// One repetition. The writer runs on CPU `cpu` (it inherits this
/// thread's CPU set) and reader i on CPU cpu + 1 + i, so no two busy
/// threads share a CPU; see pin_to_cpu(). With `logs`, reader i records
/// spans into logs[i] and times the read path's pieces.
Rep run_rep(const runner::ScenarioSpec& spec, std::uint64_t world_seed,
            const std::vector<ProbePlan>& plans, std::size_t cpu,
            SpanLog* main_log, std::vector<SpanLog>* logs) {
  Rep rep;
  pin_to_cpu(cpu);
  serve::RouteService service{spec, world_seed, kReaders + 2};
  const std::int64_t t0 = wall_ns();
  if (main_log != nullptr) {
    ScopedSpan s{*main_log, "serve.start", 0};
    service.start();
  } else {
    service.start();
  }
  const std::int64_t t_started = wall_ns();
  rep.setup_s = seconds_between(t0, t_started);

  std::vector<std::vector<serve::LookupRequest>> reqs;
  {
    serve::RouteService::Reader probe{service};
    const serve::RouteService::Reader::PinGuard pin{probe};
    for (const ProbePlan& plan : plans) {
      reqs.push_back(plan.map(pin->router_ids, *pin->index));
    }
  }
  std::vector<ReaderOut> outs(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    SpanLog* log = logs != nullptr ? &(*logs)[r] : nullptr;
    threads.emplace_back([&service, &reqs, &outs, cpu, r, log] {
      pin_to_cpu(cpu + 1 + r);
      reader_main(service, reqs[r], outs[r], log);
    });
  }
  for (std::thread& t : threads) t.join();

  std::int64_t done = outs[0].done_ns;
  for (const ReaderOut& o : outs) {
    done = std::min(done, o.done_ns);
    rep.lookups += o.lookups;
    rep.hits += o.hits;
    rep.version0 += o.version0;
    rep.batch_ns.insert(rep.batch_ns.end(), o.batch_ns.begin(),
                        o.batch_ns.end());
    std::vector<double> us;
    for (const float ns : o.batch_ns) us.push_back(ns / 1e3);
    window_quantiles(us, kWindow, 0.5, rep.win_p50_us);
    window_quantiles(us, kWindow, 0.99, rep.win_p99_us);
    for (const auto& [to, from] :
         {std::pair{&rep.decomp.pin_ns, &o.decomp.pin_ns},
          std::pair{&rep.decomp.snapshot_lookup_ns,
                    &o.decomp.snapshot_lookup_ns},
          std::pair{&rep.decomp.leaf_ns, &o.decomp.leaf_ns}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  rep.replay_s = seconds_between(t_started, done);
  rep.lookups_per_s = static_cast<double>(rep.lookups) / rep.replay_s;
  rep.stats = service.stats();
  rep.publish_p50_ms = service.publish_latency().quantile(0.5) / 1e6;
  {
    serve::RouteService::Reader probe{service};
    const serve::RouteService::Reader::PinGuard pin{probe};
    rep.snapshot_mb = static_cast<double>(pin->bytes()) / 1e6;
  }
  service.stop();
  return rep;
}

double ns_median(std::vector<float>& samples) {
  std::vector<double> v(samples.begin(), samples.end());
  return quantile(v, 0.5);
}

}  // namespace

void run_serve_churn(const Options& opt, Report& report) {
  const runner::ScenarioSpec spec = serve_spec();
  // The served world (topology, prefixes, churn plan) is a benchmark
  // constant and the workload seed draws the probe plans: the writer's
  // replay cost depends on which sessions the chaos plan resets, so a
  // seed-drawn world would move work_s by seed more than by code.
  const std::uint64_t world_seed = kWorldSeed;
  std::vector<ProbePlan> plans;
  for (std::size_t r = 0; r < kReaders; ++r) {
    plans.emplace_back(derive_seed(opt.seed, 200 + r), kPlanSize);
  }

  std::vector<Rep> reps;
  SpanLog main_log{0, /*record_cpu=*/true};
  std::vector<SpanLog> reader_logs;
  for (std::size_t r = 0; r < kReaders; ++r) {
    reader_logs.emplace_back(static_cast<std::uint32_t>(r + 1),
                             /*record_cpu=*/false, kSpanCap);
  }
  if (opt.trace) {
    // Untraced, then traced: the difference is the tracing overhead.
    reps.push_back(run_rep(spec, world_seed, plans, 0, nullptr, nullptr));
    reps.push_back(
        run_rep(spec, world_seed, plans, 1, &main_log, &reader_logs));
  } else {
    const std::int64_t t_begin = wall_ns();
    while (static_cast<int>(reps.size()) < kMinReps ||
           seconds_between(t_begin, wall_ns()) < opt.seconds) {
      reps.push_back(
          run_rep(spec, world_seed, plans, reps.size(), nullptr, nullptr));
    }
  }

  // Checks, outside the timed window.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool same_horizon = true;
  for (const Rep& r : reps) {
    attempted += r.lookups;
    failed += r.version0;
    same_horizon = same_horizon &&
                   r.stats.fingerprint == reps[0].stats.fingerprint &&
                   r.stats.virtual_time == reps[0].stats.virtual_time;
  }
  report.count(attempted, failed);
  report.check(same_horizon,
               "every repetition reached the same horizon snapshot");
  const std::uint64_t batch_fp =
      serve::batch_fingerprint_at(spec, world_seed,
                                  reps[0].stats.virtual_time);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "horizon fingerprint %016" PRIx64
                " equals batch_fingerprint_at %016" PRIx64,
                reps[0].stats.fingerprint, batch_fp);
  report.check(reps[0].stats.fingerprint == batch_fp, buf);
  report.check(failed == 0, "no lookup answered at version 0 after start()");

  if (opt.trace) {
    Rep& plain = reps[0];
    Rep& traced = reps[1];
    const auto layers = self_times({&reader_logs[0], &reader_logs[1]});
    std::vector<double> lookup_ns;
    if (const auto it = layers.find("serve.lookup_batch"); it != layers.end()) {
      lookup_ns = it->second.self_ns;
    }
    const double plain_p50 = ns_median(plain.batch_ns);
    const double traced_p50 = ns_median(traced.batch_ns);
    const double start_ms =
        self_times({&main_log}).at("serve.start").self_ns.at(0) / 1e6;
    report.metric("serve.start_ms", start_ms);
    report.metric("serve.lookup_batch_ns", median(lookup_ns));
    report.metric("serve.pin_ns", median(traced.decomp.pin_ns));
    report.metric("serve.snapshot_lookup_ns",
                  median(traced.decomp.snapshot_lookup_ns));
    report.metric("bgp.leaf_ns", median(traced.decomp.leaf_ns));
    report.metric("serve.hit_ratio",
                  static_cast<double>(traced.hits) /
                      static_cast<double>(traced.lookups));
    report.metric("serve.publishes",
                  static_cast<double>(traced.stats.publishes));
    report.metric("serve.publishes_deferred",
                  static_cast<double>(traced.stats.publishes_deferred));
    report.metric("serve.reclaimed",
                  static_cast<double>(traced.stats.reclaimed));
    report.metric("serve.retired_peak",
                  static_cast<double>(traced.stats.retired_peak));
    report.metric("serve.publish_p50_ms", traced.publish_p50_ms);
    report.metric("serve.snapshot_mb", traced.snapshot_mb);
    report.metric("trace.overhead_pct",
                  (traced_p50 - plain_p50) / plain_p50 * 100);
    report.say("layer serve.start %.3f ms; lookup_batch %.1f ns/call (n=%zu "
               "spans); pin %.1f ns, snapshot lookup %.1f ns, leaf_of %.1f "
               "ns per call (n=%zu blocks); hit ratio %.4f",
               start_ms, median(lookup_ns), lookup_ns.size(),
               median(traced.decomp.pin_ns),
               median(traced.decomp.snapshot_lookup_ns),
               median(traced.decomp.leaf_ns), traced.decomp.pin_ns.size(),
               static_cast<double>(traced.hits) /
                   static_cast<double>(traced.lookups));
    report.say("layer writer: %" PRIu64 " publishes, %" PRIu64
               " deferred, %" PRIu64 " reclaimed, retired peak %" PRIu64
               "; publish p50 %.3f ms (coarse: service histogram bucket "
               "edge); snapshot %.3f MB",
               traced.stats.publishes, traced.stats.publishes_deferred,
               traced.stats.reclaimed, traced.stats.retired_peak,
               traced.publish_p50_ms, traced.snapshot_mb);
    report.say("tracing overhead: batch p50 %.1f ns traced vs %.1f ns "
               "untraced",
               traced_p50, plain_p50);
    if (!opt.trace_out.empty()) {
      report.check(write_spans(opt.trace_out,
                               {&main_log, &reader_logs[0], &reader_logs[1]}),
                   "spans written to " + opt.trace_out);
    }
    return;
  }

  std::vector<double> setups;
  std::vector<double> replays;
  std::vector<double> rates;
  std::vector<double> batch_us;
  std::vector<double> win_p50s;
  std::vector<double> win_p99s;
  for (const Rep& r : reps) {
    std::vector<double> rep_us(r.batch_ns.begin(), r.batch_ns.end());
    report.say("rep: start %.4f s, replay %.4f s, %.4g lookups/s, batch p50 "
               "%.3f us, p99 %.3f us",
               r.setup_s, r.replay_s, r.lookups_per_s,
               quantile(rep_us, 0.5) / 1e3, quantile(rep_us, 0.99) / 1e3);
    setups.push_back(r.setup_s);
    replays.push_back(r.replay_s);
    rates.push_back(r.lookups_per_s);
    for (const float ns : r.batch_ns) batch_us.push_back(ns / 1e3);
    win_p50s.insert(win_p50s.end(), r.win_p50_us.begin(), r.win_p50_us.end());
    win_p99s.insert(win_p99s.end(), r.win_p99_us.begin(), r.win_p99_us.end());
  }
  const std::size_t samples = batch_us.size();
  const double setup_s = median(setups);
  const double replay_s = mean(replays);
  const double rate = mean(rates);
  const double p50 = mean(win_p50s);
  const double p99 = mean(win_p99s);
  const double pooled_p50 = quantile(batch_us, 0.5);
  const double pooled_p99 = quantile(batch_us, 0.99);
  const double rss = peak_rss_mb();
  report.say("metric setup_s        %12.6f s   (median of %zu starts)",
             setup_s, reps.size());
  report.say("metric replay_s       %12.6f s   (mean of %zu replays)",
             replay_s, reps.size());
  report.say("metric lookups_per_s  %12.1f 1/s (mean of %zu windows, "
             "%zu readers)",
             rate, reps.size(), kReaders);
  report.say("metric lookup_p50_us  %12.4f us  (mean of %zu window medians; "
             "n=%zu batches of %zu, pooled %.4f us)",
             p50, win_p50s.size(), samples, kBatch, pooled_p50);
  report.say("metric lookup_p99_us  %12.4f us  (mean of %zu window p99s; "
             "n=%zu batches of %zu, pooled %.4f us)",
             p99, win_p99s.size(), samples, kBatch, pooled_p99);
  report.say("metric peak_rss_mb    %12.3f MB", rss);
  report.say("metric fail_frac      %12.6f     (%" PRIu64 " of %" PRIu64
             " lookups)",
             static_cast<double>(failed) / static_cast<double>(attempted),
             failed, attempted);
  report.metric("setup_s", setup_s);
  report.metric("peak_rss_mb", rss);
  report.metric("work_s", replay_s);
  report.metric("ops_per_s", rate);
  report.metric("op_p50_us", p50);
  report.metric("op_p99_us", p99);
}

}  // namespace perfbench
