// tcp_query: the ABRR-Q front-end over loopback, per-frame cost first.
//
// A RouteService (ABRR, small world) replays its churn horizon with no
// readers; then a frontend::Server answers that stable horizon snapshot
// with no writer activity. Traffic crosses the host's loopback
// interface, not a real link. Two phases per repetition:
//  (a) open loop: one connection sends frames at kOpenRate frames/s, a
//      constant well under the front-end's capacity. Each frame is
//      timed from its send and from when it was due; the generator's
//      lateness is reported separately (frontend.gen_lag_us).
//  (b) closed loop: 2 connections, each keeping kPipeline frames in
//      flight, at saturation, one client thread each.
// Frames come from a seeded batch-size mix (mostly 1 lookup, some 32
// and 512); probes are Zipf-skewed over prefixes, uniform over routers.
// In the open phase the server loop and the client share one CPU,
// taking turns: a round trip never waits for another CPU to wake, which
// on a virtual machine is an exit to the hypervisor whose cost moves
// with the host's load. The closed phase runs its own server and 2
// client threads, none pinned, so its rate is not one CPU's.
//
//   setup_s    start() + horizon + server start + connects (median)
//   work_s     replay_s: start() returning -> horizon_published(),
//              no readers (mean)
//   ops_per_s  lookups answered per wall second, closed phase (mean)
//   op_p50_us  frame round trip from its send, open phase: the mean,
//              over windows of kOpenWindow consecutive frames, of the
//              window's median (window_quantiles()); the latency from
//              its due time is printed beside it
//   op_p99_us  the same with each window's p99
// The check: sampled socket replies equal in-process lookup_batch at the
// same snapshot version.
#include <algorithm>
#include <cinttypes>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frontend/client.h"
#include "frontend/proto.h"
#include "frontend/server.h"
#include "perfbench.h"
#include "serve/service.h"
#include "sim/random.h"
#include "spans.h"

namespace perfbench {
using namespace abrr;
namespace {

// Repetitions run for --seconds (at least kMinReps); each has an open
// and a closed phase of fixed length.
constexpr std::uint64_t kWorldSeed = 42;
constexpr std::size_t kMinReps = 4;
constexpr double kOpenSeconds = 3.0;
constexpr double kClosedSeconds = 1.5;
constexpr double kOpenRate = 4000;  // frames/s offered in the open phase
constexpr std::size_t kOpenWindow = 2000;  // frames per latency window
constexpr std::size_t kClosedConns = 2;
constexpr std::size_t kPipeline = 4;
constexpr std::size_t kFramesPerPlan = 4096;  // cycled
constexpr std::size_t kCheckEvery = 16;       // sampled equivalence
constexpr double kZipfExponent = 1.0;
constexpr int kClientTimeoutMs = 5000;

struct SizeShare {
  std::size_t lookups;
  double share;
};
constexpr SizeShare kMix[] = {{1, 0.85}, {32, 0.12}, {512, 0.03}};

runner::ScenarioSpec tcp_spec() {
  runner::ScenarioSpec spec;
  spec.name = "tcp_query/abrr";
  spec.mode = ibgp::IbgpMode::kAbrr;
  spec.topology.pops = 6;
  spec.topology.clients_per_pop = 4;
  spec.topology.peer_ases = 8;
  spec.topology.points_per_as = 3;
  spec.workload.prefixes = 2000;
  spec.abrr.num_aps = 2;
  spec.serve.enabled = true;
  spec.serve.churn_seconds = 60;
  spec.serve.churn_events_per_second = 100;
  spec.serve.chaos_events = 8;
  spec.serve.publish_period_seconds = 0.25;
  return spec;
}

/// Seeded frames, drawn before the world exists: per lookup a router
/// pick, a Zipf prefix rank and host bits. map() resolves them against
/// the served router list and LPM universe.
struct FramePlan {
  struct Pick {
    std::uint32_t router, rank, host;
  };
  std::vector<std::vector<Pick>> frames;

  FramePlan(std::uint64_t seed, std::size_t prefixes) {
    sim::Rng rng{seed};
    for (std::size_t f = 0; f < kFramesPerPlan; ++f) {
      double u = rng.uniform01();
      std::size_t lookups = kMix[0].lookups;
      for (const SizeShare& m : kMix) {
        lookups = m.lookups;
        if (u < m.share) break;
        u -= m.share;
      }
      std::vector<Pick> picks(lookups);
      for (Pick& p : picks) {
        p.router = static_cast<std::uint32_t>(rng());
        p.rank = static_cast<std::uint32_t>(rng.zipf(prefixes, kZipfExponent));
        p.host = static_cast<std::uint32_t>(rng());
      }
      frames.push_back(std::move(picks));
    }
  }

  std::vector<std::vector<serve::LookupRequest>> map(
      const std::vector<bgp::RouterId>& routers,
      const bgp::LpmIndex& index) const {
    std::vector<std::vector<serve::LookupRequest>> out;
    for (const std::vector<Pick>& picks : frames) {
      std::vector<serve::LookupRequest> reqs;
      for (const Pick& p : picks) {
        // Popularity rank -> slot through a fixed odd-multiplier scramble,
        // so the hot prefixes are spread over the universe.
        const std::size_t slot =
            (static_cast<std::uint64_t>(p.rank) * 2654435761u) % index.size();
        const bgp::Ipv4Prefix& prefix = index.prefix_at(
            static_cast<std::uint32_t>(slot));
        reqs.push_back({routers[p.router % routers.size()],
                        prefix.first() | (p.host & (prefix.last() -
                                                    prefix.first()))});
      }
      out.push_back(std::move(reqs));
    }
    return out;
  }
};

using Frames = std::vector<std::vector<serve::LookupRequest>>;

struct Sampled {
  std::size_t frame = 0;
  frontend::Client::Reply reply;
};

struct OpenOut {
  std::vector<double> latency_us;  // from due time, per frame
  std::vector<double> rtt_us;      // from the actual send, per frame
  std::vector<double> lag_us;      // send time - due time
  std::vector<Sampled> sampled;
  std::vector<std::size_t> sent_frames;  // frame index of every answer
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void spin_until(std::int64_t t) {
  while (wall_ns() < t) {
  }
}

OpenOut open_phase(std::uint16_t port, const Frames& frames,
                   double seconds, SpanLog* log) {
  OpenOut out;
  const auto count = static_cast<std::size_t>(seconds * kOpenRate);
  out.attempted = count;
  out.failed = count;
  frontend::Client client;
  try {
    client.connect(port, kClientTimeoutMs);
    client.hello();
  } catch (const std::exception&) {
    return out;
  }
  const auto period = static_cast<std::int64_t>(1e9 / kOpenRate);
  const std::int64_t t0 = wall_ns() + 1'000'000;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i) * period;
    spin_until(due);
    const std::size_t f = i % frames.size();
    const std::int64_t sent = wall_ns();
    out.lag_us.push_back(static_cast<double>(sent - due) / 1e3);
    try {
      frontend::Client::Reply reply;
      if (log != nullptr) {
        {
          ScopedSpan s{*log, "frontend.send", i};
          client.send_lookup(frames[f]);
        }
        ScopedSpan s{*log, "frontend.recv_wait", i};
        reply = client.recv_reply();
      } else {
        client.send_lookup(frames[f]);
        reply = client.recv_reply();
      }
      const std::int64_t done = wall_ns();
      if (reply.responses.size() != frames[f].size()) continue;
      out.latency_us.push_back(static_cast<double>(done - due) / 1e3);
      out.rtt_us.push_back(static_cast<double>(done - sent) / 1e3);
      out.sent_frames.push_back(f);
      if (i % kCheckEvery == 0) out.sampled.push_back({f, std::move(reply)});
    } catch (const std::exception&) {
      break;  // timeout, ERROR frame or dropped connection
    }
  }
  // A frame not answered in full, or never sent after a failure, missed.
  out.failed = count - out.latency_us.size();
  return out;
}

struct ClosedOut {
  std::uint64_t frames = 0;
  std::uint64_t lookups = 0;
  std::uint64_t failed = 0;
  std::vector<Sampled> sampled;
};

void closed_conn(std::uint16_t port, const Frames& frames, std::size_t salt,
                 std::int64_t deadline, ClosedOut& out) {
  try {
    frontend::Client client;
    client.connect(port, kClientTimeoutMs);
    client.hello();
    std::deque<std::size_t> in_flight;
    std::size_t next = salt * 997;
    while (true) {
      const bool open = wall_ns() < deadline;
      while (open && in_flight.size() < kPipeline) {
        const std::size_t f = next++ % frames.size();
        client.send_lookup(frames[f]);
        in_flight.push_back(f);
      }
      if (in_flight.empty()) break;
      frontend::Client::Reply reply = client.recv_reply();
      const std::size_t f = in_flight.front();
      in_flight.pop_front();
      if (reply.responses.size() != frames[f].size()) {
        ++out.failed;
        continue;
      }
      if (out.frames % (kCheckEvery * 64) == 0) {
        out.sampled.push_back({f, reply});
      }
      ++out.frames;
      out.lookups += reply.responses.size();
    }
  } catch (const std::exception&) {
    ++out.failed;
  }
}

struct Rep {
  double setup_s = 0;
  double replay_s = 0;
  double lookups_per_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t checked = 0;
  OpenOut open;
  frontend::ServerStats server;
  double handle_us = 0;
  std::uint64_t version = 0;
  // Traced only: the frames sent in the open phase, replayed in-process.
  std::vector<double> decode_ns, lookup_ns, encode_ns;
};

/// Replays captured request frames through the server's steps in
/// process: decode (frame + payload), lookup_batch, encode reply.
void replay_steps(serve::RouteService& service, const Frames& frames,
                  const std::vector<std::size_t>& sent, SpanLog& log,
                  Rep& rep) {
  serve::RouteService::Reader reader{service};
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> reply;
  std::vector<serve::LookupRequest> reqs;
  std::vector<serve::LookupResponse> resps(frontend::kMaxBatch);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    wire.clear();
    frontend::append_lookup_batch(wire, static_cast<std::uint16_t>(i),
                                  frames[sent[i]]);
    frontend::Frame frame;
    std::size_t consumed = 0;
    frontend::ProtoError err;
    std::int64_t t0 = wall_ns();
    {
      ScopedSpan s{log, "frontend.decode", i};
      if (frontend::decode_frame(wire, frame, consumed, err) !=
              frontend::DecodeStatus::kFrame ||
          frontend::decode_lookup_batch(frame.payload, reqs)) {
        ++rep.mismatched;
        continue;
      }
    }
    std::int64_t t1 = wall_ns();
    rep.decode_ns.push_back(static_cast<double>(t1 - t0));
    serve::BatchResult br;
    {
      ScopedSpan s{log, "serve.lookup_batch", i};
      br = reader.lookup_batch(reqs, resps);
    }
    t0 = wall_ns();
    rep.lookup_ns.push_back(static_cast<double>(t0 - t1));
    reply.clear();
    {
      ScopedSpan s{log, "frontend.encode", i};
      frontend::append_lookup_reply(
          reply, frame.header.seq, br.snapshot_version, br.fingerprint,
          std::span<const serve::LookupResponse>{resps.data(), reqs.size()});
    }
    rep.encode_ns.push_back(static_cast<double>(wall_ns() - t0));
  }
}

/// Adds the counters of one server's stats to `sum`.
void add_stats(frontend::ServerStats& sum, const frontend::ServerStats& s) {
  sum.dropped_proto += s.dropped_proto;
  sum.dropped_slow += s.dropped_slow;
  sum.rejected_full += s.rejected_full;
  sum.batches += s.batches;
  sum.lookups += s.lookups;
  sum.bytes_in += s.bytes_in;
  sum.bytes_out += s.bytes_out;
}

/// One repetition. The writer runs on CPU `cpu`. The open phase's server
/// loop and client share the next CPU, away from the parked writer's
/// periodic wake-ups (threads inherit their creator's CPU set; see
/// pin_to_cpu()). The closed phase gets a server of its own, started
/// unpinned, and its client threads are unpinned too.
Rep run_rep(const runner::ScenarioSpec& spec, std::uint64_t world_seed,
            const FramePlan& open_plan,
            const std::vector<FramePlan>& closed_plans, std::size_t cpu,
            SpanLog* log) {
  Rep rep;
  pin_to_cpu(cpu);
  const std::int64_t t0 = wall_ns();
  serve::RouteService service{spec, world_seed};
  service.start();
  const std::int64_t t_started = wall_ns();
  pin_to_cpu(cpu + 1);
  while (!service.horizon_published()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  rep.replay_s = seconds_between(t_started, wall_ns());

  Frames open_frames;
  std::vector<Frames> closed_frames;
  {
    serve::RouteService::Reader probe{service};
    const serve::RouteService::Reader::PinGuard pin{probe};
    rep.version = pin->version;
    open_frames = open_plan.map(pin->router_ids, *pin->index);
    for (const FramePlan& p : closed_plans) {
      closed_frames.push_back(p.map(pin->router_ids, *pin->index));
    }
  }
  frontend::Server server{service};
  server.start();
  // Connect-and-handshake is part of set-up: probe the server once.
  {
    frontend::Client client;
    client.connect(server.port(), kClientTimeoutMs);
    client.hello();
  }
  rep.setup_s = seconds_between(t0, wall_ns());

  rep.open = open_phase(server.port(), open_frames, kOpenSeconds, log);
  server.stop();
  add_stats(rep.server, server.stats());
  rep.handle_us = server.handle_ns_hist().quantile(0.5) / 1e3;

  unpin_cpu();
  frontend::Server closed_server{service};
  closed_server.start();
  std::vector<ClosedOut> closed(kClosedConns);
  const std::int64_t c0 = wall_ns();
  const std::int64_t deadline =
      c0 + static_cast<std::int64_t>(kClosedSeconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClosedConns; ++c) {
      threads.emplace_back([&, c] {
        closed_conn(closed_server.port(), closed_frames[c], c, deadline,
                    closed[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double closed_s = seconds_between(c0, wall_ns());
  closed_server.stop();
  add_stats(rep.server, closed_server.stats());
  std::uint64_t lookups = 0;
  rep.attempted = rep.open.attempted;
  rep.failed = rep.open.failed;
  for (const ClosedOut& c : closed) {
    lookups += c.lookups;
    rep.attempted += c.frames + c.failed;
    rep.failed += c.failed;
  }
  rep.lookups_per_s = static_cast<double>(lookups) / closed_s;

  // Equivalence: sampled socket replies vs in-process lookup_batch on
  // the same (stable) snapshot.
  {
    serve::RouteService::Reader reader{service};
    std::vector<serve::LookupResponse> resps(frontend::kMaxBatch);
    const auto compare = [&](const Frames& frames,
                             const std::vector<Sampled>& samples) {
      for (const Sampled& s : samples) {
        const std::vector<serve::LookupRequest>& reqs = frames[s.frame];
        const serve::BatchResult br = reader.lookup_batch(reqs, resps);
        ++rep.checked;
        const bool same =
            br.snapshot_version == s.reply.snapshot_version &&
            br.snapshot_version == rep.version &&
            std::equal(s.reply.responses.begin(), s.reply.responses.end(),
                       resps.begin());
        if (!same) ++rep.mismatched;
      }
    };
    compare(open_frames, rep.open.sampled);
    for (std::size_t c = 0; c < kClosedConns; ++c) {
      compare(closed_frames[c], closed[c].sampled);
    }
  }
  if (log != nullptr) {
    replay_steps(service, open_frames, rep.open.sent_frames, *log, rep);
  }
  const std::uint64_t drops = rep.server.dropped_proto +
                              rep.server.dropped_slow +
                              rep.server.rejected_full;
  rep.failed += drops;
  service.stop();
  return rep;
}

}  // namespace

void run_tcp_query(const Options& opt, Report& report) {
  const runner::ScenarioSpec spec = tcp_spec();
  // As in serve_churn, the served world is a benchmark constant and the
  // workload seed draws the frame plans.
  const std::uint64_t world_seed = kWorldSeed;
  const FramePlan open_plan{derive_seed(opt.seed, 400),
                            spec.workload.prefixes};
  std::vector<FramePlan> closed_plans;
  for (std::size_t c = 0; c < kClosedConns; ++c) {
    closed_plans.emplace_back(derive_seed(opt.seed, 500 + c),
                              spec.workload.prefixes);
  }

  std::vector<Rep> reps;
  SpanLog log{0, /*record_cpu=*/false};
  if (opt.trace) {
    // Untraced, then traced: the difference is the tracing overhead.
    reps.push_back(
        run_rep(spec, world_seed, open_plan, closed_plans, 0, nullptr));
    reps.push_back(run_rep(spec, world_seed, open_plan, closed_plans, 1, &log));
  } else {
    const std::int64_t t_begin = wall_ns();
    while (reps.size() < kMinReps ||
           seconds_between(t_begin, wall_ns()) < opt.seconds) {
      reps.push_back(run_rep(spec, world_seed, open_plan, closed_plans,
                             reps.size(), nullptr));
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    checked += r.checked;
    mismatched += r.mismatched;
  }
  report.count(attempted, failed);
  report.check(checked > 0 && mismatched == 0,
               std::to_string(checked) +
                   " sampled socket replies equal in-process lookup_batch "
                   "at the same snapshot version");
  report.check(failed == 0, "no frame lost to a timeout, ERROR, drop or "
                            "reject");

  if (opt.trace) {
    Rep& plain = reps[0];
    Rep& traced = reps[1];
    const auto layers = self_times({&log});
    const auto med = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : median(it->second.self_ns);
    };
    const double rtt_p50_us = median(plain.open.rtt_us);
    const double traced_p50_us = median(traced.open.rtt_us);
    const double decode_ns = median(traced.decode_ns);
    const double lookup_ns = median(traced.lookup_ns);
    const double encode_ns = median(traced.encode_ns);
    const double transport_us =
        rtt_p50_us - (decode_ns + lookup_ns + encode_ns) / 1e3;
    const frontend::ServerStats& st = traced.server;
    report.metric("frontend.send_us", med("frontend.send") / 1e3);
    report.metric("frontend.recv_wait_us", med("frontend.recv_wait") / 1e3);
    report.metric("frontend.decode_ns", decode_ns);
    report.metric("serve.lookup_batch_ns", lookup_ns);
    report.metric("frontend.encode_ns", encode_ns);
    report.metric("frontend.transport_us", transport_us);
    report.metric("frontend.rtt_p50_us", rtt_p50_us);
    report.metric("frontend.handle_us", traced.handle_us);
    report.metric("frontend.bytes_per_lookup",
                  static_cast<double>(st.bytes_in + st.bytes_out) /
                      static_cast<double>(st.lookups));
    report.metric("frontend.lookups_per_frame",
                  static_cast<double>(st.lookups) /
                      static_cast<double>(st.batches));
    report.metric("frontend.drops",
                  static_cast<double>(st.dropped_proto + st.dropped_slow +
                                      st.rejected_full));
    std::vector<double> lag = plain.open.lag_us;
    const double lag_p99 = quantile(lag, 0.99);
    report.metric("frontend.gen_lag_us", lag_p99);
    report.metric("trace.overhead_pct",
                  (traced_p50_us - rtt_p50_us) / rtt_p50_us * 100);
    report.say("layer RTT p50 %.3f us (untraced, n=%zu frames) = decode "
               "%.1f ns + lookup_batch %.1f ns + encode %.1f ns (median of "
               "%zu replayed frames) + transport %.3f us",
               rtt_p50_us, plain.open.latency_us.size(), decode_ns, lookup_ns,
               encode_ns, traced.decode_ns.size(), transport_us);
    report.say("layer client send %.3f us, recv wait %.3f us (median, traced "
               "open phase); server handle p50 %.3f us (coarse: server "
               "histogram bucket edge)",
               med("frontend.send") / 1e3, med("frontend.recv_wait") / 1e3,
               traced.handle_us);
    report.say("tracing overhead: open-phase p50 %.3f us traced vs %.3f us "
               "untraced; generator lag p99 %.3f us",
               traced_p50_us, rtt_p50_us, lag_p99);
    report.check(transport_us > 0,
                 "decode + lookup + encode + transport account for the RTT "
                 "p50 (transport > 0)");
    if (!opt.trace_out.empty()) {
      report.check(write_spans(opt.trace_out, {&log}),
                   "spans written to " + opt.trace_out);
    }
    return;
  }

  std::vector<double> setups;
  std::vector<double> replays;
  std::vector<double> rates;
  std::vector<double> latency_us;
  std::vector<double> rtt_us;
  std::vector<double> lag_us;
  std::vector<double> win_p50s;
  std::vector<double> win_p99s;
  for (const Rep& r : reps) {
    std::vector<double> lat = r.open.latency_us;
    std::vector<double> lag = r.open.lag_us;
    std::vector<double> rtt = r.open.rtt_us;
    window_quantiles(r.open.rtt_us, kOpenWindow, 0.5, win_p50s);
    window_quantiles(r.open.rtt_us, kOpenWindow, 0.99, win_p99s);
    report.say("rep: set-up %.4f s, replay %.4f s, open p50 %.2f us, p99 "
               "%.2f us from send, %.2f us from due (n=%zu, lag p99 %.2f "
               "us), closed %.4g lookups/s",
               r.setup_s, r.replay_s, quantile(rtt, 0.5), quantile(rtt, 0.99),
               quantile(lat, 0.99), lat.size(), quantile(lag, 0.99),
               r.lookups_per_s);
    rtt_us.insert(rtt_us.end(), r.open.rtt_us.begin(), r.open.rtt_us.end());
    setups.push_back(r.setup_s);
    replays.push_back(r.replay_s);
    rates.push_back(r.lookups_per_s);
    latency_us.insert(latency_us.end(), r.open.latency_us.begin(),
                      r.open.latency_us.end());
    lag_us.insert(lag_us.end(), r.open.lag_us.begin(), r.open.lag_us.end());
  }
  const std::size_t samples = latency_us.size();
  const double setup_s = median(setups);
  const double replay_s = mean(replays);
  const double rate = mean(rates);
  // The metrics time each frame from its send. Timed from its due time
  // a frame also carries the generator's lateness: one host scheduling
  // stall of a few ms delays every frame due during it and moves the
  // p99 by orders of magnitude, so those figures are printed beside.
  const double p50 = mean(win_p50s);
  const double p99 = mean(win_p99s);
  const double pooled_p50 = quantile(rtt_us, 0.5);
  const double pooled_p99 = quantile(rtt_us, 0.99);
  const double due_p50 = quantile(latency_us, 0.5);
  const double due_p99 = quantile(latency_us, 0.99);
  const double lag_p99 = quantile(lag_us, 0.99);
  const double rss = peak_rss_mb();
  report.say("metric setup_s        %12.6f s   (median of %zu set-ups)",
             setup_s, reps.size());
  report.say("metric replay_s       %12.6f s   (mean of %zu replays, no "
             "readers)",
             replay_s, reps.size());
  report.say("metric lookups_per_s  %12.1f 1/s (closed loop, %zu conns x "
             "%zu in flight, mean of %zu)",
             rate, kClosedConns, kPipeline, reps.size());
  report.say("metric lookup_p50_us  %12.4f us  (open loop at %.0f frames/s, "
             "from send, mean of %zu window medians, n=%zu frames; pooled "
             "%.4f us; from due %.4f us)",
             p50, kOpenRate, win_p50s.size(), samples, pooled_p50, due_p50);
  report.say("metric lookup_p99_us  %12.4f us  (from send, mean of %zu "
             "window p99s; pooled %.4f us; from due %.4f us)",
             p99, win_p99s.size(), pooled_p99, due_p99);
  report.say("metric gen_lag_p99_us %12.4f us  (open-loop generator "
             "lateness)",
             lag_p99);
  report.say("metric peak_rss_mb    %12.3f MB", rss);
  report.say("metric fail_frac      %12.6f     (%" PRIu64 " of %" PRIu64
             " frames)",
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
