// TCP front-end benchmark: a RouteService run to its churn horizon
// (stable snapshot), then the ABRR-Q serving path swept over
// --connections x --batches cells. Each cell fans out N client
// connections that pipeline LOOKUP_BATCH frames against the loopback
// server and measure per-batch RTT; an in-process Reader::lookup_batch
// baseline at the same batch sizes anchors the protocol overhead
// (slowdown_vs_inprocess in the report). Emits BENCH_frontend.json.
//
// One-CPU caveat (this host): clients and the server loop time-slice
// one core, so cells with more connections measure scheduling, not
// parallel service — judge the transport by per-batch RTT and by
// slowdown_vs_inprocess at --connections=1 (see EXPERIMENTS.md).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "common.h"
#include "frontend/client.h"
#include "frontend/server.h"
#include "serve/service.h"

namespace abrr::bench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct FrontendBenchConfig {
  ExperimentConfig base;
  ServingBenchParams serving;
  // Defaults chosen on this 1-CPU host: batch sizes big enough that the
  // per-frame syscall pair amortizes (smaller batches are RTT-bound and
  // drift past 10x of the in-process rate), pipeline depth 4 so the
  // server coalesces frames per poll wakeup.
  std::vector<std::uint64_t> connections{1, 2};
  std::vector<std::uint64_t> batches{256, 2048};
  unsigned long pipeline = 4;
  unsigned long batches_per_conn = 1000;
  std::string json_out = "BENCH_frontend.json";
};

FrontendBenchConfig parse_args(int argc, char** argv) {
  FrontendBenchConfig cfg;
  // Same mid-size default bed as serve_bench so the two reports line up.
  cfg.base.prefixes = 2000;
  cfg.base.pops = 6;
  // The sweep runs against the horizon snapshot, so a short churn plan
  // is enough — it only has to exercise a few publishes first.
  cfg.serving.churn_seconds = 2.0;
  cfg.serving.chaos_events = 2;
  runner::ArgParser parser{"frontend_bench"};
  cfg.base.register_flags(parser);
  cfg.serving.register_flags(parser);
  parser.add("connections", "comma-separated client connection counts",
             &cfg.connections);
  parser.add("batches", "comma-separated lookups-per-frame sizes",
             &cfg.batches);
  parser.add("pipeline", "LOOKUP_BATCH frames in flight per connection",
             &cfg.pipeline);
  parser.add("batches-per-conn", "frames each connection sends per cell",
             &cfg.batches_per_conn);
  parser.add("json_out", "write the report here", &cfg.json_out);
  parser.parse(argc, argv);
  cfg.base.finish();
  return cfg;
}

struct BaselineRow {
  std::size_t batch = 0;
  LoadgenResult result;
};

struct CellRow {
  std::size_t connections = 0;
  std::size_t batch = 0;
  LoadgenResult result;
  std::uint64_t wire_bytes_in = 0;   // server-side delta for this cell
  std::uint64_t wire_bytes_out = 0;
  double slowdown_vs_inprocess = 0;  // baseline rate / TCP rate
};

/// In-process ground speed at one batch size: a single reader thread
/// timing lookup_batch, the same loop the TCP cells amortize over the
/// wire.
BaselineRow run_baseline(serve::RouteService& service, std::size_t batch,
                         unsigned long iterations) {
  BaselineRow row;
  row.batch = batch;
  row.result = run_loadgen_threads(1, [&](std::size_t) {
    LoadgenResult res;
    const auto reqs = serving_probe_plan(service, batch, 0x10adu);
    serve::RouteService::Reader reader{service};
    std::vector<serve::LookupResponse> resps(reqs.size());
    for (unsigned long i = 0; i < iterations; ++i) {
      const std::uint64_t t0 = now_ns();
      reader.lookup_batch(reqs, resps);
      res.latency_ns.record(static_cast<double>(now_ns() - t0));
      res.ops += 1;
      res.lookups += reqs.size();
    }
    return res;
  });
  return row;
}

CellRow run_cell(serve::RouteService& service, frontend::Server& server,
                 std::size_t connections, std::size_t batch,
                 const FrontendBenchConfig& cfg) {
  CellRow row;
  row.connections = connections;
  row.batch = batch;
  const frontend::ServerStats before = server.stats();
  row.result = run_loadgen_threads(connections, [&](std::size_t idx) {
    LoadgenResult res;
    const auto reqs = serving_probe_plan(
        service, batch, static_cast<std::uint32_t>(idx) * 7919u + 1);
    frontend::Client client;
    client.connect(server.port(), /*timeout_ms=*/30000);
    std::deque<std::uint64_t> sent_at;  // per in-flight frame, FIFO
    unsigned long sent = 0;
    unsigned long answered = 0;
    while (answered < cfg.batches_per_conn) {
      while (sent < cfg.batches_per_conn && sent_at.size() < cfg.pipeline) {
        sent_at.push_back(now_ns());
        client.send_lookup(reqs);
        ++sent;
      }
      const frontend::Client::Reply reply = client.recv_reply();
      res.latency_ns.record(static_cast<double>(now_ns() - sent_at.front()));
      sent_at.pop_front();
      ++answered;
      res.ops += 1;
      res.lookups += reply.responses.size();
    }
    return res;
  });
  const frontend::ServerStats after = server.stats();
  row.wire_bytes_in = after.bytes_in - before.bytes_in;
  row.wire_bytes_out = after.bytes_out - before.bytes_out;
  return row;
}

void write_json(const FrontendBenchConfig& cfg,
                const serve::ServiceStats& svc,
                const std::vector<BaselineRow>& baselines,
                const std::vector<CellRow>& cells,
                const frontend::Server& server) {
  JsonWriter json{cfg.json_out};
  json.begin_object();
  json.field("bench", "frontend");
  json.begin_object("config");
  json.field("prefixes", cfg.base.prefixes);
  json.field("pops", cfg.base.pops);
  json.field("seed", cfg.base.seed);
  json.field("mode", cfg.base.mode.empty() ? "abrr" : cfg.base.mode);
  json.field("pipeline", static_cast<std::uint64_t>(cfg.pipeline));
  json.field("batches_per_conn",
             static_cast<std::uint64_t>(cfg.batches_per_conn));
  json.field("churn_seconds", cfg.serving.churn_seconds);
  json.end_object();
  json.begin_object("snapshot");
  json.field("version", svc.version);
  json.field_hex("fingerprint", svc.fingerprint);
  json.field("publishes", svc.publishes);
  json.end_object();

  json.begin_array("inprocess_baseline");
  for (const BaselineRow& b : baselines) {
    json.begin_object();
    json.field("batch", b.batch);
    json.field("lookups", b.result.lookups);
    json.field("lookups_per_sec", b.result.lookups_per_sec());
    json.field("batch_p50_ns", b.result.latency_ns.quantile(0.5));
    json.field("batch_p99_ns", b.result.latency_ns.quantile(0.99));
    json.end_object();
  }
  json.end_array();

  json.begin_array("results");
  for (const CellRow& c : cells) {
    json.begin_object();
    json.field("connections", c.connections);
    json.field("batch", c.batch);
    json.field("lookups", c.result.lookups);
    json.field("lookups_per_sec", c.result.lookups_per_sec());
    json.field("rtt_p50_ns", c.result.latency_ns.quantile(0.5));
    json.field("rtt_p99_ns", c.result.latency_ns.quantile(0.99));
    json.field("wall_ms", c.result.wall_ms);
    json.field("wire_bytes_in", c.wire_bytes_in);
    json.field("wire_bytes_out", c.wire_bytes_out);
    json.field("bytes_per_lookup",
               c.result.lookups > 0
                   ? static_cast<double>(c.wire_bytes_in + c.wire_bytes_out) /
                         static_cast<double>(c.result.lookups)
                   : 0.0);
    json.field("slowdown_vs_inprocess", c.slowdown_vs_inprocess);
    json.field("worker_errors", c.result.errors);
    json.end_object();
  }
  json.end_array();

  const frontend::ServerStats st = server.stats();
  const obs::Histogram handle = server.handle_ns_hist();
  json.begin_object("server");
  json.field("accepted", st.accepted);
  json.field("dropped_proto", st.dropped_proto);
  json.field("dropped_slow", st.dropped_slow);
  json.field("frames", st.frames);
  json.field("batches", st.batches);
  json.field("lookups", st.lookups);
  json.field("handle_p50_ns", handle.quantile(0.5));
  json.field("handle_p99_ns", handle.quantile(0.99));
  json.end_object();

  rusage usage{};
  long rss_kb = 0;
  if (getrusage(RUSAGE_SELF, &usage) == 0) rss_kb = usage.ru_maxrss;
  json.field("peak_rss_kb", rss_kb);
  json.end_object();
  json.close();
}

}  // namespace
}  // namespace abrr::bench

int main(int argc, char** argv) {
  using namespace abrr;
  using namespace abrr::bench;

  const FrontendBenchConfig cfg = parse_args(argc, argv);
  const ibgp::IbgpMode mode = cfg.base.mode.empty()
                                  ? ibgp::IbgpMode::kAbrr
                                  : *runner::parse_mode(cfg.base.mode);
  const runner::ScenarioSpec spec =
      serving_spec(mode, cfg.base, cfg.serving, "frontend");

  serve::RouteService service{spec, cfg.base.seed};
  service.start();
  // Sweep against the stable horizon snapshot so every cell (and the
  // in-process baseline) answers from the same RIB.
  while (!service.done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (!service.horizon_published()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::ServiceStats svc = service.stats();
  std::printf("snapshot v%" PRIu64 " fingerprint %016" PRIx64 "\n",
              svc.version, svc.fingerprint);

  std::vector<BaselineRow> baselines;
  for (const std::uint64_t batch : cfg.batches) {
    baselines.push_back(
        run_baseline(service, batch, cfg.batches_per_conn));
    const BaselineRow& b = baselines.back();
    std::printf("in-process batch=%-5zu %12.0f lookups/s  "
                "batch p50=%9.0fns p99=%9.0fns\n",
                b.batch, b.result.lookups_per_sec(),
                b.result.latency_ns.quantile(0.5),
                b.result.latency_ns.quantile(0.99));
  }

  frontend::Server server{service};
  server.start();

  std::vector<CellRow> cells;
  for (const std::uint64_t conns : cfg.connections) {
    for (std::size_t bi = 0; bi < cfg.batches.size(); ++bi) {
      CellRow cell = run_cell(service, server, conns, cfg.batches[bi], cfg);
      const double base_rate = baselines[bi].result.lookups_per_sec();
      const double cell_rate = cell.result.lookups_per_sec();
      cell.slowdown_vs_inprocess =
          cell_rate > 0 ? base_rate / cell_rate : 0.0;
      std::printf("tcp conns=%-3zu batch=%-5zu %12.0f lookups/s  "
                  "rtt p50=%9.0fns p99=%9.0fns  %.1fx in-process%s\n",
                  cell.connections, cell.batch, cell_rate,
                  cell.result.latency_ns.quantile(0.5),
                  cell.result.latency_ns.quantile(0.99),
                  cell.slowdown_vs_inprocess,
                  cell.result.errors > 0 ? "  [WORKER ERRORS]" : "");
      cells.push_back(std::move(cell));
    }
  }

  write_json(cfg, svc, baselines, cells, server);

  server.stop();
  service.stop();
  return 0;
}
