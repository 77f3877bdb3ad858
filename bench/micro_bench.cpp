// Micro-benchmarks (google-benchmark) for the hot paths of the BGP
// substrate: decision process, best-AS-level filtering, RIB operations,
// prefix-trie longest match, scheduler throughput, SPF, and a small
// end-to-end convergence run.
//
// Benchmarks measuring an optimized path have a `_Legacy` twin running
// the pre-optimization strategy (value-semantics elimination, uncached
// hashing, map-backed RIB storage) so a single run quantifies each
// speedup. Pass --json_out=PATH to also write a machine-readable report
// with the computed fast-vs-legacy ratios (see bench/run_bench.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/attrs_intern.h"
#include "bgp/decision.h"
#include "bgp/flat_lpm.h"
#include "bgp/prefix_trie.h"
#include "bgp/rib.h"
#include "common.h"
#include "igp/spf.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "topo/topology.h"
#include "wire/codec.h"

namespace {

using namespace abrr;
using bgp::Ipv4Prefix;
using bgp::Route;
using bgp::RouteBuilder;

std::vector<Route> make_candidates(std::size_t n, sim::Rng& rng) {
  std::vector<Route> out;
  const Ipv4Prefix pfx = Ipv4Prefix::parse("10.0.0.0/8");
  for (std::size_t i = 0; i < n; ++i) {
    RouteBuilder b{pfx};
    b.path_id(static_cast<bgp::PathId>(i + 1))
        .local_pref(100)
        .as_path({static_cast<bgp::Asn>(7000 + i % 8), 64512,
                  static_cast<bgp::Asn>(30000 + i % 4)})
        .med(static_cast<std::uint32_t>(10 * (i % 4)))
        .next_hop(static_cast<bgp::RouterId>(i + 1))
        .learned_from(static_cast<bgp::RouterId>(100 + i),
                      bgp::LearnedVia::kIbgp);
    out.push_back(b.build());
  }
  (void)rng;
  return out;
}

// ---------------------------------------------------------------------
// Legacy reference implementations: the strategies the hot paths used
// before the pointer-scratch / interning / dense-index overhaul. Kept
// here (not in the library) purely as benchmark baselines.
// ---------------------------------------------------------------------
namespace legacy {

template <typename Key>
void keep_min(std::vector<Route>& routes, Key key) {
  if (routes.size() <= 1) return;
  auto best = key(routes.front());
  for (std::size_t i = 1; i < routes.size(); ++i) {
    best = std::min(best, key(routes[i]));
  }
  std::erase_if(routes, [&](const Route& r) { return key(r) != best; });
}

// Value-semantics best-AS-level: copies every candidate, eliminates by
// erase_if over Route objects, and groups MED minima in a std::map.
std::vector<Route> best_as_level_routes(std::span<const Route> candidates,
                                        const bgp::DecisionConfig& cfg) {
  std::vector<Route> out;
  out.reserve(candidates.size());
  for (const Route& r : candidates) {
    if (r.valid()) out.push_back(r);
  }
  keep_min(out, [](const Route& r) {
    return -static_cast<std::int64_t>(r.attrs->local_pref);
  });
  keep_min(out, [](const Route& r) { return r.attrs->as_path.length(); });
  keep_min(out, [](const Route& r) { return static_cast<int>(r.attrs->origin); });
  if (out.size() <= 1 || cfg.ignore_med) return out;
  if (cfg.always_compare_med) {
    keep_min(out, [&](const Route& r) { return cfg.med_of(r); });
    return out;
  }
  std::map<bgp::Asn, std::uint32_t> group_min;
  for (const Route& r : out) {
    const bgp::Asn as = r.neighbor_as();
    const std::uint32_t med = cfg.med_of(r);
    const auto it = group_min.find(as);
    if (it == group_min.end()) {
      group_min.emplace(as, med);
    } else {
      it->second = std::min(it->second, med);
    }
  }
  std::erase_if(out, [&](const Route& r) {
    return cfg.med_of(r) != group_min.at(r.neighbor_as());
  });
  return out;
}

}  // namespace legacy

void BM_SelectBest(benchmark::State& state) {
  sim::Rng rng{1};
  const auto candidates =
      make_candidates(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<const Route*> ptrs;
  for (const Route& r : candidates) ptrs.push_back(&r);
  const bgp::IgpDistanceFn igp = [](bgp::RouterId nh) -> std::int64_t {
    return nh * 7 % 97;
  };
  std::vector<const Route*> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bgp::select_best_from(ptrs, 1, igp, bgp::DecisionConfig{}, scratch));
  }
}
BENCHMARK(BM_SelectBest)->Arg(2)->Arg(10)->Arg(30)->Arg(100);

void BM_BestAsLevel(benchmark::State& state) {
  sim::Rng rng{1};
  const auto candidates =
      make_candidates(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<const Route*> ptrs;
  for (const Route& r : candidates) ptrs.push_back(&r);
  std::vector<const Route*> out;
  for (auto _ : state) {
    bgp::best_as_level_into(ptrs, bgp::DecisionConfig{}, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BestAsLevel)->Arg(10)->Arg(30)->Arg(100);

void BM_BestAsLevel_Legacy(benchmark::State& state) {
  sim::Rng rng{1};
  const auto candidates =
      make_candidates(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legacy::best_as_level_routes(candidates, bgp::DecisionConfig{}));
  }
}
BENCHMARK(BM_BestAsLevel_Legacy)->Arg(10)->Arg(30)->Arg(100);

// The speaker's real Adj-RIB-In access pattern: many prefixes with a
// handful of paths each, and every announce/withdraw followed by a
// routes_for() read when the decision pipeline re-runs the prefix.
void run_adj_rib_in(benchmark::State& state, bool dense) {
  constexpr std::size_t kPrefixes = 256;
  constexpr std::size_t kPathsPerPrefix = 4;
  std::vector<Ipv4Prefix> prefixes;
  std::vector<Route> routes;
  for (std::size_t p = 0; p < kPrefixes; ++p) {
    const Ipv4Prefix pfx{
        static_cast<bgp::Ipv4Addr>(0x0A000000u + (p << 8)), 24};
    prefixes.push_back(pfx);
    for (std::size_t i = 0; i < kPathsPerPrefix; ++i) {
      RouteBuilder b{pfx};
      b.path_id(static_cast<bgp::PathId>(i + 1))
          .local_pref(100)
          .as_path({static_cast<bgp::Asn>(7000 + i), 64512})
          .next_hop(static_cast<bgp::RouterId>(i + 1))
          .learned_from(static_cast<bgp::RouterId>(100 + i),
                        bgp::LearnedVia::kIbgp);
      routes.push_back(b.build());
    }
  }
  bgp::AdjRibIn rib;
  std::shared_ptr<bgp::PrefixIndex> index;
  if (dense) {
    index = std::make_shared<bgp::PrefixIndex>();
    for (const auto& pfx : prefixes) index->add(pfx);
    rib.set_prefix_index(index);
  }
  std::vector<const Route*> scratch;
  for (auto _ : state) {
    for (const auto& r : routes) {
      rib.announce(r);
      if (dense) {
        rib.routes_for(bgp::index_prefix(index.get(), r.prefix), scratch);
        benchmark::DoNotOptimize(scratch.data());
      } else {
        // Pre-overhaul read path: materialize a fresh copy per lookup.
        auto copy = rib.routes_for(r.prefix);
        benchmark::DoNotOptimize(copy.data());
      }
    }
    for (const auto& r : routes) {
      rib.withdraw(r.learned_from, r.prefix, r.path_id);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * routes.size()));
}

void BM_AdjRibInAnnounceWithdraw(benchmark::State& state) {
  run_adj_rib_in(state, /*dense=*/true);
}
BENCHMARK(BM_AdjRibInAnnounceWithdraw);

void BM_AdjRibInAnnounceWithdraw_Legacy(benchmark::State& state) {
  bgp::ScopedInterningDisabled no_intern;
  run_adj_rib_in(state, /*dense=*/false);
}
BENCHMARK(BM_AdjRibInAnnounceWithdraw_Legacy);

// Shared random table for the LPM benchmarks below: `n` prefixes drawn
// with the same generator the trie bench has always used, so the
// 10000-entry rows stay comparable across report history and the
// 416000-entry rows model a paper-scale full table (~416K prefixes).
std::vector<std::pair<Ipv4Prefix, int>> lpm_bench_table(int n) {
  sim::Rng rng{3};
  std::vector<std::pair<Ipv4Prefix, int>> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto addr =
        static_cast<bgp::Ipv4Addr>(rng.uniform_int(0, 0xDF000000));
    entries.emplace_back(
        Ipv4Prefix{addr,
                   static_cast<std::uint8_t>(rng.uniform_int(12, 24))},
        i);
  }
  return entries;
}

// Probes per timed iteration. Sub-50ns lookups drown in per-iteration
// harness bookkeeping, so every LPM benchmark below times a small batch
// (identical on both sides of each twin pair, so the reported ratios
// are probe-for-probe honest); items_per_second is per single lookup.
constexpr int kLpmProbeBatch = 16;

void BM_TrieLongestMatch(benchmark::State& state) {
  bgp::PrefixTrie<int> trie;
  for (const auto& [prefix, value] :
       lpm_bench_table(static_cast<int>(state.range(0)))) {
    trie.insert(prefix, value);
  }
  bgp::Ipv4Addr probe = 0x0A000000;
  for (auto _ : state) {
    std::uintptr_t acc = 0;
    for (int i = 0; i < kLpmProbeBatch; ++i) {
      probe = probe * 2654435761u + 12345;
      const auto hit = trie.longest_match(probe);
      acc += hit ? reinterpret_cast<std::uintptr_t>(hit->second) : 0;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLpmProbeBatch);
}
BENCHMARK(BM_TrieLongestMatch)->Arg(10000)->Arg(416000);

// The serving read path (16/8 DIR table, src/bgp/flat_lpm.h) against
// the trie on the SAME table and the SAME probe sequence — the honest
// apples-to-apples comparison. The `_Legacy` twin is the trie so the
// JSON report computes the flat-vs-trie speedup per table size.
void BM_FlatLpmLongestMatch(benchmark::State& state) {
  const bgp::FlatLpm<int> lpm{
      lpm_bench_table(static_cast<int>(state.range(0)))};
  bgp::Ipv4Addr probe = 0x0A000000;
  for (auto _ : state) {
    std::uintptr_t acc = 0;
    for (int i = 0; i < kLpmProbeBatch; ++i) {
      probe = probe * 2654435761u + 12345;
      const auto hit = lpm.longest_match(probe);
      acc += hit ? reinterpret_cast<std::uintptr_t>(hit->second) : 0;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLpmProbeBatch);
  state.counters["index_bytes"] =
      static_cast<double>(lpm.index().bytes());
}
BENCHMARK(BM_FlatLpmLongestMatch)->Arg(10000)->Arg(416000);

void BM_FlatLpmLongestMatch_Legacy(benchmark::State& state) {
  bgp::PrefixTrie<int> trie;
  for (const auto& [prefix, value] :
       lpm_bench_table(static_cast<int>(state.range(0)))) {
    trie.insert(prefix, value);
  }
  bgp::Ipv4Addr probe = 0x0A000000;
  for (auto _ : state) {
    std::uintptr_t acc = 0;
    for (int i = 0; i < kLpmProbeBatch; ++i) {
      probe = probe * 2654435761u + 12345;
      const auto hit = trie.longest_match(probe);
      acc += hit ? reinterpret_cast<std::uintptr_t>(hit->second) : 0;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLpmProbeBatch);
}
BENCHMARK(BM_FlatLpmLongestMatch_Legacy)->Arg(10000)->Arg(416000);

void BM_SchedulerThroughput(benchmark::State& state) {
  std::uint64_t pool_capacity = 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(i, [&counter] { ++counter; });
    }
    sched.run_to_quiescence();
    benchmark::DoNotOptimize(counter);
    pool_capacity = sched.pool_capacity();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
  state.counters["pool_capacity"] = static_cast<double>(pool_capacity);
}
BENCHMARK(BM_SchedulerThroughput);

// The trial allocation model in isolation: 1000 PathAttrs blocks built
// per iteration, then the whole batch torn down at once. The arena path
// bumps a slab pointer and reuses the same chunks across resets; the
// legacy twin is the strategy interned attributes used before —
// one heap allocation (and one free) per block via shared_ptr.
void BM_ArenaAlloc(benchmark::State& state) {
  sim::Arena arena;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      bgp::PathAttrs* attrs = arena.create<bgp::PathAttrs>();
      attrs->local_pref = static_cast<std::uint32_t>(i);
      benchmark::DoNotOptimize(attrs);
    }
    arena.reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
  state.counters["bytes_reserved"] =
      static_cast<double>(arena.bytes_reserved());
  state.counters["chunks"] = static_cast<double>(arena.chunk_count());
}
BENCHMARK(BM_ArenaAlloc);

void BM_ArenaAlloc_Legacy(benchmark::State& state) {
  std::vector<std::shared_ptr<const bgp::PathAttrs>> blocks;
  blocks.reserve(1000);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto attrs = std::make_shared<bgp::PathAttrs>();
      attrs->local_pref = static_cast<std::uint32_t>(i);
      blocks.push_back(std::move(attrs));
      benchmark::DoNotOptimize(blocks.back());
    }
    blocks.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_ArenaAlloc_Legacy);

// Observability hot paths: these run inside every update receive /
// decision / transmit, so the handle dereference + add must stay cheap
// enough to leave enabled unconditionally.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter(
      "bm.counter", obs::Labels{{"speaker", "1"}, {"role", "rr"}});
  for (auto _ : state) {
    c->inc();
    benchmark::DoNotOptimize(*c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("bm.hist", obs::size_buckets());
  std::uint64_t v = 1;
  for (auto _ : state) {
    h->record(v);
    v = (v * 5 + 3) & 0x3ffff;  // spread across buckets
    benchmark::DoNotOptimize(*h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsTracerRecord(benchmark::State& state) {
  sim::Scheduler sched;
  obs::Tracer tracer{sched, /*capacity=*/1 << 12};
  std::uint32_t actor = 0;
  for (auto _ : state) {
    tracer.record(obs::TraceEventKind::kUpdateRx, actor++, 7, 42);
    benchmark::DoNotOptimize(tracer);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsTracerRecord);

void BM_SpfTier1(benchmark::State& state) {
  sim::Rng rng{4};
  topo::TopologyParams tp;
  tp.pops = 13;
  tp.clients_per_pop = 8;
  const auto topology = topo::make_tier1(tp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        igp::compute_spf(topology.graph, topology.clients.front().id));
  }
}
BENCHMARK(BM_SpfTier1);

void BM_RouteSetHash(benchmark::State& state) {
  sim::Rng rng{5};
  const auto routes = make_candidates(10, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::route_set_hash(routes));
  }
}
BENCHMARK(BM_RouteSetHash);

void BM_RouteSetHash_Legacy(benchmark::State& state) {
  sim::Rng rng{5};
  const auto routes = make_candidates(10, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::route_set_hash_uncached(routes));
  }
}
BENCHMARK(BM_RouteSetHash_Legacy);

// Wire codec hot paths: Network::send runs one of these per message.
// The sizer is the per-send cost (cached attr-block lengths, so steady
// state is arithmetic); the encoder only runs when packet capture is on.
bgp::UpdateMessage make_wire_message(std::size_t n_routes) {
  sim::Rng rng{6};
  const auto candidates = make_candidates(n_routes, rng);
  bgp::UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  m.announce.assign(candidates.begin(), candidates.end());
  return m;
}

void BM_EncodeUpdate(benchmark::State& state) {
  const auto m = make_wire_message(static_cast<std::size_t>(state.range(0)));
  wire::Encoder enc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(m).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeUpdate)->Arg(1)->Arg(10)->Arg(100);

void BM_WireSize(benchmark::State& state) {
  const auto m = make_wire_message(static_cast<std::size_t>(state.range(0)));
  wire::WireSizer sizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sizer.message_size(m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WireSize)->Arg(1)->Arg(10)->Arg(100);

// ---------------------------------------------------------------------
// End-to-end: a small TBRR deployment converging on an initial snapshot
// (testbed construction + paced injection + run to quiescence). The
// legacy twin runs the identical scenario on the map-fallback storage
// with attribute interning off.
// ---------------------------------------------------------------------
struct ConvergenceScenario {
  topo::Topology topology;
  trace::Workload workload;
  std::vector<Ipv4Prefix> prefixes;
};

const ConvergenceScenario& convergence_scenario() {
  static const ConvergenceScenario* scenario = [] {
    bench::ExperimentConfig cfg;
    cfg.prefixes = 300;
    cfg.pops = 4;
    cfg.clients_per_pop = 4;
    cfg.peer_ases = 8;
    cfg.points_per_as = 4;
    cfg.seed = 42;
    sim::Rng rng{cfg.seed};
    auto topology = bench::make_paper_topology(cfg, rng);
    auto workload = bench::make_paper_workload(cfg, topology, rng);
    auto* s = new ConvergenceScenario{std::move(topology),
                                      std::move(workload),
                                      {}};
    s->prefixes = s->workload.prefixes();
    return s;
  }();
  return *scenario;
}

void run_convergence(benchmark::State& state, bool fast) {
  const ConvergenceScenario& s = convergence_scenario();
  auto options = bench::paper_options(ibgp::IbgpMode::kTbrr, 4, 42);
  options.use_prefix_index = fast;
  for (auto _ : state) {
    harness::Testbed bed{s.topology, options, s.prefixes};
    const bool converged = bench::load_snapshot(bed, s.workload, 5.0);
    if (!converged) state.SkipWithError("did not converge");
    benchmark::DoNotOptimize(bed.rr_rib_in());
  }
}

void BM_TestbedConvergence(benchmark::State& state) {
  run_convergence(state, /*fast=*/true);
}
BENCHMARK(BM_TestbedConvergence)->Unit(benchmark::kMillisecond);

void BM_TestbedConvergence_Legacy(benchmark::State& state) {
  bgp::ScopedInterningDisabled no_intern;
  run_convergence(state, /*fast=*/false);
}
BENCHMARK(BM_TestbedConvergence_Legacy)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// JSON reporting: console output stays the default; --json_out=PATH
// additionally writes {benchmarks: [...], speedups: [...]} where each
// speedup pairs a benchmark with its _Legacy twin.
// ---------------------------------------------------------------------
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_ns = 0;
    std::int64_t iterations = 0;
    // User counters (e.g. pool_capacity, bytes_reserved), sorted by name.
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      // Normalize to nanoseconds regardless of the per-benchmark unit
      // (GetAdjustedRealTime reports in run.time_unit).
      row.real_ns = run.GetAdjustedRealTime() *
                    benchmark::GetTimeUnitMultiplier(benchmark::kNanosecond) /
                    benchmark::GetTimeUnitMultiplier(run.time_unit);
      row.iterations = run.iterations;
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      std::sort(row.counters.begin(), row.counters.end());
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool write_json(const std::string& path,
                const std::vector<CapturingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"real_time_ns\": %.3f, "
                 "\"iterations\": %lld",
                 json_escape(rows[i].name).c_str(), rows[i].real_ns,
                 static_cast<long long>(rows[i].iterations));
    if (!rows[i].counters.empty()) {
      std::fprintf(f, ", \"counters\": {");
      for (std::size_t c = 0; c < rows[i].counters.size(); ++c) {
        std::fprintf(f, "%s\"%s\": %.3f", c > 0 ? ", " : "",
                     json_escape(rows[i].counters[c].first).c_str(),
                     rows[i].counters[c].second);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedups\": [\n");
  // Pair "X_Legacy[/args]" rows with their "X[/args]" fast twin.
  std::vector<std::string> lines;
  for (const auto& row : rows) {
    const std::size_t pos = row.name.find("_Legacy");
    if (pos == std::string::npos) continue;
    const std::string fast_name =
        row.name.substr(0, pos) + row.name.substr(pos + 7);
    for (const auto& fast : rows) {
      if (fast.name != fast_name || fast.real_ns <= 0) continue;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "    {\"benchmark\": \"%s\", \"fast_ns\": %.3f, "
                    "\"legacy_ns\": %.3f, \"speedup\": %.3f}",
                    json_escape(fast_name).c_str(), fast.real_ns, row.real_ns,
                    row.real_ns / fast.real_ns);
      lines.emplace_back(buf);
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::fprintf(f, "%s%s\n", lines[i].c_str(),
                 i + 1 < lines.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Our flags parse strictly (unknown flags fail loudly);
  // --benchmark_* passes through to google-benchmark untouched.
  std::string json_path;
  abrr::runner::ArgParser parser{"micro_bench"};
  parser.add("json_out", "write fast-vs-legacy ratio report here",
             &json_path);
  parser.allow_prefix("--benchmark_");
  parser.parse(argc, argv);

  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i == 0 || std::string_view{argv[i]}.rfind("--benchmark_", 0) == 0) {
      rest.push_back(argv[i]);
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !write_json(json_path, reporter.rows())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
