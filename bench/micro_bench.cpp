// Micro-benchmarks (google-benchmark) for the hot paths of the BGP
// substrate: decision process, best-AS-level filtering, RIB operations,
// longest-prefix match, scheduler throughput, arena allocation, metric
// updates, SPF, route-set hashing and wire sizing. Each times a path
// that runs in the perfbench workloads; end-to-end trials are timed by
// perfbench and bench/sweep, not here. Pass --json_out=PATH to also
// write every benchmark's time and counters as JSON (see
// bench/run_bench.sh).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/attrs_intern.h"
#include "bgp/decision.h"
#include "bgp/flat_lpm.h"
#include "bgp/rib.h"
#include "build_stamp.h"
#include "igp/spf.h"
#include "obs/metrics.h"
#include "runner/arg_parser.h"
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

// The speaker's real Adj-RIB-In write: an ARR reflects its set for a
// prefix to every client, and each client replace()s its run for
// (ARR, prefix), then re-reads the prefix when its decision re-runs.
// The N receivers share one RouteSetStore, as a testbed's speakers do.
// Each pass alternates every prefix between two sets, so every replace
// changes what is stored.
void BM_AdjRibInReplaceReflected(benchmark::State& state) {
  constexpr std::size_t kPrefixes = 256;
  constexpr std::size_t kPathsPerSet = 3;
  constexpr bgp::RouterId kArr = 91;
  const auto receivers = static_cast<std::size_t>(state.range(0));
  auto index = std::make_shared<bgp::PrefixIndex>();
  auto store = std::make_shared<bgp::RouteSetStore>();
  std::vector<bgp::IndexedPrefix> keys;
  std::vector<Route> sets[2];
  for (std::size_t p = 0; p < kPrefixes; ++p) {
    const Ipv4Prefix pfx{
        static_cast<bgp::Ipv4Addr>(0x0A000000u + (p << 8)), 24};
    keys.push_back(index->intern(pfx));
    for (std::size_t version = 0; version < 2; ++version) {
      for (std::size_t i = 0; i < kPathsPerSet; ++i) {
        sets[version].push_back(
            RouteBuilder{pfx}
                .path_id(static_cast<bgp::PathId>(i + 1))
                .local_pref(100)
                .med(static_cast<std::uint32_t>(version))
                .as_path({static_cast<bgp::Asn>(7000 + i), 64512})
                .next_hop(static_cast<bgp::RouterId>(i + 1))
                .learned_from(kArr, bgp::LearnedVia::kIbgp)
                .build());
      }
    }
  }
  std::vector<std::unique_ptr<bgp::AdjRibIn>> ribs;
  for (std::size_t r = 0; r < receivers; ++r) {
    ribs.push_back(std::make_unique<bgp::AdjRibIn>(index, store));
  }
  std::vector<const Route*> scratch;
  std::size_t version = 0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < kPrefixes; ++p) {
      const std::span<const Route> set{
          sets[version].data() + p * kPathsPerSet, kPathsPerSet};
      for (const auto& rib : ribs) {
        rib->replace(kArr, keys[p], set);
        rib->routes_for(keys[p], scratch);
        benchmark::DoNotOptimize(scratch.data());
      }
    }
    version ^= 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPrefixes * receivers));
  state.counters["live_blocks"] = static_cast<double>(store->live_blocks());
}
BENCHMARK(BM_AdjRibInReplaceReflected)->Arg(1)->Arg(16)->Arg(104);

// Random table for the LPM benchmark below: `n` prefixes drawn with
// the same generator the LPM rows have always used, so the 10000-entry
// rows stay comparable across report history and the 416000-entry rows
// model a paper-scale full table (~416K prefixes).
std::vector<Ipv4Prefix> lpm_bench_table(int n) {
  sim::Rng rng{3};
  std::vector<Ipv4Prefix> prefixes;
  prefixes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto addr =
        static_cast<bgp::Ipv4Addr>(rng.uniform_int(0, 0xDF000000));
    prefixes.emplace_back(
        addr, static_cast<std::uint8_t>(rng.uniform_int(12, 24)));
  }
  return prefixes;
}

// Probes per timed iteration. Sub-50ns lookups drown in per-iteration
// harness bookkeeping, so the benchmark times a small batch;
// items_per_second is per single lookup.
constexpr int kLpmProbeBatch = 16;

// The serving read path's leaf lookup (16/8 DIR table,
// src/bgp/flat_lpm.h): LpmIndex::leaf_of, the call serving makes per
// request before its per-router slot walk.
void BM_FlatLpmLongestMatch(benchmark::State& state) {
  const bgp::LpmIndex index{
      lpm_bench_table(static_cast<int>(state.range(0)))};
  bgp::Ipv4Addr probe = 0x0A000000;
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (int i = 0; i < kLpmProbeBatch; ++i) {
      probe = probe * 2654435761u + 12345;
      acc += index.leaf_of(probe);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLpmProbeBatch);
  state.counters["index_bytes"] = static_cast<double>(index.bytes());
}
BENCHMARK(BM_FlatLpmLongestMatch)->Arg(10000)->Arg(416000);

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

// The trial allocation model in isolation: storage for 1000 typical
// attribute blocks per iteration, then the whole batch dropped at once.
// The arena bumps a slab pointer and reuses the same chunks across
// resets.
void BM_ArenaAlloc(benchmark::State& state) {
  sim::Arena arena;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      void* block = arena.allocate(bgp::AttrsInterner::kTypicalBlockBytes,
                                   alignof(bgp::AttrBlock));
      benchmark::DoNotOptimize(block);
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

// Wire codec hot path: Network::send sizes every message (cached
// attr-block lengths, so steady state is arithmetic).
bgp::UpdateMessage make_wire_message(std::size_t n_routes) {
  sim::Rng rng{6};
  const auto candidates = make_candidates(n_routes, rng);
  bgp::UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.full_set = true;
  m.announce.assign(candidates.begin(), candidates.end());
  return m;
}

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
// JSON reporting: console output stays the default; --json_out=PATH
// additionally writes {benchmarks: [...]}.
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

bool write_json(const std::string& path, const std::string& revision,
                const std::vector<CapturingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  abrr::bench::write_build_stamp(f, revision);
  std::fprintf(f, "  \"benchmarks\": [\n");
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
  parser.add("json_out", "write the JSON report here",
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
  // Read before anything is written: rewriting BENCH_micro.json in a
  // checkout would itself make the tree dirty.
  const std::string revision = abrr::bench::git_revision();
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !write_json(json_path, revision, reporter.rows())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
