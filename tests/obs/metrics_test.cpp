// Unit tests for the metrics registry: handle identity, histogram
// bucket semantics at the boundaries, empty-histogram quantiles,
// label-filtered sums with baselines, and registry isolation.
#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace abrr::obs {
namespace {

TEST(Labels, RenderSortsKeys) {
  Labels a{{"speaker", "7"}, {"role", "rr"}};
  Labels b{{"role", "rr"}, {"speaker", "7"}};
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a, b);
}

TEST(Labels, ContainsIsSubsetMatch) {
  Labels cell{{"speaker", "7"}, {"role", "rr"}};
  EXPECT_TRUE(cell.contains(Labels{}));
  EXPECT_TRUE(cell.contains(Labels{{"role", "rr"}}));
  EXPECT_FALSE(cell.contains(Labels{{"role", "client"}}));
  EXPECT_FALSE(cell.contains(Labels{{"ap", "3"}}));
}

TEST(MetricsRegistry, RegistrationIsLookup) {
  MetricsRegistry r;
  Counter* a = r.counter("x", Labels{{"speaker", "1"}});
  Counter* b = r.counter("x", Labels{{"speaker", "1"}});
  Counter* c = r.counter("x", Labels{{"speaker", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(r.counter_count(), 2u);
}

TEST(MetricsRegistry, CollidingNamesAcrossRegistriesStayIsolated) {
  MetricsRegistry r1;
  MetricsRegistry r2;
  Counter* c1 = r1.counter("speaker.updates_received");
  Counter* c2 = r2.counter("speaker.updates_received");
  ASSERT_NE(c1, c2);
  c1->inc(10);
  c2->inc(1);
  EXPECT_EQ(c1->value(), 10u);
  EXPECT_EQ(c2->value(), 1u);
  EXPECT_EQ(r1.sum_counters("speaker.updates_received"), 10u);
  EXPECT_EQ(r2.sum_counters("speaker.updates_received"), 1u);
}

TEST(MetricsRegistry, HandlesStaySableAcrossManyRegistrations) {
  // Deque-backed cells must not move when later registrations grow the
  // storage (a vector would invalidate the earlier handles).
  MetricsRegistry r;
  Counter* first = r.counter("c0");
  first->inc();
  for (int i = 1; i < 1000; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    r.counter(name)->inc(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(first->value(), 1u);
  EXPECT_EQ(r.counter("c0"), first);
  EXPECT_EQ(r.counter("c999")->value(), 999u);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  MetricsRegistry r;
  Histogram* h = r.histogram("h", {10.0, 20.0});
  h->record(10);  // exactly on the first bound -> first bucket
  h->record(10.5);
  h->record(20);  // exactly on the second bound -> second bucket
  h->record(21);  // above the last bound -> overflow
  ASSERT_EQ(h->buckets().size(), 3u);
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[1], 2u);
  EXPECT_EQ(h->buckets()[2], 1u);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->min(), 10.0);
  EXPECT_DOUBLE_EQ(h->max(), 21.0);
}

TEST(Histogram, EmptyReportsZeroEverywhere) {
  MetricsRegistry r;
  Histogram* h = r.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 0.0);
}

TEST(Histogram, QuantileNeverExceedsObservedMax) {
  MetricsRegistry r;
  Histogram* h = r.histogram("h", size_buckets());
  for (int i = 0; i < 100; ++i) h->record(822);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 822.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 822.0);
}

TEST(Histogram, QuantilePicksCorrectBucket) {
  MetricsRegistry r;
  Histogram* h = r.histogram("h", {10.0, 20.0, 30.0});
  for (int i = 0; i < 90; ++i) h->record(5);
  for (int i = 0; i < 10; ++i) h->record(25);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.95), 25.0);  // clamped to max
}

TEST(MetricsRegistry, SumCountersFiltersAndBaselines) {
  MetricsRegistry r;
  Counter* rr1 = r.counter("tx", Labels{{"speaker", "1"}, {"role", "rr"}});
  Counter* rr2 = r.counter("tx", Labels{{"speaker", "2"}, {"role", "rr"}});
  Counter* cl = r.counter("tx", Labels{{"speaker", "3"}, {"role", "client"}});
  rr1->inc(5);
  rr2->inc(7);
  cl->inc(100);
  EXPECT_EQ(r.sum_counters("tx"), 112u);
  EXPECT_EQ(r.sum_counters("tx", Labels{{"role", "rr"}}), 12u);
  EXPECT_EQ(r.sum_counters("tx", Labels{{"role", "client"}}), 100u);
  EXPECT_EQ(r.sum_counters("nope"), 0u);

  const CounterSnapshot base = r.counter_snapshot();
  rr1->inc(3);
  EXPECT_EQ(r.sum_counters("tx", Labels{{"role", "rr"}}, &base), 3u);
  EXPECT_EQ(r.sum_counters("tx", Labels{{"role", "client"}}, &base), 0u);
}

TEST(MetricsRegistry, BaselineTreatsLaterCellsAsZero) {
  MetricsRegistry r;
  r.counter("a")->inc(4);
  const CounterSnapshot base = r.counter_snapshot();
  Counter* later = r.counter("b");  // registered after the snapshot
  later->inc(6);
  EXPECT_EQ(r.sum_counters("b", Labels{}, &base), 6u);
  EXPECT_EQ(r.sum_counters("a", Labels{}, &base), 0u);
}

TEST(MetricsRegistry, JsonDumpContainsQuantilesAndGauges) {
  MetricsRegistry r;
  r.counter("c", Labels{{"k", "v"}})->inc(2);
  r.gauge("g")->set(3.5);
  Histogram* h = r.histogram("h", {1.0, 2.0});
  h->record(1);
  h->record(2);
  const std::string js = r.to_json();
  EXPECT_NE(js.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(js.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(js.find("\"p50\":"), std::string::npos);
  EXPECT_NE(js.find("\"p99\":"), std::string::npos);
  EXPECT_NE(js.find("\"gauges\""), std::string::npos);
}

TEST(MetricsRegistry, AggregateMergesSeriesSharingAName) {
  MetricsRegistry r;
  r.counter("tx", Labels{{"speaker", "1"}})->inc(5);
  r.counter("tx", Labels{{"speaker", "2"}})->inc(7);
  const std::string js = r.to_json(/*aggregate=*/true);
  EXPECT_NE(js.find("\"value\":12"), std::string::npos);
  // The aggregate form collapses the label sets.
  EXPECT_EQ(js.find("\"speaker\":\"1\""), std::string::npos);
}

TEST(MetricsRegistry, NameCountSpansKinds) {
  MetricsRegistry r;
  r.counter("a", Labels{{"s", "1"}});
  r.counter("a", Labels{{"s", "2"}});
  r.gauge("b");
  r.histogram("c", {1.0});
  EXPECT_EQ(r.name_count(), 3u);
}

}  // namespace
}  // namespace abrr::obs
