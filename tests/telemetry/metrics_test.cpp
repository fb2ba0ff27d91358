#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace itdos::telemetry {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.percentile(50.0), 0u);
  EXPECT_EQ(hist.percentile(99.0), 0u);
}

TEST(HistogramTest, ValuesBelowSixteenAreExact) {
  // The first kSubBuckets buckets hold one integer each, so small samples
  // round-trip exactly through the percentile walk.
  Histogram hist;
  for (int v = 0; v < Histogram::kSubBuckets; ++v) hist.record(v);
  EXPECT_EQ(hist.count(), 16u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 15u);
  // rank(p) = ceil(p/100 * 16): p=50 -> 8th smallest = 7.
  EXPECT_EQ(hist.percentile(50.0), 7u);
  EXPECT_EQ(hist.percentile(100.0), 15u);
  EXPECT_EQ(hist.percentile(0.0), 0u);  // clamps to rank 1 = smallest
}

TEST(HistogramTest, SingleSamplePercentilesAreExact) {
  // One sample: every percentile is clamped to the observed max, so even a
  // value deep in a wide bucket reports exactly.
  for (const std::int64_t v : {16LL, 17LL, 31LL, 32LL, 1023LL, 1024LL,
                               123456789LL, (1LL << 40) + 7}) {
    Histogram hist;
    hist.record(v);
    EXPECT_EQ(hist.percentile(50.0), static_cast<std::uint64_t>(v)) << v;
    EXPECT_EQ(hist.percentile(99.0), static_cast<std::uint64_t>(v)) << v;
    EXPECT_EQ(hist.min(), static_cast<std::uint64_t>(v)) << v;
    EXPECT_EQ(hist.max(), static_cast<std::uint64_t>(v)) << v;
  }
}

TEST(HistogramTest, BucketBoundaryAtSixteen) {
  // 15 is the last exact bucket; 16 begins the log-linear range. They must
  // land in distinct buckets (percentiles can tell them apart).
  Histogram hist;
  hist.record(15);
  hist.record(16);
  EXPECT_EQ(hist.percentile(50.0), 15u);   // rank 1 of 2
  EXPECT_EQ(hist.percentile(100.0), 16u);  // rank 2, clamped to max
}

TEST(HistogramTest, AdjacentLogBucketsStaySorted) {
  // 32 and 33 share a power-of-2 magnitude but different sub-buckets at
  // granularity 2: [32,33] is one bucket. 32 and 34 must be distinguishable.
  Histogram hist;
  hist.record(32);
  hist.record(34);
  const std::uint64_t p50 = hist.percentile(50.0);
  EXPECT_GE(p50, 32u);
  EXPECT_LE(p50, 33u);  // upper edge of the [32,33] bucket
  EXPECT_EQ(hist.percentile(100.0), 34u);
}

TEST(HistogramTest, RelativeErrorBoundedBySubBucketGranularity) {
  // Log-linear with 16 sub-buckets per magnitude => any percentile's
  // reported value is within 1/16 above the true sample.
  Histogram hist;
  for (std::int64_t v = 1; v <= 100000; v += 37) hist.record(v);
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const std::uint64_t reported = hist.percentile(p);
    // True rank-statistic for this arithmetic sequence (rank = ceil(p%*n),
    // matching the implementation's convention).
    const std::uint64_t n = hist.count();
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    const std::uint64_t truth = 1 + (rank - 1) * 37;
    EXPECT_GE(reported, truth) << "p" << p;
    EXPECT_LE(reported, truth + truth / 16 + 1) << "p" << p;
  }
}

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram hist;
  hist.record(-5);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.percentile(50.0), 0u);
}

TEST(HistogramTest, PercentileNeverExceedsMax) {
  Histogram hist;
  hist.record(1000);
  hist.record(1000000);
  EXPECT_LE(hist.percentile(99.9), 1000000u);
  EXPECT_EQ(hist.percentile(100.0), 1000000u);
}

TEST(HistogramTest, MergeCombinesCountsAndBounds) {
  Histogram a;
  Histogram b;
  a.record(10);
  a.record(100);
  b.record(5);
  b.record(100000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 100000u);
  EXPECT_EQ(a.percentile(100.0), 100000u);
  // Merging an empty histogram changes nothing.
  Histogram empty;
  a.merge_from(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram hist;
  hist.record(42);
  hist.record(77777);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.percentile(99.0), 0u);
  hist.record(3);  // still usable after reset
  EXPECT_EQ(hist.percentile(50.0), 3u);
}

TEST(CounterTest, ResetSemantics) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(GaugeTest, PeakTracksHighWaterMarkUntilReset) {
  Gauge g;
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 10);
  g.add(4);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.peak(), 10);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  g.set(2);
  EXPECT_EQ(g.peak(), 2);
}

TEST(GaugeTest, NoClockMeansNoSeries) {
  Gauge g;
  g.set(1);
  g.add(2);
  EXPECT_TRUE(g.series().empty());
}

TEST(GaugeSeriesTest, ClockedGaugeRecordsTimeValuePairs) {
  MetricsRegistry reg;
  std::int64_t now = 0;
  reg.set_clock([&now] { return now; });
  Gauge& g = reg.gauge("depth");
  now = 10;
  g.set(3);
  now = 20;
  g.add(-1);
  ASSERT_EQ(g.series().size(), 2u);
  EXPECT_EQ(g.series()[0].t_ns, 10);
  EXPECT_EQ(g.series()[0].v, 3);
  EXPECT_EQ(g.series()[1].t_ns, 20);
  EXPECT_EQ(g.series()[1].v, 2);
}

TEST(GaugeSeriesTest, SetClockAppliesToExistingGauges) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("made.before.clock");
  g.set(1);
  EXPECT_TRUE(g.series().empty());
  reg.set_clock([] { return std::int64_t{7}; });
  g.set(2);
  ASSERT_EQ(g.series().size(), 1u);
  EXPECT_EQ(g.series()[0].t_ns, 7);
}

TEST(GaugeSeriesTest, SameInstantUpdatesCoalesce) {
  MetricsRegistry reg;
  reg.set_clock([] { return std::int64_t{5}; });
  Gauge& g = reg.gauge("g");
  g.set(1);
  g.set(2);
  g.set(3);
  ASSERT_EQ(g.series().size(), 1u);
  EXPECT_EQ(g.series()[0].v, 3);
}

TEST(GaugeSeriesTest, DecimationBoundsMemoryAndKeepsCoverage) {
  MetricsRegistry reg;
  std::int64_t now = 0;
  reg.set_clock([&now] { return now; });
  Gauge& g = reg.gauge("g");
  for (std::int64_t i = 0; i < 100000; ++i) {
    now = i + 1;  // strictly increasing: no coalescing
    g.set(i);
  }
  const auto& s = g.series();
  ASSERT_FALSE(s.empty());
  EXPECT_LT(s.size(), Gauge::kMaxSeriesSamples);
  EXPECT_EQ(s.front().t_ns, 1);  // the first change always survives decimation
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LT(s[i - 1].t_ns, s[i].t_ns);  // still chronological
  }
  // Decimated tail still reaches deep into the run.
  EXPECT_GT(s.back().t_ns, 50000);
}

TEST(GaugeSeriesTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    MetricsRegistry reg;
    std::int64_t now = 0;
    reg.set_clock([&now] { return now; });
    Gauge& g = reg.gauge("g");
    for (std::int64_t i = 0; i < 5000; ++i) {
      now = i * 3;
      g.set(i % 17);
    }
    return reg.gauge("g").series();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ns, b[i].t_ns);
    EXPECT_EQ(a[i].v, b[i].v);
  }
}

TEST(GaugeSeriesTest, ResetClearsSeries) {
  MetricsRegistry reg;
  reg.set_clock([] { return std::int64_t{1}; });
  Gauge& g = reg.gauge("g");
  g.set(5);
  EXPECT_FALSE(g.series().empty());
  reg.reset();
  EXPECT_TRUE(g.series().empty());
  g.set(6);  // still clocked after reset
  ASSERT_EQ(g.series().size(), 1u);
  EXPECT_EQ(g.series()[0].v, 6);
}

TEST(GaugeSeriesTest, MergeConcatenatesHistories) {
  MetricsRegistry src;
  std::int64_t now = 0;
  src.set_clock([&now] { return now; });
  now = 4;
  src.gauge("g").set(2);

  MetricsRegistry dst;  // unclocked, like the bench report aggregate
  dst.merge_from(src);
  ASSERT_EQ(dst.gauge("g").series().size(), 1u);
  EXPECT_EQ(dst.gauge("g").series()[0].t_ns, 4);
  EXPECT_EQ(dst.gauge("g").series()[0].v, 2);
  // A second harvest appends.
  dst.merge_from(src);
  EXPECT_EQ(dst.gauge("g").series().size(), 2u);
  EXPECT_EQ(dst.gauge("g").value(), 4);  // values still fold additively
}

TEST(MetricsRegistryTest, InstrumentsHaveStableAddresses) {
  MetricsRegistry reg;
  Counter* c = &reg.counter("a.ctr");
  Histogram* h = &reg.histogram("a.hist");
  // Force rebalancing with many more registrations.
  for (int i = 0; i < 100; ++i) {
    reg.counter("fill." + std::to_string(i));
    reg.histogram("fill.h." + std::to_string(i));
  }
  EXPECT_EQ(c, &reg.counter("a.ctr"));
  EXPECT_EQ(h, &reg.histogram("a.hist"));
}

TEST(MetricsRegistryTest, FindCounterDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("never.touched"), nullptr);
  EXPECT_TRUE(reg.counters().empty());
  reg.counter("touched");
  ASSERT_NE(reg.find_counter("touched"), nullptr);
  EXPECT_EQ(reg.find_counter("touched")->value(), 0u);  // registered, never counted
  EXPECT_EQ(reg.find_histogram("never.touched"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = &reg.counter("x");
  reg.counter("x").inc(5);
  reg.gauge("g").set(9);
  reg.histogram("h").record(123);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.gauge("g").peak(), 0);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(c, &reg.counter("x"));  // addresses survive reset
}

TEST(MetricsRegistryTest, MergeFoldsAllInstrumentKinds) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  b.counter("only_b").inc(7);
  b.gauge("g").set(4);
  b.histogram("h").record(50);
  a.merge_from(b);
  ASSERT_NE(a.find_counter("c"), nullptr);
  EXPECT_EQ(a.find_counter("c")->value(), 5u);
  ASSERT_NE(a.find_counter("only_b"), nullptr);
  EXPECT_EQ(a.find_counter("only_b")->value(), 7u);
  EXPECT_EQ(a.gauge("g").value(), 4);
  ASSERT_NE(a.find_histogram("h"), nullptr);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

}  // namespace
}  // namespace itdos::telemetry
