// Metrics registry: log2-bucket histogram math at the bucket boundaries,
// quantiles, Prometheus rendering, render-time gauges, label merging,
// disabled mode (which must never zero a stats view), and registry
// concurrency (runs under TSan via the obs_ ctest regex).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "obs/metrics.hpp"
#include "runtime/batch.hpp"

using namespace msx::obs;

namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_metrics_enabled(true); }
  void TearDown() override { set_metrics_enabled(true); }
};

}  // namespace

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  Histogram h;
  h.observe_ns(0);  // bucket 0: zeros
  h.observe_ns(1);  // bucket 1: [1, 1]
  h.observe_ns(2);  // bucket 2: [2, 3]
  h.observe_ns(3);
  h.observe_ns(4);     // bucket 3: [4, 7]
  h.observe_ns(1023);  // bucket 10: [512, 1023]
  h.observe_ns(1024);  // bucket 11: [1024, 2047]
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.count(), 7u);

  // Inclusive upper bounds: 2^b - 1, saturating at the top bucket.
  EXPECT_EQ(Histogram::bucket_upper_ns(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_ns(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_ns(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_ns(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper_ns(64), ~0ull);

  // The all-ones input lands in the top bucket, not out of range.
  Histogram top;
  top.observe_ns(~0ull);
  EXPECT_EQ(top.bucket_count(64), 1u);
}

TEST_F(MetricsTest, HistogramQuantiles) {
  Histogram h;
  // 99 fast observations (~1us) and one slow (~1ms).
  for (int i = 0; i < 99; ++i) h.observe_ns(1000);
  h.observe_ns(1'000'000);
  // bit_width(1000) = 10 -> upper bound 1023ns.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1023e-9);
  // rank ceil(0.99 * 100) = 99: still the fast bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1023e-9);
  // The max lands in bucket bit_width(1e6) = 20 -> upper 2^20 - 1.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), (double)((1u << 20) - 1) * 1e-9);
  EXPECT_NEAR(h.sum_seconds(), 99 * 1000e-9 + 1e-3, 1e-12);

  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(MetricsTest, DisabledModeSkipsObservation) {
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  Histogram h;
  h.observe_ns(1000);
  h.observe_seconds(0.5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.0);
  set_metrics_enabled(true);
  h.observe_ns(1000);
  EXPECT_EQ(h.count(), 1u);
}

// MSX_METRICS=0 stops histogram observation and nothing else: counters are
// the storage behind the stats views, so the executor still counts its jobs.
TEST_F(MetricsTest, DisabledModeNeverZeroesAStatsView) {
  set_metrics_enabled(false);
  const auto a = msx::erdos_renyi<std::int32_t, double>(30, 30, 4, 17);
  msx::BatchLimits limits;
  limits.pool_threads = 2;
  msx::BatchExecutor<msx::PlusTimes<double>, std::int32_t, double> exec(
      limits);
  for (int i = 0; i < 3; ++i) exec.submit(a, a, a).get();
  exec.wait_idle();
  const auto st = exec.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 2u);
  const Histogram* job = exec.metrics().find_histogram("msx_job_seconds");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->count(), 0u);
  const std::string page = exec.metrics().render();
  EXPECT_NE(page.find("msx_executor_jobs_completed_total 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("msx_plan_cache_hits_total 2\n"), std::string::npos);
}

TEST_F(MetricsTest, GaugeFnIsEvaluatedAtRenderOutsideTheRegistryLock) {
  Registry reg;
  double depth = 2.0;
  // The callback re-enters the registry, which only works because render()
  // calls it after releasing the registry mutex.
  reg.gauge_fn("msx_depth", "", [&] {
    return depth + static_cast<double>(reg.counter("msx_seen_total")->value());
  });
  EXPECT_NE(reg.render().find("# TYPE msx_depth gauge\nmsx_depth 2\n"),
            std::string::npos);
  depth = 5.0;
  reg.counter("msx_seen_total")->inc();
  EXPECT_NE(reg.render().find("msx_depth 6\n"), std::string::npos);
  // Re-registering the same series replaces its callback.
  reg.gauge_fn("msx_depth", "", [] { return 1.5; });
  const std::string text = reg.render("shard=\"s0\"");
  EXPECT_NE(text.find("msx_depth{shard=\"s0\"} 1.5\n"), std::string::npos);
  EXPECT_EQ(text.find("msx_depth{shard=\"s0\"} 6"), std::string::npos);
}

TEST_F(MetricsTest, RegistryInternsByNameAndLabels) {
  Registry reg;
  Counter* c1 = reg.counter("msx_test_total");
  Counter* c2 = reg.counter("msx_test_total");
  EXPECT_EQ(c1, c2);  // same (name, labels) -> same handle
  Counter* c3 = reg.counter("msx_test_total", "shard=\"s1\"");
  EXPECT_NE(c1, c3);  // distinct label set -> distinct series
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  Histogram* h = reg.histogram("msx_test_seconds");
  EXPECT_EQ(reg.find_histogram("msx_test_seconds"), h);
}

TEST_F(MetricsTest, PrometheusRendering) {
  Registry reg;
  reg.counter("msx_requests_total")->inc(41);
  reg.counter("msx_requests_total")->inc();
  reg.gauge_fn("msx_pending", "", [] { return 3.5; });
  Histogram* h = reg.histogram("msx_latency_seconds");
  for (int i = 0; i < 10; ++i) h->observe_ns(1000);

  const std::string text = reg.render();
  EXPECT_NE(text.find("# TYPE msx_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("msx_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msx_pending gauge"), std::string::npos);
  EXPECT_NE(text.find("msx_pending 3.5"), std::string::npos);
  // Histograms render as summaries: three quantiles plus _sum/_count.
  EXPECT_NE(text.find("# TYPE msx_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("msx_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("msx_latency_seconds{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("msx_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("msx_latency_seconds_count 10"), std::string::npos);
  EXPECT_NE(text.find("msx_latency_seconds_sum"), std::string::npos);

  // extra_labels merges into every sample — the shard name stamp.
  const std::string labeled = reg.render("shard=\"s0\"");
  EXPECT_NE(labeled.find("msx_requests_total{shard=\"s0\"} 42"),
            std::string::npos);
  EXPECT_NE(labeled.find("{shard=\"s0\",quantile=\"0.5\"}"),
            std::string::npos);
}

TEST_F(MetricsTest, ConcurrentObservationIsRaceFree) {
  Registry reg;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Interleave lookups, observations, callback rebinds and renders:
      // interning and rebinding are under the registry mutex, instruments
      // are atomics, and render copies callbacks before calling them.
      Counter* c = reg.counter("msx_conc_total");
      Histogram* h = reg.histogram("msx_conc_seconds");
      for (int i = 0; i < kOps; ++i) {
        c->inc();
        h->observe_ns(static_cast<std::uint64_t>(i * (t + 1)));
        if ((i & 1023) == 0) {
          reg.gauge_fn("msx_conc_gauge", "",
                       [i] { return static_cast<double>(i); });
          EXPECT_FALSE(reg.render().empty());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("msx_conc_total")->value(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(reg.histogram("msx_conc_seconds")->count(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  // Render while nothing is mutating: just exercises the snapshot path.
  EXPECT_FALSE(reg.render().empty());
}

TEST_F(MetricsTest, GlobalRegistryIsOneInstance) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}
