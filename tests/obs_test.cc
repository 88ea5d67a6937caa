// Observability subsystem: metrics primitives, exporters, trace rings,
// and the serve-facing guarantees (ServeStats compatibility, tracing
// that never perturbs responses).

#include "obs/metrics.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/mf.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "serve/stats.h"

namespace lkpdpp {
namespace {

// ---------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, SingleThreadIncrements) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<long>(kThreads) * kPerThread);
}

TEST(GaugeTest, ConcurrentAddsLoseNothing) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.Value(), static_cast<double>(kThreads) * kPerThread);
  g.Set(-3.5);
  EXPECT_DOUBLE_EQ(g.Value(), -3.5);
}

// ---------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketBoundaryEdges) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // Prometheus `le` semantics: v lands in the first bucket with
  // v <= bound. Exact boundary values stay in their bound's bucket.
  h.Observe(-3.0);  // Below everything -> first bucket.
  h.Observe(1.0);   // Exactly le=1 -> first bucket.
  h.Observe(1.0000001);
  h.Observe(2.0);
  h.Observe(5.0);
  h.Observe(5.0000001);  // Over the last bound -> +Inf bucket.
  const std::vector<long> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.Count(), 6);
  EXPECT_NEAR(h.Sum(), -3.0 + 1.0 + 1.0000001 + 2.0 + 5.0 + 5.0000001,
              1e-9);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  for (long c : h.BucketCounts()) EXPECT_EQ(c, 0);
}

TEST(HistogramTest, ConcurrentObservationsLoseNothing) {
  obs::Histogram h({10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(t % 2 == 0 ? 5.0 : 50.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<long>(kThreads) * kPerThread);
  const std::vector<long> counts = h.BucketCounts();
  EXPECT_EQ(counts[0], 4L * kPerThread);
  EXPECT_EQ(counts[1], 4L * kPerThread);
  EXPECT_EQ(counts[2], 0);
}

// ---------------------------------------------------------------------
// Registry + exporters (local registries: nothing else writes into them)

TEST(MetricsRegistryTest, HandlesAreStableAndDeduplicated) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("lkp_x_total");
  obs::Counter* b = registry.GetCounter("lkp_x_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.NumMetrics(), 1);
  registry.GetGauge("lkp_depth");
  registry.GetHistogram("lkp_h_ms", {1.0});
  EXPECT_EQ(registry.NumMetrics(), 3);
  a->Inc(7);
  registry.ResetAll();
  EXPECT_EQ(a->Value(), 0);
  EXPECT_EQ(registry.NumMetrics(), 3);  // Registrations survive reset.
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("lkp_req_total")->Inc(3);
  registry.GetCounter("lkp_err_total{site=\"serve\"}")->Inc();
  registry.GetCounter("lkp_err_total{site=\"train\"}")->Inc(2);
  registry.GetGauge("lkp_depth")->Set(4.5);
  obs::Histogram* h = registry.GetHistogram("lkp_lat_ms", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);
  const std::string expected =
      "# TYPE lkp_err_total counter\n"
      "lkp_err_total{site=\"serve\"} 1\n"
      "lkp_err_total{site=\"train\"} 2\n"
      "# TYPE lkp_req_total counter\n"
      "lkp_req_total 3\n"
      "# TYPE lkp_depth gauge\n"
      "lkp_depth 4.5\n"
      "# TYPE lkp_lat_ms histogram\n"
      "lkp_lat_ms_bucket{le=\"1\"} 1\n"
      "lkp_lat_ms_bucket{le=\"2\"} 2\n"
      "lkp_lat_ms_bucket{le=\"+Inf\"} 3\n"
      "lkp_lat_ms_sum 11\n"
      "lkp_lat_ms_count 3\n";
  EXPECT_EQ(registry.DumpPrometheusText(), expected);
}

TEST(MetricsRegistryTest, PrometheusLabeledHistogramKeepsLabelsOnSuffixes) {
  obs::MetricsRegistry registry;
  obs::Histogram* h =
      registry.GetHistogram("lkp_build_ms{path=\"primal\"}", {1.0});
  h->Observe(0.5);
  h->Observe(3.0);
  registry.GetHistogram("lkp_build_ms{path=\"dual\"}", {1.0});
  const std::string expected =
      "# TYPE lkp_build_ms histogram\n"
      "lkp_build_ms_bucket{path=\"dual\",le=\"1\"} 0\n"
      "lkp_build_ms_bucket{path=\"dual\",le=\"+Inf\"} 0\n"
      "lkp_build_ms_sum{path=\"dual\"} 0\n"
      "lkp_build_ms_count{path=\"dual\"} 0\n"
      "lkp_build_ms_bucket{path=\"primal\",le=\"1\"} 1\n"
      "lkp_build_ms_bucket{path=\"primal\",le=\"+Inf\"} 2\n"
      "lkp_build_ms_sum{path=\"primal\"} 3.5\n"
      "lkp_build_ms_count{path=\"primal\"} 2\n";
  EXPECT_EQ(registry.DumpPrometheusText(), expected);
}

TEST(MetricsRegistryTest, JsonGolden) {
  obs::MetricsRegistry registry;
  registry.GetCounter("lkp_a_total")->Inc(2);
  registry.GetGauge("lkp_g")->Set(1.5);
  obs::Histogram* h = registry.GetHistogram("lkp_h", {1.0});
  h->Observe(0.5);
  h->Observe(3.0);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"lkp_a_total\": 2\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"lkp_g\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"lkp_h\": {\"bounds\": [1], \"counts\": [1, 1], "
      "\"sum\": 3.5, \"count\": 2}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.DumpJson(), expected);
}

TEST(MetricsRegistryTest, GlobalRegistryCarriesInstrumentedFamilies) {
  // The production call sites register lazily; poke one representative
  // path (a standalone counter does not, so use the cache-build family
  // names directly) and check Global() dumps them.
  obs::MetricsRegistry::Global().GetCounter("lkp_serve_cache_hits_total");
  const std::string text =
      obs::MetricsRegistry::Global().DumpPrometheusText();
  EXPECT_NE(text.find("lkp_serve_cache_hits_total"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracing

TEST(TraceTest, DisabledTracingWritesNothing) {
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  const long before = obs::TotalRecordedEvents();
  for (int i = 0; i < 100; ++i) {
    LKP_TRACE_SPAN("test.disabled");
  }
  EXPECT_EQ(obs::TotalRecordedEvents(), before);
  EXPECT_EQ(before, 0);
}

TEST(TraceTest, EnabledSpansLandInDump) {
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  {
    LKP_TRACE_SPAN("test.outer");
    LKP_TRACE_SPAN("test.inner");
  }
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::TotalRecordedEvents(), 2);
  const std::string json = obs::DumpChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  obs::ClearTrace();
}

TEST(TraceTest, RingOverwritesOldestAndCountsDrops) {
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  const long dropped_before = obs::DroppedEvents();
  // A fresh thread picks up the test capacity; existing rings keep
  // their size, so run everything on the new thread.
  obs::internal::SetRingCapacityForTest(4);
  std::thread t([] {
    for (int i = 0; i < 10; ++i) {
      obs::RecordSpan("test.ring", static_cast<double>(i), 1.0);
    }
  });
  t.join();
  obs::internal::SetRingCapacityForTest(1u << 15);
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::DroppedEvents() - dropped_before, 6);
  // The dump holds only the newest 4, oldest-first.
  const std::string json = obs::DumpChromeTraceJson();
  EXPECT_EQ(json.find("\"ts\": 5.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 6.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 9.000"), std::string::npos);
  obs::ClearTrace();
}

// ---------------------------------------------------------------------
// ServeStats / ServeRecorder compatibility (pinned: the obs migration
// must not change Snapshot() or ToString() output)

TEST(ServeStatsTest, RecorderSnapshotFieldsPinned) {
  ServeRecorder recorder(/*window_capacity=*/64, /*stripes=*/1);
  const double latencies[] = {1.0, 2.0, 3.0};
  recorder.RecordBatch(3, 0.5, latencies, 3);
  ServeStats stats;
  recorder.Snapshot(&stats);
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 3.0);
  EXPECT_DOUBLE_EQ(stats.busy_seconds, 0.5);
  EXPECT_DOUBLE_EQ(stats.latency_p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(stats.latency_p95_ms, 3.0);
  EXPECT_DOUBLE_EQ(stats.latency_p99_ms, 3.0);
  EXPECT_DOUBLE_EQ(stats.latency_max_ms, 3.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  recorder.Reset();
  ServeStats zero;
  recorder.Snapshot(&zero);
  EXPECT_EQ(zero.requests, 0);
  EXPECT_EQ(zero.batches, 0);
  EXPECT_DOUBLE_EQ(zero.busy_seconds, 0.0);
}

TEST(ServeStatsTest, ToStringPinned) {
  ServeStats stats;
  stats.requests = 100;
  stats.batches = 10;
  stats.cache_hits = 30;
  stats.cache_misses = 10;
  stats.mean_batch_occupancy = 10.0;
  stats.latency_p50_ms = 1.5;
  stats.latency_p95_ms = 4.25;
  stats.latency_p99_ms = 6.125;
  stats.latency_max_ms = 9.5;
  stats.wall_seconds = 2.0;
  stats.busy_seconds = 1.0;
  stats.throughput_rps = 50.0;
  EXPECT_EQ(stats.ToString(),
            "requests=100 batches=10 occupancy=10.0 hit_rate=0.750 "
            "p50=1.500ms p95=4.250ms p99=6.125ms max=9.500ms rps=50.0 "
            "busy/wall=0.50");
}

// ---------------------------------------------------------------------
// Tracing never perturbs serving (bit-identical responses on vs off)

ServeConfig SampleConfig() {
  ServeConfig config;
  config.mode = ServeMode::kSample;
  config.top_k = 4;
  config.pool_size = 16;
  config.cache_capacity = 64;
  config.seed = 777;
  return config;
}

std::vector<std::vector<int>> ServeSequence(const Dataset& dataset,
                                            MfModel* model,
                                            const DiversityKernel& diversity) {
  auto service = RecommendationService::Create(&dataset, model, &diversity,
                                               /*pool=*/nullptr,
                                               SampleConfig());
  service.status().CheckOK();
  std::vector<std::vector<int>> items;
  for (int round = 0; round < 3; ++round) {
    std::vector<RecRequest> batch;
    for (int u = 0; u < 10; ++u) {
      batch.push_back(RecRequest{(round * 7 + u) % dataset.num_users()});
    }
    auto responses = (*service)->HandleBatch(batch);
    responses.status().CheckOK();
    for (const RecResponse& r : *responses) items.push_back(r.items);
  }
  return items;
}

TEST(TraceTest, ServingIsBitIdenticalWithTracingOnAndOff) {
  SyntheticConfig cfg;
  cfg.name = "obs-world";
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_categories = 8;
  cfg.num_events = 3000;
  cfg.min_interactions = 6;
  cfg.seed = 21;
  auto ds = GenerateSyntheticDataset(cfg);
  ds.status().CheckOK();
  Dataset dataset = std::move(ds).ValueOrDie();
  DiversityKernel diversity =
      DiversityKernel::Random(dataset.num_items(), 6, /*seed=*/3);
  MfModel::Config mcfg;
  mcfg.embedding_dim = 6;
  mcfg.seed = 5;
  MfModel model(dataset.num_users(), dataset.num_items(), mcfg);

  obs::SetTraceEnabled(false);
  const std::vector<std::vector<int>> off =
      ServeSequence(dataset, &model, diversity);

  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  const std::vector<std::vector<int>> on =
      ServeSequence(dataset, &model, diversity);
  const long traced = obs::TotalRecordedEvents();
  obs::SetTraceEnabled(false);
  obs::ClearTrace();

  EXPECT_GT(traced, 0);  // Tracing actually recorded the serve path.
  EXPECT_EQ(off, on);    // ...without changing a single response.
}

}  // namespace
}  // namespace lkpdpp
