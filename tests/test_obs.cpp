// Tests for the observability module: metrics registry, latency histograms,
// JSON / Prometheus export, and the cluster snapshot's per-stage latency.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace bluedove {
namespace {

TEST(Counter, IncrementsAndReads) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddRecordMax) {
  obs::Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.5);
  g.record_max(4.0);  // below current value: no change
  EXPECT_DOUBLE_EQ(g.value(), 5.5);
  g.record_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(LatencyHistogram, BucketIndexMonotone) {
  std::size_t prev = 0;
  const std::vector<std::uint64_t> values = {
      0, 1, 2, 31, 32, 33, 1000, 1ull << 20, 1ull << 40, ~0ull};
  for (std::uint64_t u : values) {
    const std::size_t idx = obs::LatencyHistogram::bucket_index(u);
    ASSERT_LT(idx, obs::LatencyHistogram::kBuckets);
    EXPECT_GE(idx, prev);
    prev = idx;
    // The bucket must actually contain the value.
    EXPECT_LE(obs::LatencyHistogram::bucket_lo(idx),
              static_cast<double>(u));
    // >= not >: (double)~0ull rounds up to 2^64, the top bucket's bound.
    EXPECT_GE(obs::LatencyHistogram::bucket_hi(idx),
              static_cast<double>(u));
  }
}

TEST(LatencyHistogram, QuantileWithinRelativeError) {
  obs::LatencyHistogram h;
  // 1..10000 microseconds, uniformly: p50 ~ 5 ms, p99 ~ 9.9 ms.
  for (int i = 1; i <= 10000; ++i) h.record(i * 1e-6);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  EXPECT_NEAR(snap.quantile(0.50), 5.0e-3, 5.0e-3 * 0.05);
  EXPECT_NEAR(snap.quantile(0.99), 9.9e-3, 9.9e-3 * 0.05);
  EXPECT_NEAR(snap.mean(), 5.0005e-3, 5.0e-3 * 0.05);
  EXPECT_LE(snap.quantile(0.0), snap.quantile(0.5));
  EXPECT_LE(snap.quantile(0.5), snap.quantile(1.0));
}

TEST(LatencyHistogram, SnapshotMergeMatchesCombinedRecording) {
  obs::LatencyHistogram a, b, both;
  for (int i = 1; i <= 500; ++i) {
    a.record(i * 1e-6);
    both.record(i * 1e-6);
  }
  for (int i = 500; i <= 1000; ++i) {
    b.record(i * 1e-5);
    both.record(i * 1e-5);
  }
  obs::HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged, both.snapshot());
}

TEST(LatencyHistogram, WeightedRecordEqualsRepeatedRecords) {
  // record(s, n) is n record(s) calls in one update of each counter.
  obs::LatencyHistogram weighted, repeated;
  for (int i = 1; i <= 50; ++i) {
    const auto n = static_cast<std::uint64_t>(i % 7);
    weighted.record(i * 3e-6, n);
    for (std::uint64_t k = 0; k < n; ++k) repeated.record(i * 3e-6);
  }
  EXPECT_EQ(weighted.snapshot(), repeated.snapshot());
  EXPECT_EQ(weighted.count(), repeated.count());
}

TEST(Registry, SnapshotIsDeterministicAndOrdered) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("z.depth").set(7.0);
  reg.histogram("m.lat").record(1e-3);

  const obs::MetricsSnapshot s1 = reg.snapshot();
  const obs::MetricsSnapshot s2 = reg.snapshot();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.counters.begin()->first, "a.count");  // ordered map
  EXPECT_EQ(s1.counters.at("b.count"), 2u);
  EXPECT_DOUBLE_EQ(s1.gauges.at("z.depth"), 7.0);
  EXPECT_EQ(s1.histograms.at("m.lat").count, 1u);
}

TEST(Registry, InstrumentPointersAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter* c = &reg.counter("x");
  for (int i = 0; i < 100; ++i) reg.counter("spam" + std::to_string(i));
  EXPECT_EQ(c, &reg.counter("x"));  // same instrument after more registration
}

TEST(Registry, MergeSumsAcrossNodes) {
  obs::MetricsRegistry node1, node2;
  node1.counter("matcher.requests").inc(10);
  node2.counter("matcher.requests").inc(32);
  node1.gauge("matcher.dim0.queue_depth").set(3.0);
  node2.gauge("matcher.dim0.queue_depth").set(4.0);
  node1.histogram("matcher.match_seconds").record(1e-3);
  node2.histogram("matcher.match_seconds").record(2e-3);
  node2.counter("matcher.only_here").inc(1);

  obs::MetricsSnapshot merged = node1.snapshot();
  merged.merge(node2.snapshot());
  EXPECT_EQ(merged.counters.at("matcher.requests"), 42u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("matcher.dim0.queue_depth"), 7.0);
  EXPECT_EQ(merged.histograms.at("matcher.match_seconds").count, 2u);
  EXPECT_EQ(merged.counters.at("matcher.only_here"), 1u);
}

TEST(Export, JsonRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").inc(7);
  reg.counter("b.count");  // zero-valued
  reg.gauge("c.depth").set(-2.5);
  reg.gauge("d.rate").set(123456.789);
  for (int i = 1; i <= 100; ++i) reg.histogram("e.lat").record(i * 1e-4);
  const obs::MetricsSnapshot snap = reg.snapshot();

  obs::MetricsSnapshot back;
  ASSERT_TRUE(obs::from_json(obs::to_json(snap), back));
  EXPECT_EQ(back, snap);
}

TEST(Export, EmptySnapshotRoundTrips) {
  obs::MetricsSnapshot empty, back;
  ASSERT_TRUE(obs::from_json(obs::to_json(empty), back));
  EXPECT_EQ(back, empty);
}

TEST(Export, FromJsonRejectsMalformed) {
  obs::MetricsSnapshot out;
  EXPECT_FALSE(obs::from_json("", out));
  EXPECT_FALSE(obs::from_json("{", out));
  EXPECT_FALSE(obs::from_json("[1,2,3]", out));
  EXPECT_FALSE(obs::from_json("{\"counters\":{\"x\":}}", out));
}

TEST(Export, JsonFileWriterRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("w.count").inc(5);
  reg.histogram("w.lat").record(2e-3);
  const obs::MetricsSnapshot snap = reg.snapshot();

  const std::string path =
      testing::TempDir() + "/bluedove_obs_roundtrip.json";
  ASSERT_TRUE(obs::write_json_file(path, snap));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  obs::MetricsSnapshot back;
  ASSERT_TRUE(obs::from_json(body, back));
  EXPECT_EQ(back, snap);
}

TEST(Export, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("matcher.requests").inc(3);
  reg.gauge("matcher.dim0.queue_depth").set(2.0);
  reg.histogram("sink.response_seconds").record(1e-3);
  const std::string text = obs::to_prometheus(reg.snapshot());

  EXPECT_NE(text.find("matcher_requests 3"), std::string::npos);
  EXPECT_NE(text.find("matcher_dim0_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("sink_response_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(text.find("matcher.requests"), std::string::npos);  // dots mapped
}

TEST(Registry, ConcurrentUpdatesLoseNothing) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hot.count");
  obs::LatencyHistogram& h = reg.histogram("hot.lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record((t * kPerThread + i + 1) * 1e-9);
      }
    });
  }
  for (auto& th : threads) th.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hot.count"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms.at("hot.lat").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --- end-to-end pipeline tracing on the simulator ---------------------------

ExperimentConfig traced_config() {
  ExperimentConfig cfg;
  cfg.dims = 2;
  cfg.subscriptions = 400;
  cfg.matchers = 4;
  cfg.dispatchers = 1;
  cfg.cores = 2;
  cfg.index_kind = IndexKind::kFlatBucket;
  cfg.full_matching = true;  // real matches and deliveries
  cfg.trace_sample_rate = 1.0;
  cfg.seed = 7;
  return cfg;
}

TEST(Trace, SnapshotStagesCoverPipeline) {
  Deployment dep(traced_config());
  dep.start();
  dep.set_rate(400.0);
  dep.run_for(10.0);
  dep.set_rate(0.0);
  dep.run_for(5.0);  // drain in-flight traffic

  const obs::MetricsSnapshot snap = dep.cluster_snapshot();
  const obs::HistogramSnapshot& response =
      snap.histograms.at("sink.response_seconds");
  const obs::HistogramSnapshot& queue =
      snap.histograms.at("matcher.queue_seconds");
  const obs::HistogramSnapshot& match =
      snap.histograms.at("matcher.match_seconds");
  ASSERT_GT(dep.completed(), 1000u);
  EXPECT_EQ(response.count, dep.completed());
  // Every request the matchers took was queued and matched once.
  const std::uint64_t requests = snap.counters.at("matcher.requests");
  EXPECT_EQ(queue.count, requests);
  EXPECT_EQ(match.count, requests);

  for (const obs::HistogramSnapshot* h : {&response, &queue, &match}) {
    EXPECT_GT(h->quantile(0.50), 0.0);
    EXPECT_LE(h->quantile(0.50), h->quantile(0.95));
    EXPECT_LE(h->quantile(0.95), h->quantile(0.99));
  }
  // Queueing and matching lie inside the response time, which also spans
  // dispatch and the hops to the matcher and the sink.
  EXPECT_GE(response.mean(), queue.mean() + match.mean());
}

TEST(Trace, SamplingRateZeroTracesNothing) {
  ExperimentConfig cfg = traced_config();
  cfg.trace_sample_rate = 0.0;
  Deployment dep(cfg);
  dep.start();
  dep.set_rate(300.0);
  dep.run_for(5.0);
  dep.set_rate(0.0);
  dep.run_for(3.0);
  EXPECT_GT(dep.completed(), 0u);
  // The stage histograms cover untraced traffic.
  const obs::MetricsSnapshot snap = dep.cluster_snapshot();
  EXPECT_EQ(snap.counters.at("dispatcher.traced"), 0u);
  EXPECT_EQ(snap.histograms.at("sink.response_seconds").count,
            dep.completed());
  EXPECT_GT(snap.histograms.at("matcher.match_seconds").count, 0u);
  EXPECT_GT(snap.histograms.at("matcher.queue_seconds").count, 0u);
}

TEST(Trace, DeterministicAcrossRuns) {
  auto run_once = [] {
    Deployment dep(traced_config());
    dep.start();
    dep.set_rate(300.0);
    dep.run_for(5.0);
    dep.set_rate(0.0);
    dep.run_for(3.0);
    return obs::to_json(dep.cluster_snapshot());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Trace, ClusterSnapshotAggregatesAllLayers) {
  Deployment dep(traced_config());
  dep.start();
  dep.set_rate(300.0);
  dep.run_for(5.0);
  dep.set_rate(0.0);
  dep.run_for(3.0);

  const obs::MetricsSnapshot snap = dep.cluster_snapshot();
  // Node-level counters (merged across matchers / dispatchers).
  EXPECT_GT(snap.counters.at("dispatcher.published"), 0u);
  EXPECT_GT(snap.counters.at("matcher.requests"), 0u);
  EXPECT_GT(snap.counters.at("matcher.deliveries"), 0u);
  // The sink's response-time histogram.
  EXPECT_GT(snap.histograms.at("sink.response_seconds").count, 0u);
  // Sim substrate stats (per-node prefix).
  bool saw_sim_node = false;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("sim.node", 0) == 0 && value > 0) saw_sim_node = true;
  }
  EXPECT_TRUE(saw_sim_node);

  // The merged cluster snapshot round-trips through JSON unchanged.
  obs::MetricsSnapshot back;
  ASSERT_TRUE(obs::from_json(obs::to_json(snap), back));
  EXPECT_EQ(back, snap);
}

}  // namespace
}  // namespace bluedove
