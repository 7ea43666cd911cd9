// Tests for the workload generators (paper §IV-B parameters) and the
// metrics collectors.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/load_monitor.h"
#include "metrics/response_tracker.h"
#include "workload/distributions.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace bluedove {
namespace {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(CroppedNormal, StaysInDomain) {
  Rng rng(1);
  const CroppedNormal dist(500, 250, Range{0, 1000});
  for (int i = 0; i < 20000; ++i) {
    const double v = dist.sample(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(CroppedNormal, MeanAndSpreadRoughlyCorrect) {
  Rng rng(2);
  const CroppedNormal dist(500, 100, Range{0, 1000});
  OnlineStats stats;
  for (int i = 0; i < 30000; ++i) stats.add(dist.sample(rng));
  EXPECT_NEAR(stats.mean(), 500.0, 5.0);
  EXPECT_NEAR(stats.stdev(), 100.0, 5.0);
}

TEST(CroppedNormal, OffCenterMeanNearDomainEdge) {
  Rng rng(3);
  const CroppedNormal dist(100, 250, Range{0, 1000});
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist.sample(rng);
    ASSERT_GE(v, 0.0);
    stats.add(v);
  }
  // Rejection sampling pushes the realized mean above the target.
  EXPECT_GT(stats.mean(), 100.0);
  EXPECT_LT(stats.mean(), 350.0);
}

TEST(CroppedNormal, ZeroSigmaIsConstant) {
  Rng rng(4);
  const CroppedNormal dist(123, 0, Range{0, 1000});
  EXPECT_DOUBLE_EQ(dist.sample(rng), 123.0);
}

TEST(HotspotMean, SpreadEvenly) {
  const Range domain{0, 1000};
  EXPECT_DOUBLE_EQ(hotspot_mean(domain, 0, 4), 200.0);
  EXPECT_DOUBLE_EQ(hotspot_mean(domain, 1, 4), 400.0);
  EXPECT_DOUBLE_EQ(hotspot_mean(domain, 3, 4), 800.0);
  EXPECT_DOUBLE_EQ(hotspot_mean(Range{100, 200}, 0, 1), 150.0);
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(SubscriptionGenerator, ProducesValidSkewedSubscriptions) {
  SubscriptionWorkload wl;
  wl.schema = AttributeSchema::uniform(4, 1000.0);
  wl.predicate_width = 250.0;
  wl.sigma = 250.0;
  SubscriptionGenerator gen(wl, 11);
  SubscriptionId last = 0;
  for (int i = 0; i < 1000; ++i) {
    const Subscription sub = gen.next();
    EXPECT_GT(sub.id, last);
    last = sub.id;
    ASSERT_EQ(sub.ranges.size(), 4u);
    for (DimId d = 0; d < 4; ++d) {
      EXPECT_FALSE(sub.range(d).empty());
      EXPECT_LE(sub.range(d).width(), 250.0 + 1e-9);
      EXPECT_GE(sub.range(d).lo, 0.0);
      EXPECT_LE(sub.range(d).hi, 1000.0);
    }
  }
}

TEST(SubscriptionGenerator, SkewCreatesHotSpots) {
  SubscriptionWorkload wl;
  wl.schema = AttributeSchema::uniform(1, 1000.0);
  wl.sigma = 250.0;
  SubscriptionGenerator gen(wl, 12);
  // Count subscriptions whose dim-0 range overlaps each of 10 cells.
  std::vector<int> density(10, 0);
  for (int i = 0; i < 4000; ++i) {
    const Subscription sub = gen.next();
    for (int c = 0; c < 10; ++c) {
      if (sub.range(0).overlaps(Range{c * 100.0, (c + 1) * 100.0}))
        ++density[c];
    }
  }
  // Hot spot for dim 0 of 1 is at 500; the centre cells must dominate the
  // edge cells clearly (the paper quotes a 2.7x hot/average ratio).
  const double hot = density[4] + density[5];
  const double cold = density[0] + density[9];
  EXPECT_GT(hot, 2.0 * cold);
}

TEST(SubscriptionGenerator, BatchMatchesSequential) {
  SubscriptionWorkload wl;
  wl.schema = AttributeSchema::uniform(2, 100.0);
  SubscriptionGenerator a(wl, 13), b(wl, 13);
  const auto batch = a.batch(50);
  ASSERT_EQ(batch.size(), 50u);
  for (const auto& sub : batch) {
    const Subscription other = b.next();
    EXPECT_EQ(sub.id, other.id);
    EXPECT_EQ(sub.ranges, other.ranges);
  }
}

TEST(MessageGenerator, UniformValuesInDomain) {
  MessageWorkload wl;
  wl.schema = AttributeSchema::uniform(4, 1000.0);
  MessageGenerator gen(wl, 14);
  OnlineStats stats;
  for (int i = 0; i < 10000; ++i) {
    const Message msg = gen.next();
    ASSERT_EQ(msg.values.size(), 4u);
    for (double v : msg.values) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1000.0);
    }
    stats.add(msg.values[0]);
  }
  EXPECT_NEAR(stats.mean(), 500.0, 15.0);  // uniform
}

TEST(MessageGenerator, AdverseSkewAffectsOnlyRequestedDims) {
  MessageWorkload wl;
  wl.schema = AttributeSchema::uniform(2, 1000.0);
  wl.skewed_dims = 1;
  wl.sigma = 100.0;
  MessageGenerator gen(wl, 15);
  OnlineStats d0, d1;
  for (int i = 0; i < 20000; ++i) {
    const Message msg = gen.next();
    d0.add(msg.values[0]);
    d1.add(msg.values[1]);
  }
  // dim0 is skewed around its hotspot mean (333 for dim 0 of 2); dim1 stays
  // uniform (stdev ~288).
  EXPECT_LT(d0.stdev(), 150.0);
  EXPECT_GT(d1.stdev(), 250.0);
}

TEST(MessageGenerator, PayloadBytes) {
  MessageWorkload wl;
  wl.schema = AttributeSchema::uniform(1, 10.0);
  wl.payload_bytes = 64;
  MessageGenerator gen(wl, 16);
  EXPECT_EQ(gen.next().payload.size(), 64u);
}

// ---------------------------------------------------------------------------
// WorkloadTrace
// ---------------------------------------------------------------------------

WorkloadTrace sample_trace() {
  WorkloadTrace trace;
  Subscription sub;
  sub.id = 1;
  sub.subscriber = 1;
  sub.ranges = {{0, 100}, {0, 100}};
  trace.subscribe(0.1, sub);
  Message msg;
  msg.id = 1;
  msg.values = {50, 50};
  msg.payload = "p";
  trace.publish(0.5, msg);
  trace.unsubscribe(0.9, sub);
  return trace;
}

TEST(WorkloadTrace, SerializeRoundTrip) {
  const WorkloadTrace trace = sample_trace();
  bool ok = false;
  const WorkloadTrace back = WorkloadTrace::deserialize(trace.serialize(), &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.events()[0].kind, TraceEvent::Kind::kSubscribe);
  EXPECT_EQ(back.events()[0].sub.ranges, sample_trace().events()[0].sub.ranges);
  EXPECT_EQ(back.events()[1].kind, TraceEvent::Kind::kPublish);
  EXPECT_EQ(back.events()[1].msg.payload, "p");
  EXPECT_DOUBLE_EQ(back.events()[2].at, 0.9);
  EXPECT_DOUBLE_EQ(back.duration(), 0.9);
}

TEST(WorkloadTrace, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = sample_trace().serialize();
  bytes[0] ^= 0xff;
  bool ok = true;
  const WorkloadTrace back = WorkloadTrace::deserialize(bytes, &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(back.empty());
}

TEST(WorkloadTrace, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "bluedove_trace_test.bin";
  ASSERT_TRUE(sample_trace().save(path));
  bool ok = false;
  const WorkloadTrace back = WorkloadTrace::load(path, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(back.size(), 3u);
  std::remove(path.c_str());
}

TEST(WorkloadTrace, SortOrdersByTime) {
  WorkloadTrace trace;
  Message msg;
  msg.values = {1, 1};
  trace.publish(2.0, msg);
  trace.publish(1.0, msg);
  trace.publish(3.0, msg);
  trace.sort();
  EXPECT_DOUBLE_EQ(trace.events()[0].at, 1.0);
  EXPECT_DOUBLE_EQ(trace.events()[2].at, 3.0);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ResponseTracker, OverallAndQuantiles) {
  ResponseTracker tracker;
  for (int i = 1; i <= 100; ++i) tracker.add(i * 0.001);
  EXPECT_EQ(tracker.count(), 100u);
  EXPECT_NEAR(tracker.overall().mean(), 0.0505, 1e-9);
  EXPECT_NEAR(tracker.quantile(0.5), 0.0505, 0.002);
}

TEST(ResponseTracker, WindowResetsBetweenCalls) {
  ResponseTracker tracker;
  tracker.add(1.0);
  tracker.add(3.0);
  EXPECT_DOUBLE_EQ(tracker.window().mean(), 2.0);
  tracker.add(5.0);
  EXPECT_DOUBLE_EQ(tracker.window().mean(), 5.0);
  EXPECT_EQ(tracker.window().count(), 0u);
  EXPECT_EQ(tracker.count(), 3u);  // overall unaffected
}

TEST(LoadMonitor, DifferentiatesBusySamples) {
  LoadMonitor monitor;
  monitor.sample(1, 0.0, 0.0, 4);
  EXPECT_DOUBLE_EQ(monitor.load(1), 0.0);  // not primed yet
  monitor.sample(1, 10.0, 20.0, 4);        // 20 busy-sec over 10 s x 4 cores
  EXPECT_DOUBLE_EQ(monitor.load(1), 0.5);
  monitor.sample(1, 20.0, 60.0, 4);  // 40 over 40
  EXPECT_DOUBLE_EQ(monitor.load(1), 1.0);
  EXPECT_DOUBLE_EQ(monitor.load(99), 0.0);
}

TEST(LoadMonitor, DistributionStats) {
  LoadMonitor monitor;
  for (NodeId id = 1; id <= 4; ++id) {
    monitor.sample(id, 0.0, 0.0, 1);
    monitor.sample(id, 10.0, id * 1.0, 1);  // loads 0.1 .. 0.4
  }
  const OnlineStats stats = monitor.distribution({1, 2, 3, 4});
  EXPECT_NEAR(stats.mean(), 0.25, 1e-12);
  EXPECT_GT(stats.normalized_stdev(), 0.4);
}

}  // namespace
}  // namespace bluedove
