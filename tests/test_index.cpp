// Tests for the subscription matching engines. The core suite is
// parameterized over both engines (TEST_P): every engine must agree with a
// brute-force oracle on randomized workloads and support dynamic
// insert/erase.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "attr/schema.h"
#include "common/rng.h"
#include "index/flat_bucket_index.h"
#include "index/linear_scan_index.h"
#include "index/subscription_index.h"
#include "index_probe.h"
#include "workload/generators.h"

namespace bluedove {
namespace {

using testing_probe::probe_one;

constexpr DimId kPivot = 1;
const Range kDomain{0, 1000};

Subscription make_sub(SubscriptionId id, std::vector<Range> ranges) {
  Subscription s;
  s.id = id;
  s.subscriber = id;
  s.ranges = std::move(ranges);
  return s;
}

class IndexTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  std::unique_ptr<SubscriptionIndex> make() {
    return make_index(GetParam(), kPivot, kDomain);
  }
};

TEST_P(IndexTest, EmptyIndexMatchesNothing) {
  auto index = make();
  EXPECT_EQ(index->size(), 0u);
  WorkCounter wc;
  EXPECT_TRUE(probe_one(*index, Message{1, {500, 500, 500}, ""}, wc).empty());
}

TEST_P(IndexTest, InsertEraseSize) {
  auto index = make();
  index->insert(make_sub(1, {{0, 100}, {0, 100}, {0, 100}}));
  index->insert(make_sub(2, {{0, 100}, {200, 300}, {0, 100}}));
  EXPECT_EQ(index->size(), 2u);
  EXPECT_TRUE(index->erase(1));
  EXPECT_EQ(index->size(), 1u);
  EXPECT_FALSE(index->erase(1));  // double erase
  EXPECT_FALSE(index->erase(99));
  index->clear();
  EXPECT_EQ(index->size(), 0u);
}

TEST_P(IndexTest, MatchVerifiesAllDimensions) {
  auto index = make();
  // Pivot range contains 250 but dim0 will not contain 999.
  index->insert(make_sub(1, {{0, 100}, {200, 300}, {0, 1000}}));
  WorkCounter wc;
  EXPECT_TRUE(probe_one(*index, Message{1, {999, 250, 5}, ""}, wc).empty());
  const std::vector<MatchHit> out =
      probe_one(*index, Message{2, {50, 250, 5}, ""}, wc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
}

TEST_P(IndexTest, PivotBoundariesHalfOpen) {
  auto index = make();
  index->insert(make_sub(1, {{0, 1000}, {200, 300}, {0, 1000}}));
  WorkCounter wc;
  // lo inclusive
  EXPECT_EQ(probe_one(*index, Message{1, {1, 200, 1}, ""}, wc).size(), 1u);
  // hi exclusive
  EXPECT_TRUE(probe_one(*index, Message{2, {1, 300, 1}, ""}, wc).empty());
  EXPECT_TRUE(probe_one(*index, Message{3, {1, 199.999, 1}, ""}, wc).empty());
}

TEST_P(IndexTest, OracleAgreementRandomWorkload) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 120.0;
  SubscriptionGenerator gen(wl, 77);
  std::vector<Subscription> oracle;
  for (int i = 0; i < 600; ++i) {
    oracle.push_back(gen.next());
    index->insert(oracle.back());
  }

  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 78);
  for (int i = 0; i < 400; ++i) {
    const Message msg = mgen.next();
    WorkCounter wc;
    const std::vector<MatchHit> out = probe_one(*index, msg, wc);
    std::set<SubscriptionId> got;
    for (const auto& h : out) {
      got.insert(h.id);
      EXPECT_EQ(h.id, h.subscriber);  // gen default
    }
    EXPECT_EQ(got.size(), out.size()) << "duplicate results";
    std::set<SubscriptionId> expect;
    for (const auto& s : oracle) {
      if (s.matches(msg)) expect.insert(s.id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST_P(IndexTest, OracleAgreementAfterErasures) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 33);
  std::vector<Subscription> oracle;
  for (int i = 0; i < 400; ++i) {
    oracle.push_back(gen.next());
    index->insert(oracle.back());
  }
  // Erase every third subscription.
  std::vector<Subscription> remaining;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(index->erase(oracle[i].id));
    } else {
      remaining.push_back(oracle[i]);
    }
  }
  EXPECT_EQ(index->size(), remaining.size());

  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 34);
  for (int i = 0; i < 200; ++i) {
    const Message msg = mgen.next();
    WorkCounter wc;
    std::set<SubscriptionId> got;
    for (const auto& h : probe_one(*index, msg, wc)) got.insert(h.id);
    std::set<SubscriptionId> expect;
    for (const auto& s : remaining) {
      if (s.matches(msg)) expect.insert(s.id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST_P(IndexTest, WorkCounterAdvances) {
  auto index = make();
  for (int i = 0; i < 100; ++i) {
    const double lo = (i % 10) * 100.0;
    index->insert(make_sub(i + 1, {{0, 1000}, {lo, lo + 100}, {0, 1000}}));
  }
  WorkCounter wc;
  probe_one(*index, Message{1, {5, 555, 5}, ""}, wc);
  EXPECT_GT(wc.total(), 0.0);
}

TEST_P(IndexTest, MatchCostIsPositiveAndBoundedBySetForScan) {
  auto index = make();
  for (int i = 0; i < 50; ++i) {
    index->insert(make_sub(i + 1, {{0, 1000}, {0, 1000}, {0, 1000}}));
  }
  const Message msg{1, {5, 500, 5}, ""};
  EXPECT_GT(index->match_cost(msg), 0.0);
}

TEST_P(IndexTest, ForEachVisitsEverySubscription) {
  auto index = make();
  std::set<SubscriptionId> inserted;
  for (int i = 1; i <= 64; ++i) {
    index->insert(make_sub(i, {{0, 10}, {i * 10.0, i * 10.0 + 5}, {0, 10}}));
    inserted.insert(i);
  }
  std::set<SubscriptionId> seen;
  index->for_each([&](const Subscription& s) { seen.insert(s.id); });
  EXPECT_EQ(seen, inserted);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, IndexTest,
                         ::testing::Values(IndexKind::kLinearScan,
                                           IndexKind::kFlatBucket),
                         [](const auto& info) {
                           return info.param == IndexKind::kLinearScan
                                      ? "LinearScan"
                                      : "FlatBucket";
                         });

// Every engine's match_batch hits agree with LinearScanIndex's oracle match
// (shared storage, one SubPtr per hit): the same subscriptions with the same
// subscribers. The linear scan runs one scan for both probes, so there the
// hits also come in the same order and cost the same work.
TEST_P(IndexTest, MatchHitsAgreesWithMatch) {
  auto index = make();
  LinearScanIndex oracle(kPivot);
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 11);
  for (int i = 0; i < 300; ++i) {
    const Subscription s = gen.next();
    index->insert(s);
    oracle.insert(std::make_shared<const Subscription>(s));
  }
  const bool same_scan = GetParam() == IndexKind::kLinearScan;
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 12);
  for (int i = 0; i < 100; ++i) {
    const Message msg = mgen.next();
    std::vector<SubPtr> subs;
    WorkCounter wc_subs, wc_hits;
    oracle.match(msg, subs, wc_subs);
    const std::vector<MatchHit> hits = probe_one(*index, msg, wc_hits);
    std::set<std::pair<SubscriptionId, SubscriberId>> a, b;
    for (const auto& s : subs) a.emplace(s->id, s->subscriber);
    for (const auto& h : hits) b.emplace(h.id, h.subscriber);
    EXPECT_EQ(a, b) << "message " << i;
    EXPECT_EQ(hits.size(), b.size()) << "duplicate hit, message " << i;
    if (same_scan) {
      ASSERT_EQ(subs.size(), hits.size());
      for (std::size_t j = 0; j < hits.size(); ++j) {
        EXPECT_EQ(subs[j]->id, hits[j].id);
      }
      EXPECT_DOUBLE_EQ(wc_subs.total(), wc_hits.total());
    }
    for (const auto& h : hits) EXPECT_EQ(h.id, h.subscriber);  // gen default
  }
}

TEST_P(IndexTest, MatchBatchOffsetsPartitionHits) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 21);
  for (int i = 0; i < 400; ++i) {
    index->insert(gen.next());
  }
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 22);
  std::vector<Message> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(mgen.next());

  // The batch path (FlatBucketIndex probes it in bucket order and stages
  // the hits) must equal one batch-of-one probe per message, in message
  // order, hit for hit and unit for unit.
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  std::vector<double> work;
  WorkCounter wc;
  MatchScratch scratch;
  index->match_batch(batch, hits, offsets, wc, scratch, &work);
  ASSERT_EQ(offsets.size(), batch.size() + 1);
  ASSERT_EQ(work.size(), batch.size());
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), hits.size());
  double work_sum = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]);
    const std::vector<MatchHit> got(hits.begin() + offsets[i],
                                    hits.begin() + offsets[i + 1]);
    WorkCounter wc1;
    const std::vector<MatchHit> single = probe_one(*index, batch[i], wc1);
    EXPECT_EQ(got, single) << "message " << i;
    EXPECT_DOUBLE_EQ(work[i], wc1.total()) << "message " << i;
    work_sum += work[i];
  }
  EXPECT_DOUBLE_EQ(work_sum, wc.total());
}

// ---------------------------------------------------------------------------
// Differential property test: both engines agree under churn
// ---------------------------------------------------------------------------

TEST(IndexDifferential, AllEnginesAgreeUnderChurn) {
  const Range domain{0, 1000};
  constexpr DimId pivot = 1;
  constexpr std::size_t kBuckets = 64;  // make_index's flat-bucket default
  const double cell = domain.width() / kBuckets;
  const std::vector<IndexKind> kinds = {IndexKind::kLinearScan,
                                        IndexKind::kFlatBucket};
  std::vector<std::unique_ptr<SubscriptionIndex>> engines;
  for (IndexKind kind : kinds) engines.push_back(make_index(kind, pivot, domain));

  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 150.0;
  SubscriptionGenerator gen(wl, 1234);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 5678);
  Rng rng(99);

  // The pivot bucket span a subscription's pivot range covers, computed
  // the way the flat-bucket engine cuts its domain: hi is exclusive, and
  // values outside the domain clamp to the edge buckets.
  const auto bucket_of = [&](double v) {
    const auto idx = static_cast<long long>((v - domain.lo) / cell);
    return std::clamp<long long>(idx, 0, kBuckets - 1);
  };
  const auto span_contains = [&](const Subscription& sub, long long b) {
    const Range r = sub.range(pivot);
    const double inside_hi = std::max(r.lo, r.hi - 1e-12 * std::max(1.0, r.hi));
    const long long first = bucket_of(r.lo);
    return first <= b && b <= std::max(first, bucket_of(inside_hi));
  };

  // Mixed pivot widths: near-point, narrow, full-domain, ending exactly on
  // a bucket boundary, and partly outside the domain.
  SubscriptionId next_mixed = 1u << 30;
  const auto mixed_sub = [&]() {
    const double edge = cell * static_cast<double>(rng.next_below(kBuckets));
    const double x = rng.uniform(domain.lo, domain.hi);
    Range r;
    switch (rng.next_below(6)) {
      case 0: r = {x, x + 1e-3}; break;
      case 1: r = {x, x + 5.0}; break;
      case 2: r = domain; break;
      case 3: r = {edge - cell * rng.uniform(0.5, 3.0), edge}; break;
      case 4: r = {domain.lo - 50.0, domain.lo + rng.uniform(1.0, 60.0)}; break;
      default: r = {domain.hi - rng.uniform(1.0, 60.0), domain.hi + 80.0};
    }
    Subscription s;
    s.id = next_mixed++;
    s.subscriber = s.id;
    for (DimId d = 0; d < 3; ++d) {
      const double lo = rng.uniform(0.0, 600.0);
      s.ranges.push_back(d == pivot ? r : Range{lo, lo + 400.0});
    }
    return s;
  };
  // Messages on bucket edges, just below them, and outside the domain.
  const auto edge_message = [&](int q) {
    Message msg = mgen.next();
    const double edge =
        cell * static_cast<double>(rng.next_below(kBuckets + 1));
    switch (q % 4) {
      case 0: msg.values[pivot] = edge; break;
      case 1: msg.values[pivot] = std::nextafter(edge, -1e9); break;
      case 2: msg.values[pivot] = domain.lo - rng.uniform(0.0, 100.0); break;
      default: msg.values[pivot] = domain.hi + rng.uniform(0.0, 100.0);
    }
    return msg;
  };

  std::vector<Subscription> live;
  const auto check = [&](const Message& msg, int round) {
    std::set<SubscriptionId> reference;
    for (std::size_t e = 0; e < engines.size(); ++e) {
      WorkCounter wc;
      const std::vector<MatchHit> hits = probe_one(*engines[e], msg, wc);
      std::set<SubscriptionId> got;
      for (const auto& h : hits) got.insert(h.id);
      EXPECT_EQ(got.size(), hits.size())
          << to_string(kinds[e]) << " returned duplicates, round " << round;
      if (kinds[e] == IndexKind::kLinearScan) {
        reference = std::move(got);
        continue;
      }
      EXPECT_EQ(got, reference)
          << to_string(kinds[e]) << " diverged on round " << round
          << " at pivot value " << msg.values[pivot];
      const long long b = bucket_of(msg.values[pivot]);
      std::uint64_t overlapping = 0;
      for (const Subscription& sub : live) overlapping += span_contains(sub, b);
      EXPECT_EQ(wc.comparisons, overlapping)
          << to_string(kinds[e]) << " round " << round << " bucket " << b;
    }
  };

  for (int round = 0; round < 8; ++round) {
    // Insert a batch into every engine.
    for (int i = 0; i < 150; ++i) {
      live.push_back(i < 120 ? gen.next() : mixed_sub());
      for (auto& engine : engines) engine->insert(live.back());
    }
    // Erase a random third of the live population from every engine.
    std::vector<Subscription> survivors;
    for (Subscription& sub : live) {
      if (rng.next_below(3) == 0) {
        for (auto& engine : engines) {
          EXPECT_TRUE(engine->erase(sub.id)) << "round " << round;
        }
      } else {
        survivors.push_back(std::move(sub));
      }
    }
    live = std::move(survivors);
    for (auto& engine : engines) {
      EXPECT_EQ(engine->size(), live.size()) << "round " << round;
    }
    for (int q = 0; q < 25; ++q) check(mgen.next(), round);
    for (int q = 0; q < 40; ++q) check(edge_message(q), round);
  }
}

// ---------------------------------------------------------------------------
// Engine-specific behaviour
// ---------------------------------------------------------------------------

TEST(LinearScanIndex, MatchCostEqualsSetSize) {
  LinearScanIndex index(0);
  for (int i = 1; i <= 30; ++i) {
    index.insert(make_sub(i, {{0, 10}, {0, 10}}));
  }
  EXPECT_DOUBLE_EQ(index.match_cost(Message{1, {5, 5}, ""}), 30.0);
}

TEST(IndexFactory, NamesAndKinds) {
  EXPECT_STREQ(to_string(IndexKind::kLinearScan), "linear-scan");
  EXPECT_STREQ(to_string(IndexKind::kFlatBucket), "flat-bucket");
  EXPECT_NE(make_index(IndexKind::kLinearScan, 0, Range{0, 1}), nullptr);
  EXPECT_NE(make_index(IndexKind::kFlatBucket, 0, Range{0, 1}), nullptr);
  for (IndexKind kind : {IndexKind::kLinearScan, IndexKind::kFlatBucket}) {
    EXPECT_EQ(index_kind_from_string(to_string(kind)), kind);
  }
  for (const char* name : {"bucket", "interval-tree", "", "FLAT-BUCKET"}) {
    EXPECT_EQ(index_kind_from_string(name), std::nullopt) << name;
  }
}

TEST(FlatBucketIndex, ChurnKeepsCapacityBoundedAndResultsCorrect) {
  // Regression test for the capacity thrash: columns grow in lockstep with
  // insertions (doubling, never per-element) and erase never reallocates.
  // Throughout heavy interleaved churn the engine must keep agreeing with a
  // LinearScanIndex oracle.
  const Range domain{0, 1000};
  constexpr DimId pivot = 0;
  FlatBucketIndex flat(pivot, domain);
  LinearScanIndex oracle(pivot);

  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 140.0;
  SubscriptionGenerator gen(wl, 4242);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 2121);
  Rng rng(7);

  std::vector<SubscriptionId> live;
  std::size_t peak_capacity = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 200; ++i) {
      const Subscription sub = gen.next();
      live.push_back(sub.id);
      flat.insert(sub);
      oracle.insert(sub);
    }
    peak_capacity = std::max(peak_capacity, flat.column_capacity_bytes());
    // Erase roughly half, probing in between so stale columns would show.
    std::vector<SubscriptionId> survivors;
    for (const SubscriptionId id : live) {
      if (rng.next_below(2) == 0) {
        EXPECT_TRUE(flat.erase(id));
        EXPECT_TRUE(oracle.erase(id));
      } else {
        survivors.push_back(id);
      }
    }
    live = std::move(survivors);
    for (int q = 0; q < 20; ++q) {
      const Message msg = mgen.next();
      WorkCounter wc;
      std::set<SubscriptionId> got, want;
      for (const auto& h : probe_one(flat, msg, wc)) got.insert(h.id);
      for (const auto& h : probe_one(oracle, msg, wc)) want.insert(h.id);
      EXPECT_EQ(got, want) << "round " << round;
    }
    // Capacity never shrinks on erase (no thrash), so it is monotone within
    // the run.
    EXPECT_GE(flat.column_capacity_bytes(), peak_capacity) << "round " << round;
    peak_capacity = flat.column_capacity_bytes();
  }

  for (const SubscriptionId id : live) EXPECT_TRUE(flat.erase(id));
  EXPECT_EQ(flat.size(), 0u);
}

TEST(FlatBucketIndex, RangeSpanningManyBucketsFoundEverywhere) {
  FlatBucketIndex index(0, Range{0, 1000}, 16);
  index.insert(make_sub(1, {{100, 900}, {0, 1000}}));
  WorkCounter wc;
  for (double v : {100.0, 450.0, 899.9}) {
    EXPECT_EQ(probe_one(index, Message{1, {v, 5}, ""}, wc).size(), 1u)
        << "at v=" << v;
  }
  EXPECT_TRUE(probe_one(index, Message{1, {950.0, 5}, ""}, wc).empty());
}

TEST(FlatBucketIndex, WideRangesAreFiledOncePerCopy) {
  // 10k pivot ranges 900 wide over 64 buckets each overlap ~58 buckets;
  // the columns must hold one entry per copy, not one per overlapped
  // bucket: capacity within the doubling slack of one entry each, plus the
  // smallest reservation of every bucket.
  constexpr std::size_t kSubs = 10000;
  constexpr std::size_t kDims = 2;
  constexpr std::size_t kBuckets = 64;
  FlatBucketIndex index(0, Range{0, 1000}, kBuckets);
  Rng rng(17);
  for (std::size_t i = 1; i <= kSubs; ++i) {
    const double lo = rng.uniform(0.0, 100.0);
    index.insert(make_sub(i, {{lo, lo + 900.0}, {0, 1000}}));
  }
  // id + subscriber + lo/hi per dimension.
  const std::size_t entry_bytes = 16 + 16 * kDims;
  EXPECT_EQ(index.column_entries(), kSubs);
  EXPECT_LE(index.column_capacity_bytes(),
            2 * kSubs * entry_bytes + kBuckets * 16 * entry_bytes);
  // Each bucket still reports every range that overlaps it.
  EXPECT_EQ(index.bucket_size(40), kSubs);
  WorkCounter wc;
  EXPECT_EQ(probe_one(index, Message{1, {500.0, 5}, ""}, wc).size(), kSubs);
  EXPECT_EQ(wc.comparisons, kSubs);
}

TEST(FlatBucketIndex, ColdBucketIsCheap) {
  FlatBucketIndex index(0, Range{0, 1000}, 10);
  for (int i = 1; i <= 50; ++i) {
    index.insert(make_sub(i, {{0, 100}, {0, 1000}}));
  }
  index.insert(make_sub(99, {{0, 1000}, {0, 1000}}));
  const double hot = index.match_cost(Message{1, {50, 5}, ""});
  const double cold = index.match_cost(Message{1, {950, 5}, ""});
  EXPECT_GT(hot, 40.0);
  EXPECT_LT(cold, 5.0);
}

}  // namespace
}  // namespace bluedove
