// Parallel match execution suite (ctest label: parallel).
//
// Covers the offload worker pool end to end: MatchExecutor semantics
// (completion routing, work stealing, backpressure), the ThreadCluster
// offload hook, live-index reads of one
// index beside writes to another, an ordering differential (each
// request sees exactly the writes injected before it, with writes inside
// the message space), and a differential test of an 8-worker matcher
// under subscription churn and split/merge storms against a brute-force
// oracle. Runs under TSan and ASan/UBSan via tools/tsan_check.sh and
// tools/sanitize_check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "index/linear_scan_index.h"
#include "index/subscription_index.h"
#include "index_probe.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "node/matcher_node.h"
#include "node_owners.h"
#include "runtime/match_executor.h"
#include "runtime/thread_cluster.h"

namespace bluedove {
namespace {

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// MatchExecutor
// ---------------------------------------------------------------------------

/// Post hook that runs completions immediately on the calling worker and
/// counts them; the real hosts ship completions to a node task queue, but
/// the executor itself must not care.
struct InlinePost {
  std::atomic<int> posted{0};
  runtime::MatchExecutor::Post fn() {
    return [this](std::function<void()> f) {
      f();
      posted.fetch_add(1, std::memory_order_relaxed);
    };
  }
};

TEST(MatchExecutor, RunsJobsAndReportsUnits) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 4;
  cfg.lanes = 2;
  runtime::MatchExecutor exec(cfg, post.fn());
  ASSERT_EQ(exec.workers(), 4);

  std::atomic<double> units_sum{0.0};
  std::atomic<int> done{0};
  const int kJobs = 100;
  for (int i = 0; i < kJobs; ++i) {
    const bool ok = exec.submit(
        static_cast<std::size_t>(i % 2),
        [i](OffloadWorker&) { return static_cast<double>(i); },
        [&](double units) {
          double cur = units_sum.load();
          while (!units_sum.compare_exchange_weak(cur, cur + units)) {
          }
          done.fetch_add(1);
        });
    ASSERT_TRUE(ok);
  }
  ASSERT_TRUE(eventually([&] { return done.load() == kJobs; }));
  EXPECT_EQ(exec.completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_DOUBLE_EQ(units_sum.load(), kJobs * (kJobs - 1) / 2.0);
  exec.stop();
  // Idempotent, and submissions after stop are refused.
  exec.stop();
  EXPECT_FALSE(exec.submit(0, [](OffloadWorker&) { return 0.0; },
                           [](double) {}));
}

TEST(MatchExecutor, StealsFromHotLane) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 4;
  cfg.lanes = 4;
  runtime::MatchExecutor exec(cfg, post.fn());

  // Everything lands on lane 0; workers 1..3 have empty home lanes and can
  // only make progress by stealing. Each job naps so the backlog outlives
  // worker wakeup even on a single hardware core.
  std::atomic<int> done{0};
  const int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(exec.submit(
        0,
        [](OffloadWorker&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return 1.0;
        },
        [&](double) { done.fetch_add(1); }));
  }
  ASSERT_TRUE(eventually([&] { return done.load() == kJobs; }));
  EXPECT_GT(exec.steals(), 0u);
  exec.stop();
}

TEST(MatchExecutor, RejectsWhenLaneFull) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 1;
  cfg.lanes = 1;
  cfg.lane_capacity = 2;
  runtime::MatchExecutor exec(cfg, post.fn());

  // Occupy the only worker behind a gate, then fill the lane.
  bd::Mutex mu;
  bd::CondVar cv;
  bool gate_open BD_GUARDED_BY(mu) = false;
  std::atomic<bool> gate_running{false};
  std::atomic<int> done{0};
  ASSERT_TRUE(exec.submit(
      0,
      [&](OffloadWorker&) {
        gate_running.store(true);
        bd::UniqueLock lock(mu);
        while (!gate_open) cv.wait(lock);
        return 0.0;
      },
      [&](double) { done.fetch_add(1); }));
  ASSERT_TRUE(eventually([&] { return gate_running.load(); }));

  auto noop = [&] {
    return exec.submit(0, [](OffloadWorker&) { return 0.0; },
                       [&](double) { done.fetch_add(1); });
  };
  EXPECT_TRUE(noop());
  EXPECT_TRUE(noop());
  EXPECT_FALSE(noop());  // lane at capacity: caller must run inline

  {
    bd::LockGuard lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  ASSERT_TRUE(eventually([&] { return done.load() == 3; }));
  exec.stop();
}

// ---------------------------------------------------------------------------
// ThreadCluster offload hook
// ---------------------------------------------------------------------------

/// Requests a pool in start() and offloads one computation per received
/// message, recording which threads the work and the completion ran on.
class OffloadProbeNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    node_thread_ = std::this_thread::get_id();
    pool_granted.store(ctx.enable_offload(2, 2));
    // Publish last: the test thread polls ctx() to know start() finished.
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope /*env*/) override {
    ctx()->offload(
        0,
        [this](OffloadWorker& w) {
          work_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          worker_index.store(w.index);
          return 7.0;
        },
        [this](double units) {
          done_units.store(units);
          done_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          completions.fetch_add(1);
        });
  }

  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }

  std::atomic<NodeContext*> ctx_{nullptr};
  std::thread::id node_thread_;
  std::atomic<bool> pool_granted{false};
  std::atomic<bool> work_on_node_thread{true};
  std::atomic<bool> done_on_node_thread{false};
  std::atomic<int> worker_index{-2};
  std::atomic<double> done_units{0.0};
  std::atomic<int> completions{0};
};

TEST(ThreadClusterOffload, WorkRunsOffNodeThreadCompletionOnIt) {
  runtime::ThreadCluster cluster;
  auto node = std::make_unique<OffloadProbeNode>();
  OffloadProbeNode* probe = node.get();
  cluster.add_node(1, std::move(node));
  cluster.start(1);
  ASSERT_TRUE(eventually([&] { return probe->ctx() != nullptr; }));
  EXPECT_TRUE(probe->pool_granted.load());
  cluster.inject(1, Envelope::of(JoinRequest{}));
  ASSERT_TRUE(eventually([&] { return probe->completions.load() == 1; }));
  EXPECT_FALSE(probe->work_on_node_thread.load());
  EXPECT_TRUE(probe->done_on_node_thread.load());
  EXPECT_GE(probe->worker_index.load(), 0);
  EXPECT_LT(probe->worker_index.load(), 2);
  EXPECT_DOUBLE_EQ(probe->done_units.load(), 7.0);
  EXPECT_EQ(cluster.dropped_messages(), 0u);
  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Live-index reads: a probe of one index beside writes to another
// ---------------------------------------------------------------------------

using testing_probe::hit_ids;

Subscription pivot_sub(SubscriptionId id, double lo, double width) {
  Subscription sub;
  sub.id = id;
  sub.subscriber = id;
  sub.ranges = {Range{lo, lo + width}, Range{0.0, 100.0}};
  return sub;
}

// Indexes share no state: a probe of one flat-bucket index stays exact
// while another index holding half the same subscriptions drops them and
// grows and shrinks its columns far past the probed index's size.
TEST(LiveIndexReads, ProbesUnaffectedByWritesToAnotherIndex) {
  const Range domain{0.0, 100.0};
  auto probed = make_index(IndexKind::kFlatBucket, 0, domain);
  auto written = make_index(IndexKind::kFlatBucket, 0, domain);

  Rng rng(99);
  for (SubscriptionId id = 1; id <= 200; ++id) {
    const Subscription sub = pivot_sub(id, rng.uniform(0.0, 80.0), 15.0);
    probed->insert(sub);
    // Every second subscription is also held by the other index.
    if (id % 2 == 0) written->insert(sub);
  }

  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) {
    Message m;
    m.id = static_cast<MessageId>(i + 1);
    m.values = {rng.uniform(0.0, 95.0), 50.0};
    probes.push_back(m);
  }
  std::vector<std::vector<SubscriptionId>> expected;
  for (const Message& m : probes) expected.push_back(hit_ids(*probed, m));

  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire) || rounds.load() == 0) {
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (hit_ids(*probed, probes[i]) != expected[i]) {
          mismatches.fetch_add(1);
        }
      }
      rounds.fetch_add(1);
    }
  });

  // Churn the other index: drop the shared half, then grow its columns
  // several times over and release it all again.
  for (SubscriptionId id = 2; id <= 200; id += 2) written->erase(id);
  for (int wave = 0; wave < 3; ++wave) {
    for (SubscriptionId id = 1000; id < 3000; ++id) {
      written->insert(pivot_sub(id, rng.uniform(0.0, 80.0), 15.0));
    }
    for (SubscriptionId id = 1000; id < 3000; ++id) written->erase(id);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(rounds.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(written->size(), 0u);
  EXPECT_EQ(probed->size(), 200u);
}

// ---------------------------------------------------------------------------
// 8-worker matcher vs brute-force oracle under churn + split/merge storms
// ---------------------------------------------------------------------------

using testing_owners::SinkState;

TEST(ParallelMatcher, DifferentialUnderChurnAndSplitMerge) {
  constexpr NodeId kMatcher = 100;
  constexpr NodeId kNewcomer = 101;
  constexpr NodeId kSink = 7;
  constexpr std::size_t kDims = 4;
  const std::vector<Range> domains(kDims, Range{0.0, 80.0});

  runtime::ThreadCluster cluster;

  auto sink_state = std::make_shared<SinkState>();
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [sink_state](NodeId, const Envelope& env,
                                           Timestamp) {
                                sink_state->record(env);
                              }));
  // The split victim hands a segment to this node; it only needs to exist.
  cluster.add_node(kNewcomer,
                   std::make_unique<FunctionNode>(FunctionNode::Handler{}));

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 8;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher->set_bootstrap(bootstrap_table({kMatcher}, domains));
  cluster.add_node(kMatcher, std::move(matcher));
  cluster.start_all();

  // Stable population: these subscriptions are never churned; the oracle is
  // computed over them. Their predicates live in [0, 80).
  Rng rng(2024);
  std::vector<Subscription> stable;
  const SubscriptionId kStableCount = 1200;
  for (SubscriptionId id = 1; id <= kStableCount; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 40.0);
      sub.ranges.push_back(Range{lo, lo + 40.0});
    }
    stable.push_back(sub);
    cluster.inject(kMatcher,
                   Envelope::of(StoreSubscription{
                       sub, static_cast<DimId>(id % kDims)}));
  }

  // Churn population: confined to [90, 100] — outside the message space, so
  // it never changes any oracle answer, but its store/remove storm runs
  // concurrently with the offloaded probes (write deferral and slot
  // recycling under fire).
  auto churn_sub = [](SubscriptionId id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.assign(kDims, Range{90.0, 100.0});
    return sub;
  };

  // Interleave requests with churn. ThreadCluster inboxes are FIFO, so
  // every stable store above is applied before the first probe.
  const int kRequests = 800;
  std::vector<Message> probes;
  for (int i = 0; i < kRequests; ++i) {
    const SubscriptionId churn_id = 100000 + static_cast<SubscriptionId>(i);
    cluster.inject(kMatcher, Envelope::of(StoreSubscription{
                                 churn_sub(churn_id),
                                 static_cast<DimId>(i % kDims)}));
    Message m;
    m.id = static_cast<MessageId>(i + 1);
    m.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      m.values.push_back(rng.uniform(0.0, 80.0));
    }
    probes.push_back(m);
    MatchRequest req;
    req.msg = m;
    req.dim = static_cast<DimId>(i % kDims);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
    if (i >= 50) {
      // Remove a churn subscription stored a while ago — by now probes are
      // in flight on the live indexes, so removals exercise the hold path.
      cluster.inject(kMatcher,
                     Envelope::of(RemoveSubscription{
                         100000 + static_cast<SubscriptionId>(i - 50),
                         static_cast<DimId>((i - 50) % kDims)}));
    }
  }
  ASSERT_TRUE(eventually(
      [&] { return sink_state->completed() >= kRequests; }, 60.0))
      << "completed " << sink_state->completed() << "/" << kRequests
      << ", dropped " << cluster.dropped_messages();
  // A message the sink's inbox dropped is a drop, not a wrong match set.
  ASSERT_EQ(cluster.dropped_messages(), 0u);

  // Differential: delivered set == brute force over the stable population.
  for (int i = 0; i < kRequests; ++i) {
    const Message& m = probes[static_cast<std::size_t>(i)];
    std::set<SubscriptionId> expected;
    for (const Subscription& sub : stable) {
      if (static_cast<DimId>(sub.id % kDims) == static_cast<DimId>(i % kDims)
          && sub.matches(m)) {
        expected.insert(sub.id);
      }
    }
    EXPECT_EQ(sink_state->delivered(m.id), expected) << "msg " << m.id;
  }

  // Split/merge storm while a second request wave is in flight: the victim
  // walks and prunes its live dim-3 set (both wait for in-flight probes),
  // then absorbs a merge handover.
  cluster.inject(kMatcher, Envelope::of(SplitCommand{kNewcomer, 3}));
  HandoverMerge merge;
  merge.dim = 2;
  merge.merged_segment = Range{0.0, 80.0};
  for (SubscriptionId id = 200000; id < 200200; ++id) {
    merge.subs.push_back(churn_sub(id));
  }
  cluster.inject(kMatcher, Envelope::of(std::move(merge)));
  const int kWave2 = 200;
  for (int i = 0; i < kWave2; ++i) {
    MatchRequest req;
    req.msg.id = static_cast<MessageId>(10000 + i);
    req.msg.values.assign(kDims, rng.uniform(0.0, 80.0));
    req.dim = static_cast<DimId>(i % kDims);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
  }
  EXPECT_TRUE(eventually(
      [&] { return sink_state->completed() >= kRequests + kWave2; }, 60.0))
      << "completed " << sink_state->completed() << ", dropped "
      << cluster.dropped_messages();
  EXPECT_EQ(cluster.dropped_messages(), 0u);

  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Ordering differential: writes inside the message space, requests between
// ---------------------------------------------------------------------------

/// Requests whose service has started: matcher.queue_seconds records one
/// sample per request when its service starts, on the node thread, before
/// the matcher handles any later envelope.
std::uint64_t services_started(const MatcherNode& matcher) {
  const obs::MetricsSnapshot snap = matcher.metrics().snapshot();
  const auto it = snap.histograms.find("matcher.queue_seconds");
  return it != snap.histograms.end() ? it->second.count : 0;
}

struct OrderingCase {
  int cores;
  bool cover;
};

void PrintTo(const OrderingCase& c, std::ostream* os) {
  *os << "cores=" << c.cores << " cover=" << c.cover;
}

class OrderingDifferential : public ::testing::TestWithParam<OrderingCase> {};

// Stores and removes land inside the message space, interleaved with
// requests on the same and on other dimensions, plus wide-set writes. Each
// request's delivered set must equal a brute-force match over exactly the
// subscriptions live at its position in injection order. The script only
// waits, before each burst of writes, until every earlier request has
// started its service: a request may see no write that arrives after its
// service started, and must see every write that arrived before it. The
// covered case adds duplicate templates, so removals often only shrink a
// cover group: expansion at completion must still see the probed members.
TEST_P(OrderingDifferential, EachRequestSeesExactlyTheWritesBeforeIt) {
  constexpr NodeId kMatcher = 100;
  constexpr NodeId kSink = 7;
  constexpr std::size_t kDims = 3;
  const std::vector<Range> domains(kDims, Range{0.0, 100.0});

  runtime::ThreadCluster cluster;
  auto sink_state = std::make_shared<SinkState>();
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [sink_state](NodeId, const Envelope& env,
                                           Timestamp) {
                                sink_state->record(env);
                              }));
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = GetParam().cores;
  mcfg.cover.enabled = GetParam().cover;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher_owned = std::make_unique<MatcherNode>(kMatcher, mcfg);
  const MatcherNode* matcher = matcher_owned.get();
  matcher_owned->set_bootstrap(bootstrap_table({kMatcher}, domains));
  cluster.add_node(kMatcher, std::move(matcher_owned));
  cluster.start_all();

  // The model: what each dimension set and the wide set hold, in injection
  // order. Broad predicates keep every probe busy enough for later writes
  // to land while it runs.
  Rng rng(4242);
  std::vector<std::map<SubscriptionId, Subscription>> live(kDims);
  std::map<SubscriptionId, Subscription> wide;
  SubscriptionId next_id = 1;
  std::vector<std::vector<Range>> templates;
  auto random_sub = [&](double width) {
    Subscription sub;
    sub.id = next_id++;
    sub.subscriber = sub.id;
    if (!templates.empty() && rng.next_below(3) == 0) {
      sub.ranges = templates[rng.next_below(templates.size())];
      return sub;
    }
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 100.0 - width);
      sub.ranges.push_back(Range{lo, lo + width});
    }
    if (templates.size() < 64) templates.push_back(sub.ranges);
    return sub;
  };
  auto store = [&](const Subscription& sub, DimId dim) {
    if (dim == kWideDim) {
      wide[sub.id] = sub;
    } else {
      live[dim][sub.id] = sub;
    }
    cluster.inject(kMatcher, Envelope::of(StoreSubscription{sub, dim}));
  };
  auto remove_random = [&](DimId dim) {
    auto& set = dim == kWideDim ? wide : live[dim];
    if (set.empty()) return;
    auto it = set.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.next_below(static_cast<std::uint64_t>(set.size()))));
    const SubscriptionId id = it->first;
    set.erase(it);
    cluster.inject(kMatcher, Envelope::of(RemoveSubscription{id, dim}));
  };

  for (std::size_t d = 0; d < kDims; ++d) {
    for (int i = 0; i < 600; ++i) store(random_sub(45.0), static_cast<DimId>(d));
  }

  std::map<MessageId, std::set<SubscriptionId>> expected;
  MessageId next_msg = 1;
  std::uint64_t injected = 0;
  const int kRounds = 120;
  for (int round = 0; round < kRounds; ++round) {
    // A burst of requests across the dimensions, each matched by the model
    // as it stands at this point of the script.
    const int burst = 4 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < burst; ++i) {
      MatchRequest req;
      req.msg.id = next_msg++;
      for (std::size_t d = 0; d < kDims; ++d) {
        req.msg.values.push_back(rng.uniform(0.0, 100.0));
      }
      req.dim = static_cast<DimId>(rng.next_below(kDims));
      std::set<SubscriptionId>& want = expected[req.msg.id];
      for (const auto& [id, sub] : live[req.dim]) {
        if (sub.matches(req.msg)) want.insert(id);
      }
      for (const auto& [id, sub] : wide) {
        if (sub.matches(req.msg)) want.insert(id);
      }
      cluster.inject(kMatcher, Envelope::of(std::move(req)));
      ++injected;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (services_started(*matcher) < injected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(services_started(*matcher), injected) << "round " << round;

    // Writes inside the message space: fresh subscriptions (some on two
    // dimensions, sharing one store slot), removals, and now and then a
    // wide-set write, which waits for every probe.
    const int writes = 2 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < writes; ++i) {
      const auto dim = static_cast<DimId>(rng.next_below(kDims));
      switch (rng.next_below(8)) {
        case 0:
          store(random_sub(60.0), kWideDim);
          break;
        case 1:
          remove_random(kWideDim);
          break;
        case 2:
        case 3:
        case 4:
          remove_random(dim);
          break;
        default: {
          const Subscription sub = random_sub(45.0);
          store(sub, dim);
          if (rng.next_below(3) == 0) {
            store(sub, static_cast<DimId>((dim + 1) % kDims));
          }
        }
      }
    }
  }

  const int total = static_cast<int>(injected);
  ASSERT_TRUE(eventually(
      [&] { return sink_state->completed() >= total; }, 60.0))
      << "completed " << sink_state->completed() << "/" << total
      << ", dropped " << cluster.dropped_messages();
  // A message the sink's inbox dropped is a drop, not a wrong match set.
  ASSERT_EQ(cluster.dropped_messages(), 0u);
  for (const auto& [msg_id, want] : expected) {
    EXPECT_EQ(sink_state->delivered(msg_id), want) << "msg " << msg_id;
  }

  // Every held write has landed: the sets match the model once the node
  // thread and its pool are stopped.
  cluster.shutdown();
  for (std::size_t d = 0; d < kDims; ++d) {
    EXPECT_EQ(matcher->raw_set_size(static_cast<DimId>(d)), live[d].size())
        << "dim " << d;
  }
  EXPECT_EQ(matcher->wide_set_size(), wide.size());
}

INSTANTIATE_TEST_SUITE_P(Pool, OrderingDifferential,
                         ::testing::Values(OrderingCase{1, false},
                                           OrderingCase{4, false},
                                           OrderingCase{4, true}),
                         [](const auto& info) {
                           return "Cores" + std::to_string(info.param.cores) +
                                  (info.param.cover ? "Covered" : "");
                         });

// A store/remove on a dimension the matcher does not have is dropped by its
// handler, so it must not wait for the probes in flight, and it must not
// queue behind a held write (which would count it as deferred too).
TEST(WriteDeferral, OutOfRangeWriteNeverWaits) {
  constexpr NodeId kMatcher = 100;
  constexpr NodeId kSink = 7;
  constexpr std::size_t kDims = 2;
  const std::vector<Range> domains(kDims, Range{0.0, 100.0});

  // The sink takes ~105k deliveries. An inbox that holds all of them keeps
  // a sink thread that falls behind on a loaded host from dropping a
  // MatchCompleted, which the completion count below would then miss.
  runtime::ThreadCluster cluster(
      runtime::ThreadClusterConfig{.inbox_capacity = 1u << 17});
  auto sink_state = std::make_shared<SinkState>();
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [sink_state](NodeId, const Envelope& env,
                                           Timestamp) {
                                sink_state->record(env);
                              }));
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 4;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher_owned = std::make_unique<MatcherNode>(kMatcher, mcfg);
  const MatcherNode* matcher = matcher_owned.get();
  matcher_owned->set_bootstrap(bootstrap_table({kMatcher}, domains));
  cluster.add_node(kMatcher, std::move(matcher_owned));
  cluster.start_all();

  Rng rng(77);
  SubscriptionId next_id = 1;
  auto broad_sub = [&] {
    Subscription sub;
    sub.id = next_id++;
    sub.subscriber = sub.id;
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 50.0);
      sub.ranges.push_back(Range{lo, lo + 50.0});
    }
    return sub;
  };
  for (int i = 0; i < 2000; ++i) {
    cluster.inject(kMatcher, Envelope::of(StoreSubscription{
                                 broad_sub(), static_cast<DimId>(i % kDims)}));
  }
  // A deep request queue keeps all four cores busy, so the valid write
  // right behind it is held; the two out-of-range writes behind that must
  // pass straight through.
  const int kRequests = 400;
  for (int i = 0; i < kRequests; ++i) {
    MatchRequest req;
    req.msg.id = static_cast<MessageId>(i + 1);
    req.msg.values = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    req.dim = static_cast<DimId>(i % kDims);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
  }
  const Subscription held = broad_sub();
  cluster.inject(kMatcher, Envelope::of(StoreSubscription{held, 0}));
  cluster.inject(kMatcher, Envelope::of(StoreSubscription{
                               broad_sub(), static_cast<DimId>(kDims)}));
  cluster.inject(kMatcher, Envelope::of(RemoveSubscription{
                               held.id, static_cast<DimId>(kDims + 3)}));

  ASSERT_TRUE(eventually(
      [&] { return sink_state->completed() >= kRequests; }, 60.0))
      << "completed " << sink_state->completed() << "/" << kRequests;
  cluster.shutdown();
  EXPECT_EQ(cluster.dropped_messages(), 0u);

  const obs::MetricsSnapshot snap = matcher->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("matcher.writes_deferred"), 1u);
  EXPECT_EQ(matcher->raw_set_size(0), 1001u);
  EXPECT_EQ(matcher->raw_set_size(1), 1000u);
}

using testing_owners::LatchedNode;

// At cores = 1 the real-time substrates run the probe inline on the node
// thread, but its completion waits for the end of the loop pass. A write
// read in that same pass lands between the two and must wait for the
// completion, whose cover expansion reads the group as it was probed.
TEST(WriteDeferral, OneCoreHoldsWriteUntilCompletion) {
  constexpr NodeId kMatcher = 100;
  constexpr NodeId kSink = 7;
  const std::vector<Range> domains(2, Range{0.0, 100.0});

  runtime::ThreadCluster cluster;
  auto sink_state = std::make_shared<SinkState>();
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [sink_state](NodeId, const Envelope& env,
                                           Timestamp) {
                                sink_state->record(env);
                              }));
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.cover.enabled = true;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher_owned = std::make_unique<MatcherNode>(kMatcher, mcfg);
  const MatcherNode* matcher = matcher_owned.get();
  matcher_owned->set_bootstrap(bootstrap_table({kMatcher}, domains));
  auto latched = std::make_unique<LatchedNode>(std::move(matcher_owned));
  LatchedNode* latch = latched.get();
  cluster.add_node(kMatcher, std::move(latched));
  cluster.start_all();

  // Exact duplicates share one cover group: the probe hits its
  // representative, and the completion expands it into the members.
  auto duplicate = [](SubscriptionId id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges = {Range{40.0, 60.0}, Range{40.0, 60.0}};
    return sub;
  };
  LinearScanIndex probed_table(0);
  for (SubscriptionId id = 1; id <= 3; ++id) {
    probed_table.insert(duplicate(id));
    cluster.inject(kMatcher,
                   Envelope::of(StoreSubscription{duplicate(id), 0}));
  }
  cluster.inject(kMatcher, Envelope::of(ClientPublish{}));
  ASSERT_TRUE(eventually([&] { return latch->entered.load(); }));
  // Both wait behind the latch: the request's probe runs first, and the
  // write joins the group before the completion unless it is held.
  MatchRequest req;
  req.msg.id = 1;
  req.msg.values = {50.0, 50.0};
  req.dim = 0;
  const std::vector<SubscriptionId> want = hit_ids(probed_table, req.msg);
  cluster.inject(kMatcher, Envelope::of(std::move(req)));
  cluster.inject(kMatcher, Envelope::of(StoreSubscription{duplicate(4), 0}));
  latch->release.store(true);

  ASSERT_TRUE(eventually([&] { return sink_state->completed() >= 1; }));
  cluster.shutdown();
  EXPECT_EQ(cluster.dropped_messages(), 0u);
  const obs::MetricsSnapshot snap = matcher->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("matcher.writes_deferred"), 1u);
  const std::set<SubscriptionId> delivered = sink_state->delivered(1);
  EXPECT_EQ(std::vector<SubscriptionId>(delivered.begin(), delivered.end()),
            want);
  EXPECT_EQ(want.size(), 3u);
  EXPECT_EQ(matcher->raw_set_size(0), 4u);
  EXPECT_EQ(matcher->set_size(0), 1u);
}

// ---------------------------------------------------------------------------
// TcpHost: the wire substrate grants a pool too
// ---------------------------------------------------------------------------

class AckCountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope env) override {
    if (std::holds_alternative<MatchAck>(env.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  int acks() const { return acks_.load(std::memory_order_relaxed); }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<int> acks_{0};
};

TEST(TcpParallelMatcher, ServicesBatchesThroughWorkerPool) {
  constexpr NodeId kMatcher = 1000;
  constexpr NodeId kClient = 2;
  constexpr std::size_t kDims = 4;
  const std::vector<Range> domains(kDims, Range{0.0, 100.0});

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 8;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 16;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher->set_bootstrap(bootstrap_table({kMatcher}, domains));
  net::TcpHost matcher_host(kMatcher, 0, std::move(matcher));

  net::WireConfig wire;
  wire.batch = 16;
  wire.queue_capacity = 16384;
  net::TcpHost client_host(kClient, 0, std::make_unique<AckCountingNode>(),
                           42, wire);
  auto* client = client_host.node_as<AckCountingNode>();
  matcher_host.add_peer(kClient, {"127.0.0.1", client_host.port()});
  client_host.add_peer(kMatcher, {"127.0.0.1", matcher_host.port()});
  matcher_host.start();
  client_host.start();
  ASSERT_TRUE(eventually([&] { return client->ctx() != nullptr; }));
  NodeContext* ctx = client->ctx();

  Rng rng(5);
  for (SubscriptionId id = 1; id <= 2000; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 90.0);
      sub.ranges.push_back(Range{lo, lo + 10.0});
    }
    ctx->send(kMatcher, Envelope::of(StoreSubscription{
                            std::move(sub), static_cast<DimId>(id % kDims)}));
  }
  const int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i) {
    MatchRequest req;
    req.msg.id = static_cast<MessageId>(i + 1);
    req.msg.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      req.msg.values.push_back(rng.uniform(0.0, 100.0));
    }
    req.dim = static_cast<DimId>(i % kDims);
    req.reply_to = kClient;
    ctx->send(kMatcher, Envelope::of(std::move(req)));
  }
  ASSERT_TRUE(eventually([&] { return client->acks() >= kRequests; }, 60.0))
      << "acks " << client->acks();

  // The pool actually ran the services: exec.* counters are merged into the
  // host's wire metrics.
  const obs::MetricsSnapshot snap = matcher_host.wire_metrics().snapshot();
  const auto jobs = snap.counters.find("exec.jobs");
  ASSERT_NE(jobs, snap.counters.end());
  EXPECT_GT(jobs->second, 0u);

  client_host.stop();
  matcher_host.stop();
}

}  // namespace
}  // namespace bluedove
