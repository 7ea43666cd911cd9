// Tests for MatcherNode and DispatcherNode on the simulator, using recorder
// nodes to observe the wire traffic each emits.

#include <gtest/gtest.h>

#include <map>

#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "sim/sim_cluster.h"

namespace bluedove {
namespace {

constexpr NodeId kDispatcher = 10;
constexpr NodeId kSink = 2;
constexpr NodeId kM0 = 1000;
constexpr NodeId kM1 = 1001;
constexpr NodeId kM2 = 1002;
constexpr NodeId kM3 = 1003;

/// Records every envelope it receives, by type.
class Recorder final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId from, Envelope env) override {
    all.push_back({from, std::move(env)});
  }
  template <typename T>
  std::vector<T> of() const {
    std::vector<T> out;
    for (const auto& [from, env] : all) {
      if (const T* msg = std::get_if<T>(&env.payload)) out.push_back(*msg);
    }
    return out;
  }
  template <typename T>
  std::size_t count() const {
    return of<T>().size();
  }
  NodeContext* ctx_ = nullptr;
  std::vector<std::pair<NodeId, Envelope>> all;
};

Subscription sub_with(std::vector<Range> ranges, SubscriptionId id) {
  Subscription s;
  s.id = id;
  s.subscriber = id;
  s.ranges = std::move(ranges);
  return s;
}

struct MatcherFixture {
  explicit MatcherFixture(std::size_t matcher_count = 2,
                          MatcherConfig::MatchMode mode =
                              MatcherConfig::MatchMode::kFull,
                          int cores = 4,
                          IndexKind index_kind = IndexKind::kLinearScan,
                          int match_batch = 1, bool cover = false) {
    sim::SimConfig scfg;
    scfg.net_jitter = 0.0;
    scfg.sec_per_work_unit = 1e-5;  // coarse so queues are observable
    sim = std::make_unique<sim::SimCluster>(scfg);

    auto rec = std::make_unique<Recorder>();
    sink = rec.get();
    sim->add_node(kSink, std::move(rec));
    auto drec = std::make_unique<Recorder>();
    fake_dispatcher = drec.get();
    sim->add_node(kDispatcher, std::move(drec));

    std::vector<Range> domains(2, Range{0, 1000});
    for (std::size_t i = 0; i < matcher_count; ++i) ids.push_back(kM0 + i);
    const ClusterTable boot = bootstrap_table(ids, domains);

    MatcherConfig cfg;
    cfg.domains = domains;
    cfg.cores = cores;
    cfg.match_mode = mode;
    cfg.index_kind = index_kind;
    cfg.match_batch = match_batch;
    cfg.cover.enabled = cover;
    cfg.dispatchers = {kDispatcher};
    cfg.metrics_sink = kSink;
    cfg.delivery_sink = kSink;
    for (NodeId id : ids) {
      auto node = std::make_unique<MatcherNode>(id, cfg);
      node->set_bootstrap(boot);
      matchers[id] = node.get();
      sim->add_node(id, std::move(node));
    }
    sim->start_all();
    sim->run_for(0.01);
  }

  void store(NodeId to, Subscription sub, DimId dim) {
    sim->inject(to, Envelope::of(StoreSubscription{std::move(sub), dim}));
  }
  void match(NodeId to, Message msg, DimId dim) {
    sim->inject(to, Envelope::of(MatchRequest{std::move(msg), dim, sim->now()}));
  }

  std::unique_ptr<sim::SimCluster> sim;
  Recorder* sink = nullptr;
  Recorder* fake_dispatcher = nullptr;
  std::vector<NodeId> ids;
  std::map<NodeId, MatcherNode*> matchers;
};

// ---------------------------------------------------------------------------
// MatcherNode: storage
// ---------------------------------------------------------------------------

TEST(MatcherNode, StoresPerDimensionSets) {
  MatcherFixture fx;
  fx.store(kM0, sub_with({{0, 100}, {0, 100}}, 1), 0);
  fx.store(kM0, sub_with({{0, 100}, {0, 100}}, 2), 1);
  fx.sim->run_for(0.01);
  EXPECT_EQ(fx.matchers[kM0]->set_size(0), 1u);
  EXPECT_EQ(fx.matchers[kM0]->set_size(1), 1u);
  EXPECT_EQ(fx.matchers[kM0]->stored_copies(), 2u);
}

TEST(MatcherNode, DuplicateStoreIgnored) {
  // Membership is the index's, or the cover table's when covering is on:
  // a repeated store changes nothing, and neither does removing an id that
  // was never stored.
  struct Case {
    IndexKind kind;
    bool cover;
  };
  for (const Case c : {Case{IndexKind::kLinearScan, false},
                       Case{IndexKind::kFlatBucket, false},
                       Case{IndexKind::kFlatBucket, true}}) {
    SCOPED_TRACE(std::string(to_string(c.kind)) + (c.cover ? " covered" : ""));
    MatcherFixture fx(2, MatcherConfig::MatchMode::kFull, 4, c.kind, 1,
                      c.cover);
    for (int i = 0; i < 3; ++i) {
      fx.store(kM0, sub_with({{0, 100}, {0, 100}}, 1), 0);
      fx.store(kM0, sub_with({{0, 1000}, {0, 1000}}, 7), kWideDim);
    }
    fx.sim->inject(kM0, Envelope::of(RemoveSubscription{42, 0}));
    fx.sim->inject(kM0, Envelope::of(RemoveSubscription{42, kWideDim}));
    fx.sim->run_for(0.01);
    EXPECT_EQ(fx.matchers[kM0]->set_size(0), 1u);
    EXPECT_EQ(fx.matchers[kM0]->raw_set_size(0), 1u);
    EXPECT_EQ(fx.matchers[kM0]->wide_set_size(), 1u);
    EXPECT_EQ(fx.matchers[kM0]->stored_copies(), 2u);
  }
}

TEST(MatcherNode, RemoveSubscription) {
  MatcherFixture fx;
  fx.store(kM0, sub_with({{0, 100}, {0, 100}}, 1), 0);
  fx.sim->run_for(0.01);
  fx.sim->inject(kM0, Envelope::of(RemoveSubscription{1, 0}));
  fx.sim->run_for(0.01);
  EXPECT_EQ(fx.matchers[kM0]->set_size(0), 0u);
}

TEST(MatcherNode, WideSetStorage) {
  MatcherFixture fx;
  fx.store(kM0, sub_with({{0, 1000}, {0, 1000}}, 7), kWideDim);
  fx.sim->run_for(0.01);
  EXPECT_EQ(fx.matchers[kM0]->wide_set_size(), 1u);
  EXPECT_EQ(fx.matchers[kM0]->set_size(0), 0u);
  // Wide subscriptions are searched for every request regardless of dim.
  fx.match(kM0, Message{1, {500, 500}, ""}, 1);
  fx.sim->run_for(0.1);
  EXPECT_EQ(fx.sink->count<Delivery>(), 1u);
}

TEST(MatcherNode, InvalidDimensionIgnored) {
  MatcherFixture fx;
  fx.store(kM0, sub_with({{0, 100}, {0, 100}}, 1), 9);  // no dim 9
  fx.sim->run_for(0.01);
  EXPECT_EQ(fx.matchers[kM0]->stored_copies(), 0u);
  fx.match(kM0, Message{1, {5, 5}, ""}, 9);  // dropped, no crash
  fx.sim->run_for(0.1);
  EXPECT_EQ(fx.sink->count<MatchCompleted>(), 0u);
}

// Every store path refuses a subscription whose dimension count differs
// from the schema's, entry by entry, on a covered flat-bucket matcher:
// the valid entries of a split handover and a leave merge are stored, the
// others dropped and counted.
TEST(MatcherNode, WrongArityHandoverAndMergeEntriesAreRefused) {
  MatcherFixture fx(2, MatcherConfig::MatchMode::kFull, 4,
                    IndexKind::kFlatBucket, 1, /*cover=*/true);
  HandoverSegment handover;
  handover.dim = 0;
  handover.newcomer_segment = Range{0, 500};
  handover.subs = {sub_with({{0, 100}, {0, 100}}, 1),
                   sub_with({{0, 100}}, 2),
                   sub_with({{0, 100}, {0, 100}, {0, 100}}, 3)};
  fx.sim->inject(kM0, Envelope::of(std::move(handover)));
  HandoverMerge merge;
  merge.dim = 1;
  merge.merged_segment = Range{0, 1000};  // the neighbour's half joins
  merge.subs = {sub_with({{0, 100}}, 4), sub_with({{0, 100}, {0, 100}}, 5)};
  fx.sim->inject(kM0, Envelope::of(std::move(merge)));
  fx.sim->run_for(0.01);
  EXPECT_EQ(fx.matchers[kM0]->raw_set_size(0), 1u);
  EXPECT_EQ(fx.matchers[kM0]->raw_set_size(1), 1u);
  EXPECT_EQ(fx.matchers[kM0]->metrics().snapshot().counters.at(
                "matcher.arity_rejects"),
            3u);
  fx.match(kM0, Message{1, {50, 50}, ""}, 0);
  fx.match(kM0, Message{2, {50, 50}, ""}, 1);
  fx.sim->run_for(0.2);
  EXPECT_EQ(fx.sink->count<MatchCompleted>(), 2u);
  EXPECT_EQ(fx.sink->count<Delivery>(), 2u);  // subs 1 and 5, once each
}

// ---------------------------------------------------------------------------
// MatcherNode: matching service
// ---------------------------------------------------------------------------

TEST(MatcherNode, FullModeDeliversMatchesAndReportsCompletion) {
  MatcherFixture fx;
  fx.store(kM0, sub_with({{0, 100}, {0, 1000}}, 1), 0);
  fx.store(kM0, sub_with({{500, 600}, {0, 1000}}, 2), 0);
  fx.sim->run_for(0.01);
  fx.match(kM0, Message{42, {50, 500}, ""}, 0);
  fx.sim->run_for(0.2);
  const auto deliveries = fx.sink->of<Delivery>();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].sub_id, 1u);
  EXPECT_EQ(deliveries[0].msg_id, 42u);
  const auto completed = fx.sink->of<MatchCompleted>();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].match_count, 1u);
  EXPECT_EQ(completed[0].matcher, kM0);
  EXPECT_GT(completed[0].work_units, 0.0);
}

TEST(MatcherNode, CostOnlyModeSkipsDeliveries) {
  MatcherFixture fx(2, MatcherConfig::MatchMode::kCostOnly);
  fx.store(kM0, sub_with({{0, 100}, {0, 1000}}, 1), 0);
  fx.sim->run_for(0.01);
  fx.match(kM0, Message{42, {50, 500}, ""}, 0);
  fx.sim->run_for(0.2);
  EXPECT_EQ(fx.sink->count<Delivery>(), 0u);
  EXPECT_EQ(fx.sink->count<MatchCompleted>(), 1u);
  EXPECT_EQ(fx.matchers[kM0]->matched_total(), 1u);
}

TEST(MatcherNode, CoreLimitQueuesExcessRequests) {
  // 1 core, work 25 base units at 1e-5 s/unit -> 0.25 ms per message.
  MatcherFixture fx(1, MatcherConfig::MatchMode::kCostOnly, /*cores=*/1);
  for (int i = 0; i < 10; ++i) {
    fx.match(kM0, Message{static_cast<MessageId>(i), {5, 5}, ""}, 0);
  }
  fx.sim->run_for(0.0015);  // deliveries landed, few services done
  EXPECT_GT(fx.matchers[kM0]->queue_length(0), 0u);
  fx.sim->run_for(1.0);
  EXPECT_EQ(fx.matchers[kM0]->queue_length(0), 0u);
  EXPECT_EQ(fx.sink->count<MatchCompleted>(), 10u);
}

TEST(MatcherNode, RoundRobinAcrossDimensionQueues) {
  MatcherFixture fx(1, MatcherConfig::MatchMode::kCostOnly, /*cores=*/1);
  for (int i = 0; i < 6; ++i) {
    fx.match(kM0, Message{static_cast<MessageId>(i), {5, 5}, ""},
             static_cast<DimId>(i % 2));
  }
  fx.sim->run_for(1.0);
  const auto completed = fx.sink->of<MatchCompleted>();
  ASSERT_EQ(completed.size(), 6u);
  // Completions should alternate dimensions (round-robin service).
  int transitions = 0;
  for (std::size_t i = 1; i < completed.size(); ++i) {
    if (completed[i].dim != completed[i - 1].dim) ++transitions;
  }
  EXPECT_GE(transitions, 4);
}

TEST(MatcherNode, BatchedServiceMatchesAndDeliversLikeUnbatched) {
  // FlatBucket engine + batch 4: one core drains whole batches through
  // match_batch, yet every request still produces its MatchCompleted and
  // the same deliveries as per-message service would.
  MatcherFixture fx(1, MatcherConfig::MatchMode::kFull, /*cores=*/1,
                    IndexKind::kFlatBucket, /*match_batch=*/4);
  fx.store(kM0, sub_with({{0, 100}, {0, 1000}}, 1), 0);
  fx.store(kM0, sub_with({{400, 500}, {0, 1000}}, 2), 0);
  fx.sim->run_for(0.01);
  for (int i = 0; i < 10; ++i) {
    const double v = (i % 2 == 0) ? 50.0 : 450.0;
    fx.match(kM0, Message{static_cast<MessageId>(i + 1), {v, 500}, "pp"}, 0);
  }
  fx.sim->run_for(1.0);
  const auto completed = fx.sink->of<MatchCompleted>();
  ASSERT_EQ(completed.size(), 10u);
  for (const auto& done : completed) {
    EXPECT_EQ(done.match_count, 1u);
    EXPECT_GT(done.work_units, 0.0);
  }
  const auto deliveries = fx.sink->of<Delivery>();
  ASSERT_EQ(deliveries.size(), 10u);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(d.sub_id == 1u || d.sub_id == 2u);
    EXPECT_EQ(d.payload, "pp");  // payload shared across the fan-out intact
  }
  EXPECT_EQ(fx.matchers[kM0]->matched_total(), 10u);
  EXPECT_EQ(fx.matchers[kM0]->queue_length(0), 0u);
}

TEST(MatcherNode, BatchRespectsQueueBoundaries) {
  // Batch larger than either queue: requests from different dimensions are
  // never folded into one batch (a batch serves a single dimension set).
  MatcherFixture fx(1, MatcherConfig::MatchMode::kCostOnly, /*cores=*/1,
                    IndexKind::kLinearScan, /*match_batch=*/8);
  for (int i = 0; i < 6; ++i) {
    fx.match(kM0, Message{static_cast<MessageId>(i + 1), {5, 5}, ""},
             static_cast<DimId>(i % 2));
  }
  fx.sim->run_for(1.0);
  const auto completed = fx.sink->of<MatchCompleted>();
  ASSERT_EQ(completed.size(), 6u);
  std::size_t per_dim[2] = {0, 0};
  for (const auto& done : completed) ++per_dim[done.dim];
  EXPECT_EQ(per_dim[0], 3u);
  EXPECT_EQ(per_dim[1], 3u);
}

// ---------------------------------------------------------------------------
// MatcherNode: load reports
// ---------------------------------------------------------------------------

TEST(MatcherNode, LoadReportPushedOnChangeOnly) {
  MatcherFixture fx(1, MatcherConfig::MatchMode::kCostOnly);
  fx.sim->run_for(3.5);  // a few report intervals, nothing happening
  const std::size_t initial = fx.fake_dispatcher->count<LoadReport>();
  EXPECT_LE(initial, 2u);  // first report, then suppressed
  // Traffic changes lambda -> a push must follow.
  for (int i = 0; i < 50; ++i) {
    fx.match(kM0, Message{static_cast<MessageId>(i), {5, 5}, ""}, 0);
  }
  fx.sim->run_for(1.2);
  EXPECT_GT(fx.fake_dispatcher->count<LoadReport>(), initial);
  const auto reports = fx.fake_dispatcher->of<LoadReport>();
  const LoadReport& last = reports.back();
  ASSERT_EQ(last.dims.size(), 2u);
  EXPECT_GT(last.dims[0].arrival_rate, 0.0);
  EXPECT_EQ(last.cores, 4u);
}

TEST(MatcherNode, TablePullAnswered) {
  MatcherFixture fx;
  fx.sim->inject(kM0, Envelope::of(TablePullReq{}));
  // Injected messages arrive with from == kInvalidNode, so use a real peer:
  fx.fake_dispatcher->ctx_->send(kM0, Envelope::of(TablePullReq{}));
  fx.sim->run_for(0.05);
  const auto resps = fx.fake_dispatcher->of<TablePullResp>();
  ASSERT_GE(resps.size(), 1u);
  EXPECT_EQ(resps[0].table.size(), 2u);
}

// ---------------------------------------------------------------------------
// MatcherNode: elasticity (split / leave)
// ---------------------------------------------------------------------------

TEST(MatcherNode, SplitHandsOverUpperHalf) {
  MatcherFixture fx(2);
  // kM0 owns [0,500) on both dims. Three subs on dim 0: lower, straddle,
  // upper part of its segment.
  fx.store(kM0, sub_with({{0, 100}, {0, 1000}}, 1), 0);
  fx.store(kM0, sub_with({{200, 300}, {0, 1000}}, 2), 0);
  fx.store(kM0, sub_with({{300, 450}, {0, 1000}}, 3), 0);
  fx.sim->run_for(0.01);

  // Fresh joiner node (no bootstrap): it will receive the handover.
  const NodeId joiner = 2000;
  MatcherConfig jcfg;
  jcfg.domains = {Range{0, 1000}, Range{0, 1000}};
  jcfg.dispatchers = {kDispatcher};
  auto jnode = std::make_unique<MatcherNode>(joiner, jcfg);
  MatcherNode* joiner_raw = jnode.get();
  fx.sim->add_node(joiner, std::move(jnode));
  fx.sim->start(joiner);
  fx.sim->run_for(0.01);

  fx.sim->inject(kM0, Envelope::of(SplitCommand{joiner, 0}));
  fx.sim->inject(kM0, Envelope::of(SplitCommand{joiner, 1}));
  fx.sim->run_for(0.05);

  // Victim keeps [0,250) on dim0; subs 1 and 2 overlap it, 3 does not.
  EXPECT_EQ(fx.matchers[kM0]->segment(0), (Range{0, 250}));
  EXPECT_EQ(fx.matchers[kM0]->set_size(0), 2u);
  // Joiner got [250,500): subs 2 (straddles) and 3.
  EXPECT_EQ(joiner_raw->segment(0), (Range{250, 500}));
  EXPECT_EQ(joiner_raw->set_size(0), 2u);
  // Joiner received a segment on every dim -> it is alive in its own table.
  ASSERT_NE(joiner_raw->gossiper().self_state(), nullptr);
  EXPECT_TRUE(joiner_raw->gossiper().self_state()->alive());
}

TEST(MatcherNode, LeaveMergesIntoNeighbor) {
  MatcherFixture fx(2);
  // kM0 owns [0,500), kM1 owns [500,1000) on both dims.
  fx.store(kM0, sub_with({{100, 200}, {0, 1000}}, 1), 0);
  fx.sim->run_for(0.01);
  fx.sim->inject(kM0, Envelope::of(LeaveRequest{}));
  fx.sim->run_for(0.05);
  EXPECT_EQ(fx.matchers[kM1]->segment(0), (Range{0, 1000}));
  EXPECT_EQ(fx.matchers[kM1]->set_size(0), 1u);
  const MatcherState* left = fx.matchers[kM0]->gossiper().self_state();
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->status, NodeStatus::kLeft);
  // A left matcher drops further match requests.
  fx.match(kM0, Message{1, {150, 5}, ""}, 0);
  fx.sim->run_for(0.2);
  EXPECT_EQ(fx.sink->count<MatchCompleted>(), 0u);
}

// ---------------------------------------------------------------------------
// DispatcherNode
// ---------------------------------------------------------------------------

struct DispatcherFixture {
  explicit DispatcherFixture(bool auto_scale = false) {
    sim::SimConfig scfg;
    scfg.net_jitter = 0.0;
    sim = std::make_unique<sim::SimCluster>(scfg);

    // Four recorder nodes standing in for matchers.
    std::vector<Range> domains(2, Range{0, 1000});
    ids = {kM0, kM1, kM2, kM3};
    for (NodeId id : ids) {
      auto rec = std::make_unique<Recorder>();
      fake_matchers[id] = rec.get();
      sim->add_node(id, std::move(rec));
    }
    DispatcherConfig cfg;
    cfg.domains = domains;
    cfg.policy = PolicyKind::kAdaptive;
    cfg.auto_scale = auto_scale;
    auto node = std::make_unique<DispatcherNode>(kDispatcher, cfg);
    node->set_bootstrap(bootstrap_table(ids, domains));
    dispatcher = node.get();
    sim->add_node(kDispatcher, std::move(node));
    sim->start_all();
    sim->run_for(0.01);
  }

  std::unique_ptr<sim::SimCluster> sim;
  DispatcherNode* dispatcher = nullptr;
  std::map<NodeId, Recorder*> fake_matchers;
  std::vector<NodeId> ids;
};

TEST(DispatcherNode, SubscribePlacesCopiesPerDimension) {
  DispatcherFixture fx;
  // dim0 range spans segments of kM0+kM1; dim1 range inside kM2's segment.
  fx.sim->inject(kDispatcher, Envelope::of(ClientSubscribe{
                                  sub_with({{200, 300}, {510, 520}}, 1)}));
  fx.sim->run_for(0.05);
  EXPECT_EQ(fx.fake_matchers[kM0]->count<StoreSubscription>(), 1u);
  EXPECT_EQ(fx.fake_matchers[kM1]->count<StoreSubscription>(), 1u);
  EXPECT_EQ(fx.fake_matchers[kM2]->count<StoreSubscription>(), 1u);
  EXPECT_EQ(fx.fake_matchers[kM0]->of<StoreSubscription>()[0].dim, 0);
  EXPECT_EQ(fx.fake_matchers[kM2]->of<StoreSubscription>()[0].dim, 1);
}

TEST(DispatcherNode, UnsubscribeRemovesSameCopies) {
  DispatcherFixture fx;
  const Subscription sub = sub_with({{200, 300}, {510, 520}}, 1);
  fx.sim->inject(kDispatcher, Envelope::of(ClientSubscribe{sub}));
  fx.sim->run_for(0.05);
  fx.sim->inject(kDispatcher, Envelope::of(ClientUnsubscribe{sub}));
  fx.sim->run_for(0.05);
  for (NodeId id : {kM0, kM1, kM2}) {
    EXPECT_EQ(fx.fake_matchers[id]->count<RemoveSubscription>(),
              fx.fake_matchers[id]->count<StoreSubscription>())
        << "matcher " << id;
  }
  EXPECT_EQ(fx.fake_matchers[kM3]->count<RemoveSubscription>(), 0u);
}

TEST(DispatcherNode, PublishForwardsToOneCandidate) {
  DispatcherFixture fx;
  fx.sim->inject(kDispatcher,
                 Envelope::of(ClientPublish{Message{5, {100, 900}, ""}}));
  fx.sim->run_for(0.05);
  // Candidates: kM0 (dim0 owner of 100) and kM3 (dim1 owner of 900).
  const std::size_t total = fx.fake_matchers[kM0]->count<MatchRequest>() +
                            fx.fake_matchers[kM3]->count<MatchRequest>();
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(fx.fake_matchers[kM1]->count<MatchRequest>(), 0u);
  EXPECT_EQ(fx.dispatcher->published(), 1u);
}

TEST(DispatcherNode, LoadReportsSteerForwarding) {
  DispatcherFixture fx;
  // Make kM0 look saturated and kM3 idle.
  LoadReport busy;
  busy.cores = 4;
  busy.utilization = 1.0;
  busy.dims = {DimLoad{500, 100, 10, 0.01, 5000}, DimLoad{0, 0, 0, 0, 0}};
  busy.measured_at = fx.sim->now();
  LoadReport idle;
  idle.cores = 4;
  idle.utilization = 0.01;
  idle.dims = {DimLoad{0, 0, 0, 0.0001, 10}, DimLoad{0, 0, 0, 0.0001, 10}};
  idle.measured_at = fx.sim->now();
  fx.fake_matchers[kM0]->ctx_->send(kDispatcher, Envelope::of(busy));
  fx.fake_matchers[kM3]->ctx_->send(kDispatcher, Envelope::of(idle));
  fx.sim->run_for(0.05);
  for (int i = 0; i < 20; ++i) {
    fx.sim->inject(kDispatcher,
                   Envelope::of(ClientPublish{Message{1, {100, 900}, ""}}));
  }
  fx.sim->run_for(0.05);
  EXPECT_GT(fx.fake_matchers[kM3]->count<MatchRequest>(), 15u);
}

// The auto-scaler checks the load view every 5 s, asks for capacity after
// two saturated checks in a row, and asks at most once per 30 s.
TEST(DispatcherNode, AutoScalerWaitsTwoSaturatedChecksThenCoolsDown) {
  DispatcherFixture fx(/*auto_scale=*/true);
  std::vector<Timestamp> requests;
  fx.dispatcher->on_need_capacity = [&] { requests.push_back(fx.sim->now()); };
  auto report = [&](double queue_len, double arrival, double matching) {
    LoadReport r;
    r.cores = 4;
    r.dims = {DimLoad{queue_len, arrival, matching, 0.01, 100},
              DimLoad{0, 0, 0, 0, 0}};
    r.measured_at = fx.sim->now();
    fx.fake_matchers[kM0]->ctx_->send(kDispatcher, Envelope::of(r));
  };
  // Saturated: arrivals outrun matching and the backlog passes 4 per
  // matcher. The check at t=5 is the first saturated one: no request.
  report(500, 100, 10);
  fx.sim->run_for(7.0);
  EXPECT_TRUE(requests.empty());
  // An idle report before the t=10 check breaks the run of saturated checks.
  report(0, 10, 10);
  fx.sim->run_for(5.0);
  EXPECT_TRUE(requests.empty());
  // Saturated again from t=12: checks at 15 and 20, so the request comes at
  // the second of them.
  report(500, 100, 10);
  fx.sim->run_for(4.0);
  EXPECT_TRUE(requests.empty());
  fx.sim->run_for(5.0);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_NEAR(requests[0], 20.0, 0.01);
  // Saturation persists: no second request within 30 s of the first, then
  // one at the first check past the cooldown.
  fx.sim->run_for(30.0);
  EXPECT_EQ(requests.size(), 1u);
  fx.sim->run_for(6.0);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_GT(requests[1] - requests[0], 30.0);
  EXPECT_LE(requests[1] - requests[0], 35.0 + 1e-6);
}

TEST(DispatcherNode, DropsWhenNoCandidate) {
  DispatcherFixture fx;
  // Kill all matchers in the table via a pull response marking them dead.
  ClusterTable dead_table = fx.dispatcher->table();
  for (NodeId id : fx.ids) {
    MatcherState s = *dead_table.find(id);
    s.status = NodeStatus::kDead;
    s.version += 1;
    dead_table.merge(s);
  }
  fx.fake_matchers[kM0]->ctx_->send(kDispatcher,
                                    Envelope::of(TablePullResp{dead_table}));
  fx.sim->run_for(0.05);
  fx.sim->inject(kDispatcher,
                 Envelope::of(ClientPublish{Message{1, {100, 900}, ""}}));
  fx.sim->run_for(0.05);
  EXPECT_EQ(fx.dispatcher->dropped_no_candidate(), 1u);
}

TEST(DispatcherNode, PullsTablePeriodically) {
  DispatcherFixture fx;
  fx.sim->run_for(25.0);
  std::size_t pulls = 0;
  for (NodeId id : fx.ids) pulls += fx.fake_matchers[id]->count<TablePullReq>();
  EXPECT_GE(pulls, 2u);  // every 10 s
}

TEST(DispatcherNode, JoinTriggersSplitCommandsAndTable) {
  DispatcherFixture fx;
  // The joiner announces itself from a recorder node.
  auto rec = std::make_unique<Recorder>();
  Recorder* joiner = rec.get();
  fx.sim->add_node(3000, std::move(rec));
  fx.sim->start(3000);
  fx.sim->run_for(0.01);
  joiner->ctx_->send(kDispatcher, Envelope::of(JoinRequest{}));
  fx.sim->run_for(0.05);
  EXPECT_EQ(joiner->count<TablePullResp>(), 1u);
  std::size_t splits = 0;
  for (NodeId id : fx.ids) {
    for (const auto& cmd : fx.fake_matchers[id]->of<SplitCommand>()) {
      EXPECT_EQ(cmd.newcomer, 3000u);
      ++splits;
    }
  }
  EXPECT_EQ(splits, 2u);  // one victim per dimension
}

}  // namespace
}  // namespace bluedove
