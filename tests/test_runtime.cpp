// Tests for the real-time substrates in isolation — the Service facade
// exercises them end-to-end; these pin the transport semantics themselves.
// The context tests run once per owner of the shared net::NodeLoop: a
// ThreadCluster node and a loopback TcpHost.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/thread_safety.h"
#include "node_owners.h"
#include "runtime/thread_cluster.h"

namespace bluedove {
namespace {

bool eventually(const std::function<bool()>& pred, double seconds = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

class ProbeNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_ = &ctx;
    started.store(true);
  }
  void on_receive(NodeId from, Envelope env) override {
    last_from.store(from);
    received.fetch_add(1);
    if (forward_to != kInvalidNode) {
      ctx_->send(forward_to, std::move(env));
    }
  }
  void stop() override { stopped.store(true); }

  NodeContext* ctx_ = nullptr;
  NodeId forward_to = kInvalidNode;
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::atomic<int> received{0};
  std::atomic<NodeId> last_from{kInvalidNode};
};

using testing_owners::ClusterOwner;
using testing_owners::TcpOwner;

template <typename Owner>
void start_delivers_and_stops() {
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  Owner owner(std::move(node));
  EXPECT_FALSE(owner.running());
  owner.start();
  EXPECT_TRUE(eventually([&] { return probe->started.load(); }));
  EXPECT_TRUE(owner.running());
  owner.inject(Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return probe->received.load() == 1; }));
  EXPECT_EQ(probe->last_from.load(), kInvalidNode);
  owner.stop();
  EXPECT_TRUE(probe->stopped.load());
  EXPECT_FALSE(owner.running());
}

template <typename Owner>
void timers_and_cancellation() {
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  Owner owner(std::move(node));
  owner.start();
  ASSERT_TRUE(eventually([&] { return probe->started.load(); }));
  std::atomic<int> fired{0};
  probe->ctx_->set_timer(0.03, [&] { fired.fetch_add(1); });
  const TimerId cancel_me =
      probe->ctx_->set_timer(0.03, [&] { fired.fetch_add(100); });
  probe->ctx_->cancel_timer(cancel_me);
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 1);
  owner.stop();
}

template <typename Owner>
void charge_defers_without_recursion() {
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  Owner owner(std::move(node));
  owner.start();
  ASSERT_TRUE(eventually([&] { return probe->started.load(); }));
  std::atomic<int> done{0};
  // A long chain of charge() completions must not blow the stack.
  std::function<void()> step;
  step = [&] {
    if (done.fetch_add(1) < 5000) probe->ctx_->charge(1.0, step);
  };
  probe->ctx_->charge(1.0, step);
  EXPECT_TRUE(eventually([&] { return done.load() >= 5001; }, 10.0));
  owner.stop();
}

template <typename Owner>
void now_advances() {
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  Owner owner(std::move(node));
  owner.start();
  ASSERT_TRUE(eventually([&] { return probe->started.load(); }));
  const Timestamp t0 = probe->ctx_->now();
  EXPECT_GE(t0, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(probe->ctx_->now(), t0 + 0.02);
  owner.stop();
}

Envelope publish(MessageId id) {
  ClientPublish p;
  p.msg.id = id;
  return Envelope::of(std::move(p));
}

/// On its first message, charges a chain of kLinks completions: each link
/// charges the next from its own completion and sends one publish to the
/// node itself. The first link arms a zero-delay timer, which fires in the
/// pass after the one that ran that link; it records how many links had
/// run by then.
class ChainNode final : public Node {
 public:
  static constexpr int kLinks = 16;

  void start(NodeContext& ctx) override {
    ctx_ = &ctx;
    started.store(true);
  }
  void on_receive(NodeId /*from*/, Envelope env) override {
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      echoes.fetch_add(1);
    } else {
      link(1);
    }
  }
  void link(int i) {
    in_charge_ = true;
    ctx_->charge(1.0, [this, i] {
      if (in_charge_) inside_charge.fetch_add(1);
      ran.fetch_add(1);
      ctx_->send(ctx_->self(), publish(static_cast<MessageId>(i)));
      if (i == 1) {
        ctx_->set_timer(0.0, [this] { ran_by_next_pass.store(ran.load()); });
      }
      if (i < kLinks) link(i + 1);
    });
    in_charge_ = false;
  }

  NodeContext* ctx_ = nullptr;
  bool in_charge_ = false;  ///< node thread only
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  std::atomic<int> inside_charge{0};
  std::atomic<int> ran_by_next_pass{-1};
  std::atomic<int> echoes{0};
};

// A charge() made on the node thread completes at the end of that loop
// pass: a chain of completions that charge again all run in that pass,
// none inside charge(), and all before the owner's pass-end hook (on a
// TcpHost, the write of what the pass sent: every link's send shares one
// frame).
template <typename Owner>
void node_thread_charges_complete_at_pass_end() {
  auto node = std::make_unique<ChainNode>();
  ChainNode* chain = node.get();
  Owner owner(std::move(node));
  owner.route_self();
  owner.start();
  ASSERT_TRUE(eventually([&] { return chain->started.load(); }));
  owner.inject(Envelope::of(JoinRequest{}));
  ASSERT_TRUE(eventually([&] {
    return chain->echoes.load() == ChainNode::kLinks &&
           chain->ran_by_next_pass.load() >= 0;
  }));
  EXPECT_EQ(chain->ran.load(), ChainNode::kLinks);
  EXPECT_EQ(chain->ran_by_next_pass.load(), ChainNode::kLinks);
  EXPECT_EQ(chain->inside_charge.load(), 0);
  owner.stop();
  if constexpr (std::is_same_v<Owner, TcpOwner>) {
    const obs::MetricsSnapshot snap = owner.host().wire_metrics().snapshot();
    EXPECT_EQ(snap.counters.at("wire.frames_sent"), 1u);
    EXPECT_EQ(snap.counters.at("wire.envelopes_sent"),
              static_cast<std::uint64_t>(ChainNode::kLinks));
  }
}

TEST(ThreadCluster, StartDeliversAndStops) {
  start_delivers_and_stops<ClusterOwner>();
}
TEST(TcpHost, StartDeliversAndStops) { start_delivers_and_stops<TcpOwner>(); }

TEST(ThreadCluster, TimersAndCancellation) {
  timers_and_cancellation<ClusterOwner>();
}
TEST(TcpHost, TimersAndCancellation) { timers_and_cancellation<TcpOwner>(); }

TEST(ThreadCluster, ChargeDefersWithoutRecursion) {
  charge_defers_without_recursion<ClusterOwner>();
}
TEST(TcpHost, ChargeDefersWithoutRecursion) {
  charge_defers_without_recursion<TcpOwner>();
}

TEST(ThreadCluster, NodeThreadChargesCompleteAtPassEnd) {
  node_thread_charges_complete_at_pass_end<ClusterOwner>();
}
TEST(TcpHost, NodeThreadChargesCompleteAtPassEnd) {
  node_thread_charges_complete_at_pass_end<TcpOwner>();
}

TEST(ThreadCluster, NowAdvances) { now_advances<ClusterOwner>(); }
TEST(TcpHost, NowAdvances) { now_advances<TcpOwner>(); }

TEST(ThreadCluster, MessagesRelayThroughChain) {
  runtime::ThreadCluster cluster;
  ProbeNode* nodes[3];
  for (NodeId id = 1; id <= 3; ++id) {
    auto node = std::make_unique<ProbeNode>();
    nodes[id - 1] = node.get();
    cluster.add_node(id, std::move(node));
  }
  nodes[0]->forward_to = 2;
  nodes[1]->forward_to = 3;
  cluster.start_all();
  cluster.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return nodes[2]->received.load() == 1; }));
  EXPECT_EQ(nodes[2]->last_from.load(), 2u);
  EXPECT_EQ(nodes[1]->last_from.load(), 1u);
  // Every node reads the cluster's clock.
  ASSERT_TRUE(eventually([&] { return nodes[0]->started.load(); }));
  const Timestamp before = cluster.now();
  const Timestamp first = nodes[0]->ctx_->now();
  const Timestamp third = nodes[2]->ctx_->now();
  const Timestamp after = cluster.now();
  EXPECT_LE(before, first);
  EXPECT_LE(first, third);
  EXPECT_LE(third, after);
  cluster.shutdown();
}

TEST(ThreadCluster, SendToMissingNodeCountsDrop) {
  runtime::ThreadCluster cluster;
  auto node = std::make_unique<ProbeNode>();
  ProbeNode* probe = node.get();
  probe->forward_to = 99;  // nobody there
  cluster.add_node(1, std::move(node));
  cluster.start(1);
  cluster.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return cluster.dropped_messages() == 1; }));
  cluster.shutdown();
}

/// Holds the node thread in message 0's handler until released, then
/// charges completions and posts one self-send while its inbox is still
/// full.
/// Records the order the other messages run in.
class LatchNode final : public Node {
 public:
  static constexpr int kCharges = 8;

  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId /*from*/, Envelope env) override {
    const MessageId id = std::get<ClientPublish>(env.payload).msg.id;
    if (id != 0) {
      bd::LockGuard lock(mu);
      order.push_back(id);
      return;
    }
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < kCharges; ++i) {
      ctx_->charge(1.0, [this] { charged.fetch_add(1); });
    }
    ctx_->send(ctx_->self(), publish(99));
  }

  NodeContext* ctx_ = nullptr;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<int> charged{0};
  bd::Mutex mu;
  std::vector<MessageId> order BD_GUARDED_BY(mu);
};

TEST(ThreadCluster, FullInboxDropsNewestButNeverCompletions) {
  runtime::ThreadCluster cluster(
      runtime::ThreadClusterConfig{.inbox_capacity = 4});
  auto node = std::make_unique<LatchNode>();
  LatchNode* latch = node.get();
  cluster.add_node(1, std::move(node));
  cluster.start(1);
  cluster.inject(1, publish(0));
  EXPECT_TRUE(eventually([&] { return latch->entered.load(); }));
  for (MessageId id = 1; id <= 10; ++id) cluster.inject(1, publish(id));
  // The first four wait to run; the six newest found the inbox full.
  EXPECT_EQ(cluster.dropped_messages(), 6u);
  latch->release.store(true);
  // Charged while the inbox is full, every completion still runs; the
  // self-send posted after them is dropped.
  EXPECT_TRUE(eventually([&] {
    return latch->charged.load() == LatchNode::kCharges;
  }));
  EXPECT_TRUE(eventually([&] {
    bd::LockGuard lock(latch->mu);
    return latch->order.size() == 4;
  }));
  cluster.shutdown();
  EXPECT_EQ(cluster.dropped_messages(), 7u);
  EXPECT_EQ(latch->charged.load(), LatchNode::kCharges);
  bd::LockGuard lock(latch->mu);
  EXPECT_EQ(latch->order, (std::vector<MessageId>{1, 2, 3, 4}));
}

TEST(ThreadCluster, ShutdownIdempotentAndSafeWithTraffic) {
  runtime::ThreadCluster cluster;
  ProbeNode* nodes[2];
  for (NodeId id = 1; id <= 2; ++id) {
    auto node = std::make_unique<ProbeNode>();
    nodes[id - 1] = node.get();
    cluster.add_node(id, std::move(node));
  }
  nodes[0]->forward_to = 2;
  nodes[1]->forward_to = 1;  // ping-pong forever
  cluster.start_all();
  cluster.inject(1, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return nodes[1]->received.load() > 0; }));
  cluster.shutdown();
  cluster.shutdown();
}

}  // namespace
}  // namespace bluedove
