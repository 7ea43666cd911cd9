#pragma once
// The two owners of a real-time net::NodeLoop, behind one shape, so a
// context test is written once as a template and run on each: node 1 of a
// runtime::ThreadCluster, and a loopback net::TcpHost. Also LatchedNode,
// which holds a hosted node's thread so a test can queue work for one pass,
// and SinkState, which records what a matcher sends its sink.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <variant>

#include "common/thread_safety.h"
#include "net/tcp_transport.h"
#include "runtime/thread_cluster.h"

namespace bluedove::testing_owners {

/// Node 1 of a ThreadCluster.
class ClusterOwner {
 public:
  explicit ClusterOwner(std::unique_ptr<Node> node) {
    cluster_.add_node(1, std::move(node));
  }
  void start() { cluster_.start(1); }
  bool running() const { return cluster_.running(1); }
  void inject(Envelope env) { cluster_.inject(1, std::move(env)); }
  /// A ThreadCluster delivers a node's send to itself in-process.
  void route_self() {}
  void stop() { cluster_.stop(1); }

 private:
  runtime::ThreadCluster cluster_;
};

/// A TcpHost on an ephemeral loopback port.
class TcpOwner {
 public:
  explicit TcpOwner(std::unique_ptr<Node> node) : host_(1, 0, std::move(node)) {}
  void start() { host_.start(); }
  bool running() const { return host_.running(); }
  void inject(Envelope env) { host_.inject(kInvalidNode, std::move(env)); }
  /// Lets the node send to itself, over a loopback connection to its own
  /// listener.
  void route_self() { host_.add_peer(1, {"127.0.0.1", host_.port()}); }
  void stop() { host_.stop(); }
  const net::TcpHost& host() const { return host_; }

 private:
  net::TcpHost host_;
};

/// Hosts a node behind a latch: a ClientPublish, which a matcher never
/// receives, holds the node thread until released; every other envelope
/// goes to the hosted node. Whatever reaches the host while it is held
/// runs in one later loop pass.
class LatchedNode final : public Node {
 public:
  explicit LatchedNode(std::unique_ptr<Node> inner)
      : inner_(std::move(inner)) {}
  void start(NodeContext& ctx) override { inner_->start(ctx); }
  void on_receive(NodeId from, Envelope env) override {
    if (!std::holds_alternative<ClientPublish>(env.payload)) {
      inner_->on_receive(from, std::move(env));
      return;
    }
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void stop() override { inner_->stop(); }

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

 private:
  std::unique_ptr<Node> inner_;
};

/// Collects Delivery and MatchCompleted traffic from the matcher.
class SinkState {
 public:
  void record(const Envelope& env) {
    if (const auto* d = std::get_if<Delivery>(&env.payload)) {
      bd::LockGuard lock(mu_);
      delivered_[d->msg_id].insert(d->sub_id);
    } else if (std::holds_alternative<MatchCompleted>(env.payload)) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int completed() const { return completed_.load(std::memory_order_relaxed); }
  std::set<SubscriptionId> delivered(MessageId id) {
    bd::LockGuard lock(mu_);
    return delivered_[id];
  }

 private:
  bd::Mutex mu_;
  std::map<MessageId, std::set<SubscriptionId>> delivered_ BD_GUARDED_BY(mu_);
  std::atomic<int> completed_{0};
};

}  // namespace bluedove::testing_owners
