#pragma once
// ThreadCluster: the in-process real-time substrate. Each node runs on its
// own net::NodeLoop (net/node_loop.h) — the same Reactor-backed loop, node
// thread and NodeContext a net::TcpHost runs — and a send() posts straight
// into the target node's loop, with no socket in between. So the exact
// same Node implementations that drive the simulator also run as a live
// in-process cluster. This substrate backs the public bluedove::Service
// facade and the examples; performance experiments use the deterministic
// simulator instead.

#include <atomic>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_safety.h"
#include "net/node_loop.h"
#include "net/transport.h"

namespace bluedove::runtime {

struct ThreadClusterConfig {
  std::uint64_t seed = 42;
  /// Maximum queued tasks per node before senders start dropping (models a
  /// bounded socket buffer; prevents unbounded memory under overload).
  std::size_t inbox_capacity = 65536;
};

class ThreadCluster {
 public:
  explicit ThreadCluster(ThreadClusterConfig config = {});
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Registers a node (cluster owns it). Must be called before start(id).
  void add_node(NodeId id, std::unique_ptr<Node> node);

  /// Spawns the node's thread and calls Node::start on it.
  void start(NodeId id);
  void start_all();

  /// Graceful stop: drains nothing, just halts the loop and joins.
  void stop(NodeId id);
  /// Stops every node (also done by the destructor).
  void shutdown();

  bool running(NodeId id) const;

  Node* node(NodeId id);
  template <typename T>
  T* node_as(NodeId id) {
    return static_cast<T*>(node(id));
  }

  /// Seconds since cluster construction (the Timestamp axis for this
  /// substrate; every node's now() shares it).
  Timestamp now() const;

  /// Delivers a message from outside the cluster (a client).
  void inject(NodeId to, Envelope env);

  /// Messages dropped: sent to a node that is unknown, not started or
  /// stopping, or whose inbox held `inbox_capacity` tasks.
  std::uint64_t dropped_messages() const { return dropped_.load(); }

 private:
  net::NodeLoop* loop(NodeId id) const BD_EXCLUDES(nodes_mu_);
  std::vector<NodeId> ids() const BD_EXCLUDES(nodes_mu_);
  /// Hands `env` to `to`'s loop, counting a drop when it refuses.
  void deliver(NodeId to, NodeId from, Envelope&& env);

  ThreadClusterConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  Rng seed_rng_;
  mutable bd::Mutex nodes_mu_;
  /// The map itself is guarded; the loops are stable (never erased before
  /// the cluster) and carry their own lock.
  std::unordered_map<NodeId, std::unique_ptr<net::NodeLoop>> nodes_
      BD_GUARDED_BY(nodes_mu_);
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace bluedove::runtime
