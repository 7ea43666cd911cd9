#include "runtime/thread_cluster.h"

namespace bluedove::runtime {

ThreadCluster::ThreadCluster(ThreadClusterConfig config)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      seed_rng_(config.seed) {}

ThreadCluster::~ThreadCluster() { shutdown(); }

Timestamp ThreadCluster::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ThreadCluster::add_node(NodeId id, std::unique_ptr<Node> node) {
  auto loop = std::make_unique<net::NodeLoop>(
      id, std::move(node), seed_rng_.next_u64(), epoch_,
      [this, id](NodeId to, Envelope&& env) {
        deliver(to, id, std::move(env));
      },
      /*on_io=*/nullptr, config_.inbox_capacity, /*exec_metrics=*/nullptr);
  bd::LockGuard lock(nodes_mu_);
  nodes_[id] = std::move(loop);
}

net::NodeLoop* ThreadCluster::loop(NodeId id) const {
  bd::LockGuard lock(nodes_mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> ThreadCluster::ids() const {
  bd::LockGuard lock(nodes_mu_);
  std::vector<NodeId> out;
  for (const auto& [id, loop] : nodes_) out.push_back(id);
  return out;
}

void ThreadCluster::start(NodeId id) {
  if (net::NodeLoop* l = loop(id)) l->start();
}

void ThreadCluster::start_all() {
  for (NodeId id : ids()) start(id);
}

void ThreadCluster::stop(NodeId id) {
  if (net::NodeLoop* l = loop(id)) l->stop();
}

void ThreadCluster::shutdown() {
  for (NodeId id : ids()) stop(id);
}

bool ThreadCluster::running(NodeId id) const {
  const net::NodeLoop* l = loop(id);
  return l != nullptr && l->running();
}

Node* ThreadCluster::node(NodeId id) {
  net::NodeLoop* l = loop(id);
  return l != nullptr ? l->node() : nullptr;
}

void ThreadCluster::deliver(NodeId to, NodeId from, Envelope&& env) {
  net::NodeLoop* target = loop(to);
  if (target == nullptr || !target->deliver(from, std::move(env))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadCluster::inject(NodeId to, Envelope env) {
  deliver(to, kInvalidNode, std::move(env));
}

}  // namespace bluedove::runtime
