#pragma once
// The two owners of a real-time net::NodeLoop, behind one shape, so a
// context test is written once as a template and run on each: node 1 of a
// runtime::ThreadCluster, and a loopback net::TcpHost.

#include <memory>

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
  void stop() { host_.stop(); }
  const net::TcpHost& host() const { return host_; }

 private:
  net::TcpHost host_;
};

}  // namespace bluedove::testing_owners
