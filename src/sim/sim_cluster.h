#pragma once
// SimCluster: the discrete-event substrate that stands in for the paper's
// 24-VM datacenter testbed.
//
// Each node runs the same Node logic as the threaded runtime, but time is
// virtual: network hops cost a configurable latency and CPU work is charged
// from the work units reported by the real matching data structures. Nodes
// can be killed (crash-stop, messages in flight to them are lost) to drive
// the fault-tolerance experiments, and new nodes can be added at runtime to
// drive the elasticity experiments.

#include <cstdint>
#include <map>
#include <memory>

#include "common/rng.h"
#include "net/transport.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace bluedove::sim {

struct SimConfig {
  /// One network hop costs latency + U(0, jitter) seconds. Defaults model a
  /// datacenter LAN (paper: gigabit Ethernet between VMs).
  double net_latency = 0.0003;
  double net_jitter = 0.0001;
  /// Seconds of CPU per work unit (one subscription comparison). 1 us
  /// calibrates a 4-core matcher scanning ~8k subscriptions to ~2 ms per
  /// message, in the ballpark of the paper's Java prototype (whose 20
  /// matchers saturate near 114k msgs/s on 40k subscriptions).
  double sec_per_work_unit = 1.0e-6;
  std::uint64_t seed = 42;
  /// When true, every delivery (and every dead-target drop) is folded into
  /// the determinism digest — virtual time, endpoints, payload kind, wire
  /// size — so two same-seed runs can be compared byte-for-byte
  /// (tools/determinism_check.sh). Off by default: hashing serializes each
  /// envelope to size it, which the hot path should not pay unasked.
  bool digest = false;
};

struct TrafficStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  /// Bytes count the control plane only (gossip, load reports, table
  /// pulls), which is what the paper's overhead analysis reports.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class SimCluster {
 public:
  explicit SimCluster(SimConfig config = {});
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Registers a node; the cluster owns it. `cores` is recorded for CPU-load
  /// accounting (the node logic itself bounds its concurrency).
  void add_node(NodeId id, std::unique_ptr<Node> node, int cores = 4);

  /// Calls Node::start. Separate from add_node so a whole cluster can be
  /// wired up before any timer fires.
  void start(NodeId id);
  void start_all();

  /// Crash-stop: the node stops executing, in-flight messages to it are
  /// dropped, pending timers and work completions never fire.
  void kill(NodeId id);

  bool alive(NodeId id) const;
  bool exists(NodeId id) const { return records_.count(id) != 0; }

  Node* node(NodeId id);
  const Node* node(NodeId id) const;
  template <typename T>
  T* node_as(NodeId id) {
    return static_cast<T*>(node(id));
  }
  template <typename T>
  const T* node_as(NodeId id) const {
    return static_cast<const T*>(node(id));
  }

  EventLoop& loop() { return loop_; }
  Timestamp now() const { return loop_.now(); }
  void run_until(Timestamp t) { loop_.run_until(t); }
  void run_for(Timestamp dt) { loop_.run_for(dt); }

  /// Delivers a message from outside the cluster (a client) to `to` after
  /// one network hop.
  void inject(NodeId to, Envelope env);

  // --- instrumentation -----------------------------------------------------
  const TrafficStats& traffic(NodeId id) const;
  /// Total CPU-seconds this node has been charged.
  double busy_seconds(NodeId id) const;
  int cores(NodeId id) const;
  /// MatchRequests that were dropped because their target matcher was dead
  /// (the paper's lost messages in the fault-tolerance experiment).
  std::uint64_t lost_match_requests() const { return lost_match_requests_; }
  /// All messages dropped due to dead targets, any type.
  std::uint64_t dropped_messages() const { return dropped_messages_; }

  /// Determinism digest over the delivered event stream; stable across
  /// same-seed runs, 0 until SimConfig::digest enables hashing.
  std::uint64_t digest() const {
    return config_.digest ? digest_.value() : 0;
  }

  /// Substrate-level metrics: per-node traffic counters and busy-time
  /// gauges plus cluster-wide drop totals, in the obs naming scheme so they
  /// merge with node registries. Deterministic for a fixed seed (all values
  /// derive from virtual time and counted events).
  obs::MetricsSnapshot metrics_snapshot() const;

  const SimConfig& config() const { return config_; }

 private:
  struct Record;
  class Context;

  Record* record(NodeId id);
  const Record* record(NodeId id) const;
  double hop_latency();
  void deliver(NodeId from, NodeId to, Envelope env, std::uint64_t epoch);
  static bool accounted(const Envelope& env);

  SimConfig config_;
  EventLoop loop_;
  Rng rng_;
  std::map<NodeId, std::unique_ptr<Record>> records_;
  std::uint64_t lost_match_requests_ = 0;
  std::uint64_t dropped_messages_ = 0;
  obs::DeterminismDigest digest_;
};

}  // namespace bluedove::sim
