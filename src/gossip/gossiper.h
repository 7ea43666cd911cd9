#pragma once
// Gossip engine (paper §III-C).
//
// Every matcher embeds a Gossiper. Each round (default 1 s) it bumps its own
// heartbeat version and exchanges its cluster table with ceil(log2 N)
// randomly chosen live peers using Cassandra's three-way anti-entropy
// (SYN digests -> ACK deltas+requests -> ACK2 deltas). A phi-accrual
// failure detector watches peer version advances; convicted peers are
// marked dead in the local table and the conviction propagates by gossip.

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/affinity.h"
#include "gossip/failure_detector.h"
#include "net/cluster_table.h"
#include "net/transport.h"

namespace bluedove {

struct GossipConfig {
  double round_interval = 1.0;  ///< seconds between gossip rounds
  FailureDetector::Config fd;
};

class Gossiper {
 public:
  Gossiper(NodeId self, GossipConfig config = {});

  /// Installs the initial table (must contain an entry for `self` unless the
  /// node joins later via install_self) and starts the round timer.
  void start(NodeContext& ctx, ClusterTable initial);

  /// Replaces/creates this node's own entry (used by a joining matcher once
  /// it has received all its segments) and bumps its version.
  void install_self(MatcherState state);

  /// Processes gossip traffic. Returns true when the envelope was a gossip
  /// message (the caller should not handle it further).
  BD_NODE_THREAD bool handle(NodeId from, const Envelope& env);

  /// Merges an externally obtained table (e.g. a TablePullResp handed to a
  /// joining matcher) with full failure-detector bookkeeping.
  void merge_table(const ClusterTable& table);

  const ClusterTable& table() const { return table_; }
  ClusterTable& table() { return table_; }

  /// This node's own entry; nullptr before install_self/bootstrap.
  const MatcherState* self_state() const { return table_.find(self_); }

  /// Mutates this node's own entry and bumps its version so the change
  /// propagates. Undefined before the self entry exists.
  void update_self(const std::function<void(MatcherState&)>& fn);

  /// Number of peers contacted per round: ceil(log2(live count)), >= 1.
  std::size_t fanout() const;

  /// Called after any merge that changed the table.
  std::function<void()> on_table_changed;
  /// Called when the local failure detector convicts a peer.
  std::function<void(NodeId)> on_peer_convicted;

  // --- introspection for tests/benches ---
  std::uint64_t rounds() const { return rounds_; }
  const FailureDetector& failure_detector() const { return fd_; }

  /// Invariant audit (obs/audit.h, kGossipVersion): every table entry's
  /// (generation, version) must be >= the high-water mark this gossiper has
  /// ever observed for that endpoint — gossip merges may only move versions
  /// forward. Runs after every merge when auditing is enabled; public so
  /// tests and quiesce-point sweeps can invoke it directly. Returns the
  /// number of regressions found this call.
  std::size_t audit_versions();

 private:
  void round();
  void merge_states(const std::vector<MatcherState>& states);
  void check_failures();
  std::vector<NodeId> pick_peers();

  NodeId self_;
  GossipConfig config_;
  NodeContext* ctx_ = nullptr;
  ClusterTable table_;
  FailureDetector fd_;
  std::uint64_t rounds_ = 0;
  /// Highest (generation, version) ever observed per endpoint, maintained
  /// only while the auditor is enabled (empty otherwise).
  std::map<NodeId, std::pair<std::uint64_t, std::uint64_t>> version_floor_;
};

}  // namespace bluedove
