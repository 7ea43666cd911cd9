#pragma once
// Simplified phi-accrual failure detector (Hayashibara et al.), the scheme
// Cassandra uses and therefore the one the paper's prototype inherited.
//
// For each monitored peer we track the history of "heartbeat" arrivals
// (here: any observation that the peer's gossip version advanced). The
// suspicion level phi grows with the time since the last arrival relative
// to the observed mean inter-arrival time; a peer is convicted when phi
// crosses a threshold.

#include <cstdint>
#include <unordered_map>

#include "common/types.h"

namespace bluedove {

class FailureDetector {
 public:
  struct Config {
    double phi_threshold = 5.0;
  };

  FailureDetector();
  explicit FailureDetector(Config config) : config_(config) {}

  /// Records a heartbeat observation for `peer` at time `now`.
  void heartbeat(NodeId peer, Timestamp now);

  /// Forgets a peer (it left or was removed from the cluster view).
  void remove(NodeId peer);

  /// Current suspicion level; 0 for unknown peers.
  double phi(NodeId peer, Timestamp now) const;

  /// True when phi exceeds the conviction threshold.
  bool convicted(NodeId peer, Timestamp now) const {
    return phi(peer, now) > config_.phi_threshold;
  }

  bool monitoring(NodeId peer) const { return peers_.count(peer) != 0; }

  const Config& config() const { return config_; }

 private:
  struct PeerRecord {
    Timestamp last_heartbeat = 0.0;
    double mean_interval;
    bool first = true;
  };

  Config config_;
  std::unordered_map<NodeId, PeerRecord> peers_;
};

}  // namespace bluedove
