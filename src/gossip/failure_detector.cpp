#include "gossip/failure_detector.h"

#include <algorithm>
#include <cmath>

namespace bluedove {

namespace {

/// Seed value for the mean inter-arrival estimate before any samples.
constexpr double kInitialInterval = 1.0;
/// EWMA weight of a new inter-arrival sample.
constexpr double kAlpha = 0.2;
/// Floor for the interval estimate, guards against division blowups.
constexpr double kMinInterval = 0.1;

}  // namespace

FailureDetector::FailureDetector() : config_(Config{}) {}

void FailureDetector::heartbeat(NodeId peer, Timestamp now) {
  auto [it, inserted] = peers_.try_emplace(peer);
  PeerRecord& rec = it->second;
  if (inserted || rec.first) {
    rec.mean_interval = kInitialInterval;
    rec.first = false;
  } else {
    const double sample = std::max(now - rec.last_heartbeat, 0.0);
    rec.mean_interval = (1.0 - kAlpha) * rec.mean_interval + kAlpha * sample;
    rec.mean_interval = std::max(rec.mean_interval, kMinInterval);
  }
  rec.last_heartbeat = now;
}

void FailureDetector::remove(NodeId peer) { peers_.erase(peer); }

double FailureDetector::phi(NodeId peer, Timestamp now) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0.0;
  const PeerRecord& rec = it->second;
  const double since = std::max(now - rec.last_heartbeat, 0.0);
  // Exponential-arrival phi: phi(t) = t / mean * log10(e). At the conviction
  // threshold of 5, a peer is declared dead roughly 11.5 mean intervals
  // after its last observed heartbeat.
  constexpr double kLog10E = 0.43429448190325176;
  return since / rec.mean_interval * kLog10E;
}

}  // namespace bluedove
