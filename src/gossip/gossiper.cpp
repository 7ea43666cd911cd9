#include "gossip/gossiper.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "obs/audit.h"

namespace bluedove {

Gossiper::Gossiper(NodeId self, GossipConfig config)
    : self_(self), config_(config), fd_(config.fd) {}

void Gossiper::start(NodeContext& ctx, ClusterTable initial) {
  ctx_ = &ctx;
  table_ = std::move(initial);
  for (const auto& [id, entry] : table_.entries()) {
    if (id != self_ && entry.alive()) fd_.heartbeat(id, ctx_->now());
  }
  ctx_->set_timer(config_.round_interval, [this] { round(); });
}

void Gossiper::install_self(MatcherState state) {
  state.id = self_;
  state.version += 1;
  table_.merge(state);
}

void Gossiper::update_self(const std::function<void(MatcherState&)>& fn) {
  MatcherState* mine = table_.find_mutable(self_);
  if (mine == nullptr) return;
  fn(*mine);
  mine->version += 1;
}

std::size_t Gossiper::fanout() const {
  const std::size_t live = table_.live_matchers().size();
  if (live <= 2) return 1;
  return static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(live))));
}

std::vector<NodeId> Gossiper::pick_peers() {
  std::vector<NodeId> live = table_.live_matchers();
  std::erase(live, self_);
  if (live.empty()) return {};
  const std::size_t want = std::min(fanout(), live.size());
  // Partial Fisher-Yates over the live list.
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(ctx_->rng().next_below(live.size() - i));
    std::swap(live[i], live[j]);
  }
  live.resize(want);
  return live;
}

void Gossiper::round() {
  ++rounds_;
  // Heartbeat: bump own version every round so peers see liveness.
  if (MatcherState* mine = table_.find_mutable(self_)) {
    mine->version += 1;
    // A node gossiping is alive by definition; refute stale death rumors.
    if (mine->status == NodeStatus::kDead) mine->status = NodeStatus::kAlive;
  }
  for (NodeId peer : pick_peers()) {
    ctx_->send(peer, Envelope::of(GossipSyn{table_.digests()}));
  }
  check_failures();
  ctx_->set_timer(config_.round_interval, [this] { round(); });
}

void Gossiper::check_failures() {
  bool changed = false;
  for (const auto& [id, entry] : table_.entries()) {
    if (id == self_ || !entry.alive()) continue;
    if (fd_.monitoring(id) && fd_.convicted(id, ctx_->now())) {
      MatcherState* peer = table_.find_mutable(id);
      peer->status = NodeStatus::kDead;
      peer->version += 1;  // conviction propagates; a live peer out-versions it
      changed = true;
      BD_DEBUG("gossiper ", self_, " convicted peer ", id);
      if (on_peer_convicted) on_peer_convicted(id);
    }
  }
  if (changed && on_table_changed) on_table_changed();
}

void Gossiper::merge_states(const std::vector<MatcherState>& states) {
  bool changed = false;
  for (const MatcherState& incoming : states) {
    if (incoming.id == self_) {
      // Someone has a rumor about us. If it out-versions our entry (e.g. a
      // death conviction), refute it: adopt the version and re-assert life.
      MatcherState* mine = table_.find_mutable(self_);
      if (mine != nullptr && incoming.newer_than(*mine)) {
        mine->version = incoming.version + 1;
        mine->status = NodeStatus::kAlive;
        changed = true;
      }
      continue;
    }
    const MatcherState* known = table_.find(incoming.id);
    const bool version_advanced =
        known == nullptr || incoming.newer_than(*known);
    if (table_.merge(incoming)) changed = true;
    if (version_advanced && incoming.alive()) {
      fd_.heartbeat(incoming.id, ctx_->now());
    }
  }
  if (changed && on_table_changed) on_table_changed();
  if (obs::Audit::enabled()) audit_versions();
}

std::size_t Gossiper::audit_versions() {
  if (!obs::Audit::enabled()) {
    version_floor_.clear();
    return 0;
  }
  std::size_t regressions = 0;
  for (const auto& [id, entry] : table_.entries()) {
    const std::pair<std::uint64_t, std::uint64_t> now{entry.generation,
                                                      entry.version};
    auto [it, inserted] = version_floor_.try_emplace(id, now);
    if (inserted) continue;
    if (now < it->second) {
      ++regressions;
      obs::Audit::report(
          obs::AuditKind::kGossipVersion,
          "gossiper " + std::to_string(self_) + ": endpoint " +
              std::to_string(id) + " regressed to (" +
              std::to_string(now.first) + "," + std::to_string(now.second) +
              ") below high-water (" + std::to_string(it->second.first) + "," +
              std::to_string(it->second.second) + ")");
    } else {
      it->second = now;
    }
  }
  return regressions;
}

void Gossiper::merge_table(const ClusterTable& table) {
  std::vector<MatcherState> states;
  states.reserve(table.size());
  for (const auto& [id, entry] : table.entries()) states.push_back(entry);
  merge_states(states);
}

bool Gossiper::handle(NodeId from, const Envelope& env) {
  if (const auto* syn = std::get_if<GossipSyn>(&env.payload)) {
    GossipAck ack;
    // Entries the sender has that we want, and entries we have newer.
    for (const StateDigest& digest : syn->digests) {
      const MatcherState* known = table_.find(digest.id);
      if (known == nullptr) {
        ack.requests.push_back(digest.id);
      } else if (digest.generation > known->generation ||
                 (digest.generation == known->generation &&
                  digest.version > known->version)) {
        ack.requests.push_back(digest.id);
      } else if (digest.generation < known->generation ||
                 digest.version < known->version) {
        ack.deltas.push_back(*known);
      }
    }
    // Entries the sender doesn't know at all.
    for (const auto& [id, entry] : table_.entries()) {
      const bool sender_has =
          std::any_of(syn->digests.begin(), syn->digests.end(),
                      [id = id](const StateDigest& d) { return d.id == id; });
      if (!sender_has) ack.deltas.push_back(entry);
    }
    ctx_->send(from, Envelope::of(std::move(ack)));
    return true;
  }
  if (const auto* ack = std::get_if<GossipAck>(&env.payload)) {
    merge_states(ack->deltas);
    if (!ack->requests.empty()) {
      GossipAck2 ack2;
      for (NodeId id : ack->requests) {
        if (const MatcherState* entry = table_.find(id)) {
          ack2.deltas.push_back(*entry);
        }
      }
      ctx_->send(from, Envelope::of(std::move(ack2)));
    }
    return true;
  }
  if (const auto* ack2 = std::get_if<GossipAck2>(&env.payload)) {
    merge_states(ack2->deltas);
    return true;
  }
  return false;
}

}  // namespace bluedove
