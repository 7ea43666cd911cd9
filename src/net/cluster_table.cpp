#include "net/cluster_table.h"

namespace bluedove {

const char* to_string(NodeStatus status) {
  switch (status) {
    case NodeStatus::kAlive:
      return "alive";
    case NodeStatus::kLeaving:
      return "leaving";
    case NodeStatus::kLeft:
      return "left";
    case NodeStatus::kDead:
      return "dead";
  }
  return "unknown";
}

void write_matcher_state(serde::Writer& w, const MatcherState& s) {
  w.u32(s.id);
  w.u64(s.generation);
  w.u64(s.version);
  w.u8(static_cast<std::uint8_t>(s.status));
  w.varint(s.segments.size());
  for (const Range& seg : s.segments) write_range(w, seg);
}

MatcherState read_matcher_state(serde::Reader& r) {
  MatcherState s;
  s.id = r.u32();
  s.generation = r.u64();
  s.version = r.u64();
  s.status = static_cast<NodeStatus>(r.u8());
  s.segments = r.seq<Range>(read_range);
  return s;
}

void write_digest(serde::Writer& w, const StateDigest& d) {
  w.u32(d.id);
  w.u64(d.generation);
  w.u64(d.version);
}

StateDigest read_digest(serde::Reader& r) {
  StateDigest d;
  d.id = r.u32();
  d.generation = r.u64();
  d.version = r.u64();
  return d;
}

bool ClusterTable::merge(const MatcherState& entry) {
  auto it = entries_.find(entry.id);
  if (it == entries_.end()) {
    entries_.emplace(entry.id, entry);
    return true;
  }
  if (entry.newer_than(it->second)) {
    it->second = entry;
    return true;
  }
  return false;
}

std::size_t ClusterTable::merge(const ClusterTable& other) {
  std::size_t updated = 0;
  for (const auto& [id, entry] : other.entries_) {
    if (merge(entry)) ++updated;
  }
  return updated;
}

const MatcherState* ClusterTable::find(NodeId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

MatcherState* ClusterTable::find_mutable(NodeId id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<StateDigest> ClusterTable::digests() const {
  std::vector<StateDigest> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(StateDigest{id, entry.generation, entry.version});
  }
  return out;
}

std::vector<NodeId> ClusterTable::live_matchers() const {
  std::vector<NodeId> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.alive()) out.push_back(id);
  }
  return out;
}

void write_cluster_table(serde::Writer& w, const ClusterTable& t) {
  w.varint(t.size());
  for (const auto& [id, entry] : t.entries()) write_matcher_state(w, entry);
}

ClusterTable read_cluster_table(serde::Reader& r) {
  ClusterTable t;
  const auto n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    t.merge(read_matcher_state(r));
  }
  return t;
}

ClusterTable bootstrap_table(const std::vector<NodeId>& matcher_ids,
                             const std::vector<Range>& domains) {
  ClusterTable table;
  const std::size_t n = matcher_ids.size();
  for (std::size_t j = 0; j < n; ++j) {
    MatcherState state;
    state.id = matcher_ids[j];
    state.generation = 1;
    state.version = 1;
    state.status = NodeStatus::kAlive;
    state.segments.reserve(domains.size());
    for (const Range& domain : domains) {
      const double width = domain.width() / static_cast<double>(n);
      Range seg{domain.lo + width * static_cast<double>(j),
                domain.lo + width * static_cast<double>(j + 1)};
      if (j + 1 == n) seg.hi = domain.hi;  // absorb rounding
      state.segments.push_back(seg);
    }
    table.merge(state);
  }
  return table;
}

}  // namespace bluedove
