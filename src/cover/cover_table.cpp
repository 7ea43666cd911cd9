#include "cover/cover_table.h"

#include <algorithm>
#include <cmath>

namespace bluedove {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

CoverTable::CoverTable(CoverConfig config, std::vector<Range> domains,
                       std::uint32_t salt)
    : config_(config),
      domains_(std::move(domains)),
      salt_(salt),
      k_(domains_.size()) {}

std::uint64_t CoverTable::key_of(const std::vector<Range>& ranges) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t d = 0; d < k_; ++d) {
    const Range& dom = domains_[d];
    const double quantum =
        std::max(config_.quantum_frac * dom.width(), 1e-9);
    const double center = 0.5 * (ranges[d].lo + ranges[d].hi);
    const auto cell =
        static_cast<std::int64_t>(std::floor((center - dom.lo) / quantum));
    h = mix(h, static_cast<std::uint64_t>(cell));
  }
  return h;
}

double CoverTable::volume(const std::vector<Range>& ranges) const {
  double v = 1.0;
  for (const Range& r : ranges) v *= r.width();
  return v;
}

bool CoverTable::box_covers(const std::vector<Range>& bbox,
                            const std::vector<Range>& ranges) const {
  for (std::size_t d = 0; d < k_; ++d) {
    if (!bbox[d].covers(ranges[d])) return false;
  }
  return true;
}

std::uint32_t CoverTable::alloc_member(const Subscription& raw) {
  std::uint32_t slot;
  if (!free_members_.empty()) {
    slot = free_members_.back();
    free_members_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(m_id_.size());
    m_id_.push_back(0);
    m_subscriber_.push_back(0);
    m_lo_.resize(m_lo_.size() + k_);
    m_hi_.resize(m_hi_.size() + k_);
  }
  m_id_[slot] = raw.id;
  m_subscriber_[slot] = raw.subscriber;
  for (std::size_t d = 0; d < k_; ++d) {
    m_lo_[slot * k_ + d] = raw.ranges[d].lo;
    m_hi_[slot * k_ + d] = raw.ranges[d].hi;
  }
  return slot;
}

void CoverTable::free_member(std::uint32_t slot) {
  free_members_.push_back(slot);
}

void CoverTable::free_group(std::uint32_t slot) {
  Group& g = groups_[slot];
  auto it = chains_.find(g.key);
  if (it != chains_.end()) {
    auto& chain = it->second;
    chain.erase(std::remove(chain.begin(), chain.end(), slot), chain.end());
    if (chain.empty()) chains_.erase(it);
  }
  g.live = false;
  ++g.generation;  // stale hits with the old rep id now miss
  g.members.clear();
  g.bbox.clear();
  free_groups_.push_back(slot);
  --live_groups_;
}

void CoverTable::retighten(Group& g) {
  double max_vol = 0.0;
  bool uniform = true;
  std::vector<Range> mr(k_);
  for (const std::uint32_t ms : g.members) {
    double v = 1.0;
    for (std::size_t d = 0; d < k_; ++d) {
      mr[d] = Range{m_lo_[ms * k_ + d], m_hi_[ms * k_ + d]};
      v *= mr[d].width();
    }
    max_vol = std::max(max_vol, v);
    uniform = uniform && mr == g.bbox;
  }
  g.covered_lb = max_vol;
  g.uniform = uniform;
}

Subscription CoverTable::rep_subscription(std::uint32_t slot) const {
  Subscription rep;
  rep.id = rep_id_of(slot);
  rep.subscriber = 0;  // never delivered as-is; expansion supplies members
  rep.ranges = groups_[slot].bbox;
  return rep;
}

CoverTable::AddResult CoverTable::add(const Subscription& raw) {
  AddResult res;
  if (contains(raw.id)) return res;  // kNoop

  if (raw.ranges.size() != k_) {
    // Shape the table can't box: index it raw, remember it whole for the
    // oracle and for handover.
    passthrough_.emplace(raw.id, raw);
    ++mutations_;
    res.kind = AddKind::kPassthrough;
    res.insert = true;
    res.insert_sub = raw;
    return res;
  }

  const std::uint64_t key = key_of(raw.ranges);
  const double raw_vol = volume(raw.ranges);

  std::uint32_t target = UINT32_MAX;
  bool contained = false;
  double merged_covered_lb = 0.0;
  std::vector<Range> merged_bbox;
  auto chain_it = chains_.find(key);
  if (chain_it != chains_.end()) {
    const auto& chain = chain_it->second;
    const std::size_t probes = std::min(config_.max_chain, chain.size());
    for (std::size_t i = 0; i < probes; ++i) {
      const std::uint32_t slot = chain[chain.size() - 1 - i];
      const Group& g = groups_[slot];
      if (box_covers(g.bbox, raw.ranges)) {
        target = slot;
        contained = true;
        break;
      }
      if (target != UINT32_MAX) continue;  // already have a widening option
      std::vector<Range> nb(k_);
      std::vector<Range> inter(k_);
      double inter_vol = 1.0;
      for (std::size_t d = 0; d < k_; ++d) {
        nb[d] = Range{std::min(g.bbox[d].lo, raw.ranges[d].lo),
                      std::max(g.bbox[d].hi, raw.ranges[d].hi)};
        inter_vol *= g.bbox[d].intersect(raw.ranges[d]).width();
      }
      const double covered_lb = g.covered_lb + raw_vol - inter_vol;
      const double nb_vol = volume(nb);
      if (inter_vol >= config_.min_overlap * nb_vol &&
          nb_vol - covered_lb <= config_.fp_volume_budget * nb_vol) {
        target = slot;
        merged_covered_lb = covered_lb;
        merged_bbox = std::move(nb);
      }
    }
  }

  if (target == UINT32_MAX) {
    // New group. A raw id that already uses the representative bit would be
    // ambiguous on the delivery path, so such ids are represented from the
    // start instead of passed through.
    std::uint32_t slot;
    if (!free_groups_.empty()) {
      slot = free_groups_.back();
      free_groups_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(groups_.size());
      groups_.emplace_back();
    }
    Group& g = groups_[slot];
    g.key = key;
    g.live = true;
    g.bbox = raw.ranges;
    g.covered_lb = raw_vol;
    g.uniform = true;
    g.indexed_raw = !is_rep(raw.id);
    g.raw_id = raw.id;
    const std::uint32_t ms = alloc_member(raw);
    member_of_[raw.id] = MemberRef{slot, 0};
    g.members.push_back(ms);
    chains_[key].push_back(slot);
    ++live_groups_;
    ++mutations_;
    res.kind = AddKind::kNewGroup;
    res.insert = true;
    res.insert_sub = g.indexed_raw ? raw : rep_subscription(slot);
    return res;
  }

  Group& g = groups_[target];
  const std::uint32_t ms = alloc_member(raw);
  member_of_[raw.id] =
      MemberRef{target, static_cast<std::uint32_t>(g.members.size())};
  g.members.push_back(ms);
  ++mutations_;
  if (contained) {
    g.uniform = g.uniform && raw.ranges == g.bbox;
    res.kind = AddKind::kAbsorbed;
  } else {
    g.bbox = std::move(merged_bbox);
    g.covered_lb = merged_covered_lb;
    g.uniform = false;
    res.kind = AddKind::kWidened;
  }
  if (g.indexed_raw) {
    // Second member: retire the pass-through entry, index the box.
    res.erase = true;
    res.erase_id = g.raw_id;
    res.insert = true;
    res.insert_sub = rep_subscription(target);
    g.indexed_raw = false;
  } else if (res.kind == AddKind::kWidened) {
    // Re-insert the same representative id with the wider box.
    res.erase = true;
    res.erase_id = rep_id_of(target);
    res.insert = true;
    res.insert_sub = rep_subscription(target);
  }
  return res;
}

CoverTable::RemoveResult CoverTable::remove(SubscriptionId id) {
  RemoveResult res;
  auto pit = passthrough_.find(id);
  if (pit != passthrough_.end()) {
    passthrough_.erase(pit);
    ++mutations_;
    res.found = true;
    res.erase = true;
    res.erase_id = id;
    return res;
  }
  auto it = member_of_.find(id);
  if (it == member_of_.end()) return res;
  const MemberRef ref = it->second;
  Group& g = groups_[ref.group];
  const std::uint32_t ms = g.members[ref.pos];
  const std::uint32_t last = static_cast<std::uint32_t>(g.members.size() - 1);
  if (ref.pos != last) {
    g.members[ref.pos] = g.members[last];
    member_of_[m_id_[g.members[ref.pos]]].pos = ref.pos;
  }
  g.members.pop_back();
  free_member(ms);
  member_of_.erase(it);
  ++mutations_;
  res.found = true;
  if (g.members.empty()) {
    res.erase = true;
    res.erase_id = g.indexed_raw ? g.raw_id : rep_id_of(ref.group);
    free_group(ref.group);
  } else {
    retighten(g);
  }
  return res;
}

bool CoverTable::expand(SubscriptionId rep_id,
                        const std::vector<Value>& values,
                        std::vector<MatchHit>& out, ExpandStats* stats) {
  const auto slot = static_cast<std::uint32_t>(rep_id & kSlotMask);
  if (slot >= groups_.size()) return false;
  const Group& g = groups_[slot];
  if (!g.live || rep_id_of(slot) != rep_id) return false;  // stale hit
  if (values.size() != k_) return true;  // mirrors Subscription::matches
  for (const std::uint32_t ms : g.members) {
    if (!g.uniform) {
      if (stats != nullptr) ++stats->checks;
      bool ok = true;
      const Value* lo = &m_lo_[ms * k_];
      const Value* hi = &m_hi_[ms * k_];
      for (std::size_t d = 0; d < k_; ++d) {
        if (!(lo[d] <= values[d] && values[d] < hi[d])) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        if (stats != nullptr) ++stats->rejects;
        continue;
      }
    }
    out.push_back(MatchHit{m_id_[ms], m_subscriber_[ms]});
    if (stats != nullptr) ++stats->emitted;
  }
  return true;
}

void CoverTable::collect_matches(const std::vector<Value>& values,
                                 std::vector<MatchHit>& out) const {
  if (values.size() == k_) {
    for (const Group& g : groups_) {
      if (!g.live) continue;
      for (const std::uint32_t ms : g.members) {
        bool ok = true;
        for (std::size_t d = 0; d < k_; ++d) {
          const Value v = values[d];
          if (!(m_lo_[ms * k_ + d] <= v && v < m_hi_[ms * k_ + d])) {
            ok = false;
            break;
          }
        }
        if (ok) out.push_back(MatchHit{m_id_[ms], m_subscriber_[ms]});
      }
    }
  }
  for (const auto& [id, sub] : passthrough_) {
    if (sub.ranges.size() != values.size()) continue;
    bool ok = true;
    for (std::size_t d = 0; d < sub.ranges.size(); ++d) {
      if (!sub.ranges[d].contains(values[d])) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(MatchHit{sub.id, sub.subscriber});
  }
}

void CoverTable::for_each_member(
    const std::function<void(const Subscription&)>& fn) const {
  Subscription sub;
  sub.ranges.resize(k_);
  for (const Group& g : groups_) {
    if (!g.live) continue;
    for (const std::uint32_t ms : g.members) {
      sub.id = m_id_[ms];
      sub.subscriber = m_subscriber_[ms];
      for (std::size_t d = 0; d < k_; ++d) {
        sub.ranges[d] = Range{m_lo_[ms * k_ + d], m_hi_[ms * k_ + d]};
      }
      fn(sub);
    }
  }
  for (const auto& [id, s] : passthrough_) fn(s);
}

}  // namespace bluedove
