#include "cover/cover_table.h"

#include <algorithm>
#include <cmath>

namespace bluedove {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Clustering quantum as a fraction of each dimension's domain width:
/// cuboids whose centres fall in the same quantized cell are merge
/// candidates for the same groups.
constexpr double kQuantumFrac = 1.0 / 16.0;

/// How many of a cell's most recent groups an arriving cuboid probes
/// before starting a new group (bounds per-insert work).
constexpr std::size_t kMaxChain = 8;

/// Minimum overlap a non-contained candidate must have with the widened
/// box (intersection-with-current-box volume over widened-box volume)
/// before a merge is considered. The FP-volume bound alone would happily
/// chain *distinct* subscriptions whose union happens to be exactly
/// covered (two cuboids offset along one dimension have zero FP volume);
/// such merges compress nothing worth having and bill residual-filter work
/// on every delivery. Jittered near-duplicates sit well above this floor;
/// distinct hot-spot neighbours well below it.
constexpr double kMinOverlap = 0.5;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

CoverTable::CoverTable(CoverConfig config, std::vector<Range> domains)
    : config_(config), domains_(std::move(domains)), k_(domains_.size()) {}

std::uint64_t CoverTable::key_of(const std::vector<Range>& ranges) const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t d = 0; d < k_; ++d) {
    const Range& dom = domains_[d];
    const double quantum = std::max(kQuantumFrac * dom.width(), 1e-9);
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

bool CoverTable::box_covers(std::uint32_t slot,
                            const std::vector<Range>& ranges) const {
  for (std::size_t d = 0; d < k_; ++d) {
    if (!Range{g_lo_[slot * k_ + d], g_hi_[slot * k_ + d]}.covers(ranges[d])) {
      return false;
    }
  }
  return true;
}

bool CoverTable::box_equals(std::uint32_t slot,
                            const std::vector<Range>& ranges) const {
  for (std::size_t d = 0; d < k_; ++d) {
    if (!(Range{g_lo_[slot * k_ + d], g_hi_[slot * k_ + d]} == ranges[d])) {
      return false;
    }
  }
  return true;
}

const Value* CoverTable::member_lo(std::uint32_t at) const {
  const Member& m = members_[at];
  return m.row != kNil ? &m_lo_[std::size_t{m.row} * k_]
                       : &g_lo_[std::size_t{m.group} * k_];
}

const Value* CoverTable::member_hi(std::uint32_t at) const {
  const Member& m = members_[at];
  return m.row != kNil ? &m_hi_[std::size_t{m.row} * k_]
                       : &g_hi_[std::size_t{m.group} * k_];
}

std::uint32_t CoverTable::BlockPool::alloc(unsigned c) {
  if (c >= free.size()) free.resize(c + 1);
  unsigned from = c;
  while (from < free.size() && free[from].empty()) ++from;
  if (from == free.size()) {
    const std::uint32_t offset = end;
    end += 1u << c;
    return offset;
  }
  const std::uint32_t offset = free[from].back();
  free[from].pop_back();
  // Keep the first 1 << c entries; the rest of the block splits into one
  // free block per class from c up to from - 1.
  for (unsigned split = c; split < from; ++split) {
    free[split].push_back(offset + (1u << split));
  }
  return offset;
}

std::uint32_t CoverTable::alloc_group() {
  if (!free_groups_.empty()) {
    const std::uint32_t slot = free_groups_.back();
    free_groups_.pop_back();
    return slot;
  }
  groups_.emplace_back();
  g_lo_.resize(g_lo_.size() + k_);
  g_hi_.resize(g_hi_.size() + k_);
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void CoverTable::free_group(std::uint32_t slot) {
  Group& g = groups_[slot];
  if (g.newer != kNil) {
    groups_[g.newer].older = g.older;
  } else if (g.older != kNil) {
    chains_.set(g.key, g.older);
  } else {
    chains_.erase(g.key);
  }
  if (g.older != kNil) groups_[g.older].newer = g.newer;
  g.newer = g.older = kNil;
  member_blocks_.release(g.members, g.block_class);
  g.count = 0;
  ++g.generation;  // stale hits with the old rep id now miss
  free_groups_.push_back(slot);
  --live_groups_;
}

void CoverTable::append_member(std::uint32_t slot, const Subscription& raw) {
  Group& g = groups_[slot];
  if (g.count == 1u << g.block_class) {
    const std::uint32_t block = member_blocks_.alloc(g.block_class + 1);
    members_.resize(std::max<std::size_t>(members_.size(),
                                          member_blocks_.end));
    for (std::uint32_t i = 0; i < g.count; ++i) {
      members_[block + i] = members_[g.members + i];
      member_of_.set(members_[block + i].id, block + i);
    }
    member_blocks_.release(g.members, g.block_class);
    g.members = block;
    g.block_class = g.block_class + 1;
  }
  const std::uint32_t at = g.members + g.count;
  members_[at] = Member{raw.id, raw.subscriber, slot, kNil};
  member_of_.set(raw.id, at);
  ++g.count;
}

std::size_t CoverTable::alloc_row(std::uint32_t at) {
  std::uint32_t row;
  if (!free_rows_.empty()) {
    row = free_rows_.back();
    free_rows_.pop_back();
  } else {
    row = static_cast<std::uint32_t>(m_lo_.size() / k_);
    m_lo_.resize(m_lo_.size() + k_);
    m_hi_.resize(m_hi_.size() + k_);
  }
  members_[at].row = row;
  return std::size_t{row} * k_;
}

void CoverTable::free_row(std::uint32_t at) {
  Member& m = members_[at];
  if (m.row == kNil) return;
  free_rows_.push_back(m.row);
  m.row = kNil;
}

void CoverTable::retighten(std::uint32_t slot) {
  Group& g = groups_[slot];
  double max_vol = 0.0;
  bool uniform = true;
  for (std::uint32_t at = g.members; at < g.members + g.count; ++at) {
    const Value* lo = member_lo(at);
    const Value* hi = member_hi(at);
    double v = 1.0;
    for (std::size_t d = 0; d < k_; ++d) {
      const Range r{lo[d], hi[d]};
      v *= r.width();
      uniform = uniform && r == Range{g_lo_[slot * k_ + d],
                                      g_hi_[slot * k_ + d]};
    }
    max_vol = std::max(max_vol, v);
  }
  g.covered_lb = max_vol;
  if (uniform && !g.uniform) {
    for (std::uint32_t at = g.members; at < g.members + g.count; ++at) {
      free_row(at);
    }
  }
  g.uniform = uniform ? 1 : 0;
}

Subscription CoverTable::rep_subscription(std::uint32_t slot) const {
  Subscription rep;
  rep.id = rep_id_of(slot);
  rep.subscriber = 0;  // never delivered as-is; expansion supplies members
  rep.ranges.resize(k_);
  for (std::size_t d = 0; d < k_; ++d) {
    rep.ranges[d] = Range{g_lo_[slot * k_ + d], g_hi_[slot * k_ + d]};
  }
  return rep;
}

CoverTable::AddResult CoverTable::add(const Subscription& raw) {
  AddResult res;
  if (contains(raw.id)) return res;  // kNoop

  const std::uint64_t key = key_of(raw.ranges);
  const double raw_vol = volume(raw.ranges);

  std::uint32_t target = kNil;
  bool contained = false;
  double merged_covered_lb = 0.0;
  std::size_t probes = 0;
  for (std::uint32_t slot = chains_.find(key);
       slot != kNil && probes < kMaxChain;
       slot = groups_[slot].older, ++probes) {
    if (box_covers(slot, raw.ranges)) {
      target = slot;
      contained = true;
      break;
    }
    if (target != kNil) continue;  // already have a widening option
    double inter_vol = 1.0;
    double nb_vol = 1.0;
    for (std::size_t d = 0; d < k_; ++d) {
      const Range box{g_lo_[slot * k_ + d], g_hi_[slot * k_ + d]};
      const Range& r = raw.ranges[d];
      inter_vol *= box.intersect(r).width();
      nb_vol *= Range{std::min(box.lo, r.lo), std::max(box.hi, r.hi)}.width();
    }
    const double covered_lb = groups_[slot].covered_lb + raw_vol - inter_vol;
    if (inter_vol >= kMinOverlap * nb_vol &&
        nb_vol - covered_lb <= config_.fp_volume_budget * nb_vol) {
      target = slot;
      merged_covered_lb = covered_lb;
    }
  }

  if (target == kNil) {
    // New group. A raw id that already uses the representative bit would be
    // ambiguous on the delivery path, so such ids are represented from the
    // start instead of passed through.
    const std::uint32_t slot = alloc_group();
    Group& g = groups_[slot];
    g.key = key;
    g.covered_lb = raw_vol;
    g.uniform = 1;
    g.indexed_raw = is_rep(raw.id) ? 0 : 1;
    g.block_class = 0;
    g.members = member_blocks_.alloc(0);
    members_.resize(std::max<std::size_t>(members_.size(),
                                          member_blocks_.end));
    for (std::size_t d = 0; d < k_; ++d) {
      g_lo_[slot * k_ + d] = raw.ranges[d].lo;
      g_hi_[slot * k_ + d] = raw.ranges[d].hi;
    }
    g.older = chains_.find(key);
    g.newer = kNil;
    if (g.older != kNil) groups_[g.older].newer = slot;
    chains_.set(key, slot);
    append_member(slot, raw);
    ++live_groups_;
    ++mutations_;
    res.kind = AddKind::kNewGroup;
    res.insert = true;
    res.insert_sub = is_rep(raw.id) ? rep_subscription(slot) : raw;
    return res;
  }

  Group& g = groups_[target];
  const SubscriptionId first_id = members_[g.members].id;
  const bool uniform = g.uniform && contained && box_equals(target, raw.ranges);
  if (g.uniform && !uniform) {
    // Every member so far equals the (pre-widening) box.
    for (std::uint32_t at = g.members; at < g.members + g.count; ++at) {
      const std::size_t row = alloc_row(at);
      for (std::size_t d = 0; d < k_; ++d) {
        m_lo_[row + d] = g_lo_[target * k_ + d];
        m_hi_[row + d] = g_hi_[target * k_ + d];
      }
    }
  }
  append_member(target, raw);
  if (!uniform) {
    const std::size_t row = alloc_row(g.members + g.count - 1);
    for (std::size_t d = 0; d < k_; ++d) {
      m_lo_[row + d] = raw.ranges[d].lo;
      m_hi_[row + d] = raw.ranges[d].hi;
    }
  }
  ++mutations_;
  g.uniform = uniform ? 1 : 0;
  if (contained) {
    res.kind = AddKind::kAbsorbed;
  } else {
    for (std::size_t d = 0; d < k_; ++d) {
      Value& lo = g_lo_[target * k_ + d];
      Value& hi = g_hi_[target * k_ + d];
      lo = std::min(lo, raw.ranges[d].lo);
      hi = std::max(hi, raw.ranges[d].hi);
    }
    g.covered_lb = merged_covered_lb;
    res.kind = AddKind::kWidened;
  }
  if (g.indexed_raw) {
    // Second member: retire the pass-through entry, index the box.
    res.erase = true;
    res.erase_id = first_id;
    res.insert = true;
    res.insert_sub = rep_subscription(target);
    g.indexed_raw = 0;
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
  const std::uint32_t at = member_of_.find(id);
  if (at == kNil) return res;
  member_of_.erase(id);
  free_row(at);
  const std::uint32_t slot = members_[at].group;
  Group& g = groups_[slot];
  // Swap-remove: the group's last member takes the leaver's place.
  const std::uint32_t last = g.count - 1;
  if (at != g.members + last) {
    members_[at] = members_[g.members + last];
    member_of_.set(members_[at].id, at);
  }
  g.count = last;
  ++mutations_;
  res.found = true;
  if (g.count == 0) {
    res.erase = true;
    res.erase_id = g.indexed_raw ? id : rep_id_of(slot);
    free_group(slot);
  } else {
    retighten(slot);
  }
  return res;
}

bool CoverTable::expand(SubscriptionId rep_id,
                        const std::vector<Value>& values,
                        std::vector<MatchHit>& out, ExpandStats* stats) {
  const auto slot = static_cast<std::uint32_t>(rep_id & kSlotMask);
  if (slot >= groups_.size()) return false;
  const Group& g = groups_[slot];
  if (g.count == 0 || rep_id_of(slot) != rep_id) return false;  // stale hit
  const Member* members = &members_[g.members];
  const std::uint32_t n = g.count;
  if (g.uniform) {
    for (std::uint32_t i = 0; i < n; ++i) {
      out.push_back(MatchHit{members[i].id, members[i].subscriber});
    }
    if (stats != nullptr) stats->emitted += n;
    return true;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (stats != nullptr) ++stats->checks;
    const Value* lo = &m_lo_[std::size_t{members[i].row} * k_];
    const Value* hi = &m_hi_[std::size_t{members[i].row} * k_];
    bool ok = true;
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
    out.push_back(MatchHit{members[i].id, members[i].subscriber});
    if (stats != nullptr) ++stats->emitted;
  }
  return true;
}

void CoverTable::collect_matches(const std::vector<Value>& values,
                                 std::vector<MatchHit>& out) const {
  for (const Group& g : groups_) {
    for (std::uint32_t at = g.members; at < g.members + g.count; ++at) {
      const Value* lo = member_lo(at);
      const Value* hi = member_hi(at);
      bool ok = true;
      for (std::size_t d = 0; d < k_; ++d) {
        const Value v = values[d];
        if (!(lo[d] <= v && v < hi[d])) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(MatchHit{members_[at].id, members_[at].subscriber});
    }
  }
}

void CoverTable::for_each_member(
    const std::function<void(const Subscription&)>& fn) const {
  Subscription sub;
  sub.ranges.resize(k_);
  for (const Group& g : groups_) {
    for (std::uint32_t at = g.members; at < g.members + g.count; ++at) {
      const Value* lo = member_lo(at);
      const Value* hi = member_hi(at);
      sub.id = members_[at].id;
      sub.subscriber = members_[at].subscriber;
      for (std::size_t d = 0; d < k_; ++d) sub.ranges[d] = Range{lo[d], hi[d]};
      fn(sub);
    }
  }
}

}  // namespace bluedove
