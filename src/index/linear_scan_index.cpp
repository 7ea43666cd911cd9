#include "index/linear_scan_index.h"

namespace bluedove {

void LinearScanIndex::insert(const Subscription& sub) {
  if (slot_.contains(sub.id)) return;
  insert(std::make_shared<const Subscription>(sub));
}

void LinearScanIndex::insert(SubPtr sub) {
  slot_.set(sub->id, static_cast<FlatIdMap::Value>(entries_.size()));
  entries_.push_back(std::move(sub));
}

bool LinearScanIndex::erase(SubscriptionId id) {
  const FlatIdMap::Value i = slot_.find(id);
  if (i == FlatIdMap::kNone) return false;
  slot_.erase(id);
  if (i + 1 != entries_.size()) {
    entries_[i] = std::move(entries_.back());
    slot_.set(entries_[i]->id, i);
  }
  entries_.pop_back();
  return true;
}

void LinearScanIndex::clear() {
  entries_.clear();
  slot_.clear();
}

void LinearScanIndex::match_batch(std::span<const Message> msgs,
                                  std::vector<MatchHit>& hits,
                                  std::vector<std::uint32_t>& offsets,
                                  WorkCounter& wc, MatchScratch& /*scratch*/,
                                  std::vector<double>* per_msg_work) const {
  offsets.reserve(offsets.size() + msgs.size() + 1);
  for (const Message& m : msgs) {
    offsets.push_back(static_cast<std::uint32_t>(hits.size()));
    const std::uint64_t before = wc.comparisons;
    scan(m, wc, [&hits](const SubPtr& sub) {
      hits.push_back({sub->id, sub->subscriber});
    });
    if (per_msg_work != nullptr) {
      per_msg_work->push_back(
          WorkCounter{wc.comparisons - before, 0}.total());
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(hits.size()));
}

void LinearScanIndex::match(const Message& m, std::vector<SubPtr>& out,
                            WorkCounter& wc) const {
  scan(m, wc, [&out](const SubPtr& sub) { out.push_back(sub); });
}

double LinearScanIndex::match_cost(const Message&) const {
  return static_cast<double>(entries_.size());
}

void LinearScanIndex::for_each(
    const std::function<void(const Subscription&)>& fn) const {
  for (const SubPtr& sub : entries_) fn(*sub);
}

}  // namespace bluedove
