#include "index/linear_scan_index.h"

namespace bluedove {

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

void LinearScanIndex::match(const Message& m, std::vector<SubPtr>& out,
                            WorkCounter& wc) const {
  for (const SubPtr& sub : entries_) {
    ++wc.comparisons;
    if (sub->matches(m)) out.push_back(sub);
  }
}

double LinearScanIndex::match_cost(const Message&) const {
  return static_cast<double>(entries_.size());
}

void LinearScanIndex::for_each(
    const std::function<void(const SubPtr&)>& fn) const {
  for (const SubPtr& sub : entries_) fn(sub);
}

}  // namespace bluedove
