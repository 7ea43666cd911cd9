#pragma once
// Linear scan engine: stores the set as a flat vector and examines every
// entry on each probe. This is the cost model the paper's narrative uses
// ("each matcher needs to search through all subscriptions" for full
// replication; "D has only 4 subscriptions to search" in Fig 3): the work of
// matching one message is proportional to the size of the searched set.

#include <vector>

#include "common/flat_id_map.h"
#include "index/subscription_index.h"

namespace bluedove {

class LinearScanIndex final : public SubscriptionIndex {
 public:
  explicit LinearScanIndex(DimId pivot) : pivot_(pivot) {}

  DimId pivot() const override { return pivot_; }

  void insert(SubPtr sub) override;
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return entries_.size(); }
  bool contains(SubscriptionId id) const override {
    return slot_.contains(id);
  }
  void clear() override;

  void match(const Message& m, std::vector<SubPtr>& out,
             WorkCounter& wc) const override;
  double match_cost(const Message& m) const override;
  void for_each(const std::function<void(const SubPtr&)>& fn) const override;

 private:
  DimId pivot_;
  std::vector<SubPtr> entries_;
  FlatIdMap slot_;  ///< id -> index in entries_
};

}  // namespace bluedove
