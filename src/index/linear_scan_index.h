#pragma once
// Linear scan engine: stores the set as a flat vector and examines every
// entry on each probe. This is the cost model the paper's narrative uses
// ("each matcher needs to search through all subscriptions" for full
// replication; "D has only 4 subscriptions to search" in Fig 3): the work of
// matching one message is proportional to the size of the searched set.
//
// It is also the oracle. Beside the interface it stores and returns shared
// subscriptions, for an oracle that files one subscription in many
// indexes; its match and match_batch run one scan, so they agree hit for
// hit and unit for unit.

#include <memory>
#include <vector>

#include "common/flat_id_map.h"
#include "index/subscription_index.h"

namespace bluedove {

using SubPtr = std::shared_ptr<const Subscription>;

class LinearScanIndex final : public SubscriptionIndex {
 public:
  explicit LinearScanIndex(DimId pivot) : pivot_(pivot) {}

  DimId pivot() const override { return pivot_; }

  void insert(const Subscription& sub) override;
  /// Stores `sub` itself, shared with the caller; its id must not be
  /// stored yet.
  void insert(SubPtr sub);
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return entries_.size(); }
  bool contains(SubscriptionId id) const override {
    return slot_.contains(id);
  }
  void clear() override;

  void match_batch(std::span<const Message> msgs, std::vector<MatchHit>& hits,
                   std::vector<std::uint32_t>& offsets, WorkCounter& wc,
                   MatchScratch& scratch,
                   std::vector<double>* per_msg_work = nullptr) const override;
  /// The oracle probe: appends every stored subscription matching `m`.
  void match(const Message& m, std::vector<SubPtr>& out,
             WorkCounter& wc) const;
  double match_cost(const Message& m) const override;
  void for_each(
      const std::function<void(const Subscription&)>& fn) const override;

 private:
  /// Calls emit(sub) for every stored subscription matching `m`, in
  /// storage order, charging one comparison per entry.
  template <typename Emit>
  void scan(const Message& m, WorkCounter& wc, Emit&& emit) const {
    for (const SubPtr& sub : entries_) {
      ++wc.comparisons;
      if (sub->matches(m)) emit(sub);
    }
  }

  DimId pivot_;
  std::vector<SubPtr> entries_;
  FlatIdMap slot_;  ///< id -> index in entries_
};

}  // namespace bluedove
