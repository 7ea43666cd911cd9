#pragma once
// Bucket engine: splits the pivot dimension's domain into fixed-width
// buckets; a subscription is registered in every bucket its pivot range
// overlaps. A probe scans only the bucket containing the message's pivot
// coordinate, so work is proportional to local density — cold spots are
// genuinely cheap, which is the property BlueDove's forwarding exploits.

#include <unordered_map>
#include <vector>

#include "index/subscription_index.h"

namespace bluedove {

class BucketIndex final : public SubscriptionIndex {
 public:
  /// `domain` is the pivot dimension's value domain; `buckets` the number of
  /// fixed-width cells it is split into.
  BucketIndex(DimId pivot, Range domain, std::size_t buckets = 64);

  DimId pivot() const override { return pivot_; }

  void insert(SubPtr sub) override;
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return subs_.size(); }
  void clear() override;

  void match(const Message& m, std::vector<SubPtr>& out,
             WorkCounter& wc) const override;
  double match_cost(const Message& m) const override;
  void for_each(const std::function<void(const SubPtr&)>& fn) const override;

  std::size_t bucket_count() const { return buckets_.size(); }
  std::size_t bucket_size(std::size_t i) const { return buckets_[i].size(); }

 private:
  std::size_t bucket_of(Value v) const;
  /// [first, last] bucket span overlapped by a pivot range.
  std::pair<std::size_t, std::size_t> span_of(const Range& r) const;

  DimId pivot_;
  Range domain_;
  std::vector<std::vector<SubPtr>> buckets_;
  std::unordered_map<SubscriptionId, SubPtr> subs_;
};

}  // namespace bluedove
