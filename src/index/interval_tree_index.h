#pragma once
// Centered interval tree over the pivot dimension.
//
// Node centers come from recursive bisection of the pivot domain, so the
// tree is balanced with respect to the domain regardless of insertion order
// and needs no rebalancing; every subscription lives at the highest node
// whose center its pivot range contains. A point stab visits O(log B) nodes
// plus the stabbed candidates, and each candidate is then verified against
// the remaining k-1 predicates.

#include <memory>
#include <unordered_map>
#include <vector>

#include "index/subscription_index.h"

namespace bluedove {

class IntervalTreeIndex final : public SubscriptionIndex {
 public:
  IntervalTreeIndex(DimId pivot, Range domain, int max_depth = 24);

  DimId pivot() const override { return pivot_; }

  void insert(SubPtr sub) override;
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return count_; }
  void clear() override;

  void match(const Message& m, std::vector<SubPtr>& out,
             WorkCounter& wc) const override;
  double match_cost(const Message& m) const override;
  void for_each(const std::function<void(const SubPtr&)>& fn) const override;

  /// Number of stored intervals whose pivot range contains v (exact), plus
  /// traversal bookkeeping — exposed for tests.
  std::size_t stab_count(Value v) const;

 private:
  struct Node {
    Value center;
    Range extent;  ///< domain slice this node bisects
    int depth;
    std::vector<SubPtr> by_lo;  ///< intervals containing center, lo ascending
    std::vector<SubPtr> by_hi;  ///< same intervals, hi descending
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  Node* locate(const Range& r, bool create);
  static bool node_erase(Node& node, SubscriptionId id);

  DimId pivot_;
  Range domain_;
  int max_depth_;
  std::unique_ptr<Node> root_;
  std::size_t count_ = 0;
  std::unordered_map<SubscriptionId, SubPtr> subs_;
};

}  // namespace bluedove
