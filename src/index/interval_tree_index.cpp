#include "index/interval_tree_index.h"

#include <algorithm>

namespace bluedove {

IntervalTreeIndex::IntervalTreeIndex(DimId pivot, Range domain, int max_depth)
    : pivot_(pivot), domain_(domain), max_depth_(max_depth) {}

IntervalTreeIndex::Node* IntervalTreeIndex::locate(const Range& r,
                                                   bool create) {
  if (!root_) {
    if (!create) return nullptr;
    root_ = std::make_unique<Node>();
    root_->extent = domain_;
    root_->center = 0.5 * (domain_.lo + domain_.hi);
    root_->depth = 0;
  }
  Node* node = root_.get();
  while (true) {
    const bool leaf = node->depth >= max_depth_;
    if (leaf || (r.lo <= node->center && node->center < r.hi)) return node;
    std::unique_ptr<Node>* childp = nullptr;
    Range child_extent;
    if (r.hi <= node->center) {
      childp = &node->left;
      child_extent = Range{node->extent.lo, node->center};
    } else {
      childp = &node->right;
      child_extent = Range{node->center, node->extent.hi};
    }
    if (!*childp) {
      if (!create) return nullptr;
      *childp = std::make_unique<Node>();
      (*childp)->extent = child_extent;
      (*childp)->center = 0.5 * (child_extent.lo + child_extent.hi);
      (*childp)->depth = node->depth + 1;
    }
    node = childp->get();
  }
}

bool IntervalTreeIndex::node_erase(Node& node, SubscriptionId id) {
  auto drop = [id](std::vector<SubPtr>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i]->id == id) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  };
  const bool a = drop(node.by_lo);
  const bool b = drop(node.by_hi);
  return a && b;
}

void IntervalTreeIndex::insert(SubPtr sub) {
  Node* node = locate(sub->range(pivot_), /*create=*/true);
  const Range r = sub->range(pivot_);
  // Keep by_lo ascending in lo and by_hi descending in hi.
  auto lo_pos = std::lower_bound(
      node->by_lo.begin(), node->by_lo.end(), r.lo,
      [this](const SubPtr& s, Value v) { return s->range(pivot_).lo < v; });
  node->by_lo.insert(lo_pos, sub);
  auto hi_pos = std::lower_bound(
      node->by_hi.begin(), node->by_hi.end(), r.hi,
      [this](const SubPtr& s, Value v) { return s->range(pivot_).hi > v; });
  node->by_hi.insert(hi_pos, sub);
  subs_.emplace(sub->id, std::move(sub));
  ++count_;
}

bool IntervalTreeIndex::erase(SubscriptionId id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  Node* node = locate(it->second->range(pivot_), /*create=*/false);
  if (node != nullptr) node_erase(*node, id);
  subs_.erase(it);
  --count_;
  return true;
}

void IntervalTreeIndex::clear() {
  root_.reset();
  subs_.clear();
  count_ = 0;
}

void IntervalTreeIndex::match(const Message& m, std::vector<SubPtr>& out,
                              WorkCounter& wc) const {
  const Value v = m.value(pivot_);
  const Node* node = root_.get();
  while (node != nullptr) {
    ++wc.probes;
    // Note: a depth-capped leaf may hold intervals that do not straddle the
    // node centre, so the sorted-side condition (the break) is necessary
    // but not sufficient — full pivot containment is re-checked per
    // candidate.
    if (v < node->center) {
      // by_lo is ascending in lo; no interval after the first lo > v can
      // contain v.
      for (const SubPtr& sub : node->by_lo) {
        ++wc.comparisons;
        if (sub->range(pivot_).lo > v) break;
        if (sub->range(pivot_).contains(v) && sub->matches_except(m, pivot_))
          out.push_back(sub);
      }
      node = node->left.get();
    } else {
      // by_hi is descending in hi; no interval after the first hi <= v can
      // contain v.
      for (const SubPtr& sub : node->by_hi) {
        ++wc.comparisons;
        if (sub->range(pivot_).hi <= v) break;
        if (sub->range(pivot_).contains(v) && sub->matches_except(m, pivot_))
          out.push_back(sub);
      }
      node = node->right.get();
    }
  }
}

double IntervalTreeIndex::match_cost(const Message& m) const {
  WorkCounter wc;
  const Value v = m.value(pivot_);
  const Node* node = root_.get();
  while (node != nullptr) {
    ++wc.probes;
    if (v < node->center) {
      for (const SubPtr& sub : node->by_lo) {
        ++wc.comparisons;
        if (sub->range(pivot_).lo > v) break;
      }
      node = node->left.get();
    } else {
      for (const SubPtr& sub : node->by_hi) {
        ++wc.comparisons;
        if (sub->range(pivot_).hi <= v) break;
      }
      node = node->right.get();
    }
  }
  return wc.total();
}

std::size_t IntervalTreeIndex::stab_count(Value v) const {
  std::size_t n = 0;
  const Node* node = root_.get();
  while (node != nullptr) {
    if (v < node->center) {
      for (const SubPtr& sub : node->by_lo) {
        if (sub->range(pivot_).lo > v) break;
        if (sub->range(pivot_).contains(v)) ++n;
      }
      node = node->left.get();
    } else {
      for (const SubPtr& sub : node->by_hi) {
        if (sub->range(pivot_).hi <= v) break;
        if (sub->range(pivot_).contains(v)) ++n;
      }
      node = node->right.get();
    }
  }
  return n;
}

void IntervalTreeIndex::for_each(
    const std::function<void(const SubPtr&)>& fn) const {
  for (const auto& [id, sub] : subs_) fn(sub);
}

}  // namespace bluedove
