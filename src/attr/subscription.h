#pragma once
// A subscription: the conjunction of one range predicate per dimension.
// A message matches iff every coordinate lies inside the corresponding range
// (the hyper-cuboid membership test of paper §II-A).

#include <vector>

#include "attr/message.h"
#include "attr/value.h"
#include "common/serde.h"
#include "common/types.h"

namespace bluedove {

struct Subscription {
  SubscriptionId id = 0;
  SubscriberId subscriber = 0;
  std::vector<Range> ranges;  ///< one predicate per schema dimension

  const Range& range(DimId dim) const { return ranges[dim]; }
  std::size_t dimensions() const { return ranges.size(); }

  /// Full k-predicate membership test.
  bool matches(const Message& m) const {
    if (m.values.size() != ranges.size()) return false;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      if (!ranges[i].contains(m.values[i])) return false;
    }
    return true;
  }
};

void write_subscription(serde::Writer& w, const Subscription& s);
Subscription read_subscription(serde::Reader& r);

}  // namespace bluedove
