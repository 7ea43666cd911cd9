#pragma once
// Probes one message through SubscriptionIndex::match_batch, the only
// probe an index has, for tests that check a single message's hits.

#include <algorithm>
#include <span>
#include <vector>

#include "index/subscription_index.h"

namespace bluedove::testing_probe {

/// The hits for `m` in the order the index emits them; the probe's work is
/// added to `wc`.
inline std::vector<MatchHit> probe_one(const SubscriptionIndex& index,
                                       const Message& m, WorkCounter& wc) {
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  MatchScratch scratch;
  index.match_batch(std::span<const Message>(&m, 1), hits, offsets, wc,
                    scratch);
  return hits;
}

/// The ids `index` matches for `m`, sorted: the oracle a delivered set is
/// compared against.
inline std::vector<SubscriptionId> hit_ids(const SubscriptionIndex& index,
                                           const Message& m) {
  WorkCounter wc;
  std::vector<SubscriptionId> ids;
  for (const MatchHit& h : probe_one(index, m, wc)) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace bluedove::testing_probe
