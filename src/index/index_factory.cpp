#include "index/flat_bucket_index.h"
#include "index/linear_scan_index.h"
#include "index/subscription_index.h"

namespace bluedove {

void SubscriptionIndex::match_hits(const Message& m, std::vector<MatchHit>& out,
                                   WorkCounter& wc) const {
  std::vector<SubPtr> subs;
  match(m, subs, wc);
  out.reserve(out.size() + subs.size());
  for (const SubPtr& s : subs) out.push_back({s->id, s->subscriber});
}

void SubscriptionIndex::match_batch(std::span<const Message> msgs,
                                    std::vector<MatchHit>& hits,
                                    std::vector<std::uint32_t>& offsets,
                                    WorkCounter& wc,
                                    std::vector<double>* per_msg_work,
                                    MatchScratch* /*scratch*/) const {
  offsets.reserve(offsets.size() + msgs.size() + 1);
  for (const Message& m : msgs) {
    offsets.push_back(static_cast<std::uint32_t>(hits.size()));
    const WorkCounter before = wc;
    match_hits(m, hits, wc);
    if (per_msg_work != nullptr) {
      const WorkCounter delta{wc.comparisons - before.comparisons,
                              wc.probes - before.probes};
      per_msg_work->push_back(delta.total());
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(hits.size()));
}

const char* to_string(IndexKind kind) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return "linear-scan";
    case IndexKind::kFlatBucket:
      return "flat-bucket";
  }
  return "unknown";
}

std::optional<IndexKind> index_kind_from_string(std::string_view name) {
  for (IndexKind kind : {IndexKind::kLinearScan, IndexKind::kFlatBucket}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<SubscriptionIndex> make_index(IndexKind kind, DimId pivot,
                                              Range domain) {
  switch (kind) {
    case IndexKind::kLinearScan:
      return std::make_unique<LinearScanIndex>(pivot);
    case IndexKind::kFlatBucket:
      return std::make_unique<FlatBucketIndex>(pivot, domain);
  }
  return nullptr;
}

}  // namespace bluedove
