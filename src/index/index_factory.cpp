#include "index/flat_bucket_index.h"
#include "index/linear_scan_index.h"
#include "index/subscription_index.h"

namespace bluedove {

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
