#pragma once
// Columnar bucket engine: the product index.
//
// Subscriptions are interned once in a SubscriptionStore arena; each
// fixed-width bucket along the pivot dimension holds struct-of-arrays
// predicate data — contiguous lo[d][]/hi[d][] columns per dimension plus a
// parallel slot-id array. A probe first scans one contiguous column
// branchlessly to build a selection vector, then compacts it through the
// remaining dimensions, so the k-predicate verify is a handful of tight
// loops over packed doubles (auto-vectorizable) instead of a virtual
// pointer-chase per candidate. The probe returns compact slot ids; SubPtrs
// are materialized only on the cold paths (for_each, legacy match()).

#include <unordered_map>
#include <vector>

#include "index/subscription_index.h"
#include "index/subscription_store.h"

namespace bluedove {

namespace simd {
struct RangeKernel;
}  // namespace simd

class FlatBucketIndex final : public SubscriptionIndex {
 public:
  /// `domain` is the pivot dimension's value domain; `buckets` the number of
  /// fixed-width cells. When `store` is null the index owns a private arena.
  FlatBucketIndex(DimId pivot, Range domain,
                  std::shared_ptr<SubscriptionStore> store = nullptr,
                  std::size_t buckets = 64);

  DimId pivot() const override { return pivot_; }

  void insert(SubPtr sub) override;
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return local_.size(); }
  void clear() override;

  void match(const Message& m, std::vector<SubPtr>& out,
             WorkCounter& wc) const override;
  void match_hits(const Message& m, std::vector<MatchHit>& out,
                  WorkCounter& wc) const override;
  void match_batch(std::span<const Message> msgs, std::vector<MatchHit>& hits,
                   std::vector<std::uint32_t>& offsets, WorkCounter& wc,
                   std::vector<double>* per_msg_work = nullptr,
                   MatchScratch* scratch = nullptr) const override;
  double match_cost(const Message& m) const override;
  void for_each(const std::function<void(const SubPtr&)>& fn) const override;

  const SubscriptionStore& store() const { return *store_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::size_t bucket_size(std::size_t i) const;

  /// Quiesce-time storage compaction: releases column capacity in buckets
  /// that retain far more than they use. Steady-state churn never shrinks
  /// (erase is swap-remove, insert reserves in lockstep), so capacity
  /// cannot thrash; call this from maintenance points (handover, idle).
  void compact_storage();
  /// Bytes currently reserved by slot arrays + lo/hi columns across all
  /// buckets (capacity, not size) — the churn regression test pins this.
  std::size_t column_capacity_bytes() const;

 private:
  using Slot = SubscriptionStore::Slot;

  struct Bucket {
    std::vector<Slot> slots;             ///< parallel to the column entries
    std::vector<std::vector<Value>> lo;  ///< lo[d][i]: dim-major columns
    std::vector<std::vector<Value>> hi;
    /// Entries whose dimension count differs from the column layout; they
    /// are verified scalar-wise through the arena (never hit in practice —
    /// one matcher serves one schema).
    std::vector<Slot> irregular;
  };

  std::size_t bucket_of(Value v) const;
  std::pair<std::size_t, std::size_t> span_of(const Range& r) const;
  std::pair<std::size_t, std::size_t> span_of_sub(const Subscription& s) const;
  void bucket_insert(Bucket& b, Slot slot, const Subscription& sub);
  void bucket_erase(Bucket& b, Slot slot);
  /// Appends the slots in `m`'s bucket that match all predicates. `sel` is
  /// the caller's selection-vector scratch: the single-threaded entry
  /// points pass the members below, match_batch threads the per-worker
  /// MatchScratch through so concurrent probes of one index never share.
  void probe(const Message& m, std::vector<Slot>& out,
             std::vector<std::uint32_t>& sel, WorkCounter& wc) const;
  /// Sampled differential oracle: re-runs the scalar kernel over the same
  /// bucket and reports an AuditKind::kSimdKernel violation when the
  /// vectorized selection differs. Called only while a wide kernel is
  /// active and the auditor is enabled.
  void audit_probe(const Message& m, const Bucket& b,
                   const std::vector<std::uint32_t>& sel,
                   std::size_t count) const;

  DimId pivot_;
  Range domain_;
  std::shared_ptr<SubscriptionStore> store_;
  std::vector<Bucket> buckets_;
  std::size_t columns_ = 0;  ///< dims of the SoA layout; fixed by first insert
  std::unordered_map<SubscriptionId, Slot> local_;  ///< ids this index holds
  /// Fallback probe scratch for the single-threaded entry points;
  /// match_batch threads a caller-owned MatchScratch through instead.
  mutable MatchScratch scratch_;
};

}  // namespace bluedove
