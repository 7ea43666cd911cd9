#pragma once
// Columnar bucket engine: the product index.
//
// The index is its own storage: there is no side arena. The pivot domain
// is cut into fixed-width buckets, and each subscription copy is filed
// exactly once, in the bucket that holds its pivot `lo`. A bucket stores
// struct-of-arrays entries: contiguous lo[d][]/hi[d][] columns per
// dimension plus parallel id and subscriber arrays, 16 + 16k bytes per
// copy for k dimensions. A probe emits each hit's {id, subscriber}
// straight from the bucket; the one cold path, for_each, rebuilds each
// Subscription from the columns into one reused copy.
//
// Within a bucket, entries are ordered by reach (how many buckets past
// this one the pivot range extends), widest first, so the entries of
// bucket j that reach bucket b form the prefix [0, reach_end[b - j]). A
// probe of bucket b scans that prefix in each bucket b - max_reach .. b;
// the union of those runs is exactly the set of copies whose pivot span
// contains b, so the candidate set and the comparison count are those of
// filing every copy in every bucket it overlaps, at one entry per copy.
// Insert and erase shift one entry per reach class below the entry's own
// (O(reach) moves), so no probe needs a search. The id map records each
// copy's bucket and reach, which is all erase needs to find it.
//
// Each run is verified by scanning one contiguous column branchlessly to
// build a selection vector, then compacting it through the remaining
// dimensions: a handful of tight loops over packed doubles instead of a
// virtual pointer-chase per candidate.
//
// Arity: the first insert fixes the column count, and every later
// subscription and every probed message must have exactly that many
// dimensions. The index does not check; nodes reject other arities where
// input enters them (DispatcherNode, MatcherNode).

#include <vector>

#include "common/flat_id_map.h"
#include "index/subscription_index.h"

namespace bluedove {

namespace simd {
struct RangeKernel;
}  // namespace simd

class FlatBucketIndex final : public SubscriptionIndex {
 public:
  /// `domain` is the pivot dimension's value domain; `buckets` the number of
  /// fixed-width cells (at most kMaxBuckets).
  FlatBucketIndex(DimId pivot, Range domain, std::size_t buckets = 64);

  static constexpr std::size_t kMaxBuckets = 0xffff;

  DimId pivot() const override { return pivot_; }

  void insert(const Subscription& sub) override;
  bool erase(SubscriptionId id) override;
  std::size_t size() const override { return local_.size(); }
  bool contains(SubscriptionId id) const override {
    return local_.contains(id);
  }
  void clear() override;

  void match_batch(std::span<const Message> msgs, std::vector<MatchHit>& hits,
                   std::vector<std::uint32_t>& offsets, WorkCounter& wc,
                   MatchScratch& scratch,
                   std::vector<double>* per_msg_work = nullptr) const override;
  double match_cost(const Message& m) const override;
  void for_each(
      const std::function<void(const Subscription&)>& fn) const override;

  std::size_t bucket_count() const { return buckets_.size(); }
  /// Copies whose pivot span contains bucket `i`: the entries a probe of
  /// bucket `i` compares against.
  std::size_t bucket_size(std::size_t i) const;

  /// Entries held across all buckets' columns: one per stored copy.
  std::size_t column_entries() const;
  /// Bytes currently reserved by id/subscriber arrays + lo/hi columns
  /// across all buckets (capacity, not size). Columns grow in lockstep by
  /// doubling and never shrink on erase, so churn cannot thrash
  /// reallocation.
  std::size_t column_capacity_bytes() const;

 private:
  /// The copies whose pivot span starts in this bucket.
  struct Bucket {
    std::vector<SubscriptionId> ids;      ///< parallel to the column entries
    std::vector<SubscriberId> subscribers;
    std::vector<std::vector<Value>> lo;   ///< lo[d][i]: dim-major columns
    std::vector<std::vector<Value>> hi;
    /// reach_end[r]: entries reaching at least r buckets past this one.
    /// Entries are ordered by reach, widest first, so those are the prefix
    /// [0, reach_end[r]); reach_end[0] == ids.size(), and the vector ends
    /// at the widest reach held here (empty when there are no entries).
    std::vector<std::uint32_t> reach_end;
  };

  std::size_t bucket_of(Value v) const;
  std::pair<std::size_t, std::size_t> span_of(const Range& r) const;
  /// Entries of bucket `j` that reach bucket `j + reach`.
  static std::size_t run_length(const Bucket& b, std::size_t reach) {
    return reach < b.reach_end.size() ? b.reach_end[reach] : 0;
  }
  /// Files `sub` in bucket `first` among the entries reaching `reach`
  /// buckets further; O(reach) entry moves.
  void bucket_insert(std::size_t first, std::size_t reach,
                     const Subscription& sub);
  void bucket_erase(std::size_t first, std::size_t reach, SubscriptionId id);
  static void move_entry(Bucket& b, std::size_t from, std::size_t to);
  /// Writes to `sel` the ascending indices among the first `n` entries of
  /// `b` that match all of `m`'s predicates, using kernel `k`; returns
  /// their count.
  std::size_t select(const simd::RangeKernel& k, const Bucket& b,
                     std::size_t n, const Message& m,
                     std::uint32_t* sel) const;
  /// Appends to `out` the copies whose pivot span contains `m`'s bucket
  /// and that match all predicates. `sel` is the caller's selection-vector
  /// scratch, so concurrent probes of one index never share.
  void probe(const Message& m, std::vector<std::uint32_t>& sel,
             WorkCounter& wc, std::vector<MatchHit>& out) const;
  /// Sampled differential oracle: re-runs the scalar kernel over the same
  /// run (the first `n` entries of `b`) and reports an
  /// AuditKind::kSimdKernel violation when the vectorized selection
  /// differs. Called only while a wide kernel is active and the auditor is
  /// enabled.
  void audit_probe(const Message& m, const Bucket& b, std::size_t n,
                   const std::vector<std::uint32_t>& sel,
                   std::size_t count) const;

  DimId pivot_;
  Range domain_;
  std::vector<Bucket> buckets_;
  std::size_t columns_ = 0;  ///< dims of the SoA layout; fixed by first insert
  /// Widest reach ever filed since the last clear(): a probe of bucket b
  /// looks back at buckets b - max_reach_ .. b.
  std::size_t max_reach_ = 0;
  /// id -> where its copy is filed: first bucket << 16 | reach (both below
  /// kMaxBuckets, so never FlatIdMap::kNone).
  FlatIdMap local_;
};

}  // namespace bluedove
