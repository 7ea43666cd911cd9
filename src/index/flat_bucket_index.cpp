#include "index/flat_bucket_index.h"

#include <algorithm>
#include <string>

#include "obs/audit.h"
#include "simd/range_kernel.h"

namespace bluedove {

namespace {
/// Smallest lockstep reservation for a bucket's entry arrays.
constexpr std::size_t kMinBucketCapacity = 16;
}  // namespace

FlatBucketIndex::FlatBucketIndex(DimId pivot, Range domain,
                                 std::size_t buckets)
    : pivot_(pivot),
      domain_(domain),
      buckets_(std::clamp<std::size_t>(buckets, 1, kMaxBuckets)) {}

std::size_t FlatBucketIndex::bucket_of(Value v) const {
  if (domain_.width() <= 0.0) return 0;
  const double frac = (v - domain_.lo) / domain_.width();
  const auto n = static_cast<double>(buckets_.size());
  const auto idx = static_cast<long long>(frac * n);
  if (idx < 0) return 0;
  if (idx >= static_cast<long long>(buckets_.size())) return buckets_.size() - 1;
  return static_cast<std::size_t>(idx);
}

std::pair<std::size_t, std::size_t> FlatBucketIndex::span_of(
    const Range& r) const {
  const std::size_t first = bucket_of(r.lo);
  // hi is exclusive; nudge inside the range so an exact bucket boundary does
  // not register the subscription one bucket too far.
  const Value inside_hi = std::max(r.lo, r.hi - 1e-12 * std::max(1.0, r.hi));
  const std::size_t last = bucket_of(inside_hi);
  return {first, std::max(first, last)};
}

void FlatBucketIndex::bucket_insert(std::size_t first, std::size_t reach,
                                    const Subscription& sub) {
  Bucket& b = buckets_[first];
  if (b.lo.size() != columns_) {
    b.lo.resize(columns_);
    b.hi.resize(columns_);
  }
  if (b.ids.size() == b.ids.capacity()) {
    // Grow the id/subscriber arrays and all 2k columns in lockstep under
    // one policy: one reallocation event per doubling instead of 2k+2
    // vectors doubling independently as the churn stream interleaves
    // inserts and erases.
    const std::size_t cap = std::max(kMinBucketCapacity, b.ids.capacity() * 2);
    b.ids.reserve(cap);
    b.subscribers.reserve(cap);
    for (std::size_t d = 0; d < columns_; ++d) {
      b.lo[d].reserve(cap);
      b.hi[d].reserve(cap);
    }
  }
  b.ids.push_back(0);
  b.subscribers.push_back(0);
  for (std::size_t d = 0; d < columns_; ++d) {
    b.lo[d].push_back(0.0);
    b.hi[d].push_back(0.0);
  }
  if (b.reach_end.size() <= reach) b.reach_end.resize(reach + 1, 0);
  // Open a hole at the end of the reach-`reach` class: each narrower class
  // hands its first entry to the hole past its last, shifting by one.
  std::size_t hole = b.ids.size() - 1;
  for (std::size_t r = 0; r < reach; ++r) {
    move_entry(b, b.reach_end[r + 1], hole);
    hole = b.reach_end[r + 1];
  }
  b.ids[hole] = sub.id;
  b.subscribers[hole] = sub.subscriber;
  for (std::size_t d = 0; d < columns_; ++d) {
    b.lo[d][hole] = sub.ranges[d].lo;
    b.hi[d][hole] = sub.ranges[d].hi;
  }
  for (std::size_t r = 0; r <= reach; ++r) ++b.reach_end[r];
}

void FlatBucketIndex::bucket_erase(std::size_t first, std::size_t reach,
                                   SubscriptionId id) {
  Bucket& b = buckets_[first];
  std::size_t hole = run_length(b, reach + 1);
  while (b.ids[hole] != id) ++hole;  // the id map says it is in this class
  // Close the hole: each class from `reach` down to the narrowest hands its
  // last entry to the hole left before it. pop_back never releases vector
  // capacity, and insert reserves in lockstep, so steady-state churn cannot
  // thrash the column allocations.
  for (std::size_t r = reach + 1; r-- > 0;) {
    const std::size_t last = --b.reach_end[r];
    move_entry(b, last, hole);
    hole = last;
  }
  b.ids.pop_back();
  b.subscribers.pop_back();
  for (std::size_t d = 0; d < b.lo.size(); ++d) {
    b.lo[d].pop_back();
    b.hi[d].pop_back();
  }
  while (!b.reach_end.empty() && b.reach_end.back() == 0) {
    b.reach_end.pop_back();
  }
}

void FlatBucketIndex::move_entry(Bucket& b, std::size_t from, std::size_t to) {
  b.ids[to] = b.ids[from];
  b.subscribers[to] = b.subscribers[from];
  for (std::size_t d = 0; d < b.lo.size(); ++d) {
    b.lo[d][to] = b.lo[d][from];
    b.hi[d][to] = b.hi[d][from];
  }
}

void FlatBucketIndex::insert(const Subscription& sub) {
  if (local_.contains(sub.id)) return;  // dedup; matcher guards this too
  if (columns_ == 0) columns_ = sub.dimensions();
  const auto [first, last] = span_of(sub.range(pivot_));
  const std::size_t reach = last - first;
  max_reach_ = std::max(max_reach_, reach);
  local_.set(sub.id, static_cast<std::uint32_t>(first << 16 | reach));
  bucket_insert(first, reach, sub);
}

bool FlatBucketIndex::erase(SubscriptionId id) {
  const std::uint32_t place = local_.find(id);
  if (place == FlatIdMap::kNone) return false;
  bucket_erase(place >> 16, place & 0xffffu, id);
  local_.erase(id);
  return true;
}

void FlatBucketIndex::clear() {
  local_.clear();
  max_reach_ = 0;
  // Keep column capacity: clear() precedes a rebuild of (usually) the same
  // scale, and dropping every allocation here just to re-grow it would
  // thrash the allocator.
  for (Bucket& b : buckets_) {
    b.ids.clear();
    b.subscribers.clear();
    b.reach_end.clear();
    for (auto& c : b.lo) c.clear();
    for (auto& c : b.hi) c.clear();
  }
}

std::size_t FlatBucketIndex::column_entries() const {
  std::size_t entries = 0;
  for (const Bucket& b : buckets_) entries += b.ids.size();
  return entries;
}

std::size_t FlatBucketIndex::column_capacity_bytes() const {
  std::size_t bytes = 0;
  for (const Bucket& b : buckets_) {
    bytes += b.ids.capacity() * sizeof(SubscriptionId);
    bytes += b.subscribers.capacity() * sizeof(SubscriberId);
    for (const auto& c : b.lo) bytes += c.capacity() * sizeof(Value);
    for (const auto& c : b.hi) bytes += c.capacity() * sizeof(Value);
  }
  return bytes;
}

std::size_t FlatBucketIndex::select(const simd::RangeKernel& k,
                                    const Bucket& b, std::size_t n,
                                    const Message& m,
                                    std::uint32_t* sel) const {
  // The pivot goes last: every entry of the run overlaps the message's
  // pivot bucket, so the pivot column rejects the fewest rows, and the
  // selective dimensions first often empty the selection before the later
  // passes run. The first pass scans one contiguous column run and emits
  // the selection vector; the others compact it in place. Every order
  // selects the same rows in ascending order.
  const std::size_t last = std::min(static_cast<std::size_t>(pivot_),
                                    columns_ - 1);
  const auto dim_at = [&](std::size_t i) {
    return i + 1 == columns_ ? last : (i < last ? i : i + 1);
  };
  std::size_t d = dim_at(0);
  std::size_t count =
      k.scan(b.lo[d].data(), b.hi[d].data(), n, m.values[d], sel);
  for (std::size_t i = 1; i < columns_ && count != 0; ++i) {
    d = dim_at(i);
    count =
        k.compact(b.lo[d].data(), b.hi[d].data(), m.values[d], sel, count);
  }
  return count;
}

void FlatBucketIndex::probe(const Message& m, std::vector<std::uint32_t>& sel,
                            WorkCounter& wc, std::vector<MatchHit>& out) const {
  ++wc.probes;
  const std::size_t target = bucket_of(m.value(pivot_));
  const simd::RangeKernel& k = simd::active_kernel();
  // Bucket j contributes the prefix of its entries that reach `target`;
  // together these runs are every copy whose pivot span contains it.
  for (std::size_t j = target - std::min(target, max_reach_); j <= target;
       ++j) {
    const Bucket& b = buckets_[j];
    const std::size_t n = run_length(b, target - j);
    wc.comparisons += n;
    if (n == 0) continue;
    sel.resize(std::max(sel.size(), n));
    const std::size_t count = select(k, b, n, m, sel.data());
    if (k.kind != simd::KernelKind::kScalar && obs::Audit::enabled()) {
      audit_probe(m, b, n, sel, count);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t e = sel[i];
      out.push_back({b.ids[e], b.subscribers[e]});
    }
  }
}

void FlatBucketIndex::audit_probe(const Message& m, const Bucket& b,
                                  std::size_t n,
                                  const std::vector<std::uint32_t>& sel,
                                  std::size_t count) const {
  // Sample: every 64th vectorized run per thread replays the scalar oracle
  // over the same run and compares the selections exactly.
  thread_local std::uint64_t tick = 0;
  if ((tick++ & 63u) != 0) return;
  thread_local std::vector<std::uint32_t> oracle;
  oracle.resize(n);
  const std::size_t oc = select(simd::scalar_kernel(), b, n, m, oracle.data());
  if (oc != count ||
      !std::equal(sel.begin(), sel.begin() + static_cast<std::ptrdiff_t>(count),
                  oracle.begin())) {
    obs::Audit::report(
        obs::AuditKind::kSimdKernel,
        std::string("vector probe diverged from scalar oracle: kernel=") +
            simd::active_kernel().name + " run_size=" + std::to_string(n) +
            " vector_hits=" + std::to_string(count) +
            " scalar_hits=" + std::to_string(oc));
  }
}

void FlatBucketIndex::match_batch(std::span<const Message> msgs,
                                  std::vector<MatchHit>& hits,
                                  std::vector<std::uint32_t>& offsets,
                                  WorkCounter& wc, MatchScratch& s,
                                  std::vector<double>* per_msg_work) const {
  const std::size_t n = msgs.size();
  offsets.reserve(offsets.size() + n + 1);
  if (n <= 1) {
    for (const Message& m : msgs) {
      offsets.push_back(static_cast<std::uint32_t>(hits.size()));
      const WorkCounter before = wc;
      probe(m, s.sel, wc, hits);
      if (per_msg_work != nullptr) {
        const WorkCounter delta{wc.comparisons - before.comparisons,
                                wc.probes - before.probes};
        per_msg_work->push_back(delta.total());
      }
    }
    offsets.push_back(static_cast<std::uint32_t>(hits.size()));
    return;
  }
  // Event-major execution: sort the batch by target bucket so consecutive
  // probes hit the same lo/hi columns while they are cache-hot, then emit
  // the staged per-message results in the original message order — the
  // output (hits, offsets, per-message work) is byte-identical to the
  // per-message loop above.
  s.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.order[i] =
        (static_cast<std::uint64_t>(bucket_of(msgs[i].value(pivot_))) << 32) |
        i;
  }
  std::sort(s.order.begin(), s.order.end());
  s.staged.clear();
  s.staged_off.resize(2 * n);
  s.staged_work.resize(n);
  for (const std::uint64_t packed : s.order) {
    const auto idx = static_cast<std::size_t>(packed & 0xffffffffu);
    const WorkCounter before = wc;
    const std::size_t start = s.staged.size();
    probe(msgs[idx], s.sel, wc, s.staged);
    s.staged_off[2 * idx] = static_cast<std::uint32_t>(start);
    s.staged_off[2 * idx + 1] =
        static_cast<std::uint32_t>(s.staged.size() - start);
    const WorkCounter delta{wc.comparisons - before.comparisons,
                            wc.probes - before.probes};
    s.staged_work[idx] = delta.total();
  }
  for (std::size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<std::uint32_t>(hits.size()));
    const std::size_t start = s.staged_off[2 * i];
    const std::size_t cnt = s.staged_off[2 * i + 1];
    hits.insert(hits.end(),
                s.staged.begin() + static_cast<std::ptrdiff_t>(start),
                s.staged.begin() + static_cast<std::ptrdiff_t>(start + cnt));
    if (per_msg_work != nullptr) per_msg_work->push_back(s.staged_work[i]);
  }
  offsets.push_back(static_cast<std::uint32_t>(hits.size()));
}

double FlatBucketIndex::match_cost(const Message& m) const {
  return 0.25 + static_cast<double>(bucket_size(bucket_of(m.value(pivot_))));
}

void FlatBucketIndex::for_each(
    const std::function<void(const Subscription&)>& fn) const {
  Subscription sub;
  sub.ranges.resize(columns_);
  for (const Bucket& b : buckets_) {
    for (std::size_t i = 0; i < b.ids.size(); ++i) {
      sub.id = b.ids[i];
      sub.subscriber = b.subscribers[i];
      for (std::size_t d = 0; d < columns_; ++d) {
        sub.ranges[d] = Range{b.lo[d][i], b.hi[d][i]};
      }
      fn(sub);
    }
  }
}

std::size_t FlatBucketIndex::bucket_size(std::size_t i) const {
  std::size_t n = 0;
  for (std::size_t j = i - std::min(i, max_reach_); j <= i; ++j) {
    n += run_length(buckets_[j], i - j);
  }
  return n;
}

}  // namespace bluedove
