#pragma once
// Subscription matching engines.
//
// A BlueDove matcher stores the subscriptions received along each dimension
// in a separate set and builds a separate index per set (paper §III-A). Each
// engine here indexes one such set, pivoted on one dimension: a probe takes
// a message, finds the stored subscriptions whose pivot-dimension predicate
// contains the message's pivot coordinate, and verifies the remaining
// predicates.
//
// Every engine reports the *work* it performs (index probes + subscription
// comparisons) through a WorkCounter. The discrete-event simulator charges
// simulated CPU time from these work units, so the experiments' cost model
// is the real data structure's behaviour rather than a hand-fit curve.
//
// Concurrency: the const probe entry points (match_batch with a caller-owned
// MatchScratch, match_cost) may run on several threads over one live index
// at once, provided nothing mutates that index meanwhile; the matcher holds
// its writes back while an offloaded probe is in flight (DESIGN.md §10).
// A probe reads only its own index's storage: no index shares state with
// another, so writes to one index never disturb a probe of the next.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "attr/message.h"
#include "attr/subscription.h"
#include "common/types.h"

namespace bluedove {

using SubPtr = std::shared_ptr<const Subscription>;

/// One matching subscription, reduced to what the delivery fan-out needs.
/// The probe path returns these instead of `SubPtr` so columnar engines
/// never touch a refcount while matching.
struct MatchHit {
  SubscriptionId id = 0;
  SubscriberId subscriber = 0;

  friend bool operator==(const MatchHit&, const MatchHit&) = default;
};

/// Reusable probe scratch (selection vector, batch staging) threaded through
/// match_batch so repeated probes reallocate nothing. Each offload worker
/// owns one instance — an engine's internal fallback scratch is not safe
/// once one index is probed from several threads at a time.
struct MatchScratch {
  std::vector<std::uint32_t> sel;
  // Batched-probe staging (FlatBucketIndex::match_batch): messages are
  // probed in bucket order so consecutive probes hit the same columns, but
  // hits must be emitted in message order. The probe results are staged
  // here, then copied out in original order.
  std::vector<std::uint64_t> order;        ///< (bucket << 32 | msg index), sorted
  std::vector<MatchHit> staged;            ///< hits in probe (bucket) order
  std::vector<std::uint32_t> staged_off;   ///< per-message [start, count)
  std::vector<double> staged_work;         ///< per-message work units
};

/// Work units accumulated during index operations. One unit is one
/// subscription comparison; probes (tree node / bucket visits) are cheaper.
struct WorkCounter {
  std::uint64_t comparisons = 0;  ///< subscriptions examined
  std::uint64_t probes = 0;       ///< index nodes / buckets visited

  double total() const {
    return static_cast<double>(comparisons) +
           0.25 * static_cast<double>(probes);
  }

  WorkCounter& operator+=(const WorkCounter& o) {
    comparisons += o.comparisons;
    probes += o.probes;
    return *this;
  }
};

class SubscriptionIndex {
 public:
  virtual ~SubscriptionIndex() = default;

  /// Dimension this index is pivoted on.
  virtual DimId pivot() const = 0;

  virtual void insert(SubPtr sub) = 0;
  /// Removes by id; returns false when the id is not present.
  virtual bool erase(SubscriptionId id) = 0;
  virtual std::size_t size() const = 0;
  /// True when a subscription with this id is stored.
  virtual bool contains(SubscriptionId id) const = 0;
  virtual void clear() = 0;

  /// Appends every stored subscription matching `m` (all k predicates) to
  /// `out` and accounts the work performed in `wc`.
  virtual void match(const Message& m, std::vector<SubPtr>& out,
                     WorkCounter& wc) const = 0;

  /// Hot-path variant of match(): appends compact MatchHits instead of
  /// handing out shared_ptrs. The default adapts match(); columnar engines
  /// override it to keep the probe allocation- and refcount-free.
  virtual void match_hits(const Message& m, std::vector<MatchHit>& out,
                          WorkCounter& wc) const;

  /// Matches a batch of messages in one call. Hits for msgs[i] land in
  /// hits[offsets[i] .. offsets[i+1]); offsets gets msgs.size() + 1 entries
  /// (hits/offsets are appended to, so pass them in cleared). The default
  /// falls back to per-message match_hits(); engines that can amortize
  /// probe setup across the batch override it.
  ///
  /// `per_msg_work`, when non-null, receives one appended entry per message
  /// with the exact work units that message's probe cost (the entries sum
  /// to what the batch added to `wc`) — this is what MatchCompleted reports
  /// instead of a batch average. `scratch`, when non-null, is caller-owned
  /// probe scratch reused across calls; offload workers must pass their own
  /// (the engine-internal fallback is not thread-safe).
  virtual void match_batch(std::span<const Message> msgs,
                           std::vector<MatchHit>& hits,
                           std::vector<std::uint32_t>& offsets,
                           WorkCounter& wc,
                           std::vector<double>* per_msg_work = nullptr,
                           MatchScratch* scratch = nullptr) const;

  /// Cheap estimate (O(1) or O(log n)) of the work units match() would
  /// spend on `m`. Used by the simulator's cost-only mode and by the
  /// forwarding-policy load estimates.
  virtual double match_cost(const Message& m) const = 0;

  /// Visits all stored subscriptions (used for handover during elasticity).
  virtual void for_each(
      const std::function<void(const SubPtr&)>& fn) const = 0;
};

/// The values are fixed (test names and bench rows print them), so a
/// removed kind leaves a gap.
enum class IndexKind {
  kLinearScan = 0,  ///< scan the whole set; the cost model the paper implies
  kFlatBucket = 3   ///< buckets of columnar (SoA) bounds, ids and subscribers
};

/// "linear-scan" or "flat-bucket".
const char* to_string(IndexKind kind);
/// The kind whose to_string() is `name`; nullopt for any other name.
std::optional<IndexKind> index_kind_from_string(std::string_view name);

/// Creates an engine of the requested kind pivoted on `pivot`. Engines that
/// partition the pivot domain need its extent, hence `domain`.
std::unique_ptr<SubscriptionIndex> make_index(IndexKind kind, DimId pivot,
                                              Range domain);

}  // namespace bluedove
