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
// Concurrency: the const probes (match_batch, match_cost) may run on
// several threads over one live index at once, provided nothing mutates
// that index meanwhile and each thread passes its own MatchScratch; the
// matcher holds its writes back while an offloaded probe is in flight
// (DESIGN.md §10). An index keeps no probe state of its own, and no index
// shares state with another, so writes to one index never disturb a probe
// of the next.

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

/// One matching subscription, reduced to what the delivery fan-out needs.
/// Probes emit these, so a columnar engine reads them straight from its
/// columns and never builds a Subscription or touches a refcount.
struct MatchHit {
  SubscriptionId id = 0;
  SubscriberId subscriber = 0;

  friend bool operator==(const MatchHit&, const MatchHit&) = default;
};

/// Caller-owned probe scratch (selection vector, batch staging), reused
/// across match_batch calls so repeated probes reallocate nothing. A
/// thread that probes owns its instance: each offload worker has one.
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

  /// Stores a copy of `sub`; a duplicate id is ignored.
  virtual void insert(const Subscription& sub) = 0;
  /// Removes by id; returns false when the id is not present.
  virtual bool erase(SubscriptionId id) = 0;
  virtual std::size_t size() const = 0;
  /// True when a subscription with this id is stored.
  virtual bool contains(SubscriptionId id) const = 0;
  virtual void clear() = 0;

  /// The probe: matches a batch of messages against all k predicates. Hits
  /// for msgs[i] land in hits[offsets[i] .. offsets[i+1]); offsets gets
  /// msgs.size() + 1 entries (hits/offsets are appended to, so pass them in
  /// cleared). The work performed is added to `wc`.
  ///
  /// `scratch` is the caller's probe scratch. `per_msg_work`, when
  /// non-null, receives one appended entry per message with the exact work
  /// units that message's probe cost (the entries sum to what the batch
  /// added to `wc`); this is what MatchCompleted reports instead of a
  /// batch average.
  virtual void match_batch(std::span<const Message> msgs,
                           std::vector<MatchHit>& hits,
                           std::vector<std::uint32_t>& offsets,
                           WorkCounter& wc, MatchScratch& scratch,
                           std::vector<double>* per_msg_work = nullptr) const = 0;

  /// Cheap estimate (O(1) or O(log n)) of the work units match_batch would
  /// spend on `m`. Used by the simulator's cost-only mode and by the
  /// forwarding-policy load estimates.
  virtual double match_cost(const Message& m) const = 0;

  /// Visits all stored subscriptions (used for handover during elasticity).
  /// The reference is valid only for the duration of the call.
  virtual void for_each(
      const std::function<void(const Subscription&)>& fn) const = 0;
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
