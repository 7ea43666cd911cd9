#pragma once
// bluedove::Service — the embeddable public API.
//
// Runs a complete BlueDove deployment (dispatcher tier, matcher tier,
// gossip overlay, delivery routing) as an in-process cluster of threads and
// exposes the classic pub/sub client surface: subscribe with k range
// predicates and a callback, publish points in the attribute space.
//
//   bluedove::ServiceConfig cfg;
//   cfg.matchers = 4;
//   bluedove::Service svc(cfg);
//   auto id = svc.subscribe({{0, 250}, {70, 74}, {0, 25}, {0, 1000}},
//                           [](const bluedove::Delivery& d) { ... });
//   svc.publish({120.0, 71.5, 10.0, 500.0}, "payload");
//
// Delivery callbacks run on the delivery-router thread; keep them short or
// hand off to your own executor. For performance experiments use the
// deterministic simulator harness (harness/experiment.h) instead.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "attr/schema.h"
#include "core/dimension_selector.h"
#include "core/forwarding_policy.h"
#include "index/subscription_index.h"
#include "net/protocol.h"

namespace bluedove {

struct ServiceConfig {
  /// Attribute schema. If `schema` is empty, a uniform schema of
  /// `dimensions` x [0, domain_length) is used.
  AttributeSchema schema;
  std::size_t dimensions = 4;
  double domain_length = 1000.0;

  std::size_t matchers = 4;
  std::size_t dispatchers = 1;
  int matcher_cores = 2;

  PolicyKind policy = PolicyKind::kAdaptive;
  IndexKind index = IndexKind::kFlatBucket;
  /// Requests one matcher core drains from a dimension queue per service
  /// (batched probe through SubscriptionIndex::match_batch; 1 = strict
  /// per-message service).
  int match_batch = 1;

  // In-process control-plane cadence (much faster than a real datacenter's
  // 1 s / 10 s, so the embedded cluster converges quickly).
  double gossip_interval = 0.2;
  double load_report_interval = 0.2;
  double table_pull_interval = 1.0;

  std::uint64_t seed = 42;
};

class Service {
 public:
  using DeliveryHandler = std::function<void(const Delivery&)>;

  explicit Service(ServiceConfig config = ServiceConfig{});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const AttributeSchema& schema() const;

  /// Registers a subscription: one [lo, hi) predicate per schema dimension.
  /// Returns its id, or 0 when the predicates do not fit the schema.
  /// Registration is asynchronous; settle() blocks until it is active.
  SubscriptionId subscribe(std::vector<Range> predicates,
                           DeliveryHandler handler);

  void unsubscribe(SubscriptionId id);

  /// Publishes a message (one coordinate per schema dimension). Returns its
  /// id, or 0 when the point does not fit the schema.
  MessageId publish(std::vector<Value> values, std::string payload = "");

  /// Blocks until every published message has been matched (or `timeout`
  /// seconds elapsed); returns whether the system went idle.
  bool wait_idle(double timeout_seconds = 5.0) const;

  /// Blocks for a short period so control-plane traffic (subscription
  /// stores, gossip, load reports) settles.
  void settle(double seconds = 0.3) const;

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t completed = 0;   ///< messages matched by some matcher
    std::uint64_t delivered = 0;   ///< callback invocations
    std::uint64_t dropped = 0;     ///< transport-level drops
  };
  Stats stats() const;

  /// Per-attribute usage statistics over every subscription registered so
  /// far, and the k best partitioning dimensions they imply (paper §VI;
  /// operators can feed this back into a redeployment's
  /// `searchable_dims`).
  std::vector<DimensionStats> dimension_stats() const;
  std::vector<DimId> recommended_dimensions(std::size_t k) const;

  /// Elastic scale-out: boots one more matcher, which joins via the split
  /// protocol (paper §III-C). Returns its node id.
  NodeId add_matcher();

  std::size_t matcher_count() const;

  void shutdown();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bluedove
