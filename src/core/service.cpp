#include "core/service.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/thread_safety.h"
#include "net/cluster_table.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "runtime/thread_cluster.h"

namespace bluedove {

namespace {
constexpr NodeId kMetricsSink = 1;
constexpr NodeId kDeliveryRouter = 2;
constexpr NodeId kFirstDispatcher = 10;
constexpr NodeId kFirstMatcher = 1000;
}  // namespace

class Service::Impl {
 public:
  explicit Impl(ServiceConfig config) : config_(std::move(config)) {
    if (config_.schema.dimensions() == 0) {
      config_.schema = AttributeSchema::uniform(config_.dimensions,
                                                config_.domain_length);
    }
    {
      bd::LockGuard lock(mu_);
      selector_ = std::make_unique<DimensionSelector>(config_.schema);
    }
    build();
  }

  ~Impl() { cluster_.shutdown(); }

  const AttributeSchema& schema() const { return config_.schema; }

  SubscriptionId subscribe(std::vector<Range> predicates,
                           DeliveryHandler handler) {
    if (!config_.schema.valid_predicates(predicates)) return 0;
    Subscription sub;
    sub.id = next_subscription_.fetch_add(1, std::memory_order_relaxed);
    sub.subscriber = sub.id;
    sub.ranges = std::move(predicates);
    {
      bd::LockGuard lock(mu_);
      handlers_[sub.subscriber] = std::move(handler);
      subscriptions_[sub.id] = sub;
      selector_->observe(sub);
    }
    cluster_.inject(next_dispatcher(), Envelope::of(ClientSubscribe{sub}));
    return sub.id;
  }

  void unsubscribe(SubscriptionId id) {
    Subscription sub;
    {
      bd::LockGuard lock(mu_);
      auto it = subscriptions_.find(id);
      if (it == subscriptions_.end()) return;
      sub = it->second;
      subscriptions_.erase(it);
      handlers_.erase(sub.subscriber);
    }
    cluster_.inject(next_dispatcher(),
                    Envelope::of(ClientUnsubscribe{std::move(sub)}));
  }

  MessageId publish(std::vector<Value> values, std::string payload) {
    if (!config_.schema.valid_point(values)) return 0;
    Message msg;
    const MessageId id =
        next_message_.fetch_add(1, std::memory_order_relaxed);
    msg.id = id;
    msg.values = std::move(values);
    msg.payload = std::move(payload);
    published_.fetch_add(1, std::memory_order_relaxed);
    cluster_.inject(next_dispatcher(),
                    Envelope::of(ClientPublish{std::move(msg)}));
    return id;
  }

  // The Service facade runs exclusively on the ThreadCluster substrate
  // (real threads, real time); it is never instantiated inside the
  // simulator, so polling the wall clock here cannot break determinism.
  bool wait_idle(double timeout_seconds) const {
    const auto deadline =
        std::chrono::steady_clock::now() +  // bd-lint: allow(wall-clock)
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    // bd-lint: allow(wall-clock)
    while (std::chrono::steady_clock::now() < deadline) {
      if (completed_.load(std::memory_order_relaxed) >=
          published_.load(std::memory_order_relaxed)) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return completed_.load() >= published_.load();
  }

  void settle(double seconds) const {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  Stats stats() const {
    Stats stats;
    stats.published = published_.load(std::memory_order_relaxed);
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.delivered = delivered_.load(std::memory_order_relaxed);
    stats.dropped = cluster_.dropped_messages();
    return stats;
  }

  std::vector<DimensionStats> dimension_stats() const {
    bd::LockGuard lock(mu_);
    return selector_->stats();
  }

  std::vector<DimId> recommended_dimensions(std::size_t k) const {
    bd::LockGuard lock(mu_);
    return selector_->select(k);
  }

  NodeId add_matcher() {
    NodeId id;
    {
      // Allocate the id under the lock: two concurrent add_matcher() calls
      // must not mint the same NodeId (found by the thread-safety audit).
      bd::LockGuard lock(mu_);
      id = next_matcher_id_++;
    }
    cluster_.add_node(id, std::make_unique<MatcherNode>(id, matcher_config()));
    cluster_.start(id);
    {
      bd::LockGuard lock(mu_);
      matcher_ids_.push_back(id);
    }
    return id;
  }

  std::size_t matcher_count() const {
    bd::LockGuard lock(mu_);
    return matcher_ids_.size();
  }

  void shutdown() { cluster_.shutdown(); }

 private:
  NodeId next_dispatcher() {
    const std::size_t i =
        dispatcher_rr_.fetch_add(1, std::memory_order_relaxed);
    return dispatcher_ids_[i % dispatcher_ids_.size()];
  }

  MatcherConfig matcher_config() const {
    MatcherConfig cfg;
    for (std::size_t d = 0; d < config_.schema.dimensions(); ++d) {
      cfg.domains.push_back(config_.schema.domain(static_cast<DimId>(d)));
    }
    cfg.cores = config_.matcher_cores;
    cfg.index_kind = config_.index;
    cfg.match_batch = config_.match_batch;
    cfg.match_mode = MatcherConfig::MatchMode::kFull;
    cfg.load_report_interval = config_.load_report_interval;
    cfg.gossip.round_interval = config_.gossip_interval;
    cfg.dispatchers = dispatcher_ids_;
    cfg.metrics_sink = kMetricsSink;
    cfg.delivery_sink = kDeliveryRouter;
    return cfg;
  }

  DispatcherConfig dispatcher_config() const {
    DispatcherConfig cfg;
    for (std::size_t d = 0; d < config_.schema.dimensions(); ++d) {
      cfg.domains.push_back(config_.schema.domain(static_cast<DimId>(d)));
    }
    cfg.policy = config_.policy;
    cfg.table_pull_interval = config_.table_pull_interval;
    cfg.dispatcher_count = config_.dispatchers;
    return cfg;
  }

  void build() {
    cluster_.add_node(
        kMetricsSink,
        std::make_unique<FunctionNode>(
            [this](NodeId, const Envelope& env, Timestamp) {
              if (std::holds_alternative<MatchCompleted>(env.payload)) {
                completed_.fetch_add(1, std::memory_order_relaxed);
              }
            }));
    cluster_.add_node(
        kDeliveryRouter,
        std::make_unique<FunctionNode>(
            [this](NodeId, const Envelope& env, Timestamp) {
              const auto* delivery = std::get_if<Delivery>(&env.payload);
              if (delivery == nullptr) return;
              DeliveryHandler handler;
              {
                bd::LockGuard lock(mu_);
                auto it = handlers_.find(delivery->subscriber);
                if (it != handlers_.end()) handler = it->second;
              }
              if (handler) {
                delivered_.fetch_add(1, std::memory_order_relaxed);
                handler(*delivery);
              }
            }));

    for (std::size_t i = 0; i < config_.dispatchers; ++i) {
      dispatcher_ids_.push_back(kFirstDispatcher + static_cast<NodeId>(i));
    }
    std::vector<NodeId> matchers;
    {
      bd::LockGuard lock(mu_);
      next_matcher_id_ = kFirstMatcher;
      for (std::size_t i = 0; i < config_.matchers; ++i) {
        matcher_ids_.push_back(next_matcher_id_++);
      }
      matchers = matcher_ids_;
    }

    std::vector<Range> domains;
    for (std::size_t d = 0; d < config_.schema.dimensions(); ++d) {
      domains.push_back(config_.schema.domain(static_cast<DimId>(d)));
    }
    const ClusterTable bootstrap = bootstrap_table(matchers, domains);

    for (NodeId id : dispatcher_ids_) {
      auto node = std::make_unique<DispatcherNode>(id, dispatcher_config());
      node->set_bootstrap(bootstrap);
      cluster_.add_node(id, std::move(node));
    }
    for (NodeId id : matchers) {
      auto node = std::make_unique<MatcherNode>(id, matcher_config());
      node->set_bootstrap(bootstrap);
      cluster_.add_node(id, std::move(node));
    }
    cluster_.start_all();
  }

  ServiceConfig config_;
  runtime::ThreadCluster cluster_;

  /// Fixed at build() time, before any node thread exists; read-only after.
  std::vector<NodeId> dispatcher_ids_;

  mutable bd::Mutex mu_;
  std::vector<NodeId> matcher_ids_ BD_GUARDED_BY(mu_);
  NodeId next_matcher_id_ BD_GUARDED_BY(mu_) = kFirstMatcher;
  std::unordered_map<SubscriberId, DeliveryHandler> handlers_
      BD_GUARDED_BY(mu_);
  std::unordered_map<SubscriptionId, Subscription> subscriptions_
      BD_GUARDED_BY(mu_);
  std::unique_ptr<DimensionSelector> selector_ BD_GUARDED_BY(mu_);

  std::atomic<SubscriptionId> next_subscription_{1};
  std::atomic<MessageId> next_message_{1};
  std::atomic<std::size_t> dispatcher_rr_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> delivered_{0};
};

Service::Service(ServiceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Service::~Service() = default;

const AttributeSchema& Service::schema() const { return impl_->schema(); }

SubscriptionId Service::subscribe(std::vector<Range> predicates,
                                  DeliveryHandler handler) {
  return impl_->subscribe(std::move(predicates), std::move(handler));
}

void Service::unsubscribe(SubscriptionId id) { impl_->unsubscribe(id); }

MessageId Service::publish(std::vector<Value> values, std::string payload) {
  return impl_->publish(std::move(values), std::move(payload));
}

bool Service::wait_idle(double timeout_seconds) const {
  return impl_->wait_idle(timeout_seconds);
}

void Service::settle(double seconds) const { impl_->settle(seconds); }

Service::Stats Service::stats() const { return impl_->stats(); }

std::vector<DimensionStats> Service::dimension_stats() const {
  return impl_->dimension_stats();
}

std::vector<DimId> Service::recommended_dimensions(std::size_t k) const {
  return impl_->recommended_dimensions(k);
}

NodeId Service::add_matcher() { return impl_->add_matcher(); }

std::size_t Service::matcher_count() const { return impl_->matcher_count(); }

void Service::shutdown() { impl_->shutdown(); }

}  // namespace bluedove
