#include "harness/experiment.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "obs/audit.h"

namespace bluedove {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kBlueDove:
      return "bluedove";
    case SystemKind::kP2P:
      return "p2p";
    case SystemKind::kFullReplication:
      return "full-rep";
  }
  return "unknown";
}

namespace {
constexpr NodeId kMetricsSink = 1;
constexpr NodeId kDeliverySink = 2;
constexpr NodeId kFirstDispatcher = 10;
constexpr NodeId kFirstMatcher = 1000;
}  // namespace

Deployment::Deployment(ExperimentConfig config)
    : config_(std::move(config)),
      schema_(AttributeSchema::uniform(config_.dims, config_.domain_length)),
      sim_(config_.sim),
      rng_(config_.seed ^ 0x9e3779b97f4a7c15ULL) {
  SubscriptionWorkload sub_wl;
  sub_wl.schema = schema_;
  sub_wl.predicate_width = config_.predicate_width;
  sub_wl.sigma = config_.sub_sigma;
  sub_wl.duplicate_skew = config_.duplicate_skew;
  sub_wl.duplicate_jitter = config_.duplicate_jitter;
  sub_gen_ = std::make_unique<SubscriptionGenerator>(sub_wl,
                                                     config_.seed * 3 + 1);
  MessageWorkload msg_wl;
  msg_wl.schema = schema_;
  msg_wl.skewed_dims = config_.msg_skewed_dims;
  msg_wl.sigma = config_.msg_sigma;
  msg_gen_ = std::make_unique<MessageGenerator>(msg_wl, config_.seed * 5 + 2);
}

Deployment::~Deployment() = default;

std::shared_ptr<const PartitionStrategy> Deployment::make_strategy() const {
  switch (config_.system) {
    case SystemKind::kBlueDove: {
      MPartition::Options options = config_.mpartition;
      options.searchable_dims = config_.searchable_dims;
      return std::make_shared<const MPartition>(options);
    }
    case SystemKind::kP2P:
      return std::make_shared<const SingleDimPartition>(DimId{0});
    case SystemKind::kFullReplication:
      return std::make_shared<const FullReplication>();
  }
  return nullptr;
}

MatcherConfig Deployment::matcher_config() const {
  MatcherConfig cfg;
  cfg.domains.reserve(config_.dims);
  for (std::size_t d = 0; d < config_.dims; ++d) {
    cfg.domains.push_back(schema_.domain(static_cast<DimId>(d)));
  }
  cfg.cores = config_.cores;
  cfg.index_kind = config_.index_kind;
  cfg.match_batch = config_.match_batch;
  cfg.match_mode = config_.full_matching ? MatcherConfig::MatchMode::kFull
                                         : MatcherConfig::MatchMode::kCostOnly;
  cfg.load_report_interval = config_.load_report_interval;
  cfg.gossip = config_.gossip;
  cfg.dispatchers = dispatcher_ids_;
  cfg.metrics_sink = kMetricsSink;
  cfg.delivery_sink = kDeliverySink;
  cfg.cover.enabled = config_.cover;
  cfg.cover.fp_volume_budget = config_.cover_budget;
  return cfg;
}

DispatcherConfig Deployment::dispatcher_config() const {
  DispatcherConfig cfg;
  cfg.domains.reserve(config_.dims);
  for (std::size_t d = 0; d < config_.dims; ++d) {
    cfg.domains.push_back(schema_.domain(static_cast<DimId>(d)));
  }
  cfg.strategy = make_strategy();
  // The paper's full-replication baseline dispatches randomly; the other
  // systems use the configured policy (irrelevant for P2P's one candidate).
  cfg.policy = config_.system == SystemKind::kFullReplication
                   ? PolicyKind::kRandom
                   : config_.policy;
  cfg.table_pull_interval = config_.table_pull_interval;
  cfg.dispatcher_count = config_.dispatchers;
  cfg.auto_scale = config_.auto_scale;
  cfg.reliable_delivery = config_.reliable_delivery;
  cfg.trace_sample_rate = config_.trace_sample_rate;
  return cfg;
}

void Deployment::build() {
  // Sinks.
  sim_.add_node(kMetricsSink,
                std::make_unique<FunctionNode>(
                    [this](NodeId, const Envelope& env, Timestamp now) {
                      const auto* done =
                          std::get_if<MatchCompleted>(&env.payload);
                      if (done == nullptr) return;
                      // Reliable mode can re-match a message on a second
                      // matcher (at-least-once); count each message once.
                      if (config_.reliable_delivery &&
                          !completed_ids_.insert(done->msg_id).second) {
                        return;
                      }
                      responses_.add(now - done->dispatched_at);
                      ++completed_;
                    }),
                1);
  sim_.add_node(kDeliverySink,
                std::make_unique<FunctionNode>(
                    [this](NodeId, const Envelope& env, Timestamp now) {
                      const auto* delivery = std::get_if<Delivery>(&env.payload);
                      if (delivery != nullptr && on_delivery) {
                        on_delivery(*delivery, now);
                      }
                    }),
                1);

  // Dispatchers.
  for (std::size_t i = 0; i < config_.dispatchers; ++i) {
    dispatcher_ids_.push_back(kFirstDispatcher + static_cast<NodeId>(i));
  }
  // Matchers.
  next_matcher_id_ = kFirstMatcher;
  for (std::size_t i = 0; i < config_.matchers; ++i) {
    matcher_ids_.push_back(next_matcher_id_++);
  }

  std::vector<Range> domains;
  for (std::size_t d = 0; d < config_.dims; ++d) {
    domains.push_back(schema_.domain(static_cast<DimId>(d)));
  }
  const ClusterTable bootstrap = bootstrap_table(matcher_ids_, domains);

  for (NodeId id : dispatcher_ids_) {
    auto node = std::make_unique<DispatcherNode>(id, dispatcher_config());
    node->set_bootstrap(bootstrap);
    sim_.add_node(id, std::move(node), config_.cores);
  }
  for (NodeId id : matcher_ids_) {
    auto node = std::make_unique<MatcherNode>(id, matcher_config());
    node->set_bootstrap(bootstrap);
    sim_.add_node(id, std::move(node), config_.cores);
  }
  sim_.start_all();

  if (config_.auto_scale && !dispatcher_ids_.empty()) {
    if (auto* d0 = dispatcher(dispatcher_ids_.front())) {
      d0->on_need_capacity = [this] {
        const NodeId id = add_matcher();
        BD_INFO("auto-scaler provisioned matcher ", id, " at t=", now());
      };
    }
  }
}

void Deployment::start() {
  if (started_) return;
  started_ = true;
  build();
  sim_.run_for(0.1);
  load_subscriptions(config_.subscriptions);
}

void Deployment::load_subscriptions(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    Subscription sub = sub_gen_->next();
    const NodeId target =
        dispatcher_ids_[next_dispatcher_rr_++ % dispatcher_ids_.size()];
    sim_.inject(target, Envelope::of(ClientSubscribe{std::move(sub)}));
  }
  subs_loaded_ += n;
  sim_.run_for(1.0);  // let the stores land
}

void Deployment::add_subscriptions(std::size_t n) { load_subscriptions(n); }

void Deployment::replay(const WorkloadTrace& trace) {
  const Timestamp base = now();
  for (const TraceEvent& ev : trace.events()) {
    sim_.loop().schedule_at(base + ev.at, [this, ev] {
      const NodeId target =
          dispatcher_ids_[next_dispatcher_rr_++ % dispatcher_ids_.size()];
      switch (ev.kind) {
        case TraceEvent::Kind::kSubscribe:
          ++subs_loaded_;
          sim_.inject(target, Envelope::of(ClientSubscribe{ev.sub}));
          break;
        case TraceEvent::Kind::kUnsubscribe:
          sim_.inject(target, Envelope::of(ClientUnsubscribe{ev.sub}));
          break;
        case TraceEvent::Kind::kPublish:
          ++published_;
          sim_.inject(target, Envelope::of(ClientPublish{ev.msg}));
          break;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

void Deployment::set_rate(double msgs_per_sec) {
  rate_ = msgs_per_sec;
  ++publish_epoch_;
  if (rate_ > 0.0) schedule_publish();
}

void Deployment::schedule_publish() {
  const double gap = (1.0 / rate_) * rng_.uniform(0.9, 1.1);
  const std::uint64_t epoch = publish_epoch_;
  sim_.loop().schedule_after(gap, [this, epoch] {
    if (epoch != publish_epoch_) return;
    publish_one();
    schedule_publish();
  });
}

void Deployment::publish_one() {
  Message msg = msg_gen_->next();
  ++published_;
  const NodeId target =
      dispatcher_ids_[next_dispatcher_rr_++ % dispatcher_ids_.size()];
  sim_.inject(target, Envelope::of(ClientPublish{std::move(msg)}));
}

void Deployment::run_for(double seconds) { sim_.run_for(seconds); }

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

std::size_t Deployment::backlog() const {
  std::size_t total = 0;
  for (NodeId id : matcher_ids_) {
    if (!sim_.alive(id)) continue;
    const auto* node = sim_.node_as<const MatcherNode>(id);
    if (node != nullptr) total += node->total_queued();
  }
  return total;
}

std::size_t Deployment::audit_invariants() {
  std::size_t violations = 0;
  // Segment coverage: the live matchers' segments must partition every
  // dimension's domain. Only meaningful at quiesce points with no crashed
  // matchers (a crash leaves its segment orphaned by design, Fig 10).
  const Range domain{0.0, config_.domain_length};
  for (std::size_t d = 0; d < config_.dims; ++d) {
    std::vector<Range> segments;
    for (NodeId id : matcher_ids_) {
      if (!sim_.alive(id)) continue;
      const auto* m = sim_.node_as<const MatcherNode>(id);
      if (m == nullptr) continue;
      const MatcherState* state = m->gossiper().self_state();
      if (state == nullptr || state->status == NodeStatus::kLeft ||
          state->status == NodeStatus::kLeaving) {
        continue;
      }
      segments.push_back(m->segment(static_cast<DimId>(d)));
    }
    violations += obs::audit_segment_partition("deployment", domain,
                                               std::move(segments));
  }
  return violations;
}

void Deployment::sample_loads() {
  for (NodeId id : matcher_ids_) {
    if (!sim_.alive(id)) continue;
    loads_.sample(id, now(), sim_.busy_seconds(id), sim_.cores(id));
  }
}

MatcherNode* Deployment::matcher(NodeId id) {
  return sim_.node_as<MatcherNode>(id);
}

DispatcherNode* Deployment::dispatcher(NodeId id) {
  return sim_.node_as<DispatcherNode>(id);
}

obs::MetricsSnapshot Deployment::cluster_snapshot() {
  obs::MetricsSnapshot snap = sim_.metrics_snapshot();
  for (NodeId id : dispatcher_ids_) {
    if (DispatcherNode* d = dispatcher(id)) {
      snap.merge(d->metrics().snapshot());
    }
  }
  for (NodeId id : matcher_ids_) {
    if (sim_.alive(id)) {
      if (MatcherNode* m = matcher(id)) snap.merge(m->metrics().snapshot());
    }
  }
  snap.histograms["sink.response_seconds"] = responses_.histogram().snapshot();
  return snap;
}

// ---------------------------------------------------------------------------
// Topology changes
// ---------------------------------------------------------------------------

NodeId Deployment::add_matcher() {
  const NodeId id = next_matcher_id_++;
  auto node = std::make_unique<MatcherNode>(id, matcher_config());
  sim_.add_node(id, std::move(node), config_.cores);
  sim_.start(id);
  matcher_ids_.push_back(id);
  return id;
}

void Deployment::kill_matcher(NodeId id) { sim_.kill(id); }

void Deployment::leave_matcher(NodeId id) {
  sim_.inject(id, Envelope::of(LeaveRequest{}));
}

// ---------------------------------------------------------------------------
// Saturation probe
// ---------------------------------------------------------------------------

bool Deployment::stable_at(double rate, const ProbeOptions& options) {
  set_rate(rate);
  run_for(options.warmup);
  const std::size_t b0 = backlog();
  const std::uint64_t p0 = published();
  const std::uint64_t c0 = completed();
  auto snapshot_queues = [this](std::unordered_map<NodeId, double>& out) {
    out.clear();
    for (NodeId id : matcher_ids_) {
      if (!sim_.alive(id)) continue;
      if (const auto* node = sim_.node_as<MatcherNode>(id)) {
        out[id] = static_cast<double>(node->total_queued());
      }
    }
  };
  std::unordered_map<NodeId, double> q_start, q_mid, q_end;
  snapshot_queues(q_start);
  (void)responses_.window();  // reset the window stats
  run_for(0.5 * options.measure);
  snapshot_queues(q_mid);
  run_for(0.5 * options.measure);
  snapshot_queues(q_end);

  const std::size_t b1 = backlog();
  const double published_delta = static_cast<double>(published() - p0);
  const double completed_delta = static_cast<double>(completed() - c0);
  if (published_delta <= 0.0) return true;
  const double backlog_growth =
      static_cast<double>(b1) - static_cast<double>(b0);
  const bool queue_ok =
      backlog_growth <= options.backlog_frac * published_delta;
  const bool completion_ok =
      completed_delta >= options.completion_frac * published_delta;

  // A matcher whose queue keeps growing through both half-windows is
  // saturated: its messages' response time grows linearly even when the
  // aggregate counters look healthy (e.g. P2P's hot-spot matcher).
  bool sustained_ok = true;
  const double total_floor = std::max(
      64.0, options.sustained_total_frac * published_delta);
  for (const auto& [id, start] : q_start) {
    const auto mid_it = q_mid.find(id);
    const auto end_it = q_end.find(id);
    if (mid_it == q_mid.end() || end_it == q_end.end()) continue;
    const double grow1 = mid_it->second - start;
    const double grow2 = end_it->second - mid_it->second;
    if (grow1 > options.sustained_half_growth &&
        grow2 > options.sustained_half_growth &&
        end_it->second - start > total_floor) {
      sustained_ok = false;
      break;
    }
  }
  return queue_ok && completion_ok && sustained_ok;
}

void Deployment::drain(double max_seconds) {
  set_rate(0.0);
  const Timestamp deadline = now() + max_seconds;
  while (backlog() > 0 && now() < deadline) run_for(1.0);
  run_for(0.5);
}

double Deployment::find_saturation_rate(const ProbeOptions& options) {
  double rate = options.start_rate;
  double last_stable = 0.0;
  while (rate <= options.max_rate) {
    if (stable_at(rate, options)) {
      last_stable = rate;
      rate *= options.growth;
    } else {
      break;
    }
  }
  if (rate > options.max_rate) return last_stable;

  double lo = last_stable;
  double hi = rate;
  for (int i = 0; i < options.refine_steps; ++i) {
    drain();
    const double mid = 0.5 * (lo + hi);
    if (stable_at(mid, options)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  drain();
  return lo;
}

}  // namespace bluedove
