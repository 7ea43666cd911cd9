#pragma once
// Experiment harness: builds a complete pub/sub deployment (BlueDove, the
// P2P baseline, or the full-replication baseline) on the discrete-event
// simulator, loads the paper's workload, and drives it — steady rates, rate
// ladders, saturation probes, matcher joins/leaves/crashes. Every figure
// bench in bench/ is a thin driver over this class.

#include <functional>
#include <memory>
#include <vector>

#include "attr/schema.h"
#include "baseline/full_replication.h"
#include "baseline/single_dim_partition.h"
#include "metrics/load_monitor.h"
#include "metrics/response_tracker.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "sim/sim_cluster.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace bluedove {

enum class SystemKind { kBlueDove, kP2P, kFullReplication };
const char* to_string(SystemKind kind);

struct ExperimentConfig {
  SystemKind system = SystemKind::kBlueDove;

  // Schema / workload (paper §IV-B defaults, subscription count scaled to
  // simulation size; benches note the scaling).
  std::size_t dims = 4;
  double domain_length = 1000.0;
  std::size_t subscriptions = 10000;
  double predicate_width = 250.0;
  double sub_sigma = 250.0;
  std::size_t msg_skewed_dims = 0;
  double msg_sigma = 250.0;
  /// Probability a generated subscription reuses a hot template (Zipf over
  /// the pool) instead of being drawn fresh; 0 keeps the generator stream
  /// byte-identical to earlier seeds.
  double duplicate_skew = 0.0;
  /// Per-bound jitter applied to reused templates (domain units).
  double duplicate_jitter = 0.0;

  // Cluster.
  std::size_t matchers = 20;
  std::size_t dispatchers = 2;
  int cores = 4;

  // BlueDove knobs.
  PolicyKind policy = PolicyKind::kAdaptive;
  std::size_t searchable_dims = 0;  ///< 0 = all dims (Fig 11a varies this)
  MPartition::Options mpartition;

  // Matching engine / mode.
  IndexKind index_kind = IndexKind::kLinearScan;
  /// Requests one matcher core drains from a dimension queue per service
  /// (batched probe; 1 = strict per-message service).
  int match_batch = 1;
  /// Full matching computes real match sets and deliveries; cost-only mode
  /// charges identical work but skips the match computation, making
  /// saturation probes fast. Response-time dynamics are the same.
  bool full_matching = false;
  /// Subscription covering (DESIGN §15): cluster near-duplicate cuboids
  /// behind covering representatives so the indexes scale with distinct
  /// predicate shapes; delivery expands representatives back to members
  /// through exact residual filters.
  bool cover = false;
  /// False-positive volume budget for covering merges (see CoverConfig).
  double cover_budget = 0.05;

  // Infrastructure timing.
  double load_report_interval = 1.0;
  double table_pull_interval = 10.0;
  GossipConfig gossip;
  bool auto_scale = false;
  /// Reliable delivery (§VI message persistence): dispatchers retain and
  /// re-dispatch unacknowledged messages, eliminating the failure-window
  /// loss of Fig 10 at the cost of possible duplicates.
  bool reliable_delivery = false;

  std::uint64_t seed = 1;
  sim::SimConfig sim;

  /// Fraction of publications the dispatchers give a trace id, which tags
  /// their flight-recorder events (obs/recorder.h) across nodes. 0 = off
  /// (default; one branch per publish), 1 = every message.
  double trace_sample_rate = 0.0;
};

class Deployment {
 public:
  explicit Deployment(ExperimentConfig config);
  ~Deployment();

  /// Builds the cluster, starts all nodes, loads the configured
  /// subscriptions and lets the control plane settle.
  void start();

  // --- workload drive -------------------------------------------------------
  /// Publication rate in msgs/sec (0 stops publishing). Arrivals are evenly
  /// spaced with +-10% jitter.
  void set_rate(double msgs_per_sec);
  double rate() const { return rate_; }
  void run_for(double seconds);
  Timestamp now() const { return sim_.now(); }

  /// Injects `n` additional subscriptions (Fig 6b grows the subscription
  /// population at a fixed message rate).
  void add_subscriptions(std::size_t n);
  std::size_t subscriptions_loaded() const { return subs_loaded_; }

  /// Schedules every event of a recorded trace, offset from now(); drive
  /// with run_for(trace.duration() + slack).
  void replay(const WorkloadTrace& trace);

  // --- metrics ---------------------------------------------------------------
  ResponseTracker& responses() { return responses_; }
  LoadMonitor& loads() { return loads_; }
  /// Feeds the LoadMonitor one busy-time sample per live matcher.
  void sample_loads();
  /// Sum of queued messages across live matchers.
  std::size_t backlog() const;
  std::uint64_t published() const { return published_; }
  std::uint64_t completed() const { return completed_; }
  /// Cluster-wide metrics: every node registry, the sim substrate stats and
  /// the sink's response-time histogram (sink.response_seconds) merged into
  /// one snapshot (the JSON/Prometheus exporters in obs/export.h take it
  /// from here).
  obs::MetricsSnapshot cluster_snapshot();
  /// Determinism digest of the sim's delivered event stream (0 unless
  /// config.sim.digest was set before start()).
  std::uint64_t digest() const { return sim_.digest(); }
  /// Quiesce-point invariant sweep (obs/audit.h): checks that the live
  /// matchers' segment tables partition every dimension's domain. Reports
  /// each violation under kSegment and returns the count. Call only when
  /// the invariant is expected to hold — after settle, joins and graceful
  /// leaves, but not after kill_matcher (a crash orphans its segment until
  /// an operator repairs the partition, per the paper's Fig 10 design).
  std::size_t audit_invariants();

  // --- topology --------------------------------------------------------------
  const std::vector<NodeId>& matcher_ids() const { return matcher_ids_; }
  const std::vector<NodeId>& dispatcher_ids() const { return dispatcher_ids_; }
  MatcherNode* matcher(NodeId id);
  DispatcherNode* dispatcher(NodeId id);
  sim::SimCluster& sim() { return sim_; }
  const ExperimentConfig& config() const { return config_; }

  /// Elastic join (paper §III-C): boots a fresh matcher that contacts a
  /// dispatcher, receives split segments and subscriptions, and becomes
  /// live once gossip propagates. Returns its id.
  NodeId add_matcher();
  /// Crash-stop (Fig 10).
  void kill_matcher(NodeId id);
  /// Graceful leave: segments and subscriptions merge to neighbours.
  void leave_matcher(NodeId id);

  // --- saturation probe (paper §IV-B methodology) ----------------------------
  struct ProbeOptions {
    double start_rate = 500.0;
    double growth = 1.6;        ///< ladder multiplier while stable
    double warmup = 3.0;        ///< settle seconds per step
    double measure = 8.0;       ///< measurement seconds per step
    double max_rate = 2.0e6;
    int refine_steps = 3;       ///< bisection steps after bracketing
    /// Stability thresholds: a step is saturated when backlog growth or
    /// uncompleted traffic exceeds these fractions of the step's traffic,
    /// or when any single matcher's queue grows *sustainedly* through both
    /// halves of the window (the paper declares saturation on any linear
    /// response-time growth, which a single overloaded hot-spot matcher
    /// already causes; transient queue oscillation does not count).
    double backlog_frac = 0.02;
    double completion_frac = 0.97;
    double sustained_half_growth = 8.0;   ///< min growth per half-window
    double sustained_total_frac = 0.005;  ///< min total growth vs traffic
  };
  /// Ramps the publication rate until the deployment saturates (queue
  /// growth / response-time blowup), then bisects. Returns the highest
  /// sustainable rate found.
  double find_saturation_rate(const ProbeOptions& options);
  double find_saturation_rate() { return find_saturation_rate(ProbeOptions{}); }

  /// One ladder step at `rate`; returns true when the system kept up.
  bool stable_at(double rate, const ProbeOptions& options);
  bool stable_at(double rate) { return stable_at(rate, ProbeOptions{}); }

 private:
  void build();
  MatcherConfig matcher_config() const;
  DispatcherConfig dispatcher_config() const;
  std::shared_ptr<const PartitionStrategy> make_strategy() const;
  void publish_one();
  void schedule_publish();
  void drain(double max_seconds = 120.0);
  void load_subscriptions(std::size_t n);

  ExperimentConfig config_;
  AttributeSchema schema_;
  sim::SimCluster sim_;
  Rng rng_;

  std::vector<NodeId> matcher_ids_;
  std::vector<NodeId> dispatcher_ids_;
  NodeId metrics_sink_id_ = 0;
  NodeId delivery_sink_id_ = 0;
  NodeId next_matcher_id_ = 0;
  std::size_t next_dispatcher_rr_ = 0;

  std::unique_ptr<SubscriptionGenerator> sub_gen_;
  std::unique_ptr<MessageGenerator> msg_gen_;
  std::size_t subs_loaded_ = 0;

  double rate_ = 0.0;
  std::uint64_t publish_epoch_ = 0;  ///< invalidates scheduled publishes

  ResponseTracker responses_;
  std::uint64_t published_ = 0;
  std::uint64_t completed_ = 0;
  LoadMonitor loads_;
  std::unordered_set<MessageId> completed_ids_;  ///< dedup (reliable mode)

  bool started_ = false;

 public:
  /// Optional hook invoked for every Delivery reaching the delivery sink
  /// (full-matching mode only).
  std::function<void(const Delivery&, Timestamp)> on_delivery;
};

}  // namespace bluedove
