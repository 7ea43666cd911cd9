#pragma once
// MatcherNode: a back-end matching server (paper §II-B, §III).
//
// A matcher stores the subscriptions assigned to it along each dimension in
// k separate sets, each with its own index, plus the globally replicated
// "wide" set. Incoming MatchRequests are queued per dimension (the paper's
// separate queues, SEDA-style) and serviced by a fixed number of cores.
// The matcher participates in the gossip overlay, reports per-dimension
// load to all dispatchers, and implements the elasticity protocol (segment
// split on join, merge on leave).
//
// When the substrate grants offload (a worker pool, or for one core the
// node thread itself), probes read the live indexes with no locks; writes
// are held back until no probe is in flight (hold_back / release_held,
// DESIGN.md §10).

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/affinity.h"
#include "common/types.h"
#include "core/partition_strategy.h"
#include "cover/cover_table.h"
#include "gossip/gossiper.h"
#include "index/subscription_index.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bluedove {

struct MatcherConfig {
  /// Schema: number of dimensions and their domains (for index layout).
  std::vector<Range> domains;

  /// Services in flight at once (paper testbed: 4-core VMs). On the
  /// real-time substrates 2 or more are backed by that many offload
  /// worker threads; 1 is the node thread itself, with no pool.
  int cores = 4;

  IndexKind index_kind = IndexKind::kLinearScan;

  /// Maximum MatchRequests one core drains from a dimension queue per
  /// service: the batch goes through SubscriptionIndex::match_batch in one
  /// call, amortizing probe setup and scratch allocation. 1 reproduces
  /// strict per-message service. MatchCompleted.work_units is exact per
  /// request either way (each request's own probe counters, not the batch
  /// average).
  int match_batch = 1;

  /// kFull computes and delivers real match sets; kCostOnly skips the match
  /// computation and charges only the modelled work, which makes saturation
  /// probes orders of magnitude faster to simulate. Response-time metrics
  /// are identical; only Delivery fan-out is suppressed.
  enum class MatchMode { kFull, kCostOnly };
  MatchMode match_mode = MatchMode::kFull;

  /// Load-report cadence (paper: a 64 B push every second, sent only when
  /// the load changed by more than 10 %).
  double load_report_interval = 1.0;

  GossipConfig gossip;

  std::vector<NodeId> dispatchers;      ///< load-report / join targets
  NodeId metrics_sink = kInvalidNode;   ///< MatchCompleted destination
  /// Where Delivery messages go: the "temporary storage" of §II-B's
  /// indirect delivery model (a queue node subscribers poll / a proxy that
  /// pushes to connected subscribers). Unset, the matcher sends no
  /// Delivery.
  NodeId delivery_sink = kInvalidNode;

  /// Subscription covering (src/cover): when enabled, each dimension set
  /// aggregates near-duplicate cuboids and indexes only covering
  /// representatives; delivery expands representatives back into exact
  /// member lists. The wide set is never covered (it is tiny and fully
  /// replicated).
  CoverConfig cover;
};

class MatcherNode final : public Node {
 public:
  MatcherNode(NodeId id, MatcherConfig config);

  /// Pre-loads the initial cluster table (omit for a joining matcher, which
  /// will instead send a JoinRequest to a dispatcher on start).
  void set_bootstrap(ClusterTable table);

  void start(NodeContext& ctx) override;
  void on_receive(NodeId from, Envelope env) override;

  // --- introspection (tests, harness) --------------------------------------
  NodeId id() const { return id_; }
  const Gossiper& gossiper() const { return gossiper_; }
  std::size_t set_size(DimId dim) const;
  /// Raw subscriptions registered on `dim` (== set_size when covering is
  /// off; >= set_size when the cover table compressed the set).
  std::size_t raw_set_size(DimId dim) const;
  const CoverTable* cover_table(DimId dim) const;
  std::size_t wide_set_size() const { return wide_->size(); }
  std::size_t queue_length(DimId dim) const;
  std::size_t total_queued() const;
  /// Total distinct (dim, id) copies stored.
  std::size_t stored_copies() const;
  std::uint64_t matched_total() const { return matched_total_; }
  Range segment(DimId dim) const;
  /// Node-local observability registry (counters, queue gauges, stage
  /// latency histograms). Snapshot-safe from any thread.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// A request waiting in a dimension queue, with its arrival time (feeds
  /// matcher.queue_seconds and the segment's queue residency).
  struct Queued {
    MatchRequest req;
    Timestamp enqueued_at = 0.0;
  };

  struct DimSet {
    std::unique_ptr<SubscriptionIndex> index;
    std::deque<Queued> queue;
    // Window counters for the load report (lambda / mu of the past w secs).
    std::uint64_t arrived_in_window = 0;
    std::uint64_t matched_in_window = 0;
    /// EWMA of observed per-message service durations (capability signal
    /// behind the paper's "matching rate"); 0 until the first service.
    double ewma_service_time = 0.0;
    // Last pushed values, for the >10% change suppression.
    DimLoad last_pushed;
    bool ever_pushed = false;
    // Per-dimension stage-queue instrumentation (cached registry pointers).
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_high_water = nullptr;
    // Per-segment load attribution (obs/segment_load.h): cached segload.*
    // instruments. Requests, probe work, queue residency and delivery
    // fan-out are charged to the segment that served them.
    obs::Counter* segload_requests = nullptr;
    obs::Counter* segload_deliveries = nullptr;
    obs::Gauge* segload_work = nullptr;
    obs::Gauge* segload_queue_seconds = nullptr;
    obs::Gauge* segload_service_seconds = nullptr;
    obs::Gauge* segload_subs = nullptr;
    obs::Gauge* segload_lo = nullptr;
    obs::Gauge* segload_hi = nullptr;
    /// Work-units absorbed this report window (feeds DimLoad::work_rate).
    double work_in_window = 0.0;
    /// Covering layer (config.cover.enabled): raw subscriptions register
    /// here; the index above holds only representatives + pass-throughs.
    /// Node-thread-only, like every other mutation of this struct.
    std::unique_ptr<CoverTable> cover;
  };

  /// Shared state for one in-flight service: built on the node thread,
  /// filled by the (possibly offloaded) match computation, consumed by
  /// complete_batch back on the node thread.
  struct ServiceJob {
    std::vector<MatchRequest> reqs;
    Timestamp service_start = 0.0;
    // Hits for reqs[i] are hits[offsets[i] .. offsets[i+1]) (dimension set)
    // plus wide_hits[wide_offsets[i] .. wide_offsets[i+1]) (wide set).
    std::vector<MatchHit> hits, wide_hits;
    std::vector<std::uint32_t> offsets, wide_offsets;
    /// Exact work units attributable to reqs[i] (base cost plus its own
    /// probe counters), independent of how the batch was packed.
    std::vector<double> per_req_work;
    /// Cover-table mutation stamp at probe time; the kCover differential
    /// audit only replays when the table is still at this stamp at
    /// completion (i.e. the probed view and the live members agree).
    std::uint64_t cover_stamp = 0;
  };

  std::size_t dims() const { return sets_.size(); }

  BD_NODE_THREAD void handle_store(const StoreSubscription& msg);
  BD_NODE_THREAD void handle_remove(const RemoveSubscription& msg);
  BD_NODE_THREAD void handle_match_request(MatchRequest msg);
  BD_NODE_THREAD void handle_split(NodeId from, const SplitCommand& msg);
  BD_NODE_THREAD void handle_handover_segment(const HandoverSegment& msg);
  BD_NODE_THREAD void handle_leave();
  BD_NODE_THREAD void handle_handover_merge(const HandoverMerge& msg);
  BD_NODE_THREAD void handle_table_pull(NodeId from);
  BD_NODE_THREAD void handle_table_resp(const TablePullResp& msg);
  BD_NODE_THREAD void handle_stats(NodeId from);
  BD_NODE_THREAD void handle_trace_dump(NodeId from);

  /// Starts servicing queued requests while cores are free.
  void pump();
  /// Services up to config_.match_batch requests from one dimension queue
  /// on a single core, draining them through the index's batched probe.
  /// The probe itself is dispatched through NodeContext::offload — onto a
  /// real worker thread when the substrate granted a pool, inline (then
  /// charged) otherwise.
  void service_batch(std::vector<MatchRequest> reqs, Timestamp service_start);
  /// Write deferral whenever offload was granted (DESIGN.md §10): probes
  /// read the live indexes, so a write waits in `held_` while any probe
  /// is in flight or an earlier write is waiting. Returns true when `env`
  /// was held back instead of handled now.
  bool hold_back(NodeId from, Envelope& env);
  /// Applies `held_` in arrival order once no probe is in flight. Called
  /// when a completion ends, before pump().
  void release_held();
  /// Routes one envelope to its handler (everything on_receive does after
  /// gossip and write deferral).
  void dispatch(NodeId from, Envelope env);
  /// Second half of service_batch, back on the node thread: EWMA update,
  /// Delivery fan-out, acks, core release.
  void complete_batch(ServiceJob& job);
  void finish(const MatchRequest& req, std::uint32_t match_count,
              double work_units);

  void report_load();
  /// Refreshes the slow-moving segload.* gauges (segment bounds, set
  /// sizes) so scrapes and load reports see current values.
  void refresh_segload_gauges();
  DimLoad snapshot_dim(const DimSet& set) const;
  /// Raw subscriptions the set holds: cover-table members when covering
  /// is on, index entries otherwise.
  static std::size_t raw_count(const DimSet& set);
  /// True when `a` differs from `b` by more than kLoadChangeThreshold.
  static bool changed_enough(const DimLoad& a, const DimLoad& b);

  void store_one(const Subscription& sub, DimId dim);
  bool remove_one(SubscriptionId id, DimId dim);
  /// Visits every raw subscription stored on `dim`: cover-table members
  /// when covering is on (so split/merge hand over raw subscriptions and
  /// cover sets re-partition cleanly), index entries otherwise.
  void for_each_stored(DimId dim,
                       const std::function<void(const Subscription&)>& fn)
      const;

  NodeId id_;
  MatcherConfig config_;
  NodeContext* ctx_ = nullptr;
  // Declared before sets_ so the cached instrument pointers in DimSet never
  // outlive the registry they point into.
  obs::MetricsRegistry metrics_;
  obs::Counter* m_requests_ = nullptr;    ///< MatchRequests accepted
  obs::Counter* m_matched_ = nullptr;     ///< messages fully serviced
  obs::Counter* m_deliveries_ = nullptr;  ///< Delivery envelopes sent
  obs::Counter* m_stats_reqs_ = nullptr;  ///< StatsRequest scrapes answered
  obs::Counter* m_writes_deferred_ = nullptr;  ///< writes that had to wait
  /// Stores and match requests dropped for a dimension count other than
  /// the schema's.
  obs::Counter* m_arity_rejects_ = nullptr;
  obs::LatencyHistogram* m_queue_lat_ = nullptr;  ///< enqueue -> match start
  obs::LatencyHistogram* m_match_lat_ = nullptr;  ///< match start -> end
  // cover.* instruments; registered (and non-null) only when covering is
  // enabled so uncovered snapshots stay byte-identical to before.
  obs::Counter* cov_expansions_ = nullptr;     ///< representative hits expanded
  obs::Counter* cov_expanded_ = nullptr;       ///< member deliveries produced
  obs::Counter* cov_residual_checks_ = nullptr;
  obs::Counter* cov_residual_rejects_ = nullptr;
  obs::Counter* cov_absorbed_ = nullptr;       ///< adds contained in a box
  obs::Counter* cov_widened_ = nullptr;        ///< adds that widened a box
  obs::Gauge* cov_raw_ = nullptr;
  obs::Gauge* cov_reps_ = nullptr;
  obs::Gauge* cov_ratio_ = nullptr;            ///< raw / indexed entries
  Gossiper gossiper_;
  bool has_bootstrap_ = false;
  ClusterTable bootstrap_;

  std::vector<DimSet> sets_;
  std::unique_ptr<SubscriptionIndex> wide_;  ///< always-searched wide set
  /// True when the substrate granted offload (enable_offload): a worker
  /// pool, or at cores = 1 the node thread, whose completion still runs as
  /// a later task. Probes then read the live indexes while writes are held
  /// back (hold_back) until their completions have run.
  bool parallel_ = false;
  /// Per-worker probe scratch, indexed by OffloadWorker::index; the last
  /// slot serves inline runs (index -1), which the node thread serializes.
  std::vector<MatchScratch> scratch_;
  /// Held writes (stores, removes, split, handover, merge, leave) that
  /// arrived while a probe was in flight, in arrival order. They apply
  /// once busy_cores_ drops to 0; no service starts while any wait.
  std::deque<std::pair<NodeId, Envelope>> held_;

  /// Delivery-time expansion staging (node thread only): per-batch expanded
  /// hits and offsets, mirroring ServiceJob::hits/offsets post-expansion.
  std::vector<MatchHit> expand_hits_;
  std::vector<std::uint32_t> expand_offsets_;
  std::uint64_t cover_audit_tick_ = 0;  ///< samples the kCover differential

  int busy_cores_ = 0;
  std::size_t next_queue_ = 0;  ///< round-robin pointer across dim queues
  std::uint64_t matched_total_ = 0;
  double busy_seconds_in_window_ = 0.0;  ///< for the utilization report

  // Joining matcher: segments received so far (one per dim required).
  std::vector<bool> joined_dims_;
  std::vector<Range> pending_segments_;
  bool joining_ = false;
  bool left_ = false;
};

}  // namespace bluedove
