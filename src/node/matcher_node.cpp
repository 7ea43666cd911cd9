#include "node/matcher_node.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "index/linear_scan_index.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"

namespace bluedove {

namespace {

// Flight-recorder event names, interned once per process (obs/recorder.h).
namespace rec {
std::uint16_t enqueue() {
  static const std::uint16_t id = obs::Recorder::intern("match.enqueue");
  return id;
}
std::uint16_t probe() {
  static const std::uint16_t id = obs::Recorder::intern("match.probe");
  return id;
}
std::uint16_t complete() {
  static const std::uint16_t id = obs::Recorder::intern("match.complete");
  return id;
}
std::uint16_t done() {
  static const std::uint16_t id = obs::Recorder::intern("match.done");
  return id;
}
std::uint16_t split() {
  static const std::uint16_t id = obs::Recorder::intern("matcher.split");
  return id;
}
std::uint16_t merge() {
  static const std::uint16_t id = obs::Recorder::intern("matcher.merge");
  return id;
}
}  // namespace rec

/// Fixed per-message overhead in work units (parse, queue, hand-off).
constexpr double kBaseMatchWork = 25.0;

/// A load report is pushed when some dimension's load moved by more than
/// this fraction since the last push (paper: 64 B every second, if load
/// changed by more than 10 %).
constexpr double kLoadChangeThreshold = 0.10;

// True when `env` mutates an index or the set layout that an offloaded
// probe may be reading, so when offload was granted it waits for the
// probes to drain (MatcherNode::hold_back). A store/remove on a dimension
// the matcher does not have is dropped by its handler, so it never waits.
bool is_index_write(const Envelope& env, std::size_t dims) {
  return std::visit(
      [dims](const auto& msg) -> bool {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, StoreSubscription> ||
                      std::is_same_v<T, RemoveSubscription>) {
          return msg.dim < dims || msg.dim == kWideDim;
        } else {
          return std::is_same_v<T, SplitCommand> ||
                 std::is_same_v<T, HandoverSegment> ||
                 std::is_same_v<T, HandoverMerge> ||
                 std::is_same_v<T, LeaveRequest>;
        }
      },
      env.payload);
}

}  // namespace

MatcherNode::MatcherNode(NodeId id, MatcherConfig config)
    : id_(id), config_(std::move(config)), gossiper_(id, config_.gossip) {
  const std::size_t k = config_.domains.size();
  // Register instruments once and cache the pointers: the hot path then
  // touches only relaxed atomics.
  m_requests_ = &metrics_.counter("matcher.requests");
  m_matched_ = &metrics_.counter("matcher.matched");
  m_deliveries_ = &metrics_.counter("matcher.deliveries");
  m_stats_reqs_ = &metrics_.counter("matcher.stats_requests");
  m_writes_deferred_ = &metrics_.counter("matcher.writes_deferred");
  m_arity_rejects_ = &metrics_.counter("matcher.arity_rejects");
  m_queue_lat_ = &metrics_.histogram("matcher.queue_seconds");
  m_match_lat_ = &metrics_.histogram("matcher.match_seconds");
  if (config_.cover.enabled) {
    cov_expansions_ = &metrics_.counter("cover.expansions");
    cov_expanded_ = &metrics_.counter("cover.expanded_members");
    cov_residual_checks_ = &metrics_.counter("cover.residual_checks");
    cov_residual_rejects_ = &metrics_.counter("cover.residual_rejects");
    cov_absorbed_ = &metrics_.counter("cover.absorbed");
    cov_widened_ = &metrics_.counter("cover.widened");
    cov_raw_ = &metrics_.gauge("cover.raw_subscriptions");
    cov_reps_ = &metrics_.gauge("cover.representatives");
    cov_ratio_ = &metrics_.gauge("cover.compression_ratio");
  }
  sets_.resize(k);
  for (std::size_t d = 0; d < k; ++d) {
    sets_[d].index = make_index(config_.index_kind, static_cast<DimId>(d),
                                config_.domains[d]);
    if (config_.cover.enabled) {
      sets_[d].cover =
          std::make_unique<CoverTable>(config_.cover, config_.domains);
    }
    const std::string prefix = "matcher.dim" + std::to_string(d);
    sets_[d].queue_depth = &metrics_.gauge(prefix + ".queue_depth");
    sets_[d].queue_high_water = &metrics_.gauge(prefix + ".queue_high_water");
    const std::string seg = "segload.dim" + std::to_string(d);
    sets_[d].segload_requests = &metrics_.counter(seg + ".requests");
    sets_[d].segload_deliveries = &metrics_.counter(seg + ".deliveries");
    sets_[d].segload_work = &metrics_.gauge(seg + ".work_units");
    sets_[d].segload_queue_seconds = &metrics_.gauge(seg + ".queue_seconds");
    sets_[d].segload_service_seconds =
        &metrics_.gauge(seg + ".service_seconds");
    sets_[d].segload_subs = &metrics_.gauge(seg + ".subscriptions");
    sets_[d].segload_lo = &metrics_.gauge(seg + ".lo");
    sets_[d].segload_hi = &metrics_.gauge(seg + ".hi");
  }
  metrics_.gauge("segload.node").set(static_cast<double>(id_));
  wide_ = std::make_unique<LinearScanIndex>(static_cast<DimId>(0));
  // One probe-scratch slot per pool worker plus a trailing slot for inline
  // runs (OffloadWorker::index == -1), which the node thread serializes.
  scratch_.resize(static_cast<std::size_t>(std::max(config_.cores, 1)) + 1);
  joined_dims_.assign(k, false);
  pending_segments_.assign(k, Range{});
}

void MatcherNode::set_bootstrap(ClusterTable table) {
  bootstrap_ = std::move(table);
  has_bootstrap_ = true;
}

void MatcherNode::start(NodeContext& ctx) {
  ctx_ = &ctx;
  // One work lane per dimension queue (SEDA stage); the substrate decides
  // whether `cores` real workers back them. The simulator declines and
  // offload() stays the deterministic inline + charge path.
  parallel_ = ctx.enable_offload(config_.cores,
                                 std::max<std::size_t>(dims(), 1));
  if (has_bootstrap_) {
    gossiper_.start(ctx, std::move(bootstrap_));
  } else {
    joining_ = true;
    gossiper_.start(ctx, ClusterTable{});
    if (!config_.dispatchers.empty()) {
      const auto pick = static_cast<std::size_t>(
          ctx.rng().next_below(config_.dispatchers.size()));
      ctx.send(config_.dispatchers[pick], Envelope::of(JoinRequest{}));
    } else {
      BD_WARN("matcher ", id_, " booted without bootstrap or dispatchers");
    }
  }
  ctx.set_timer(config_.load_report_interval, [this] { report_load(); });
}

void MatcherNode::on_receive(NodeId from, Envelope env) {
  BD_ASSERT_NODE_THREAD(ctx_);
  if (gossiper_.handle(from, env)) return;
  if (parallel_ && hold_back(from, env)) return;
  dispatch(from, std::move(env));
}

void MatcherNode::dispatch(NodeId from, Envelope env) {
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, StoreSubscription>) {
          handle_store(msg);
        } else if constexpr (std::is_same_v<T, RemoveSubscription>) {
          handle_remove(msg);
        } else if constexpr (std::is_same_v<T, MatchRequest>) {
          handle_match_request(std::move(msg));
        } else if constexpr (std::is_same_v<T, SplitCommand>) {
          handle_split(from, msg);
        } else if constexpr (std::is_same_v<T, HandoverSegment>) {
          handle_handover_segment(msg);
        } else if constexpr (std::is_same_v<T, LeaveRequest>) {
          handle_leave();
        } else if constexpr (std::is_same_v<T, HandoverMerge>) {
          handle_handover_merge(msg);
        } else if constexpr (std::is_same_v<T, TablePullReq>) {
          handle_table_pull(from);
        } else if constexpr (std::is_same_v<T, TablePullResp>) {
          handle_table_resp(msg);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          handle_stats(from);
        } else if constexpr (std::is_same_v<T, TraceDumpRequest>) {
          handle_trace_dump(from);
        } else {
          BD_DEBUG("matcher ", id_, " ignoring ", payload_name(env));
        }
      },
      env.payload);
}

// --------------------------------------------------------------------------
// Subscription storage
// --------------------------------------------------------------------------

void MatcherNode::store_one(const Subscription& sub, DimId dim) {
  // Every store path (client stores, split handovers, leave merges) passes
  // here, so this is where a subscription of the wrong arity is refused:
  // the indexes and cover tables read one range per schema dimension.
  if (sub.dimensions() != dims()) {
    m_arity_rejects_->inc();
    return;
  }
  if (dim == kWideDim) {
    wide_->insert(sub);
    return;
  }
  if (dim >= dims()) return;
  DimSet& set = sets_[dim];
  // A duplicate store is a no-op. With covering on, the index holds
  // representatives, so membership is the cover table's.
  if (set.cover != nullptr ? set.cover->contains(sub.id)
                           : set.index->contains(sub.id)) {
    return;
  }
  if (set.cover != nullptr) {
    CoverTable::AddResult ops = set.cover->add(sub);
    if (ops.kind == CoverTable::AddKind::kAbsorbed) {
      cov_absorbed_->inc();
    } else if (ops.kind == CoverTable::AddKind::kWidened) {
      cov_widened_->inc();
    }
    if (ops.erase) set.index->erase(ops.erase_id);
    if (ops.insert) set.index->insert(ops.insert_sub);
    return;
  }
  set.index->insert(sub);
}

bool MatcherNode::remove_one(SubscriptionId id, DimId dim) {
  if (dim == kWideDim) return wide_->erase(id);
  if (dim >= dims()) return false;
  DimSet& set = sets_[dim];
  if (set.cover != nullptr) {
    // A member leaving a multi-member group needs no index change: the
    // representative stays and the expansion table excludes the member
    // from every service that starts after this write.
    CoverTable::RemoveResult ops = set.cover->remove(id);
    if (ops.erase) set.index->erase(ops.erase_id);
    if (ops.insert) set.index->insert(ops.insert_sub);
    return ops.found;
  }
  return set.index->erase(id);
}

void MatcherNode::handle_store(const StoreSubscription& msg) {
  store_one(msg.sub, msg.dim);
}

void MatcherNode::handle_remove(const RemoveSubscription& msg) {
  remove_one(msg.id, msg.dim);
}

// --------------------------------------------------------------------------
// Write deferral (granted offload): probes read the live indexes, writes wait
// --------------------------------------------------------------------------

bool MatcherNode::hold_back(NodeId from, Envelope& env) {
  if (!is_index_write(env, dims())) return false;
  // A write arriving behind a held one queues after it, so writes keep
  // their arrival order.
  if (busy_cores_ == 0 && held_.empty()) return false;
  held_.emplace_back(from, std::move(env));
  m_writes_deferred_->inc();
  return true;
}

void MatcherNode::release_held() {
  // No probe is in flight: the held writes apply in arrival order. None
  // of them starts a service, since pump() runs after.
  if (busy_cores_ != 0) return;
  while (!held_.empty()) {
    auto [from, env] = std::move(held_.front());
    held_.pop_front();
    dispatch(from, std::move(env));
  }
}

// --------------------------------------------------------------------------
// Matching service: per-dimension queues, `cores` concurrent services
// --------------------------------------------------------------------------

void MatcherNode::handle_match_request(MatchRequest msg) {
  // The probes read one value per schema dimension.
  if (msg.msg.dimensions() != dims()) {
    m_arity_rejects_->inc();
    return;
  }
  if (!left_ && msg.dim < dims()) {
    DimSet& set = sets_[msg.dim];
    ++set.arrived_in_window;
    m_requests_->inc();
    set.segload_requests->inc();
    obs::Recorder::instant(rec::enqueue(), msg.trace_id,
                           msg.trace_id != 0 ? msg.parent_span : msg.dim);
    set.queue.push_back(Queued{std::move(msg), ctx_->now()});
    const auto depth = static_cast<double>(set.queue.size());
    set.queue_depth->set(depth);
    set.queue_high_water->record_max(depth);
  }
  pump();
}

void MatcherNode::pump() {
  const std::size_t batch_max =
      static_cast<std::size_t>(std::max(config_.match_batch, 1));
  // A held write is waiting for the in-flight probes to drain.
  if (!held_.empty()) return;
  while (busy_cores_ < config_.cores) {
    // Round-robin over non-empty dimension queues.
    DimSet* chosen = nullptr;
    for (std::size_t i = 0; i < dims(); ++i) {
      DimSet& set = sets_[(next_queue_ + i) % dims()];
      if (!set.queue.empty()) {
        chosen = &set;
        next_queue_ = (next_queue_ + i + 1) % dims();
        break;
      }
    }
    if (chosen == nullptr) return;
    const Timestamp service_start = ctx_->now();
    std::vector<MatchRequest> batch;
    batch.reserve(std::min(batch_max, chosen->queue.size()));
    while (batch.size() < batch_max && !chosen->queue.empty()) {
      Queued& q = chosen->queue.front();
      m_queue_lat_->record(service_start - q.enqueued_at);
      chosen->segload_queue_seconds->add(service_start - q.enqueued_at);
      batch.push_back(std::move(q.req));
      chosen->queue.pop_front();
    }
    chosen->queue_depth->set(static_cast<double>(chosen->queue.size()));
    ++busy_cores_;
    service_batch(std::move(batch), service_start);
  }
}

void MatcherNode::service_batch(std::vector<MatchRequest> reqs,
                                Timestamp service_start) {
  const DimId dim = reqs.front().dim;
  DimSet& set = sets_[dim];

  auto job = std::make_shared<ServiceJob>();
  job->reqs = std::move(reqs);
  job->service_start = service_start;
  if (set.cover != nullptr) job->cover_stamp = set.cover->mutations();

  // The probe reads the live dimension and wide indexes. When offload was
  // granted, busy_cores_ holds writes back (hold_back) until the completion
  // runs; on the simulator writes apply as they arrive.
  const SubscriptionIndex* dim_index = set.index.get();
  const SubscriptionIndex* wide_index = wide_.get();

  const auto mode = config_.match_mode;
  OffloadWork work_fn = [this, job, dim_index, wide_index,
                         mode](OffloadWorker& w) {
    const auto n = job->reqs.size();
    // Probe span on whichever thread runs the work (pool worker or, on the
    // inline path, the node thread). Tagged with the first request's trace
    // id so a sampled message's probe shows up on its causal track.
    obs::ScopedSpan probe_span(rec::probe(), job->reqs.front().trace_id, n);
    double work = kBaseMatchWork * static_cast<double>(n);
    job->per_req_work.assign(n, kBaseMatchWork);
    if (mode == MatcherConfig::MatchMode::kFull) {
      std::vector<Message> msgs;
      msgs.reserve(n);
      for (const MatchRequest& req : job->reqs) {
        // Matching only reads id + coordinates; don't copy the payload.
        msgs.push_back(Message{req.msg.id, req.msg.values, {}});
      }
      const std::size_t slot =
          w.index >= 0 &&
                  static_cast<std::size_t>(w.index) + 1 < scratch_.size()
              ? static_cast<std::size_t>(w.index)
              : scratch_.size() - 1;
      MatchScratch& scratch = scratch_[slot];
      // One WorkCounter across both probes keeps the charged total
      // bit-identical to the pre-offload engine; the per-probe deltas give
      // each request its exact share.
      WorkCounter wc;
      std::vector<double> dim_work, wide_work;
      dim_work.reserve(n);
      wide_work.reserve(n);
      dim_index->match_batch(msgs, job->hits, job->offsets, wc, scratch,
                             &dim_work);
      wide_index->match_batch(msgs, job->wide_hits, job->wide_offsets, wc,
                              scratch, &wide_work);
      work += wc.total();
      for (std::size_t i = 0; i < n; ++i) {
        job->per_req_work[i] += dim_work[i];
        job->per_req_work[i] += wide_work[i];
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double dim_cost = dim_index->match_cost(job->reqs[i].msg);
        const double wide_cost = static_cast<double>(wide_index->size());
        work += dim_cost;
        work += wide_cost;
        job->per_req_work[i] += dim_cost;
        job->per_req_work[i] += wide_cost;
      }
    }
    return work;
  };
  ctx_->offload(dim, std::move(work_fn),
                [this, job](double) { complete_batch(*job); });
}

void MatcherNode::complete_batch(ServiceJob& job) {
  const auto n = job.reqs.size();
  DimSet& done_set = sets_[job.reqs.front().dim];
  obs::ScopedSpan complete_span(rec::complete(),
                                job.reqs.front().trace_id, n);
  const double duration = ctx_->now() - job.service_start;
  busy_seconds_in_window_ += duration;
  done_set.segload_service_seconds->add(duration);
  // Delivery-time expansion: representatives surfaced by the probe become
  // concrete member hits, with the exact per-member residual re-checked for
  // merged (non-uniform) covers. Residual comparisons are charged into the
  // request's work units before the batch totals are taken.
  const bool covered = done_set.cover != nullptr && !job.offsets.empty();
  if (covered) {
    expand_hits_.clear();
    expand_offsets_.clear();
    expand_offsets_.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      expand_offsets_.push_back(
          static_cast<std::uint32_t>(expand_hits_.size()));
      for (std::uint32_t h = job.offsets[i]; h < job.offsets[i + 1]; ++h) {
        const MatchHit& hit = job.hits[h];
        if (!CoverTable::is_rep(hit.id)) {
          expand_hits_.push_back(hit);
          continue;
        }
        CoverTable::ExpandStats es;
        done_set.cover->expand(hit.id, job.reqs[i].msg.values, expand_hits_,
                               &es);
        cov_expansions_->inc();
        cov_expanded_->inc(es.emitted);
        cov_residual_checks_->inc(es.checks);
        cov_residual_rejects_->inc(es.rejects);
        job.per_req_work[i] += static_cast<double>(es.checks);
      }
    }
    expand_offsets_.push_back(static_cast<std::uint32_t>(expand_hits_.size()));
    // Differential oracle (AuditKind::kCover): periodically replay one
    // probe of the batch against the raw uncovered member set. Only valid
    // when no cover mutation landed between probe and completion, i.e. the
    // probed view and the live expansion table describe the same members.
    if (obs::Audit::enabled() &&
        job.cover_stamp == done_set.cover->mutations() &&
        (++cover_audit_tick_ & 0x3f) == 0) {
      std::vector<MatchHit> oracle;
      done_set.cover->collect_matches(job.reqs[0].msg.values, oracle);
      std::vector<MatchHit> got(expand_hits_.begin() + expand_offsets_[0],
                                expand_hits_.begin() + expand_offsets_[1]);
      auto by_id = [](const MatchHit& a, const MatchHit& b) {
        return a.id != b.id ? a.id < b.id : a.subscriber < b.subscriber;
      };
      std::sort(oracle.begin(), oracle.end(), by_id);
      std::sort(got.begin(), got.end(), by_id);
      auto same = [](const MatchHit& a, const MatchHit& b) {
        return a.id == b.id && a.subscriber == b.subscriber;
      };
      BD_AUDIT(obs::AuditKind::kCover,
               std::equal(got.begin(), got.end(), oracle.begin(),
                          oracle.end(), same),
               "covered match diverged from raw replay: msg " +
                   std::to_string(job.reqs[0].msg.id) + " expanded " +
                   std::to_string(got.size()) + " raw " +
                   std::to_string(oracle.size()));
    }
  }
  double batch_work = 0.0;
  for (const double w : job.per_req_work) batch_work += w;
  done_set.segload_work->add(batch_work);
  done_set.work_in_window += batch_work;
  const double per_msg = duration / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    done_set.ewma_service_time =
        done_set.ewma_service_time <= 0.0
            ? per_msg
            : 0.8 * done_set.ewma_service_time + 0.2 * per_msg;
  }
  const bool deliver =
      config_.match_mode == MatcherConfig::MatchMode::kFull &&
      config_.delivery_sink != kInvalidNode;
  const Timestamp service_end = ctx_->now();
  const double per_msg_latency = service_end - job.service_start;
  for (std::size_t i = 0; i < n; ++i) {
    MatchRequest& req = job.reqs[i];
    m_match_lat_->record(per_msg_latency);
    // Covered services count (and deliver) the expanded member hits, so
    // match_count and the delivered sets stay byte-identical to the
    // uncovered system.
    const std::vector<MatchHit>& dim_hits = covered ? expand_hits_ : job.hits;
    const std::vector<std::uint32_t>& dim_offsets =
        covered ? expand_offsets_ : job.offsets;
    std::uint32_t match_count = 0;
    if (!job.offsets.empty()) {
      match_count += dim_offsets[i + 1] - dim_offsets[i];
      match_count += job.wide_offsets[i + 1] - job.wide_offsets[i];
    }
    if (deliver && match_count != 0) {
      done_set.segload_deliveries->inc(match_count);
      // Zero-copy fan-out: every Delivery shares the request's payload
      // block (producer string or inbound frame buffer) and one values
      // block by refcount, so the frame writer sends the body once.
      Delivery body;
      body.msg_id = req.msg.id;
      body.dispatched_at = req.dispatched_at;
      body.values = ValuesRef(std::move(req.msg.values));
      body.payload = std::move(req.msg.payload);
      body.trace_id = req.trace_id;
      auto send_one = [&](const MatchHit& hit) {
        Delivery d = body;
        d.sub_id = hit.id;
        d.subscriber = hit.subscriber;
        m_deliveries_->inc();
        ctx_->send(config_.delivery_sink, Envelope::of(std::move(d)));
      };
      for (std::uint32_t h = dim_offsets[i]; h < dim_offsets[i + 1]; ++h) {
        send_one(dim_hits[h]);
      }
      for (std::uint32_t h = job.wide_offsets[i]; h < job.wide_offsets[i + 1];
           ++h) {
        send_one(job.wide_hits[h]);
      }
    }
    finish(req, match_count, job.per_req_work[i]);
  }
  --busy_cores_;
  // The probe is done reading: the writes it held land now, after the
  // cover expansion above read the table state that was probed.
  if (parallel_) release_held();
  pump();
}

void MatcherNode::finish(const MatchRequest& req, std::uint32_t match_count,
                         double work_units) {
  DimSet& set = sets_[req.dim];
  ++set.matched_in_window;
  ++matched_total_;
  m_matched_->inc();
  if (req.trace_id != 0) {
    obs::Recorder::instant(rec::done(), req.trace_id, match_count);
  }
  if (req.reply_to != kInvalidNode) {
    ctx_->send(req.reply_to, Envelope::of(MatchAck{req.msg.id}));
  }
  if (config_.metrics_sink != kInvalidNode) {
    MatchCompleted done;
    done.msg_id = req.msg.id;
    done.matcher = id_;
    done.dim = req.dim;
    done.dispatched_at = req.dispatched_at;
    done.match_count = match_count;
    done.work_units = work_units;
    done.trace_id = req.trace_id;
    ctx_->send(config_.metrics_sink, Envelope::of(done));
  }
}

// --------------------------------------------------------------------------
// Load reporting (paper §III-B2, §IV-C overhead model)
// --------------------------------------------------------------------------

DimLoad MatcherNode::snapshot_dim(const DimSet& set) const {
  DimLoad load;
  load.queue_len = static_cast<double>(set.queue.size());
  load.arrival_rate = static_cast<double>(set.arrived_in_window) /
                      config_.load_report_interval;
  load.matching_rate = static_cast<double>(set.matched_in_window) /
                       config_.load_report_interval;
  load.service_time = set.ewma_service_time;
  // Load balancing weighs raw subscriptions, not compressed index entries:
  // a covered matcher still owns (and delivers to) every member.
  load.subscriptions = raw_count(set);
  load.work_rate = set.work_in_window / config_.load_report_interval;
  return load;
}

void MatcherNode::refresh_segload_gauges() {
  const MatcherState* mine = gossiper_.self_state();
  for (std::size_t d = 0; d < dims(); ++d) {
    DimSet& set = sets_[d];
    set.segload_subs->set(static_cast<double>(raw_count(set)));
    if (mine != nullptr && d < mine->segments.size()) {
      set.segload_lo->set(mine->segments[d].lo);
      set.segload_hi->set(mine->segments[d].hi);
    }
  }
  if (config_.cover.enabled) {
    std::size_t raw = 0;
    std::size_t indexed = 0;
    for (const DimSet& set : sets_) {
      if (set.cover == nullptr) continue;
      raw += set.cover->raw_count();
      indexed += set.cover->indexed_count();
    }
    cov_raw_->set(static_cast<double>(raw));
    cov_reps_->set(static_cast<double>(indexed));
    cov_ratio_->set(indexed > 0 ? static_cast<double>(raw) /
                                      static_cast<double>(indexed)
                                : 1.0);
  }
}

bool MatcherNode::changed_enough(const DimLoad& a, const DimLoad& b) {
  auto rel = [](double x, double y, double floor) {
    const double base = std::max({std::fabs(x), std::fabs(y), floor});
    return std::fabs(x - y) > kLoadChangeThreshold * base;
  };
  return rel(a.queue_len, b.queue_len, 4.0) ||
         rel(a.arrival_rate, b.arrival_rate, 10.0) ||
         rel(a.matching_rate, b.matching_rate, 10.0) ||
         rel(static_cast<double>(a.subscriptions),
             static_cast<double>(b.subscriptions), 4.0);
}

void MatcherNode::report_load() {
  LoadReport report;
  report.cores = static_cast<std::uint32_t>(config_.cores);
  report.utilization = std::clamp(
      busy_seconds_in_window_ /
          (config_.load_report_interval * static_cast<double>(config_.cores)),
      0.0, 1.0);
  busy_seconds_in_window_ = 0.0;
  report.measured_at = ctx_->now();
  report.dims.reserve(dims());
  bool push = false;
  for (DimSet& set : sets_) {
    DimLoad snap = snapshot_dim(set);
    if (!set.ever_pushed || changed_enough(snap, set.last_pushed)) {
      push = true;
    }
    report.dims.push_back(snap);
    set.arrived_in_window = 0;
    set.matched_in_window = 0;
    set.work_in_window = 0.0;
  }
  refresh_segload_gauges();
  if (push && !left_) {
    for (std::size_t d = 0; d < dims(); ++d) {
      sets_[d].last_pushed = report.dims[d];
      sets_[d].ever_pushed = true;
    }
    for (NodeId dispatcher : config_.dispatchers) {
      ctx_->send(dispatcher, Envelope::of(report));
    }
  }
  ctx_->set_timer(config_.load_report_interval, [this] { report_load(); });
}

// --------------------------------------------------------------------------
// Elasticity: split on join, merge on leave (paper §III-C)
// --------------------------------------------------------------------------

void MatcherNode::for_each_stored(
    DimId dim, const std::function<void(const Subscription&)>& fn) const {
  const DimSet& set = sets_[dim];
  if (set.cover != nullptr) {
    set.cover->for_each_member(fn);
  } else {
    set.index->for_each(fn);
  }
}

void MatcherNode::handle_split(NodeId /*from*/, const SplitCommand& msg) {
  if (msg.dim >= dims() || msg.newcomer == kInvalidNode) return;
  const MatcherState* mine = gossiper_.self_state();
  if (mine == nullptr || msg.dim >= mine->segments.size()) return;
  const Range seg = mine->segments[msg.dim];
  // The joiner takes the upper half of the value range (paper §III-C:
  // "splits half of the segment").
  const Value mid = 0.5 * (seg.lo + seg.hi);
  const Range lower{seg.lo, mid};
  const Range upper{mid, seg.hi};
  obs::audit_split("matcher.split", seg, lower, upper);
  obs::Recorder::instant(rec::split(), 0, msg.newcomer);

  // Subscriptions whose predicate on this dimension reaches into the upper
  // half move (or are copied, when they straddle the midpoint).
  HandoverSegment handover;
  handover.dim = msg.dim;
  handover.newcomer_segment = upper;
  std::vector<SubscriptionId> to_remove;
  // Raw subscriptions partition, not representatives: the newcomer re-covers
  // its share on arrival, so a box never straddles a segment boundary it
  // shouldn't.
  for_each_stored(msg.dim, [&](const Subscription& sub) {
    if (sub.range(msg.dim).overlaps(upper)) handover.subs.push_back(sub);
    if (!sub.range(msg.dim).overlaps(lower)) to_remove.push_back(sub.id);
  });
  for (SubscriptionId id : to_remove) remove_one(id, msg.dim);

  gossiper_.update_self([&](MatcherState& state) {
    state.segments[msg.dim] = lower;
  });
  ctx_->send(msg.newcomer, Envelope::of(std::move(handover)));

  // The wide set is replicated on every matcher; the dimension-0 victim
  // seeds the newcomer's copy.
  if (msg.dim == 0 && wide_->size() > 0) {
    HandoverSegment wide_handover;
    wide_handover.dim = kWideDim;
    wide_->for_each(
        [&](const Subscription& sub) { wide_handover.subs.push_back(sub); });
    ctx_->send(msg.newcomer, Envelope::of(std::move(wide_handover)));
  }
}

void MatcherNode::handle_handover_segment(const HandoverSegment& msg) {
  for (const Subscription& sub : msg.subs) store_one(sub, msg.dim);
  if (msg.dim == kWideDim || !joining_) return;
  pending_segments_[msg.dim] = msg.newcomer_segment;
  joined_dims_[msg.dim] = true;
  if (std::all_of(joined_dims_.begin(), joined_dims_.end(),
                  [](bool b) { return b; })) {
    MatcherState state;
    state.id = id_;
    state.generation = 1;
    state.version = 1;
    state.status = NodeStatus::kAlive;
    state.segments = pending_segments_;
    gossiper_.install_self(std::move(state));
    joining_ = false;
    BD_INFO("matcher ", id_, " joined the cluster");
  }
}

void MatcherNode::handle_leave() {
  const MatcherState* mine = gossiper_.self_state();
  if (mine == nullptr || left_) return;
  // Copy the segments up front: update_self mutates gossip state, which can
  // relocate the entry `mine` points into.
  const std::vector<Range> segments = mine->segments;
  mine = nullptr;
  gossiper_.update_self(
      [](MatcherState& state) { state.status = NodeStatus::kLeaving; });

  for (std::size_t d = 0; d < dims(); ++d) {
    if (d >= segments.size()) break;
    const Range seg = segments[d];
    // Adjacent live matcher: the one starting where we end, else ending
    // where we start.
    NodeId neighbor = kInvalidNode;
    Range merged{};
    constexpr double kEps = 1e-9;
    for (const auto& [peer_id, peer] : gossiper_.table().entries()) {
      if (peer_id == id_ || !peer.alive() || peer.segments.size() <= d)
        continue;
      const Range& ps = peer.segments[d];
      if (std::fabs(ps.lo - seg.hi) < kEps) {
        neighbor = peer_id;
        merged = Range{seg.lo, ps.hi};
        break;
      }
      if (std::fabs(ps.hi - seg.lo) < kEps && neighbor == kInvalidNode) {
        neighbor = peer_id;
        merged = Range{ps.lo, seg.hi};
      }
    }
    if (neighbor == kInvalidNode) {
      BD_WARN("matcher ", id_, " cannot leave: no neighbour on dim ", d);
      continue;
    }
    HandoverMerge handover;
    handover.dim = static_cast<DimId>(d);
    handover.merged_segment = merged;
    for_each_stored(static_cast<DimId>(d), [&](const Subscription& sub) {
      handover.subs.push_back(sub);
    });
    ctx_->send(neighbor, Envelope::of(std::move(handover)));
  }

  gossiper_.update_self(
      [](MatcherState& state) { state.status = NodeStatus::kLeft; });
  left_ = true;
}

void MatcherNode::handle_handover_merge(const HandoverMerge& msg) {
  if (msg.dim >= dims()) return;
  obs::Recorder::instant(rec::merge(), 0, msg.dim);
  for (const Subscription& sub : msg.subs) store_one(sub, msg.dim);
  gossiper_.update_self([&](MatcherState& state) {
    if (msg.dim < state.segments.size()) {
      obs::audit_merge("matcher.merge", state.segments[msg.dim],
                       msg.merged_segment);
      state.segments[msg.dim] = msg.merged_segment;
    }
  });
}

void MatcherNode::handle_table_pull(NodeId from) {
  ctx_->send(from, Envelope::of(TablePullResp{gossiper_.table()}));
}

void MatcherNode::handle_table_resp(const TablePullResp& msg) {
  gossiper_.merge_table(msg.table);
}

void MatcherNode::handle_stats(NodeId from) {
  m_stats_reqs_->inc();
  refresh_segload_gauges();  // scrape sees current segment bounds/sizes
  ctx_->send(from, Envelope::of(StatsResponse{obs::to_json(metrics_.snapshot())}));
}

void MatcherNode::handle_trace_dump(NodeId from) {
  ctx_->send(from,
             Envelope::of(TraceDumpResponse{obs::perfetto_trace_json()}));
}

// --------------------------------------------------------------------------
// Introspection
// --------------------------------------------------------------------------

std::size_t MatcherNode::set_size(DimId dim) const {
  return dim < dims() ? sets_[dim].index->size() : 0;
}

std::size_t MatcherNode::raw_count(const DimSet& set) {
  return set.cover != nullptr ? set.cover->raw_count() : set.index->size();
}

std::size_t MatcherNode::raw_set_size(DimId dim) const {
  return dim < dims() ? raw_count(sets_[dim]) : 0;
}

const CoverTable* MatcherNode::cover_table(DimId dim) const {
  return dim < dims() ? sets_[dim].cover.get() : nullptr;
}

std::size_t MatcherNode::queue_length(DimId dim) const {
  return dim < dims() ? sets_[dim].queue.size() : 0;
}

std::size_t MatcherNode::total_queued() const {
  std::size_t total = 0;
  for (const DimSet& set : sets_) total += set.queue.size();
  return total;
}

std::size_t MatcherNode::stored_copies() const {
  std::size_t total = wide_->size();
  for (const DimSet& set : sets_) total += raw_count(set);
  return total;
}

Range MatcherNode::segment(DimId dim) const {
  const MatcherState* mine = gossiper_.self_state();
  if (mine == nullptr || dim >= mine->segments.size()) return Range{};
  return mine->segments[dim];
}

}  // namespace bluedove
