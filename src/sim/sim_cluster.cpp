#include "sim/sim_cluster.h"

#include "common/affinity.h"
#include "common/logging.h"
#include "obs/recorder.h"

namespace bluedove::sim {

class SimCluster::Context final : public NodeContext {
 public:
  Context(SimCluster* cluster, NodeId id, std::uint64_t seed)
      : cluster_(cluster), id_(id), rng_(seed) {}

  NodeId self() const override { return id_; }
  Timestamp now() const override { return cluster_->now(); }

  void send(NodeId to, Envelope env) override;
  TimerId set_timer(Timestamp delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  void charge(double work_units, std::function<void()> done) override;
  Rng& rng() override { return rng_; }

 private:
  SimCluster* cluster_;
  NodeId id_;
  Rng rng_;
};

struct SimCluster::Record {
  std::unique_ptr<Node> node;
  std::unique_ptr<Context> ctx;
  int cores = 4;
  bool alive = true;
  bool started = false;
  /// Bumped on kill so stale delivery / timer / charge events are dropped.
  std::uint64_t epoch = 0;
  double busy_seconds = 0.0;
  TrafficStats traffic;
};

SimCluster::SimCluster(SimConfig config)
    : config_(config), rng_(config.seed) {}

SimCluster::~SimCluster() = default;

void SimCluster::add_node(NodeId id, std::unique_ptr<Node> node, int cores) {
  auto rec = std::make_unique<Record>();
  rec->node = std::move(node);
  rec->ctx = std::make_unique<Context>(this, id, rng_.next_u64());
  rec->cores = cores;
  records_[id] = std::move(rec);
}

void SimCluster::start(NodeId id) {
  Record* rec = record(id);
  if (rec == nullptr || rec->started) return;
  rec->started = true;
  affinity::ScopedNodeBind bind(rec->ctx.get());
  obs::ScopedRecorderNode rbind(id);
  rec->node->start(*rec->ctx);
}

void SimCluster::start_all() {
  for (auto& [id, rec] : records_) {
    if (!rec->started) {
      rec->started = true;
      affinity::ScopedNodeBind bind(rec->ctx.get());
      obs::ScopedRecorderNode rbind(id);
      rec->node->start(*rec->ctx);
    }
  }
}

void SimCluster::kill(NodeId id) {
  Record* rec = record(id);
  if (rec == nullptr || !rec->alive) return;
  rec->alive = false;
  ++rec->epoch;
}

bool SimCluster::alive(NodeId id) const {
  const Record* rec = record(id);
  return rec != nullptr && rec->alive;
}

Node* SimCluster::node(NodeId id) {
  Record* rec = record(id);
  return rec != nullptr ? rec->node.get() : nullptr;
}

const Node* SimCluster::node(NodeId id) const {
  const Record* rec = record(id);
  return rec != nullptr ? rec->node.get() : nullptr;
}

SimCluster::Record* SimCluster::record(NodeId id) {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : it->second.get();
}

const SimCluster::Record* SimCluster::record(NodeId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : it->second.get();
}

double SimCluster::hop_latency() {
  return config_.net_latency + rng_.uniform(0.0, config_.net_jitter);
}

bool SimCluster::accounted(const Envelope& env) {
  switch (wire_tag(env)) {
    case 8:   // LoadReport
    case 9:   // TablePullReq
    case 10:  // TablePullResp
    case 11:  // GossipSyn
    case 12:  // GossipAck
    case 13:  // GossipAck2
      return true;
    default:
      return false;
  }
}

void SimCluster::deliver(NodeId from, NodeId to, Envelope env,
                         std::uint64_t epoch) {
  Record* rec = record(to);
  const bool dead =
      rec == nullptr || !rec->alive || rec->epoch != epoch || !rec->started;
  if (config_.digest) {
    // The digest covers the full causal stream: (virtual time, endpoints,
    // payload kind, serialized size, delivered-or-dropped). Any divergence
    // between two same-seed runs — an extra message, a reorder, a changed
    // payload, a shifted timestamp — lands here.
    digest_.mix_double(loop_.now());
    digest_.mix(from);
    digest_.mix(to);
    digest_.mix(wire_tag(env));
    digest_.mix(wire_size(env));
    digest_.mix(dead ? 1 : 0);
  }
  if (dead) {
    ++dropped_messages_;
    if (std::holds_alternative<MatchRequest>(env.payload))
      ++lost_match_requests_;
    return;
  }
  ++rec->traffic.msgs_received;
  if (accounted(env)) {
    rec->traffic.bytes_received += wire_size(env);
  }
  affinity::ScopedNodeBind bind(rec->ctx.get());
  // One shared wall-clock thread hosts every sim node; the scoped recorder
  // binding keeps each event attributed to the node whose handler runs.
  obs::ScopedRecorderNode rbind(to);
  rec->node->on_receive(from, std::move(env));
}

void SimCluster::inject(NodeId to, Envelope env) {
  Record* rec = record(to);
  const std::uint64_t epoch = rec != nullptr ? rec->epoch : 0;
  loop_.schedule_after(
      hop_latency(),
      [this, to, epoch, env = std::move(env)]() mutable {
        deliver(kInvalidNode, to, std::move(env), epoch);
      });
}

const TrafficStats& SimCluster::traffic(NodeId id) const {
  static const TrafficStats kEmpty{};
  const Record* rec = record(id);
  return rec != nullptr ? rec->traffic : kEmpty;
}

double SimCluster::busy_seconds(NodeId id) const {
  const Record* rec = record(id);
  return rec != nullptr ? rec->busy_seconds : 0.0;
}

int SimCluster::cores(NodeId id) const {
  const Record* rec = record(id);
  return rec != nullptr ? rec->cores : 0;
}

obs::MetricsSnapshot SimCluster::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  for (const auto& [id, rec] : records_) {
    const std::string prefix = "sim.node" + std::to_string(id);
    snap.counters[prefix + ".msgs_sent"] = rec->traffic.msgs_sent;
    snap.counters[prefix + ".msgs_received"] = rec->traffic.msgs_received;
    snap.counters[prefix + ".bytes_sent"] = rec->traffic.bytes_sent;
    snap.counters[prefix + ".bytes_received"] = rec->traffic.bytes_received;
    snap.gauges[prefix + ".busy_seconds"] = rec->busy_seconds;
    snap.gauges[prefix + ".alive"] = rec->alive ? 1.0 : 0.0;
  }
  snap.counters["sim.lost_match_requests"] = lost_match_requests_;
  snap.counters["sim.dropped_messages"] = dropped_messages_;
  return snap;
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

void SimCluster::Context::send(NodeId to, Envelope env) {
  Record* self_rec = cluster_->record(id_);
  if (self_rec == nullptr || !self_rec->alive) return;  // dead men send no mail
  ++self_rec->traffic.msgs_sent;
  if (SimCluster::accounted(env)) {
    self_rec->traffic.bytes_sent += wire_size(env);
  }
  Record* target = cluster_->record(to);
  if (target == nullptr) {
    ++cluster_->dropped_messages_;
    if (std::holds_alternative<MatchRequest>(env.payload))
      ++cluster_->lost_match_requests_;
    return;
  }
  const std::uint64_t epoch = target->epoch;
  cluster_->loop_.schedule_after(
      cluster_->hop_latency(),
      [cluster = cluster_, from = id_, to, epoch,
       env = std::move(env)]() mutable {
        cluster->deliver(from, to, std::move(env), epoch);
      });
}

TimerId SimCluster::Context::set_timer(Timestamp delay,
                                       std::function<void()> fn) {
  Record* rec = cluster_->record(id_);
  if (rec == nullptr) return kInvalidTimer;
  const std::uint64_t epoch = rec->epoch;
  return cluster_->loop_.schedule_after(
      delay, [cluster = cluster_, id = id_, epoch, fn = std::move(fn)] {
        Record* r = cluster->record(id);
        if (r != nullptr && r->alive && r->epoch == epoch) {
          affinity::ScopedNodeBind bind(r->ctx.get());
          obs::ScopedRecorderNode rbind(id);
          fn();
        }
      });
}

void SimCluster::Context::cancel_timer(TimerId id) {
  cluster_->loop_.cancel(id);
}

void SimCluster::Context::charge(double work_units,
                                 std::function<void()> done) {
  Record* rec = cluster_->record(id_);
  if (rec == nullptr || !rec->alive) return;
  const double t = work_units * cluster_->config_.sec_per_work_unit;
  rec->busy_seconds += t;
  const std::uint64_t epoch = rec->epoch;
  cluster_->loop_.schedule_after(
      t, [cluster = cluster_, id = id_, epoch, done = std::move(done)] {
        Record* r = cluster->record(id);
        if (r != nullptr && r->alive && r->epoch == epoch) {
          affinity::ScopedNodeBind bind(r->ctx.get());
          obs::ScopedRecorderNode rbind(id);
          done();
        }
      });
}

}  // namespace bluedove::sim
