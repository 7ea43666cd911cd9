#include "deployment.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/affinity.h"
#include "core/partition_strategy.h"
#include "core/segment_view.h"
#include "net/cluster_table.h"

namespace bluedove::e2e {

namespace {

constexpr NodeId kDispatcher = 1;
constexpr NodeId kFirstMatcher = 100;
/// Node id the bench uses for its one-shot stats requests.
constexpr NodeId kScraper = 9000;

std::vector<Range> domains() {
  return std::vector<Range>(kDims, {0.0, kDomain});
}

std::vector<NodeId> matcher_ids() {
  std::vector<NodeId> ids;
  for (std::size_t m = 0; m < kMatchers; ++m) {
    ids.push_back(kFirstMatcher + static_cast<NodeId>(m));
  }
  return ids;
}

/// Forwards every NodeContext call to the host's context; while the tracer
/// is armed it stamps MatchRequest sends (dispatcher), offloaded services
/// and Delivery sends (matchers).
class TracedContext final : public NodeContext {
 public:
  /// `matcher` is the matcher index, or -1 for the dispatcher.
  TracedContext(Tracer& tracer, int matcher)
      : tracer_(tracer), matcher_(matcher) {}

  void bind(NodeContext& inner) { inner_ = &inner; }

  NodeId self() const override { return inner_->self(); }
  Timestamp now() const override { return inner_->now(); }
  TimerId set_timer(Timestamp delay, std::function<void()> fn) override {
    return inner_->set_timer(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { inner_->cancel_timer(id); }
  void charge(double work_units, std::function<void()> done) override {
    inner_->charge(work_units, std::move(done));
  }
  Rng& rng() override { return inner_->rng(); }
  bool enable_offload(int workers, std::size_t lanes) override {
    return inner_->enable_offload(workers, lanes);
  }

  void send(NodeId to, Envelope env) override {
    Stamp st;
    if (!tracer_.armed() || !stamped(env, &st) || !tracer_.tracks(st.seq)) {
      inner_->send(to, std::move(env));
      return;
    }
    if (matcher_ < 0) {
      tracer_.point(Point::kReqSendBegin, st.seq, now_ns());
      inner_->send(to, std::move(env));
      tracer_.point(Point::kReqSendEnd, st.seq, now_ns());
      return;
    }
    const SubscriptionId sub = std::get<Delivery>(env.payload).sub_id;
    if (current_ != nullptr && !current_->sent) {
      // First delivery of the running completion: the service belongs to
      // this message (match_batch = 1 gives one message per service).
      current_->sent = true;
      tracer_.point(Point::kOffload, st.seq, current_->offload);
      tracer_.point(Point::kWorkBegin, st.seq, current_->work_begin);
      tracer_.point(Point::kWorkEnd, st.seq, current_->work_end);
      tracer_.point(Point::kDoneBegin, st.seq, current_->done_begin);
      tracer_.point(Point::kFirstSend, st.seq, now_ns());
    }
    inner_->send(to, std::move(env));
    tracer_.matcher_sends(static_cast<std::size_t>(matcher_))
        .push({st.seq, sub, now_ns()});
  }

  void offload(std::size_t lane, OffloadWork work, OffloadDone done) override {
    if (!tracer_.tracing()) {
      inner_->offload(lane, std::move(work), std::move(done));
      return;
    }
    auto svc = std::make_shared<Service>();
    svc->offload = now_ns();
    inner_->offload(
        lane,
        [svc, work = std::move(work)](OffloadWorker& w) {
          svc->work_begin = now_ns();
          const double units = work(w);
          svc->work_end = now_ns();
          return units;
        },
        [this, svc, done = std::move(done)](double units) {
          svc->done_begin = now_ns();
          current_ = svc.get();
          done(units);
          current_ = nullptr;
        });
  }

 private:
  /// Timestamps of one offloaded service, filled as it moves from the node
  /// thread to a worker and back.
  struct Service {
    std::int64_t offload = 0, work_begin = 0, work_end = 0, done_begin = 0;
    bool sent = false;
  };

  /// The message stamp of a MatchRequest (dispatcher) or Delivery (matcher).
  bool stamped(const Envelope& env, Stamp* st) const {
    if (matcher_ < 0) {
      const auto* req = std::get_if<MatchRequest>(&env.payload);
      return req != nullptr && read_stamp(req->msg.payload, st);
    }
    const auto* d = std::get_if<Delivery>(&env.payload);
    return d != nullptr && read_stamp(d->payload, st);
  }

  Tracer& tracer_;
  const int matcher_;
  NodeContext* inner_ = nullptr;
  Service* current_ = nullptr;  ///< completion running now (node thread)
};

class TracedNode final : public Node {
 public:
  /// `stores` / `removes` count the StoreSubscription / RemoveSubscription
  /// envelopes this node has applied.
  TracedNode(std::unique_ptr<Node> inner, Tracer& tracer, int matcher,
             std::atomic<std::uint64_t>& stores,
             std::atomic<std::uint64_t>& removes)
      : inner_(std::move(inner)),
        ctx_(tracer, matcher),
        tracer_(tracer),
        stores_(stores),
        removes_(removes) {}

  void start(NodeContext& ctx) override {
    ctx_.bind(ctx);
    inner_->start(ctx_);
  }
  void stop() override { inner_->stop(); }

  void on_receive(NodeId from, Envelope env) override {
    const std::optional<WriteOp> write = write_op(env);
    const bool timed = write.has_value() && tracer_.write_tracing();
    const std::int64_t t0 = timed || tracer_.armed() ? now_ns() : 0;
    if (tracer_.armed()) stamp_arrival(env, t0);
    inner_->on_receive(from, std::move(env));
    if (timed) tracer_.add_write(*write, now_ns() - t0);
    if (write == WriteOp::kStore) {
      stores_.fetch_add(1, std::memory_order_release);
    } else if (write == WriteOp::kRemove) {
      removes_.fetch_add(1, std::memory_order_release);
    }
  }

 private:
  static std::optional<WriteOp> write_op(const Envelope& env) {
    if (std::holds_alternative<ClientSubscribe>(env.payload)) {
      return WriteOp::kSubscribe;
    }
    if (std::holds_alternative<StoreSubscription>(env.payload)) {
      return WriteOp::kStore;
    }
    if (std::holds_alternative<RemoveSubscription>(env.payload)) {
      return WriteOp::kRemove;
    }
    return std::nullopt;
  }

  void stamp_arrival(const Envelope& env, std::int64_t t) {
    Stamp st;
    if (const auto* pub = std::get_if<ClientPublish>(&env.payload)) {
      if (read_stamp(pub->msg.payload, &st)) {
        tracer_.point(Point::kDispatchRecv, st.seq, t);
      }
    } else if (const auto* req = std::get_if<MatchRequest>(&env.payload)) {
      if (read_stamp(req->msg.payload, &st)) {
        tracer_.point(Point::kMatchRecv, st.seq, t);
      }
    }
  }

  std::unique_ptr<Node> inner_;
  TracedContext ctx_;
  Tracer& tracer_;
  std::atomic<std::uint64_t>& stores_;
  std::atomic<std::uint64_t>& removes_;
};

}  // namespace

const char* favour_current_thread() {
  sched_param sp{};
  sp.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) == 0) {
    return "SCHED_FIFO 1";
  }
  // On Linux the nice value is per thread, and 0 names the calling one.
  return setpriority(PRIO_PROCESS, 0, -10) == 0 ? "nice -10" : "unchanged";
}

void ordinary_thread() {
  const sched_param sp{};
  pthread_setschedparam(pthread_self(), SCHED_OTHER, &sp);
  setpriority(PRIO_PROCESS, 0, 0);
}

// --------------------------------------------------------------------------
// Receiver
// --------------------------------------------------------------------------

Receiver::Receiver(const Inputs& in, Tracer& tracer)
    : in_(in), tracer_(tracer) {
  verified_per_client_.assign(kSessions, 0);
  for (std::size_t j = 0; j < in.subs.size(); ++j) {
    ++verified_per_client_[j % kSessions];
  }
  // calloc: the kernel hands out zero pages lazily, so only the sequence
  // numbers a run actually publishes become resident.
  count_ = static_cast<std::uint32_t*>(
      std::calloc(kMaxMessages, sizeof(std::uint32_t)));
  hash_ = static_cast<std::uint64_t*>(
      std::calloc(kMaxMessages, sizeof(std::uint64_t)));
  if (count_ == nullptr || hash_ == nullptr) std::abort();
  for (std::size_t c = 0; c < kSessions; ++c) {
    clients_.push_back(std::make_unique<PerClient>());
  }
}

Receiver::~Receiver() {
  std::free(count_);
  std::free(hash_);
}

void Receiver::on_event(std::size_t c, const EdgeEvent& ev) {
  const std::int64_t t = now_ns();
  thread_local const char* const favoured = favour_current_thread();
  (void)favoured;
  PerClient& pc = *clients_[c];
  if (!pc.clock_known.load(std::memory_order_relaxed) &&
      pthread_getcpuclockid(pthread_self(), &pc.cpu_clock) == 0) {
    pc.clock_known.store(true, std::memory_order_release);
  }
  if (ev.seq != pc.last_edge_seq + 1) gaps_.fetch_add(1);
  pc.last_edge_seq = ev.seq;
  Stamp st;
  if (!read_stamp(ev.delivery.payload, &st) || st.seq >= kMaxMessages) {
    malformed_.fetch_add(1);
    return;
  }
  // Session c subscribed verified subscriptions c, c+3, c+6, ... first, so
  // they own its client ids 1..N_c; later ids are churn subscriptions.
  const SubscriptionId id = ev.delivery.sub_id;
  if (id == 0 || id > verified_per_client_[c]) {
    side_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto sub = static_cast<std::uint32_t>((id - 1) * kSessions + c);
  std::atomic_ref<std::uint64_t>(hash_[st.seq])
      .fetch_add(delivery_hash(sub), std::memory_order_relaxed);
  const std::uint32_t got =
      std::atomic_ref<std::uint32_t>(count_[st.seq]).fetch_add(1) + 1;
  const bool completing = got == in_.expected_count(st.seq % in_.pool_size());
  if (completing) completed_.fetch_add(1, std::memory_order_release);
  if (sample_latency_.load(std::memory_order_relaxed)) {
    pc.latency.push({static_cast<std::uint32_t>(st.seq),
                     static_cast<float>(t - st.due_ns)});
  }
  if (tracer_.tracks(st.seq)) {
    tracer_.receipts(c).push({st.seq, ev.seq, t, completing});
  }
}

void Receiver::prefault_latency(std::size_t n) {
  for (auto& pc : clients_) pc->latency.prefault(n / clients_.size() + 1024);
}

std::vector<LatencySample> Receiver::take_latency() {
  std::vector<LatencySample> all;
  for (auto& pc : clients_) {
    std::vector<LatencySample> part = pc->latency.take();
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

double Receiver::client_cpu_s() const {
  double s = 0.0;
  for (const auto& pc : clients_) {
    timespec ts{};
    if (pc->clock_known.load(std::memory_order_acquire) &&
        clock_gettime(pc->cpu_clock, &ts) == 0) {
      s += static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
    }
  }
  return s;
}

Receiver::Check Receiver::verify(std::uint64_t published) const {
  Check out;
  for (std::uint64_t seq = 0; seq < published; ++seq) {
    const std::size_t p = seq % in_.pool_size();
    const std::uint32_t got =
        std::atomic_ref<std::uint32_t>(count_[seq]).load();
    const std::uint64_t hash =
        std::atomic_ref<std::uint64_t>(hash_[seq]).load();
    const std::uint32_t want = in_.expected_count(p);
    if (got == want && hash == in_.expected_hash[p]) continue;
    ++out.failed;
    if (got < want) ++out.missing;
    if (got > want) ++out.extra;
  }
  return out;
}

// --------------------------------------------------------------------------
// Deployment
// --------------------------------------------------------------------------

Deployment::Deployment(const Inputs& in, Tracer& tracer, Receiver& receiver)
    : in_(in), tracer_(tracer), receiver_(receiver) {}

Deployment::~Deployment() { stop(); }

std::size_t Deployment::copies_of(const Subscription& sub) const {
  static const SegmentView view =
      SegmentView::build(bootstrap_table(matcher_ids(), domains()), kDims);
  return MPartition().assign(view, sub).size();
}

bool Deployment::wait_applied(const std::atomic<std::uint64_t>& counter,
                              std::uint64_t want, double timeout_s) const {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (counter.load(std::memory_order_acquire) < want) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

bool Deployment::start(double timeout_s) {
  // The wrappers hand each node a substituted NodeContext, which the
  // affinity checker's address-identity test would misreport.
  affinity::set_enabled(false);

  DispatcherConfig dcfg;
  dcfg.domains = domains();
  auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
  dnode->set_bootstrap(bootstrap_table(matcher_ids(), domains()));
  dispatcher_ = dnode.get();
  dispatcher_host_ = std::make_unique<net::TcpHost>(
      kDispatcher, 0,
      std::make_unique<TracedNode>(std::move(dnode), tracer_, -1,
                                   stores_applied_, removes_applied_));

  MatcherConfig mcfg;
  mcfg.domains = domains();
  mcfg.index_kind = IndexKind::kFlatBucket;
  // One service in flight per matcher: the ledger attributes each matcher
  // job to the one message it serves (ledger.h).
  mcfg.cores = 1;
  mcfg.match_batch = 1;
  mcfg.cover.enabled = true;
  mcfg.dispatchers = {kDispatcher};
  mcfg.metrics_sink = kDispatcher;
  mcfg.delivery_sink = kDispatcher;
  for (std::size_t m = 0; m < kMatchers; ++m) {
    const NodeId id = matcher_ids()[m];
    auto node = std::make_unique<MatcherNode>(id, mcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids(), domains()));
    matchers_.push_back(node.get());
    matcher_hosts_.push_back(std::make_unique<net::TcpHost>(
        id, 0,
        std::make_unique<TracedNode>(std::move(node), tracer_,
                                     static_cast<int>(m), stores_applied_,
                                     removes_applied_)));
  }

  edge::EdgeConfig ecfg;
  ecfg.host = "127.0.0.1";
  ecfg.reactors = 2;
  frontend_ = std::make_unique<edge::EdgeFrontend>(
      ecfg, kDispatcher, [this](Envelope&& env) {
        if (tracer_.armed()) {
          Stamp st;
          const auto* pub = std::get_if<ClientPublish>(&env.payload);
          if (pub != nullptr && read_stamp(pub->msg.payload, &st)) {
            tracer_.point(Point::kIngress, st.seq, now_ns());
          }
        }
        dispatcher_host_->inject(kInvalidNode, std::move(env));
      });
  dispatcher_->on_delivery = [this](const Delivery& d) {
    std::uint64_t edge_seq = 0;
    for (auto& [session, n] : edge_seq_) {
      if (session == d.subscriber) edge_seq = ++n;
    }
    Stamp st;
    if (tracer_.armed() && read_stamp(d.payload, &st) &&
        tracer_.tracks(st.seq)) {
      tracer_.handoffs().push({st.seq, d.sub_id, d.subscriber, edge_seq,
                               now_ns()});
    }
    frontend_->deliver(d);
  };
  dispatcher_->add_stats_registry(&frontend_->metrics());

  std::vector<std::pair<NodeId, net::TcpEndpoint>> directory;
  directory.push_back({kDispatcher, {"127.0.0.1", dispatcher_host_->port()}});
  for (std::size_t m = 0; m < kMatchers; ++m) {
    directory.push_back(
        {matcher_ids()[m], {"127.0.0.1", matcher_hosts_[m]->port()}});
  }
  for (const auto& [id, ep] : directory) {
    if (id != kDispatcher) dispatcher_host_->add_peer(id, ep);
    for (auto& host : matcher_hosts_) {
      if (id != host->id()) host->add_peer(id, ep);
    }
  }
  dispatcher_host_->start();
  for (auto& host : matcher_hosts_) host->start();
  frontend_->start();

  for (std::size_t c = 0; c < kSessions; ++c) {
    clients_.push_back(std::make_unique<edge::EdgeClient>(
        net::TcpEndpoint{"127.0.0.1", frontend_->port()},
        [this, c](const EdgeEvent& ev) { receiver_.on_event(c, ev); }));
    if (!clients_.back()->connect()) return false;
    edge_seq_.push_back({clients_.back()->session(), 0});
  }

  for (std::size_t j = 0; j < in_.subs.size(); ++j) {
    const SubscriptionId want = j / kSessions + 1;
    if (clients_[j % kSessions]->subscribe(in_.subs[j].ranges) != want) {
      return false;
    }
    stores_sent_ += copies_of(in_.subs[j]);
  }
  churn_ids_.assign(in_.side.size(), 0);
  for (std::size_t k = 0; k < in_.side.size() / 2; ++k) {
    churn_ids_[k] = clients_[k % kSessions]->subscribe(in_.side[k].ranges);
    if (churn_ids_[k] == 0) return false;
    stores_sent_ += copies_of(in_.side[k]);
  }
  if (!wait_applied(stores_applied_, stores_sent_, timeout_s)) return false;

  // Cross-check against the matchers' own metrics: the raw subscriptions
  // they report across their segments must equal the copies sent.
  if (!refresh_matcher_gauges()) return false;
  double stored = 0.0;
  for (const MatcherNode* m : matchers_) {
    const obs::MetricsSnapshot snap = m->metrics().snapshot();
    for (std::size_t d = 0; d < kDims; ++d) {
      const auto it = snap.gauges.find("segload.dim" + std::to_string(d) +
                                       ".subscriptions");
      if (it != snap.gauges.end()) stored += it->second;
    }
  }
  return static_cast<std::uint64_t>(stored) == stores_sent_;
}

void Deployment::publish(std::uint64_t seq, std::int64_t due_ns) {
  const std::size_t p = seq % in_.pool_size();
  std::vector<Value> values(in_.values.begin() + p * kDims,
                            in_.values.begin() + (p + 1) * kDims);
  clients_[seq % kSessions]->publish(
      std::move(values), make_payload({seq, due_ns}, in_.spec.payload));
}

void Deployment::churn_step() {
  const std::size_t pool = in_.side.size();
  if (pool < 2) return;
  const std::size_t out = churn_head_ % pool;
  const std::size_t in = (churn_head_ + pool / 2) % pool;
  ++churn_head_;
  clients_[out % kSessions]->unsubscribe(churn_ids_[out]);
  churn_ids_[out] = 0;
  churn_ids_[in] = clients_[in % kSessions]->subscribe(in_.side[in].ranges);
}

bool Deployment::unsubscribe_verified(std::size_t n, double timeout_s) {
  n = std::min(n, in_.subs.size());
  for (std::size_t j = 0; j < n; ++j) {
    clients_[j % kSessions]->unsubscribe(j / kSessions + 1);
    removes_sent_ += copies_of(in_.subs[j]);
  }
  return wait_applied(removes_applied_, removes_sent_, timeout_s);
}

bool Deployment::refresh_matcher_gauges() {
  for (auto& host : matcher_hosts_) {
    Envelope resp;
    if (!net::TcpHost::request_reply({"127.0.0.1", host->port()}, kScraper,
                                     Envelope::of(StatsRequest{}), &resp)) {
      return false;
    }
  }
  return true;
}

Snapshot Deployment::snapshot() const {
  Snapshot s;
  s.edge = frontend_->metrics().snapshot();
  s.wire = dispatcher_host_->wire_metrics().snapshot();
  s.dropped_sends = dispatcher_host_->dropped_sends();
  for (std::size_t m = 0; m < kMatchers; ++m) {
    s.wire.merge(matcher_hosts_[m]->wire_metrics().snapshot());
    s.dropped_sends += matcher_hosts_[m]->dropped_sends();
    s.matchers.push_back(matchers_[m]->metrics().snapshot());
  }
  return s;
}

std::vector<std::uint64_t> Deployment::sessions() const {
  std::vector<std::uint64_t> out;
  for (const auto& c : clients_) out.push_back(c->session());
  return out;
}

void Deployment::stop() {
  clients_.clear();  // disconnects and joins each reader
  if (dispatcher_host_ != nullptr) dispatcher_host_->stop();
  for (auto& host : matcher_hosts_) host->stop();
  if (frontend_ != nullptr) frontend_->stop();
}

}  // namespace bluedove::e2e
