#include "edge/edge_frontend.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flat_id_map.h"
#include "common/logging.h"
#include "common/thread_safety.h"
#include "net/reactor.h"
#include "net/wire.h"
#include "obs/recorder.h"

namespace bluedove::edge {

namespace {

/// Edge-minted subscription/message ids carry this bit so they can never
/// collide with ids chosen by direct clients of the same cluster (peers
/// that send ClientSubscribe/ClientPublish themselves), which count up
/// from 1.
constexpr std::uint64_t kEdgeIdBit = 1ull << 62;

/// Pending-connection queue of the edge listener.
constexpr int kListenBacklog = 4096;

double mono_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// A session's live subscriptions in one flat table: a slot per
/// subscription holding the client's id, the edge-global id the cluster
/// sees (rewritten on the way in so concurrent clients cannot collide) and
/// a span of one shared range arena, indexed both ways by FlatIdMap. No
/// subscription costs a heap block, and rewriting a delivery's id is one
/// flat probe plus one array read.
class SubTable {
 public:
  static constexpr std::uint32_t kNone = FlatIdMap::kNone;

  std::uint32_t by_client(std::uint64_t client_id) const {
    return by_client_.find(client_id);
  }
  std::uint32_t by_gid(std::uint64_t gid) const { return by_gid_.find(gid); }
  std::uint64_t client_id(std::uint32_t slot) const {
    return slots_[slot].client_id;
  }

  void add(std::uint64_t client_id, std::uint64_t gid,
           const std::vector<Range>& ranges) {
    std::uint32_t i = 0;
    if (free_.empty()) {
      i = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      i = free_.back();
      free_.pop_back();
    }
    slots_[i] = {client_id, gid, static_cast<std::uint32_t>(ranges_.size()),
                 static_cast<std::uint32_t>(ranges.size())};
    ranges_.insert(ranges_.end(), ranges.begin(), ranges.end());
    by_client_.set(client_id, i);
    by_gid_.set(gid, i);
  }

  /// The subscription in `slot` as the cluster knows it, for withdrawal.
  Subscription subscription(std::uint32_t slot,
                            std::uint64_t subscriber) const {
    const Slot& s = slots_[slot];
    const auto first = ranges_.begin() + s.first;
    return Subscription{s.gid, subscriber, {first, first + s.dims}};
  }

  /// Frees `slot`. Its span of the arena is dead until the arena is
  /// repacked, which happens once dead entries outnumber live ones, so
  /// the arena stays within twice the live ranges.
  void erase(std::uint32_t slot) {
    Slot& s = slots_[slot];
    by_client_.erase(s.client_id);
    by_gid_.erase(s.gid);
    dead_ += s.dims;
    s.dims = 0;
    free_.push_back(slot);
    if (dead_ * 2 > ranges_.size()) repack();
  }

  /// Calls fn(slot) for every live subscription.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    by_gid_.for_each([&](std::uint64_t, std::uint32_t slot) { fn(slot); });
  }

  void clear() { *this = SubTable{}; }

 private:
  struct Slot {
    std::uint64_t client_id = 0;
    std::uint64_t gid = 0;
    std::uint32_t first = 0;  ///< offset of the ranges in ranges_
    std::uint32_t dims = 0;   ///< 0 while the slot is free
  };

  void repack() {
    std::vector<Range> packed;
    packed.reserve(ranges_.size() - dead_);
    for (Slot& s : slots_) {
      const auto first = ranges_.begin() + s.first;
      s.first = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), first, first + s.dims);
    }
    ranges_ = std::move(packed);
    dead_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free slots, reused last-in first
  std::vector<Range> ranges_;
  std::size_t dead_ = 0;  ///< ranges_ entries of freed slots
  FlatIdMap by_client_;
  FlatIdMap by_gid_;
};

}  // namespace

// --------------------------------------------------------------------------
// Internal structures
// --------------------------------------------------------------------------

/// One client connection: the per-socket state machine. Owned by exactly
/// one reactor at a time (migration moves the whole object), so no field
/// needs a lock. Closes its socket when destroyed, which also covers a
/// connection still in flight between reactors at stop().
struct EdgeFrontend::Conn {
  Conn(int f, NodeId node) : fd(f), writer(node) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const int fd;
  Session* session = nullptr;
  net::FrameReader reader;
  /// Bounded write queue: one contiguous buffer of framed bytes.
  net::FrameWriter writer;
  bool dirty = false;    ///< queued output since the last flush pass
  bool counted = false;  ///< already in conn_count_ (survives migration)
};

/// A client session: outlives its connection, owns the delivery sequence
/// and the bounded replay ring. Owned by the reactor at index
/// (id % reactors), which is also the only thread that touches it.
struct EdgeFrontend::Session {
  std::uint64_t id = 0;
  std::uint64_t next_seq = 1;  ///< sequence the next delivery will carry
  std::uint64_t acked = 0;     ///< cumulative client ack
  std::deque<EdgeEvent> ring;  ///< unacked deliveries, seq ascending
  Conn* conn = nullptr;        ///< nullptr while detached
  double detached_since = 0.0;
  SubTable subs;
};

/// One reactor thread and everything it owns. Other threads reach it only
/// through loop.post(): reactor 0 hands over accepted connections, the
/// node thread deliveries, other reactors connections migrating on resume.
struct EdgeFrontend::Shard {
  Shard(EdgeFrontend* fe, int i)
      : index(i),
        loop([fe, this](int fd, std::uint32_t events) {
          fe->on_io(*this, fd, events);
        }) {}

  const int index;
  net::Reactor loop;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::uint64_t next_ordinal = 1;  ///< minted ids: ordinal * R + index
  std::vector<int> dirty;          ///< fds with queued output this pass
  obs::Gauge* conns_gauge = nullptr;

  /// Deliveries handed over by other threads, in arrival order. Only the
  /// append that finds the batch empty posts a drain task and reads the
  /// clock, so a burst costs one post and one clock read however many
  /// deliveries it carries.
  bd::Mutex pending_mu;
  std::vector<Delivery> pending BD_GUARDED_BY(pending_mu);
  /// When the append that opened `pending` ran (mono_seconds).
  double pending_since BD_GUARDED_BY(pending_mu) = 0.0;
  bool closed BD_GUARDED_BY(pending_mu) = false;  ///< stop() has run
  std::vector<Delivery> draining;  ///< the batch being drained; loop only
  net::wire::ParsedFrame frame;     ///< handle_readable's parse target

  std::thread thread;  ///< runs `loop`; last, as it uses all of the above
};

// --------------------------------------------------------------------------
// Setup / teardown
// --------------------------------------------------------------------------

EdgeFrontend::EdgeFrontend(EdgeConfig config, NodeId node, IngressFn ingress)
    : config_(std::move(config)), node_(node), ingress_(std::move(ingress)) {
  if (config_.reactors < 1) config_.reactors = 1;
  if (config_.fanout_batch < 1) config_.fanout_batch = 1;

  m_accepts_ = &metrics_.counter("edge.accepts");
  m_accept_rejects_ = &metrics_.counter("edge.accept_rejects");
  m_disconnects_ = &metrics_.counter("edge.disconnects");
  m_evictions_ = &metrics_.counter("edge.evictions");
  m_malformed_ = &metrics_.counter("edge.malformed");
  m_sessions_created_ = &metrics_.counter("edge.sessions_created");
  m_sessions_resumed_ = &metrics_.counter("edge.sessions_resumed");
  m_sessions_reaped_ = &metrics_.counter("edge.sessions_reaped");
  m_subscribes_ = &metrics_.counter("edge.subscribes");
  m_unsubscribes_ = &metrics_.counter("edge.unsubscribes");
  m_publishes_ = &metrics_.counter("edge.publishes");
  m_acks_ = &metrics_.counter("edge.acks");
  m_deliveries_ = &metrics_.counter("edge.deliveries");
  m_deliveries_orphaned_ = &metrics_.counter("edge.deliveries_orphaned");
  m_replay_hits_ = &metrics_.counter("edge.replay_hits");
  m_replay_gaps_ = &metrics_.counter("edge.replay_gaps");
  m_replay_overflow_ = &metrics_.counter("edge.replay_overflow");
  m_frames_out_ = &metrics_.counter("edge.frames_out");
  m_bytes_out_ = &metrics_.counter("edge.bytes_out");
  m_conns_ = &metrics_.gauge("edge.connections");
  m_sessions_gauge_ = &metrics_.gauge("edge.sessions");
  m_queue_high_water_ = &metrics_.gauge("edge.queue_high_water");
  m_fanout_batch_ = &metrics_.histogram("edge.fanout_batch");
  m_delivery_latency_ = &metrics_.histogram("edge.delivery_latency");

  // Bind immediately so port 0 resolves before start() (TcpHost idiom).
  listen_fd_ =
      net::listen_tcp(config_.host, config_.port, kListenBacklog, &port_);
  if (listen_fd_ < 0) {
    BD_WARN("edge: bind/listen on port ", config_.port,
            " failed: ", std::strerror(errno));
  }
}

EdgeFrontend::~EdgeFrontend() { stop(); }

void EdgeFrontend::start() {
  if (started_ || listen_fd_ < 0) return;
  started_ = true;
  for (int i = 0; i < config_.reactors; ++i) {
    auto r = std::make_unique<Shard>(this, i);
    r->conns_gauge = &metrics_.gauge("edge.reactor" + std::to_string(i) +
                                     ".connections");
    Shard* rp = r.get();
    r->loop.at_pass_end([this, rp] {
      // Flush everything that queued output during this pass: close the
      // open frame and push bytes until the socket would block (then
      // EPOLLOUT takes over — interest-mask driven flushing).
      for (const int fd : rp->dirty) {
        auto it = rp->conns.find(fd);
        if (it == rp->conns.end()) continue;
        it->second->dirty = false;
        flush_conn(*rp, *it->second);
      }
      rp->dirty.clear();
    });
    schedule_reap(*r);
    shards_.push_back(std::move(r));
  }
  shards_[0]->loop.watch(listen_fd_);
  for (auto& r : shards_) {
    Shard* rp = r.get();
    r->thread = std::thread([this, rp] {
      obs::Recorder::bind_node(node_);
      obs::Recorder::label_thread("node" + std::to_string(node_) +
                                  ".edge.reactor" + std::to_string(rp->index));
      rp->loop.run();
    });
  }
}

void EdgeFrontend::stop() {
  if (started_ && !stopped_) {
    stopped_ = true;
    for (auto& r : shards_) r->loop.stop();
    for (auto& r : shards_) {
      if (r->thread.joinable()) r->thread.join();
    }
    for (auto& r : shards_) {
      r->conns.clear();
      r->sessions.clear();
      bd::LockGuard lk(r->pending_mu);
      r->pending.clear();  // dropped, like a post after stop
      r->closed = true;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::uint64_t EdgeFrontend::connections() const { return conn_count_.load(); }
std::uint64_t EdgeFrontend::sessions() const { return session_count_.load(); }

// --------------------------------------------------------------------------
// Acceptor (reactor 0) and cross-thread entry points
// --------------------------------------------------------------------------

void EdgeFrontend::accept_all(Shard& r) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Out of fds/buffers: expected under load when the deployment fd
        // cap is below max_connections. Shed and retry shortly instead of
        // spinning on a listener that stays readable.
        m_accept_rejects_->inc();
      } else {
        BD_WARN("edge: accept4() failed: ", std::strerror(err));
      }
      r.loop.unwatch(listen_fd_);
      r.loop.add_timer(0.01, [this, &r] { r.loop.watch(listen_fd_); });
      return;
    }
    if (conn_count_.load() >= config_.max_connections) {
      m_accept_rejects_->inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    m_accepts_->inc();
    auto conn = std::make_shared<Conn>(fd, node_);
    Shard& target = *shards_[next_shard_++ % shards_.size()];
    target.loop.post(
        [this, &target, conn = std::move(conn)] { adopt_conn(target, conn); });
  }
}

void EdgeFrontend::deliver(const Delivery& d) {
  if (shards_.empty()) return;
  Shard& r = shard_of(d.subscriber);
  {
    bd::LockGuard lk(r.pending_mu);
    if (r.closed) return;
    // The values and payload are refcount bumps, not byte copies.
    r.pending.push_back(d);
    if (r.pending.size() > 1) return;  // a drain is already on its way
    // This append opened the batch: the one clock read it costs.
    r.pending_since = mono_seconds();
  }
  // Refused only once stop() has begun, which then drops the batch.
  r.loop.post([this, &r] { drain_deliveries(r); });
}

void EdgeFrontend::drain_deliveries(Shard& r) {
  double since = 0.0;
  {
    bd::LockGuard lk(r.pending_mu);
    r.draining.swap(r.pending);  // hands back last drain's capacity
    since = r.pending_since;
  }
  std::uint64_t accepted = 0;
  std::uint64_t written = 0;
  for (Delivery& d : r.draining) {
    switch (deliver_on_shard(r, std::move(d))) {
      case Outcome::kWritten:
        ++written;
        [[fallthrough]];
      case Outcome::kHeld:
        ++accepted;
        break;
      case Outcome::kOrphaned:
        break;
    }
  }
  r.draining.clear();
  // One metrics update for the batch: every delivery written records the
  // batch's wait, from the append that opened it to now.
  m_deliveries_->inc(accepted);
  if (written > 0) m_delivery_latency_->record(mono_seconds() - since, written);
}

void EdgeFrontend::schedule_reap(Shard& r) {
  r.loop.add_timer(config_.reap_interval, [this, &r] {
    reap_sessions(r);
    schedule_reap(r);
  });
}

// --------------------------------------------------------------------------
// Connection events
// --------------------------------------------------------------------------

void EdgeFrontend::on_io(Shard& r, int fd, std::uint32_t events) {
  if (fd == listen_fd_) return accept_all(r);
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  Conn& c = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) return close_conn(r, c, false);
  if ((events & EPOLLIN) != 0) {
    handle_readable(r, c);
    // Closed, or migrated to another reactor.
    if (r.conns.find(fd) == r.conns.end()) return;
  }
  if ((events & EPOLLOUT) != 0) flush_conn(r, c);
}

void EdgeFrontend::adopt_conn(Shard& r, std::shared_ptr<Conn> conn) {
  const int fd = conn->fd;
  if (!r.loop.watch(fd, conn->writer.unsent() > 0)) {
    if (conn->session != nullptr) conn->session->conn = nullptr;
    if (conn->counted) conn_count_.fetch_sub(1);
    return;  // the last reference closes the socket
  }
  conn->dirty = false;
  if (!conn->counted) {
    conn->counted = true;
    conn_count_.fetch_add(1);
    m_conns_->set(static_cast<double>(conn_count_.load()));
  }
  r.conns.emplace(fd, std::move(conn));
  r.conns_gauge->set(static_cast<double>(r.conns.size()));
}

// --------------------------------------------------------------------------
// Read path
// --------------------------------------------------------------------------

void EdgeFrontend::handle_readable(Shard& r, Conn& c) {
  const int fd = c.fd;
  // Every frame parses into the shard's one ParsedFrame, whose vector
  // keeps its capacity from frame to frame.
  net::wire::ParsedFrame& frame = r.frame;
  for (;;) {
    // Parsed with the refcounted buffer as owner, so every payload is a
    // zero-copy view that keeps the frame alive into the dispatcher (and,
    // for publishes, across the whole match pipeline).
    switch (c.reader.read(fd, r.loop.recv_buffer(), &frame)) {
      case net::FrameReader::Status::kFrame:
        break;
      case net::FrameReader::Status::kBlocked:
        return;
      case net::FrameReader::Status::kMalformed:
        m_malformed_->inc();
        return close_conn(r, c, false);
      case net::FrameReader::Status::kClosed:
        return close_conn(r, c, false);
    }
    for (std::size_t i = 0; i < frame.envelopes.size(); ++i) {
      Envelope& env = frame.envelopes[i];
      if (auto* hello = std::get_if<EdgeHello>(&env.payload)) {
        std::vector<Envelope> rest(
            std::make_move_iterator(frame.envelopes.begin() + i + 1),
            std::make_move_iterator(frame.envelopes.end()));
        handle_hello(r, c, *hello, std::move(rest));
        // Closed, or migrated to another reactor (which reads on from its
        // buffered frames); else attached here: read on in this pass.
        break;
      }
      handle_envelope(r, c, std::move(env));
      if (r.conns.find(fd) == r.conns.end()) break;  // closed mid-frame
    }
    frame.envelopes.clear();  // lets go of the frame; keeps the capacity
    if (r.conns.find(fd) == r.conns.end()) return;
  }
}

void EdgeFrontend::handle_envelope(Shard& r, Conn& c, Envelope&& env) {
  Session* s = c.session;
  if (s == nullptr) {
    // Protocol requires EdgeHello first on every connection.
    m_malformed_->inc();
    return close_conn(r, c, false);
  }
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, EdgeAck>) {
          m_acks_->inc();
          if (msg.seq > s->acked) s->acked = msg.seq;
          while (!s->ring.empty() && s->ring.front().seq <= s->acked) {
            s->ring.pop_front();
          }
        } else if constexpr (std::is_same_v<T, ClientSubscribe>) {
          Subscription sub = std::move(msg.sub);
          const std::uint64_t client_id = sub.id;
          // A reused client sub id replaces the previous subscription:
          // withdraw the old one first so it cannot keep matching
          // (duplicate deliveries) or leak until session drop.
          if (const std::uint32_t old = s->subs.by_client(client_id);
              old != SubTable::kNone) {
            withdraw(*s, old);
          }
          const std::uint64_t gid = kEdgeIdBit | next_sub_id_.fetch_add(1);
          sub.id = gid;
          sub.subscriber = s->id;
          s->subs.add(client_id, gid, sub.ranges);
          m_subscribes_->inc();
          ingress_(Envelope::of(ClientSubscribe{std::move(sub)}));
        } else if constexpr (std::is_same_v<T, ClientUnsubscribe>) {
          const std::uint32_t slot = s->subs.by_client(msg.sub.id);
          if (slot != SubTable::kNone) withdraw(*s, slot);
        } else if constexpr (std::is_same_v<T, ClientPublish>) {
          msg.msg.id = kEdgeIdBit | next_msg_id_.fetch_add(1);
          m_publishes_->inc();
          ingress_(Envelope::of(ClientPublish{std::move(msg.msg)}));
        } else {
          m_malformed_->inc();
        }
      },
      env.payload);
}

// --------------------------------------------------------------------------
// Sessions: hello / resume / replay
// --------------------------------------------------------------------------

void EdgeFrontend::handle_hello(Shard& r, Conn& c, const EdgeHello& hello,
                                std::vector<Envelope>&& rest) {
  if (c.session != nullptr) {
    m_malformed_->inc();
    return close_conn(r, c, false);
  }
  // Resume requests route to the session's owning reactor (id % R); a
  // connection accepted elsewhere migrates — whole Conn state moves, its
  // FrameReader's buffered frames included. The target re-registers the
  // fd, continues with the pipelined envelopes of the hello's frame, then
  // reads on from the buffered frames (their bytes already left the
  // socket, so no readiness event would report them).
  if (hello.session != 0) {
    Shard& owner = shard_of(hello.session);
    if (owner.index != r.index) {
      const int fd = c.fd;
      r.loop.unwatch(fd);
      auto it = r.conns.find(fd);
      std::shared_ptr<Conn> conn = std::move(it->second);
      r.conns.erase(it);
      r.conns_gauge->set(static_cast<double>(r.conns.size()));
      owner.loop.post([this, &owner, conn = std::move(conn), hello,
                       rest = std::move(rest)]() mutable {
        const int fd = conn->fd;
        adopt_conn(owner, std::move(conn));
        auto it = owner.conns.find(fd);
        if (it == owner.conns.end()) return;
        attach_session(owner, *it->second, hello);
        for (Envelope& env : rest) {
          it = owner.conns.find(fd);
          if (it == owner.conns.end()) return;
          handle_envelope(owner, *it->second, std::move(env));
        }
        it = owner.conns.find(fd);
        if (it != owner.conns.end()) handle_readable(owner, *it->second);
      });
      return;
    }
  }
  attach_session(r, c, hello);
  const int fd = c.fd;
  for (Envelope& env : rest) {
    if (r.conns.find(fd) == r.conns.end()) return;
    handle_envelope(r, c, std::move(env));
  }
}

void EdgeFrontend::attach_session(Shard& r, Conn& c, const EdgeHello& hello) {
  Session* s = nullptr;
  bool resumed = false;
  if (hello.session != 0) {
    auto it = r.sessions.find(hello.session);
    if (it != r.sessions.end()) {
      s = it->second.get();
      resumed = true;
    }
  }
  if (s == nullptr) {
    auto fresh = std::make_unique<Session>();
    fresh->id = r.next_ordinal++ * static_cast<std::uint64_t>(
                                       shards_.size()) +
                static_cast<std::uint64_t>(r.index);
    s = fresh.get();
    r.sessions.emplace(s->id, std::move(fresh));
    session_count_.fetch_add(1);
    m_sessions_gauge_->set(static_cast<double>(session_count_.load()));
    m_sessions_created_->inc();
  } else {
    m_sessions_resumed_->inc();
    if (s->conn != nullptr) {
      // Latest connection wins; the stale one (half-dead NAT socket, or a
      // client double-connect) is dropped without detaching the session.
      Conn* old = s->conn;
      old->session = nullptr;
      close_conn(r, *old, false);
    }
    // The client's last seen sequence number is an implicit cumulative ack.
    if (hello.last_seq > s->acked) s->acked = hello.last_seq;
    while (!s->ring.empty() && s->ring.front().seq <= s->acked) {
      s->ring.pop_front();
    }
  }
  c.session = s;
  s->conn = &c;
  s->detached_since = 0.0;

  EdgeWelcome welcome;
  welcome.session = s->id;
  welcome.resumed = resumed;
  const std::uint64_t expect = hello.last_seq + 1;
  welcome.next_seq = s->ring.empty() ? s->next_seq : s->ring.front().seq;
  if (resumed && welcome.next_seq > expect) {
    // Entries past the client's horizon already fell off the bounded ring:
    // the resume has a gap, reported via next_seq and counted per message.
    m_replay_gaps_->inc(welcome.next_seq - expect);
  }
  const int fd = c.fd;
  enqueue_event(r, c, Envelope::of(welcome));
  // Replay everything still unacknowledged. enqueue_event may evict the
  // connection mid-replay (bounded write queue); the guard stops the loop
  // before touching the destroyed Conn — the session keeps its ring.
  for (const EdgeEvent& ev : s->ring) {
    auto it = r.conns.find(fd);
    if (it == r.conns.end()) return;
    m_replay_hits_->inc();
    enqueue_event(r, *it->second, Envelope::of(ev));
  }
}

EdgeFrontend::Outcome EdgeFrontend::deliver_on_shard(Shard& r, Delivery&& d) {
  auto it = r.sessions.find(d.subscriber);
  if (it == r.sessions.end()) {
    m_deliveries_orphaned_->inc();
    return Outcome::kOrphaned;
  }
  Session& s = *it->second;
  // The client sees its own subscription id. A delivery in flight across an
  // unsubscribe or a replaced client id no longer maps and keeps the
  // cluster's id (a known fault: ROADMAP, stale deliveries).
  if (const std::uint32_t slot = s.subs.by_gid(d.sub_id);
      slot != SubTable::kNone) {
    d.sub_id = s.subs.client_id(slot);
  }
  // The delivery moves into the event, the event is serialized where it
  // lies and then moves into the replay ring: the values and the payload
  // stay views of the matcher frame.
  Envelope env = Envelope::of(EdgeEvent{s.next_seq++, std::move(d)});
  EdgeEvent& ev = std::get<EdgeEvent>(env.payload);
  const bool written = s.conn != nullptr;
  if (written) enqueue_event(r, *s.conn, env);
  if (s.ring.size() >= config_.replay_entries) {
    s.ring.pop_front();
    m_replay_overflow_->inc();
  }
  s.ring.push_back(std::move(ev));
  return written ? Outcome::kWritten : Outcome::kHeld;
}

// --------------------------------------------------------------------------
// Write path: bounded queue, frame batching, interest-mask flushing
// --------------------------------------------------------------------------

void EdgeFrontend::enqueue_event(Shard& r, Conn& c, const Envelope& env) {
  count_frame(c.writer.append(env, config_.fanout_batch));
  m_queue_high_water_->record_max(static_cast<double>(c.writer.unsent()));
  if (!c.dirty) {
    c.dirty = true;
    r.dirty.push_back(c.fd);
  }
  // Slow-client policy: a connection that cannot absorb its fan-out share
  // is evicted rather than allowed to grow an unbounded queue. The bound
  // applies to post-flush residue only: a fast client whose queue merely
  // grew within one wake (a large delivery batch, a resume replaying a big
  // ring) gets its bytes pushed to the socket first, so acks can make
  // progress and an oversized replay drains incrementally instead of
  // evicting before a single byte is sent. Its session stays resumable;
  // undelivered events wait in the replay ring.
  if (c.writer.unsent() > config_.write_queue_bytes) {
    const int fd = c.fd;
    flush_conn(r, c);  // may close the conn itself on a socket error
    auto it = r.conns.find(fd);
    if (it == r.conns.end()) return;
    if (it->second->writer.unsent() > config_.write_queue_bytes) {
      close_conn(r, *it->second, true);
    }
  }
}

void EdgeFrontend::count_frame(int envelopes) {
  if (envelopes == 0) return;
  m_frames_out_->inc();
  m_fanout_batch_->record_units(static_cast<std::uint64_t>(envelopes));
}

void EdgeFrontend::flush_conn(Shard& r, Conn& c) {
  count_frame(c.writer.close_frame());
  net::FrameWriter::Sent sent;
  const net::FrameWriter::Flush result = c.writer.flush(c.fd, &sent);
  if (sent.bytes > 0) m_bytes_out_->inc(sent.bytes);
  if (result == net::FrameWriter::Flush::kError) {
    return close_conn(r, c, false);
  }
  r.loop.set_writable(c.fd, result == net::FrameWriter::Flush::kBlocked);
}

// --------------------------------------------------------------------------
// Teardown paths
// --------------------------------------------------------------------------

void EdgeFrontend::close_conn(Shard& r, Conn& c, bool evicted) {
  const int fd = c.fd;
  auto it = r.conns.find(fd);
  if (it == r.conns.end() || it->second.get() != &c) return;
  r.loop.unwatch(fd);
  if (c.session != nullptr) {
    c.session->conn = nullptr;
    c.session->detached_since = mono_seconds();
    c.session = nullptr;
  }
  (evicted ? m_evictions_ : m_disconnects_)->inc();
  r.conns.erase(it);  // closes the socket
  conn_count_.fetch_sub(1);
  m_conns_->set(static_cast<double>(conn_count_.load()));
  r.conns_gauge->set(static_cast<double>(r.conns.size()));
}

void EdgeFrontend::reap_sessions(Shard& r) {
  const double now = mono_seconds();
  for (auto it = r.sessions.begin(); it != r.sessions.end();) {
    Session& s = *it->second;
    if (s.conn != nullptr || s.detached_since == 0.0 ||
        now - s.detached_since < config_.session_timeout) {
      ++it;
      continue;
    }
    drop_session(r, s);
    it = r.sessions.erase(it);
    session_count_.fetch_sub(1);
    m_sessions_reaped_->inc();
  }
  m_sessions_gauge_->set(static_cast<double>(session_count_.load()));
}

void EdgeFrontend::withdraw(Session& s, std::uint32_t slot) {
  Subscription sub = s.subs.subscription(slot, s.id);
  s.subs.erase(slot);
  m_unsubscribes_->inc();
  ingress_(Envelope::of(ClientUnsubscribe{std::move(sub)}));
}

void EdgeFrontend::drop_session(Shard&, Session& s) {
  // Clean the cluster up behind the vanished client: every subscription
  // this session planted is withdrawn through the normal ingress path.
  s.subs.for_each([&](std::uint32_t slot) {
    ingress_(Envelope::of(ClientUnsubscribe{s.subs.subscription(slot, s.id)}));
  });
  s.subs.clear();
}

}  // namespace bluedove::edge
