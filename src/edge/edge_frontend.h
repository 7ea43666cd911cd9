#pragma once
// Client edge layer: an epoll reactor front end with reliable, resumable
// sessions (DESIGN.md §16).
//
// The paper's dispatchers exist to absorb client load: "millions of
// users", not a few dozen cluster peers. An EdgeFrontend multiplexes
// hundreds of thousands of persistent client sockets over a small pool of
// reactor threads, each running one net::Reactor (net/reactor.h) — the same
// connection core node-to-node TCP (net/tcp_transport.h) runs on:
//
//   reactor 0     also owns the non-blocking listener: accepts, sets the
//                 socket up (TCP_NODELAY, FD_CLOEXEC) and hands the
//                 connection to a reactor round-robin
//   reactor x N   per-connection state machines assemble frames from
//                 partial reads, queue outbound bytes in one bounded
//                 buffer per connection, and arm EPOLLOUT only while that
//                 buffer has unsent bytes. A connection whose buffer
//                 exceeds the bound is evicted (slow-client policy) — the
//                 reactor never blocks on any one socket.
//
// Sessions ride on top of connections and outlive them. A client's first
// envelope is an EdgeHello; the edge mints a session id (or resumes an
// existing one), then stamps every outbound delivery with a per-session
// sequence number and keeps a bounded replay ring of unacknowledged
// EdgeEvents. EdgeAck trims the ring; on reconnect-with-resume the ring is
// replayed past the client's last seen sequence number, so delivery is
// gap-free across drops as long as the ring has not overflowed (the
// MigratoryData recipe). Sessions that stay detached past the timeout are
// reaped, and their subscriptions unsubscribed from the cluster.
//
// Wire format on client connections is the cluster framing (net/wire.h):
// one recv() per readable wake into the reactor's receive buffer, each
// frame copied out into a refcounted buffer of its own and parsed into
// zero-copy payload views, and the delivery fan-out serializes each
// payload straight from the matcher frame's shared block (attr/payload.h)
// — one buffer serves every subscriber on every socket,
// wire.payload_copies stays 0.
//
// Integration: the frontend owns no dispatcher logic. Client envelopes
// (subscribe / unsubscribe / publish, with ids rewritten to edge-global
// ones) are handed to the `ingress` callback — bluedove_noded wires that
// to TcpHost::inject, which runs them through DispatcherNode on its node
// thread. Deliveries fan back via deliver(), called on the node thread for
// every Delivery envelope the matchers send to the dispatcher
// (DispatcherNode::on_delivery), and reach each reactor in batches. The
// reactor moves each delivery into its session's EdgeEvent, serializes
// that event in place and then moves it into the replay ring: no copies.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/affinity.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace bluedove::edge {

struct EdgeConfig {
  std::string host = "0.0.0.0";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (readable via port())
  int reactors = 2;        ///< reactor thread count (>= 1)
  /// Accept cap across all reactors; connections beyond it are closed
  /// immediately (counted as edge.accept_rejects).
  std::size_t max_connections = 1u << 20;
  /// Slow-client bound: a connection holding more than this many unsent
  /// outbound bytes is evicted (its session stays resumable).
  std::size_t write_queue_bytes = 1u << 20;
  /// Maximum envelopes coalesced into one outbound frame (PR-3 batching).
  int fanout_batch = 64;
  /// Per-session replay ring bound, in unacknowledged deliveries. When the
  /// ring is full the oldest entry is dropped (edge.replay_overflow) and a
  /// later resume past it reports a gap.
  std::size_t replay_entries = 128;
  double session_timeout = 30.0;  ///< detached-session lifetime, seconds
  double reap_interval = 1.0;     ///< detached-session scan cadence
};

class EdgeFrontend {
 public:
  /// Sink for client envelopes entering the cluster. Must be callable from
  /// any reactor thread and must not block (TcpHost::inject qualifies: it
  /// posts to the node thread).
  using IngressFn = std::function<void(Envelope&&)>;

  /// Binds the listening socket immediately; start() begins serving.
  /// `node` is the hosting dispatcher's id, used for recorder bindings and
  /// thread labels.
  EdgeFrontend(EdgeConfig config, NodeId node, IngressFn ingress);
  ~EdgeFrontend();

  EdgeFrontend(const EdgeFrontend&) = delete;
  EdgeFrontend& operator=(const EdgeFrontend&) = delete;

  void start();
  void stop();  ///< idempotent; joins every reactor

  std::uint16_t port() const { return port_; }

  /// Routes one matched delivery to its session's reactor (the delivery's
  /// `subscriber` field is the session id). Thread-safe and non-blocking;
  /// called from the dispatcher node thread per fanned-back Delivery. The
  /// delivery joins its shard's pending batch under a short lock; only the
  /// call that finds the batch empty reads the clock and posts a drain
  /// task, which hands the whole batch to the reactor in arrival order, so
  /// per-session sequence numbers follow call order. After stop()
  /// deliveries are dropped.
  BD_ANY_THREAD void deliver(const Delivery& d);

  /// Edge instrumentation (edge.* namespace). Snapshot-safe from any
  /// thread; bluedove_noded merges it into the dispatcher's stats export.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // --- introspection (tests) ----------------------------------------------
  std::uint64_t connections() const;
  std::uint64_t sessions() const;

 private:
  struct Conn;
  struct Session;
  struct Shard;

  // All of the below run on the owning shard's reactor thread.
  void on_io(Shard& r, int fd, std::uint32_t events);
  void accept_all(Shard& r);
  void adopt_conn(Shard& r, std::shared_ptr<Conn> conn);
  BD_ANY_THREAD void handle_readable(Shard& r, Conn& c);
  BD_ANY_THREAD void handle_envelope(Shard& r, Conn& c, Envelope&& env);
  BD_ANY_THREAD void handle_hello(Shard& r, Conn& c, const EdgeHello& hello,
                                  std::vector<Envelope>&& rest);
  void attach_session(Shard& r, Conn& c, const EdgeHello& hello);
  void enqueue_event(Shard& r, Conn& c, const Envelope& env);
  void count_frame(int envelopes);
  void flush_conn(Shard& r, Conn& c);
  void close_conn(Shard& r, Conn& c, bool evicted);
  void schedule_reap(Shard& r);
  void reap_sessions(Shard& r);
  void drop_session(Shard& r, Session& s);
  /// Withdraws the subscription in `slot` of `s` from the session and the
  /// cluster.
  void withdraw(Session& s, std::uint32_t slot);
  void drain_deliveries(Shard& r);
  /// What became of one delivery: written to the session's connection,
  /// held in the replay ring of a detached session, or dropped because
  /// the session or the subscription is gone.
  enum class Outcome { kWritten, kHeld, kOrphaned };
  Outcome deliver_on_shard(Shard& r, Delivery&& d);

  Shard& shard_of(std::uint64_t session) {
    return *shards_[session % shards_.size()];
  }

  EdgeConfig config_;
  NodeId node_;
  IngressFn ingress_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_ = 0;  ///< round-robin cursor (reactor 0 only)

  std::atomic<std::uint64_t> conn_count_{0};
  std::atomic<std::uint64_t> session_count_{0};
  std::atomic<std::uint64_t> next_sub_id_{1};
  std::atomic<std::uint64_t> next_msg_id_{1};

  obs::MetricsRegistry metrics_;
  obs::Counter* m_accepts_ = nullptr;
  obs::Counter* m_accept_rejects_ = nullptr;
  obs::Counter* m_disconnects_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_malformed_ = nullptr;
  obs::Counter* m_sessions_created_ = nullptr;
  obs::Counter* m_sessions_resumed_ = nullptr;
  obs::Counter* m_sessions_reaped_ = nullptr;
  obs::Counter* m_subscribes_ = nullptr;
  obs::Counter* m_unsubscribes_ = nullptr;
  obs::Counter* m_publishes_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_deliveries_orphaned_ = nullptr;
  obs::Counter* m_replay_hits_ = nullptr;
  obs::Counter* m_replay_gaps_ = nullptr;
  obs::Counter* m_replay_overflow_ = nullptr;
  obs::Counter* m_frames_out_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Gauge* m_conns_ = nullptr;
  obs::Gauge* m_sessions_gauge_ = nullptr;
  obs::Gauge* m_queue_high_water_ = nullptr;
  obs::LatencyHistogram* m_fanout_batch_ = nullptr;    ///< envelopes per frame
  /// Per delivery written, its hand-off batch's wait: the deliver() that
  /// opened the batch -> the end of the drain (an upper bound on its own)
  obs::LatencyHistogram* m_delivery_latency_ = nullptr;
};

}  // namespace bluedove::edge
