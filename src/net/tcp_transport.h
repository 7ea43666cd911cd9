#pragma once
// TCP transport: the same Node logic over real sockets.
//
// A TcpHost runs ONE node (matcher or dispatcher) and gives it a
// NodeContext whose send() ships length-prefixed serialized envelopes over
// TCP to peer hosts — in another thread, another process, or another
// machine. This is the deployment substrate a production BlueDove would
// use; the simulator reproduces the paper's experiments, the thread cluster
// backs the embedded Service, and this backs multi-process clusters (see
// tools/bluedove_noded.cpp).
//
// Wire framing (net/wire.h), per frame:
//   u32  frame length (bytes that follow, little-endian)
//   u32  sender node id
//   ...  one or more serialized Envelopes, back to back
//
// Threading: one thread per host, the node thread of the host's
// net::NodeLoop (net/node_loop.h) — the same loop a ThreadCluster node
// runs on. Its net::Reactor (net/reactor.h) owns every socket of the host —
// the listener, inbound connections, outbound connections dialed without
// blocking, and learned return paths — plus the node's timers, inject()ed
// envelopes and offload completions. A complete inbound frame goes straight
// to Node::on_receive. send() serializes once into the peer connection's
// outbound buffer; each loop pass ends by writing what it queued, after
// the completions the node charged in that pass (NodeLoop::at_pass_end),
// and EPOLLOUT is armed only while a peer has unsent bytes. The only other
// threads are the node's offload workers (enable_offload).
//
// Outbound batching (WireConfig): at most `batch` envelopes share a
// frame, and each peer holds at most `queue_capacity` envelopes not yet
// written — beyond that the newest is dropped. A peer that stops reading
// therefore costs bounded memory and never blocks the node thread or
// stop(). While a peer holds more than half its bound, inject()ed
// envelopes wait in the host instead of reaching the node. By default
// (batch 64) the envelopes one loop pass queues for a peer share frames of
// up to 64, closed at the end of the pass; a connection whose unsent bytes
// pass 64 KiB, or which holds half its `queue_capacity` envelopes, is
// written mid-pass, which also closes its open frame, so a frame is at
// most 64 KiB plus one envelope. A payload parsed from a
// frame keeps that whole frame alive (net/reactor.h).
//
// Transport semantics match the NodeContext contract: sends are
// asynchronous and unreliable-by-contract (a broken or unreachable peer
// drops the message, a full send queue drops the newest envelope; failure
// detection happens at the protocol layer). Drops are counted in
// dropped_sends() and in the host's wire metrics registry.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.h"
#include "net/node_loop.h"
#include "net/reactor.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bluedove::net {

/// Best-effort bump of RLIMIT_NOFILE toward `want` (clamped to the hard
/// limit — raising that needs CAP_SYS_RESOURCE, which containers rarely
/// grant). Returns the soft limit in effect afterwards so callers can log
/// the outcome; never fails harder than leaving the limit unchanged.
std::size_t raise_fd_limit(std::size_t want);

/// Outbound wire-path tuning.
struct WireConfig {
  /// Maximum envelopes coalesced into one frame. With the default 64, the
  /// envelopes one loop pass queues for a peer share frames of up to 64
  /// (cut early only by the 64 KiB mid-pass write), and the last closes at
  /// the end of the pass. 1 gives every envelope its own frame, still
  /// written together with the pass's other frames.
  int batch = 64;
  /// Per-peer bound on envelopes not yet written to the socket. At half
  /// of it the connection is written mid-pass (continuation records are a
  /// few bytes, so a one-message fan-out can reach it far below the 64 KiB
  /// write); at the bound the newest envelope is dropped (and counted) —
  /// backpressure never blocks the node thread.
  std::size_t queue_capacity = 4096;
};

class TcpHost {
 public:
  /// Binds the listening socket immediately (so port 0 resolves to a real
  /// ephemeral port readable via port()); call start() to begin serving.
  TcpHost(NodeId self, std::uint16_t listen_port, std::unique_ptr<Node> node,
          std::uint64_t seed = 42, WireConfig wire = {});
  ~TcpHost();

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  NodeId id() const { return self_; }
  std::uint16_t port() const { return port_; }

  /// Registers/updates where a peer node can be reached. May be called
  /// before or after start().
  void add_peer(NodeId id, TcpEndpoint endpoint);

  /// Starts the node thread, which calls Node::start and then serves.
  void start();

  /// Stops serving and joins the node thread and the offload workers.
  /// Idempotent; never waits on a peer.
  void stop();
  bool running() const { return loop_.running(); }

  Node* node() { return loop_.node(); }
  template <typename T>
  T* node_as() {
    return static_cast<T*>(loop_.node());
  }

  std::uint64_t dropped_sends() const { return dropped_sends_.load(); }

  /// Injects an envelope into the hosted node's receive path as if it had
  /// arrived on the wire from `from` — the node thread serializes it with
  /// real socket traffic. Lets in-process front ends (the client edge
  /// layer) hand ingress to the node thread without a loopback round trip.
  /// Safe from any thread; dropped after stop() begins.
  void inject(NodeId from, Envelope&& env);

  /// Host-level wire instrumentation: bytes/frames/envelopes sent, frame
  /// batch-size histogram, per-peer queue depth gauges. Snapshot-safe from
  /// any thread; bluedove_noded merges this into its stats export.
  const obs::MetricsRegistry& wire_metrics() const { return wire_metrics_; }

  /// One-shot client helper: connect, send one envelope (sender id
  /// kInvalidNode), close. Returns false when the peer is unreachable.
  static bool send_once(const TcpEndpoint& endpoint, const Envelope& env);

  /// One-shot request/reply: connect as `self`, send `req`, wait up to
  /// `timeout_sec` for one reply frame on the same connection (the server
  /// replies over its learned return path) and parse it into `resp`.
  /// Returns false on connect failure, timeout or a malformed reply.
  static bool request_reply(const TcpEndpoint& endpoint, NodeId self,
                            const Envelope& req, Envelope* resp,
                            double timeout_sec = 5.0);

 private:
  struct Conn;

  // Everything below but the constructor, stop() and the thread-safe
  // entry points runs on the node thread.
  void on_io(int fd, std::uint32_t events);
  void accept_all();
  Conn* adopt(int fd, NodeId dialed, bool connecting);
  /// Settles an in-flight dial: true once connected; false while still
  /// connecting, or after closing a dial that failed.
  bool finish_connect(Conn& c);
  /// Hands every complete frame on `c` to the node; false once `c` is
  /// closed.
  bool read_frames(Conn& c);
  void close_conn(Conn& c);
  /// The node's send(), from any thread: queued on the node thread.
  void send(NodeId to, Envelope&& env);
  /// Queues `env` for `peer`; false when it is dropped.
  bool send_to(NodeId peer, const Envelope& env);
  /// The connection `peer` is reached by: its dialed connection (dialing
  /// one if it has an endpoint), else the connection it last spoke on.
  Conn* route(NodeId peer);
  void flush_dirty();
  /// Closes `c`'s open frame and writes its queued frames.
  void flush(Conn& c);
  /// Counts `c` in or out of congested_ (over half its queue bound).
  void set_congested(Conn& c, bool on);
  /// Hands held inject()ed envelopes to the node while no peer is
  /// congested.
  void admit();

  NodeId self_;
  WireConfig wire_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> dropped_sends_{0};

  bd::Mutex mu_;
  /// Dialable peers; add_peer may run on any thread.
  std::map<NodeId, TcpEndpoint> endpoints_ BD_GUARDED_BY(mu_);

  // Node-thread state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// peer -> its outbound connection; close_conn drops the entry, so a
  /// send costs this one lookup.
  std::map<NodeId, Conn*> dialed_;
  /// Learned return paths: sender id -> the connection it last spoke on.
  /// Lets the node reply to peers with no registered endpoint (e.g. the
  /// `bluedove_cli stats` scraper) over the connection they opened.
  std::map<NodeId, int> learned_;
  std::vector<int> dirty_;  ///< connections with output queued this pass
  /// The frame read_frames parses into: one envelope vector for every
  /// frame, cleared after its envelopes reach the node.
  wire::ParsedFrame frame_;
  std::uint64_t next_serial_ = 0;
  /// Backpressure for in-process ingress: inject()ed envelopes wait here
  /// while any connection is congested. Cross-thread send()s are not held;
  /// they drop at the queue bound instead.
  std::deque<std::pair<NodeId, Envelope>> held_;
  int congested_ = 0;  ///< connections over half their queue bound

  // Wire instrumentation (registered once in the constructor, cached).
  obs::MetricsRegistry wire_metrics_;
  obs::Counter* m_envelopes_ = nullptr;   ///< envelopes put on the wire
  obs::Counter* m_frames_ = nullptr;      ///< frames put on the wire
  obs::Counter* m_bytes_ = nullptr;       ///< bytes put on the wire
  obs::Counter* m_flushes_ = nullptr;     ///< socket writes that sent bytes
  obs::Counter* m_queue_drops_ = nullptr; ///< envelopes dropped: queue full
  obs::Counter* m_send_drops_ = nullptr;  ///< envelopes dropped: write failed
  obs::Counter* m_connects_ = nullptr;    ///< outbound dials that succeeded
  /// Zero-copy accounting: payload bytes the receive path had to copy out
  /// of a frame instead of viewing in place. Steady state should be 0 —
  /// the read path hands parse_frame the refcounted frame buffer, so every
  /// payload is a view shared across the fan-out (see attr/payload.h).
  obs::Counter* m_payload_copies_ = nullptr;
  obs::Counter* m_payload_copy_bytes_ = nullptr;
  obs::LatencyHistogram* m_frame_envs_ = nullptr;   ///< envelopes per frame
  obs::LatencyHistogram* m_frame_bytes_ = nullptr;  ///< bytes per frame

  /// The node, its context and its thread; last, as the thread uses all of
  /// the above. The offload pool's exec.* instruments go to wire_metrics_,
  /// so stats exports pick them up.
  NodeLoop loop_;
  Reactor& reactor_;  ///< loop_'s
};

}  // namespace bluedove::net
