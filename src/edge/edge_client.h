#pragma once
// EdgeClient: a blocking, single-connection client for the edge session
// protocol (edge_frontend.h). One socket, one background reader thread;
// used by the edge tests and as the building block for small `bluedove_cli
// edge-blast` runs. For six-figure connection counts use edge::Swarm,
// which multiplexes many sessions per thread.
//
// Lifecycle: connect() performs the EdgeHello/EdgeWelcome handshake for a
// fresh session; disconnect() hard-closes the socket (simulating a drop —
// the server keeps the session resumable); resume() reconnects with the
// stored session id and the highest delivery sequence seen, after which
// the server replays everything unacknowledged past that point. Delivery
// acks are sent automatically every `ack_every` events (1 acks each).

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "attr/value.h"
#include "common/thread_safety.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"

namespace bluedove::edge {

class EdgeClient {
 public:
  using EventHandler = std::function<void(const EdgeEvent&)>;

  explicit EdgeClient(net::TcpEndpoint edge, EventHandler on_event = nullptr,
                      int ack_every = 16);
  ~EdgeClient();

  EdgeClient(const EdgeClient&) = delete;
  EdgeClient& operator=(const EdgeClient&) = delete;

  /// Fresh session handshake. Returns false on connect/handshake failure.
  bool connect();
  /// Reconnects and resumes the existing session; replayed deliveries
  /// arrive through the normal handler. Returns false on failure.
  bool resume();
  /// Hard-closes the socket without any goodbye (models a dropped client).
  void disconnect();
  bool connected() const { return fd_.load() >= 0; }

  std::uint64_t session() const { return session_; }
  std::uint64_t last_seq() const { return last_seq_.load(); }
  /// From the most recent welcome: whether the server resumed the session,
  /// and the first sequence it promised — next_seq > last_seq + 1 on a
  /// resume means the replay ring had dropped part of the gap.
  bool welcome_resumed() const { return welcome_resumed_; }
  std::uint64_t welcome_next_seq() const { return welcome_next_seq_; }

  /// Client-chosen subscription id (unique within this session; the edge
  /// rewrites it to a cluster-global id). 0 on send failure.
  SubscriptionId subscribe(std::vector<Range> ranges);
  bool unsubscribe(SubscriptionId id);
  MessageId publish(std::vector<Value> values, std::string payload = "");
  /// Explicit cumulative ack (automatic acking still applies).
  bool ack(std::uint64_t seq);

  std::uint64_t deliveries() const { return deliveries_.load(); }
  /// Blocks until `n` total deliveries arrived or `timeout_sec` elapsed.
  bool wait_deliveries(std::uint64_t n, double timeout_sec);

 private:
  bool handshake(const EdgeHello& hello);
  bool send_env(const Envelope& env);
  void reader_loop();
  void stop_reader();

  net::TcpEndpoint edge_;
  EventHandler on_event_;
  int ack_every_;

  std::atomic<int> fd_{-1};
  std::thread reader_;
  bd::Mutex send_mu_;  ///< serializes socket writes, guards no fields

  // session_/welcome_* and next_sub_/next_msg_ are caller-thread state;
  // unacked_ moves between the handshake (before the reader thread exists)
  // and the reader loop, with the thread creation providing the hand-off —
  // see the dispatch-before-reader comment in handshake().
  std::uint64_t session_ = 0;
  std::atomic<std::uint64_t> last_seq_{0};
  bool welcome_resumed_ = false;
  std::uint64_t welcome_next_seq_ = 0;
  SubscriptionId next_sub_ = 1;
  MessageId next_msg_ = 1;
  int unacked_ = 0;

  std::atomic<std::uint64_t> deliveries_{0};
  bd::Mutex wait_mu_;   ///< empty critical section pairing with wait_cv_
  bd::CondVar wait_cv_;
};

}  // namespace bluedove::edge
