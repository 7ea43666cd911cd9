#pragma once
// The benchmark's fixed deployment and its client side.
//
// One edge-enabled DispatcherNode and four MatcherNodes run in this
// process, each on its own net::TcpHost over loopback TCP. Three
// edge::EdgeClient sessions carry every subscription and publication in
// through the EdgeFrontend and receive every delivery back through it.
//
// Each node is wrapped in a TracedNode whose NodeContext is a TracedContext:
// both forward every call unchanged and, while the Tracer is armed, stamp
// the calls that cross a layer boundary (ledger.h). The matchers' wrappers
// also count applied StoreSubscription/RemoveSubscription envelopes, which
// is how set-up knows every copy is stored without sleeping.

#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <vector>

#include "edge/edge_client.h"
#include "edge/edge_frontend.h"
#include "ledger.h"
#include "net/tcp_transport.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "obs/metrics.h"
#include "workload.h"

namespace bluedove::e2e {

inline constexpr std::size_t kMatchers = 4;

/// Runs the calling thread ahead of the cluster's threads: SCHED_FIFO at the
/// lowest real-time priority, or nice -10 where the process may not use
/// real-time scheduling. Returns what it applied. The load generator and
/// the clients stand in for machines of their own, so neither the publish
/// schedule nor the receipt stamps should queue behind the cluster's threads
/// on the shared cores. A new thread inherits its creator's policy, so the
/// generator holds it only while no cluster thread is being created.
const char* favour_current_thread();
/// Returns the calling thread to SCHED_OTHER at nice 0.
void ordinary_thread();

struct LatencySample {
  std::uint32_t seq = 0;
  float ns = 0.0f;  ///< due time -> client receipt
};

/// Client-side verification. Every delivery is counted against its
/// message's expected set (count plus an order-free hash of the verified
/// subscriptions hit); a message completes when its count reaches the
/// expected size. Also samples latency and checks each session's edge
/// sequence numbers for gaps.
class Receiver {
 public:
  /// Messages a run may publish (sequence numbers 0 .. kMaxMessages-1;
  /// latency samples store them in 32 bits).
  static constexpr std::size_t kMaxMessages = std::size_t{1} << 22;

  Receiver(const Inputs& in, Tracer& tracer);
  ~Receiver();
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// EdgeClient handler for client `c` (runs on that client's reader).
  void on_event(std::size_t c, const EdgeEvent& ev);

  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  /// Whether to keep a latency sample per verified delivery. Toggled only
  /// between drained windows, so a message's deliveries are all in or out.
  void sample_latency(bool on) {
    sample_latency_.store(on, std::memory_order_relaxed);
  }
  /// Allocates and touches room for `n` latency samples, so no client
  /// reader stalls on a reallocation mid-run.
  void prefault_latency(std::size_t n);
  std::vector<LatencySample> take_latency();

  struct Check {
    std::uint64_t failed = 0;   ///< messages whose delivered set is wrong
    std::uint64_t missing = 0;  ///< ... with fewer deliveries than expected
    std::uint64_t extra = 0;    ///< ... with more
  };
  /// Compares messages [0, published) with the oracle; call after draining.
  Check verify(std::uint64_t published) const;

  std::uint64_t gaps() const { return gaps_.load(); }
  std::uint64_t unverified() const { return side_.load(); }
  std::uint64_t malformed() const { return malformed_.load(); }

  /// CPU seconds used so far by the client readers that have received an
  /// event.
  double client_cpu_s() const;

 private:
  struct PerClient {
    std::uint64_t last_edge_seq = 0;  ///< reader thread only
    clockid_t cpu_clock{};            ///< written once, before clock_known
    std::atomic<bool> clock_known{false};
    Log<LatencySample> latency;
  };

  const Inputs& in_;
  Tracer& tracer_;
  std::vector<std::uint32_t> verified_per_client_;
  std::uint32_t* count_ = nullptr;  ///< per seq; zero pages until touched
  std::uint64_t* hash_ = nullptr;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> gaps_{0};
  std::atomic<std::uint64_t> side_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<bool> sample_latency_{false};
  std::vector<std::unique_ptr<PerClient>> clients_;
};

/// Metric snapshots of every layer at one instant.
struct Snapshot {
  obs::MetricsSnapshot edge;
  obs::MetricsSnapshot wire;  ///< merged over the five hosts
  std::vector<obs::MetricsSnapshot> matchers;
  std::uint64_t dropped_sends = 0;
};

class Deployment {
 public:
  Deployment(const Inputs& in, Tracer& tracer, Receiver& receiver);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts the cluster, connects the sessions, subscribes every verified
  /// subscription plus the live half of the churn pool, and waits until the
  /// matchers have stored every copy. False on any failure or timeout.
  bool start(double timeout_s);

  /// Publishes pool message seq % pool on session seq % kSessions, stamped
  /// with (seq, due). Main thread only.
  void publish(std::uint64_t seq, std::int64_t due_ns);

  /// One churn replacement: unsubscribe the oldest live churn subscription,
  /// subscribe the next one. Main thread only.
  void churn_step();

  /// Unsubscribes the first `n` verified subscriptions and waits until the
  /// matchers have removed every copy.
  bool unsubscribe_verified(std::size_t n, double timeout_s);

  /// Asks every matcher for its stats, which refreshes its segment-load and
  /// cover gauges, so a following snapshot() sees current values.
  bool refresh_matcher_gauges();
  Snapshot snapshot() const;

  std::vector<std::uint64_t> sessions() const;
  void stop();

 private:
  std::size_t copies_of(const Subscription& sub) const;
  bool wait_applied(const std::atomic<std::uint64_t>& counter,
                    std::uint64_t want, double timeout_s) const;

  const Inputs& in_;
  Tracer& tracer_;
  Receiver& receiver_;

  std::atomic<std::uint64_t> stores_applied_{0};
  std::atomic<std::uint64_t> removes_applied_{0};
  std::uint64_t stores_sent_ = 0;
  std::uint64_t removes_sent_ = 0;

  std::unique_ptr<net::TcpHost> dispatcher_host_;
  DispatcherNode* dispatcher_ = nullptr;
  std::vector<std::unique_ptr<net::TcpHost>> matcher_hosts_;
  std::vector<MatcherNode*> matchers_;
  std::unique_ptr<edge::EdgeFrontend> frontend_;
  std::vector<std::unique_ptr<edge::EdgeClient>> clients_;
  /// Deliveries handed to the edge per session (dispatcher thread only);
  /// equals the EdgeEvent sequence number the session will assign.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_seq_;

  /// Client id of each churn subscription; 0 while it is not subscribed.
  std::vector<SubscriptionId> churn_ids_;
  std::uint64_t churn_head_ = 0;
};

}  // namespace bluedove::e2e
