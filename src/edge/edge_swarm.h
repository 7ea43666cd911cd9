#pragma once
// edge::Swarm: a multiplexed client harness that holds thousands to
// hundreds of thousands of edge sessions with a handful of threads — the
// load generator behind bench/micro_edge and `bluedove_cli edge-blast`.
//
// Where EdgeClient spends a reader thread per connection, a Swarm dials
// sockets from the caller thread and parks them on a few driver threads,
// each running one net::Reactor (net/reactor.h). Drivers do all
// receive-side work: welcome accounting, delivery sequence-continuity
// checks (gap/duplicate counters — the zero-loss oracle for the resume
// experiments), end-to-end latency sampling from publisher timestamps
// embedded in payloads, and cumulative acks.
//
// Scale notes: connections optionally rotate source binds across
// 127.0.0.x (see net::dial) so total connections are not capped by the
// ~28k ephemeral ports of a single loopback tuple, and the fd spend is
// one per live connection — dropped sessions (server-side state awaiting
// resume) cost the swarm nothing.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "attr/value.h"
#include "common/affinity.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"

namespace bluedove::edge {

struct SwarmConfig {
  net::TcpEndpoint endpoint;
  int drivers = 2;
  /// Rotate client source binds across this many 127.0.0.x addresses
  /// (starting at .2). 0 connects without binding — fine below ~25k total
  /// connections to one endpoint on loopback.
  int source_addrs = 0;
  int ack_every = 32;  ///< cumulative ack cadence, in deliveries
};

class Swarm {
 public:
  /// Generates the subscription for session `idx`; empty = no subscription.
  using SubGen = std::vector<Range> (*)(int idx, void* arg);

  explicit Swarm(SwarmConfig config);
  ~Swarm();

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Opens `n` new sessions (connect + hello, optional subscription
  /// pipelined in the same first frame) and waits for their welcomes.
  /// Returns sessions established before `timeout_sec`.
  int open(int n, SubGen sub_for = nullptr, void* sub_arg = nullptr,
           double timeout_sec = 60.0);
  /// Hard-closes the `n` most recently connected live sessions (no
  /// goodbye; the server keeps them resumable). Returns sessions dropped.
  int drop(int n, double timeout_sec = 30.0);
  /// Reconnects up to `n` dropped sessions with resume hellos and waits
  /// for their welcomes; replayed deliveries flow through the normal
  /// continuity/latency accounting. Returns sessions resumed.
  int resume(int n, double timeout_sec = 60.0);

  /// Publishes one message from a live session (round-robin). The payload
  /// is `payload_bytes` long (min 8) and begins with the publisher's
  /// monotonic-ns timestamp, which receiving drivers turn into end-to-end
  /// delivery latency samples. Blocks briefly when the socket is full.
  bool publish(const std::vector<Value>& values, std::size_t payload_bytes);

  /// Blocks until total deliveries reach `target` or the timeout passes.
  bool wait_delivered(std::uint64_t target, double timeout_sec);
  /// Blocks until delivery counts stop changing for `quiet_sec`.
  void drain(double quiet_sec, double timeout_sec);

  std::uint64_t live() const { return live_.load(); }
  std::uint64_t delivered() const { return delivered_.load(); }
  /// Sequence-continuity violations observed (missed / duplicated
  /// deliveries plus resume gaps reported by welcomes). 0 = lossless.
  std::uint64_t gaps() const { return gaps_.load(); }
  std::uint64_t dups() const { return dups_.load(); }
  /// Sessions a resume attempt could not recover (server had reaped them).
  std::uint64_t sessions_lost() const { return sessions_lost_.load(); }
  const obs::LatencyHistogram& latency() const { return latency_; }

 private:
  struct Peer;
  struct Driver;

  void on_io(Driver& d, int fd, std::uint32_t events);
  BD_ANY_THREAD void handle_peer(Driver& d, Peer& p);
  void detach_peer(Driver& d, Peer& p);
  bool connect_peer(Peer& p, int idx, const Envelope* hello_frame_extra);

  SwarmConfig config_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<std::unique_ptr<Driver>> drivers_;

  std::atomic<std::uint64_t> welcomes_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> gaps_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> sessions_lost_{0};
  obs::LatencyHistogram latency_;
  std::size_t publish_rr_ = 0;  ///< caller-thread round-robin cursor
};

}  // namespace bluedove::edge
