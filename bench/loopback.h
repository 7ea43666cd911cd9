#pragma once
// Loopback TCP helpers shared by the micro benches that drive net::TcpHost
// directly (micro_wire, micro_parallel, overhead_table): a node the bench
// main thread sends through, and a timed two-host publication blast.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "net/tcp_transport.h"
#include "rounds.h"

namespace bluedove::benchutil {

/// A bench endpoint: exposes its context so the bench main thread can send
/// through it, counts the publications and acks it receives and, when
/// `echo`, acks each publication back to its sender.
class CountingNode final : public Node {
 public:
  explicit CountingNode(bool echo = false) : echo_(echo) {}

  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }

  void on_receive(NodeId from, Envelope env) override {
    if (const auto* p = std::get_if<ClientPublish>(&env.payload)) {
      publishes_.fetch_add(1, std::memory_order_relaxed);
      if (echo_) {
        ctx_.load(std::memory_order_acquire)
            ->send(from, Envelope::of(MatchAck{p->msg.id}));
      }
    } else if (std::holds_alternative<MatchAck>(env.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The node's context, once its host has started it.
  NodeContext* wait_ctx() const {
    NodeContext* ctx = nullptr;
    while ((ctx = ctx_.load(std::memory_order_acquire)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ctx;
  }
  std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  std::uint64_t acks() const { return acks_.load(std::memory_order_relaxed); }

 private:
  const bool echo_;
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> acks_{0};
};

inline Envelope make_publish(MessageId id, const std::string& payload) {
  Message msg;
  msg.id = id;
  msg.values = {1.0, 2.0, 3.0, 4.0};
  msg.payload = payload;
  return Envelope::of(ClientPublish{std::move(msg)});
}

struct BlastResult {
  double tput = 0.0;  ///< msgs/sec counted at the receiver
  /// Publications neither counted at the receiver nor dropped (and
  /// counted) by the sender: lost without a trace.
  std::uint64_t unaccounted = 0;
  /// The receiver's wire.payload_copies / wire.payload_bytes_copied: 0
  /// means every payload stayed a view into its frame buffer.
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;
};

/// Blasts `n` publications of `payload_bytes` from one TcpHost to another
/// over 127.0.0.1 and times from the first send until the receiver has
/// counted them all (or 60 s pass). The send queue is sized to hold the
/// whole blast, so the measurement is of the wire, not of backpressure
/// drops.
inline BlastResult blast(net::WireConfig wire, std::size_t payload_bytes,
                         std::uint64_t n) {
  net::TcpHost receiver(1, 0, std::make_unique<CountingNode>());
  const auto* recv = receiver.node_as<CountingNode>();
  receiver.start();

  wire.queue_capacity = static_cast<std::size_t>(n) + 64;
  net::TcpHost sender(2, 0, std::make_unique<CountingNode>(), 42, wire);
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  sender.start();
  NodeContext* ctx = sender.node_as<CountingNode>()->wait_ctx();

  const std::string payload(payload_bytes, 'x');
  const double t0 = now_sec();
  for (std::uint64_t i = 1; i <= n; ++i) {
    ctx->send(1, make_publish(i, payload));
  }
  const double deadline = now_sec() + 60.0;
  while (recv->publishes() < n && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = recv->publishes();
  sender.stop();
  receiver.stop();

  BlastResult res;
  res.tput = static_cast<double>(got) / elapsed;
  if (got < n) {
    const std::uint64_t dropped = sender.dropped_sends();
    std::fprintf(stderr,
                 "loopback blast: only %llu/%llu delivered, %llu dropped by "
                 "the sender\n",
                 (unsigned long long)got, (unsigned long long)n,
                 (unsigned long long)dropped);
    if (n - got > dropped) res.unaccounted = n - got - dropped;
  }
  obs::MetricsSnapshot ws = receiver.wire_metrics().snapshot();
  res.payload_copies = ws.counters["wire.payload_copies"];
  res.payload_bytes_copied = ws.counters["wire.payload_bytes_copied"];
  return res;
}

}  // namespace bluedove::benchutil
