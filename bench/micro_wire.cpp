// micro_wire — loopback TCP wire-path benchmark.
//
// Measures the outbound wire path of net::TcpHost between two hosts on
// 127.0.0.1, sweeping the wire batch size (1 = one envelope per frame,
// 8 and 32 = up to that many per frame) plus the default WireConfig{} (up
// to 64 envelopes per frame) against two payload sizes. Frames close at
// the end of each loop pass in every setting.
//
//   throughput  blast N publications and time until the receiver has
//               counted all of them
//   latency     ping-pong round trips (publish -> MatchAck) through an
//               otherwise idle wire
//
// Emits BENCH_wire.json (obs JSON schema): one gauge per
// (setting, payload) throughput cell, speedup gauges batch=32 vs batch=1,
// one RTT histogram per setting, and the host's hardware_concurrency. Exits
// nonzero when a throughput cell misses a publication that the sender's
// drop counter does not account for, or when the receiver copied any
// payload, so a reduced-count run doubles as a smoke test of the wire
// path (tools/check_all.sh).
//
// Flags: --publishes N (64 B blast size, default 150000; the 1 KiB blast
//        sends 4/15 of it), --rounds N (ping-pong rounds, default 400).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.h"
#include "net/tcp_transport.h"

using namespace bluedove;

namespace {

/// Counts publications; optionally acks each one back to its sender. Also
/// exposes its context so the bench main thread can drive sends.
class BenchNode final : public Node {
 public:
  explicit BenchNode(bool echo) : echo_(echo) {}

  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }

  void on_receive(NodeId from, Envelope env) override {
    if (const auto* p = std::get_if<ClientPublish>(&env.payload)) {
      received_.fetch_add(1, std::memory_order_relaxed);
      if (echo_) {
        ctx_.load(std::memory_order_acquire)
            ->send(from, Envelope::of(MatchAck{p->msg.id}));
      }
    } else if (std::holds_alternative<MatchAck>(env.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }
  std::uint64_t acks() const { return acks_.load(std::memory_order_relaxed); }

 private:
  const bool echo_;
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> acks_{0};
};

NodeContext* wait_ctx(const BenchNode* node) {
  while (node->ctx() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return node->ctx();
}

Envelope make_publish(MessageId id, const std::string& payload) {
  Message msg;
  msg.id = id;
  msg.values = {1.0, 2.0, 3.0, 4.0};
  msg.payload = payload;
  return Envelope::of(ClientPublish{std::move(msg)});
}

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThroughputResult {
  double tput = 0.0;
  /// Publications neither counted at the receiver nor dropped (and
  /// counted) by the sender: lost without a trace.
  std::uint64_t unaccounted = 0;
  /// Receiver-side zero-copy accounting (wire.payload_copies /
  /// wire.payload_bytes_copied): 0 means every payload stayed a view into
  /// its frame buffer on the steady-state hot path.
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;
};

/// One swept sender configuration; `name` keys its BENCH_wire.json cells.
struct Setting {
  std::string name;
  net::WireConfig wire;
};

/// At most `batch` envelopes per frame.
Setting batched(int batch) {
  Setting s{"batch" + std::to_string(batch), {}};
  s.wire.batch = batch;
  return s;
}

/// Blasts `n` publications sender -> receiver and returns msgs/sec counted
/// at the receiver. The send queue is sized to hold the whole blast so the
/// measurement is of the wire, not of backpressure drops.
ThroughputResult run_throughput(const Setting& setting,
                                std::size_t payload_bytes, std::uint64_t n) {
  auto recv_node = std::make_unique<BenchNode>(/*echo=*/false);
  BenchNode* recv = recv_node.get();
  net::TcpHost receiver(1, 0, std::move(recv_node));
  receiver.start();

  net::WireConfig wire = setting.wire;
  wire.queue_capacity = static_cast<std::size_t>(n) + 64;
  auto send_node = std::make_unique<BenchNode>(/*echo=*/false);
  BenchNode* send = send_node.get();
  net::TcpHost sender(2, 0, std::move(send_node), 42, wire);
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(send);

  const std::string payload(payload_bytes, 'x');
  const double t0 = now_sec();
  for (std::uint64_t i = 1; i <= n; ++i) {
    ctx->send(1, make_publish(i, payload));
  }
  const double deadline = now_sec() + 60.0;
  while (recv->received() < n && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = recv->received();
  sender.stop();
  receiver.stop();
  ThroughputResult res;
  if (got < n) {
    const std::uint64_t dropped = sender.dropped_sends();
    std::fprintf(stderr,
                 "micro_wire: only %llu/%llu delivered, %llu dropped by the "
                 "sender (%s)\n",
                 (unsigned long long)got, (unsigned long long)n,
                 (unsigned long long)dropped, setting.name.c_str());
    if (n - got > dropped) res.unaccounted = n - got - dropped;
  }
  res.tput = static_cast<double>(got) / elapsed;
  const obs::MetricsSnapshot ws = receiver.wire_metrics().snapshot();
  if (const auto it = ws.counters.find("wire.payload_copies");
      it != ws.counters.end()) {
    res.payload_copies = it->second;
  }
  if (const auto it = ws.counters.find("wire.payload_bytes_copied");
      it != ws.counters.end()) {
    res.payload_bytes_copied = it->second;
  }
  return res;
}

/// Ping-pong RTTs through an idle wire: one in-flight message at a time,
/// acked synchronously by the receiver. Records seconds into `hist`.
void run_latency(const Setting& setting, std::uint64_t rounds,
                 obs::LatencyHistogram* hist) {
  auto recv_node = std::make_unique<BenchNode>(/*echo=*/true);
  net::TcpHost receiver(1, 0, std::move(recv_node));
  receiver.start();

  auto send_node = std::make_unique<BenchNode>(/*echo=*/false);
  BenchNode* send = send_node.get();
  net::TcpHost sender(2, 0, std::move(send_node), 42, setting.wire);
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  // The ack comes back over a dialed connection to the sender's listener
  // (hosts read inbound sockets only, not the receive side of outgoing
  // connections).
  receiver.add_peer(2, {"127.0.0.1", sender.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(send);

  const std::string payload(64, 'x');
  for (std::uint64_t i = 1; i <= rounds; ++i) {
    const double t0 = now_sec();
    ctx->send(1, make_publish(i, payload));
    const double deadline = t0 + 5.0;
    while (send->acks() < i && now_sec() < deadline) {
      std::this_thread::yield();
    }
    hist->record(now_sec() - t0);
  }
  sender.stop();
  receiver.stop();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t publishes = 150000;
  std::uint64_t rounds = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--publishes") == 0 && i + 1 < argc) {
      publishes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  publishes = std::max<std::uint64_t>(publishes, 1);
  rounds = std::max<std::uint64_t>(rounds, 1);

  benchutil::header("wire", "TCP wire path: batch size vs payload size");
  benchutil::note(
      "batchN coalesces up to N envelopes per frame (1: one per frame); "
      "default is WireConfig{}: up to 64 per frame; every frame closes at "
      "the end of its loop pass");
  const unsigned hw = std::thread::hardware_concurrency();
  benchutil::note("hardware_concurrency=" + std::to_string(hw));

  const Setting settings[] = {batched(1), batched(8), batched(32),
                              {"default", net::WireConfig{}}};
  const std::size_t payloads[] = {64, 1024};

  obs::MetricsSnapshot snap;
  snap.gauges["wire.hardware_concurrency"] = static_cast<double>(hw);
  double base_tput[2] = {0.0, 0.0};
  std::uint64_t total_payload_copies = 0;
  std::uint64_t total_unaccounted = 0;

  std::printf("\nthroughput (msgs/sec at the receiver):\n");
  std::printf("%12s %14s %14s %10s\n", "setting", "payload=64B",
              "payload=1KB", "speedup");
  for (const Setting& setting : settings) {
    double tput[2];
    for (int p = 0; p < 2; ++p) {
      const std::uint64_t n =
          payloads[p] <= 64 ? publishes
                            : std::max<std::uint64_t>(publishes * 4 / 15, 1);
      const ThroughputResult res = run_throughput(setting, payloads[p], n);
      tput[p] = res.tput;
      total_unaccounted += res.unaccounted;
      const std::string suffix =
          setting.name + "_pay" + std::to_string(payloads[p]);
      snap.gauges["wire.tput_" + suffix] = tput[p];
      snap.counters["wire.payload_copies_" + suffix] = res.payload_copies;
      snap.counters["wire.payload_bytes_copied_" + suffix] =
          res.payload_bytes_copied;
      total_payload_copies += res.payload_copies;
      if (setting.name == "batch1") base_tput[p] = tput[p];
    }
    const double speedup = base_tput[0] > 0.0 ? tput[0] / base_tput[0] : 0.0;
    std::printf("%12s %14.0f %14.0f %9.2fx\n", setting.name.c_str(), tput[0],
                tput[1], speedup);
  }
  for (int p = 0; p < 2; ++p) {
    const std::string pay = std::to_string(payloads[p]);
    const double best = snap.gauges["wire.tput_batch32_pay" + pay];
    snap.gauges["wire.speedup_pay" + pay] =
        base_tput[p] > 0.0 ? best / base_tput[p] : 0.0;
  }

  std::printf("\nping-pong RTT through an idle wire (ms):\n");
  std::printf("%12s %10s %10s %10s\n", "setting", "p50", "p99", "mean");
  for (const Setting& setting : settings) {
    obs::LatencyHistogram hist;
    run_latency(setting, rounds, &hist);
    const obs::HistogramSnapshot h = hist.snapshot();
    std::printf("%12s %10.3f %10.3f %10.3f\n", setting.name.c_str(),
                h.quantile(0.50) * 1e3, h.quantile(0.99) * 1e3,
                h.mean() * 1e3);
    snap.histograms["wire.rtt_" + setting.name] = h;
  }

  std::printf("\nspeedup batch=32 vs batch=1: %.2fx (64B), %.2fx (1KB)\n",
              snap.gauges["wire.speedup_pay64"],
              snap.gauges["wire.speedup_pay1024"]);
  std::printf("receiver wire.payload_copies across all throughput runs: %llu "
              "(zero-copy receive path%s)\n",
              (unsigned long long)total_payload_copies,
              total_payload_copies == 0 ? "" : " VIOLATED");
  benchutil::write_bench_json("wire", snap);
  if (total_payload_copies != 0 || total_unaccounted != 0) {
    std::fprintf(stderr,
                 "micro_wire: FAIL (%llu payload copies, %llu publications "
                 "lost unaccounted)\n",
                 (unsigned long long)total_payload_copies,
                 (unsigned long long)total_unaccounted);
    return 1;
  }
  return 0;
}
