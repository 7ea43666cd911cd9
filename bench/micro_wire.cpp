// micro_wire — loopback TCP wire-path benchmark.
//
// Measures the outbound wire path of net::TcpHost between two hosts on
// 127.0.0.1, sweeping the wire batch size (1 = one envelope per frame,
// 8 and 32 = up to that many per frame) plus the default WireConfig{} (up
// to 64 envelopes per frame) against two payload sizes. Frames close at
// the end of each loop pass in every setting.
//
//   throughput  blast N publications and time until the receiver has
//               counted all of them (benchutil::blast); per payload size,
//               benchutil::kRounds rotated rounds of one blast per setting
//               (benchutil::Rounds), read against the same round's batch1
//   latency     ping-pong round trips (publish -> MatchAck) through an
//               otherwise idle wire
//
// Emits BENCH_wire.json (obs JSON schema): per (setting, payload) the
// median msgs/sec with its quartiles, the median per-round speedup of
// batch=32 over batch=1 with its quartiles, the rounds' host steal seconds
// per payload, one RTT histogram per setting, and the host's
// hardware_concurrency. Exits nonzero when a blast misses a publication
// that the sender's drop counter does not account for, or when the
// receiver copied any payload, so a reduced-count run doubles as a smoke
// test of the wire path (tools/check_all.sh and CI).
//
// Flags: --publishes N (64 B blast size, default 150000; the 1 KiB blast
//        sends 4/15 of it), --rounds N (ping-pong round trips, default 400).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "loopback.h"

using namespace bluedove;

namespace {

using benchutil::CountingNode;
using benchutil::now_sec;

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

/// Ping-pong RTTs through an idle wire: one in-flight message at a time,
/// acked synchronously by the receiver. Records seconds into `hist`.
void run_latency(const Setting& setting, std::uint64_t round_trips,
                 obs::LatencyHistogram* hist) {
  net::TcpHost receiver(1, 0, std::make_unique<CountingNode>(/*echo=*/true));
  receiver.start();

  net::TcpHost sender(2, 0, std::make_unique<CountingNode>(), 42,
                      setting.wire);
  const auto* send = sender.node_as<CountingNode>();
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  // The ack comes back over a dialed connection to the sender's listener
  // (hosts read inbound sockets only, not the receive side of outgoing
  // connections).
  receiver.add_peer(2, {"127.0.0.1", sender.port()});
  sender.start();
  NodeContext* ctx = send->wait_ctx();

  const std::string payload(64, 'x');
  for (std::uint64_t i = 1; i <= round_trips; ++i) {
    const double t0 = now_sec();
    ctx->send(1, benchutil::make_publish(i, payload));
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
  std::uint64_t round_trips = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--publishes") == 0 && i + 1 < argc) {
      publishes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      round_trips = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  publishes = std::max<std::uint64_t>(publishes, 1);
  round_trips = std::max<std::uint64_t>(round_trips, 1);

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
  std::uint64_t total_payload_copies = 0;
  std::uint64_t total_unaccounted = 0;

  for (const std::size_t payload : payloads) {
    const std::string pay = "_pay" + std::to_string(payload);
    const std::uint64_t n =
        payload <= 64 ? publishes
                      : std::max<std::uint64_t>(publishes * 4 / 15, 1);
    std::vector<benchutil::Cell> cells;
    for (const Setting& setting : settings) {
      cells.push_back({setting.name, [&, setting] {
        const benchutil::BlastResult res =
            benchutil::blast(setting.wire, payload, n);
        total_unaccounted += res.unaccounted;
        total_payload_copies += res.payload_copies;
        snap.counters["wire.payload_copies_" + setting.name + pay] +=
            res.payload_copies;
        snap.counters["wire.payload_bytes_copied_" + setting.name + pay] +=
            res.payload_bytes_copied;
        return res.tput;
      }});
    }
    std::printf("\nthroughput, payload %zu B, %llu publications per blast "
                "(msgs/sec at the receiver):\n",
                payload, (unsigned long long)n);
    const benchutil::Rounds rounds(std::move(cells), "batch1");
    rounds.print("msg/s");
    for (const Setting& setting : settings) {
      benchutil::put(snap, "wire.tput_" + setting.name + pay,
                     rounds.cell(setting.name));
    }
    benchutil::put(snap, "wire.speedup" + pay, rounds.ratio("batch32"));
    snap.gauges["wire.steal_s" + pay] = rounds.steal_total();
  }

  std::printf("\nping-pong RTT through an idle wire (ms):\n");
  std::printf("%12s %10s %10s %10s\n", "setting", "p50", "p99", "mean");
  for (const Setting& setting : settings) {
    obs::LatencyHistogram hist;
    run_latency(setting, round_trips, &hist);
    const obs::HistogramSnapshot h = hist.snapshot();
    std::printf("%12s %10.3f %10.3f %10.3f\n", setting.name.c_str(),
                h.quantile(0.50) * 1e3, h.quantile(0.99) * 1e3,
                h.mean() * 1e3);
    snap.histograms["wire.rtt_" + setting.name] = h;
  }

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
