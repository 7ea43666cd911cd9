// Reproduces the in-text overhead analysis of §IV-C: the control-plane
// traffic needed to maintain the overlay and the dispatchers' load view.
//
// Paper accounting, per matcher per second:
//   gossip            ~2.9 KB (table exchange with random peers)
//   dispatcher pulls   60*N bytes per dispatcher every 10 s  => ~6*D B/s
//   load pushes        64 bytes to each dispatcher when load changes >10%
//   total             ~2.9K + 20*D bytes/sec
//
// This bench measures the real serialized control-plane bytes flowing
// through the simulator and prints the same breakdown.
//
// Second section (DESIGN.md §13): the flight-recorder overhead budget.
// The recorder is always compiled in, so "off" means the global enable
// flag is false while every instrumentation call site still executes —
// exactly the production recorder-off configuration. Three rows on the
// micro_index-style full-match loop (recorder off / on / on with traced
// spans) and two on the micro_wire-style loopback TCP blast (off / on,
// the wire path's own frame instants and flush spans doing the emitting).
// Each comparison runs kRounds rounds; a round runs every configuration
// once, in an order rotated per round, and yields one overhead per
// recorder-on row against that round's recorder-off run. The table prints
// the median and quartiles of those per-round overheads, since one run
// per configuration swings wider than the bar. Emits BENCH_obs.json; the
// acceptance bar is a median <= 5% overhead for the recorder-on rows.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attr/schema.h"
#include "bench_util.h"
#include "index/subscription_index.h"
#include "net/tcp_transport.h"
#include "obs/recorder.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class RecMode {
  kOff,         // Recorder::set_enabled(false); call sites still run
  kOn,          // enabled, untraced events (the always-on default)
  kOnTraced,    // enabled, every span/instant carries a trace id
};

/// Full-match probe throughput (messages matched per second) over a
/// FlatBucket index, with the same per-batch span + per-message instant
/// the matcher hot path emits. `mode` selects the recorder configuration.
double match_throughput(SubscriptionIndex& index,
                        const std::vector<Message>& msgs, RecMode mode,
                        std::size_t target_events) {
  static const std::uint16_t batch_name =
      obs::Recorder::intern("bench.match_batch");
  static const std::uint16_t done_name = obs::Recorder::intern("bench.done");
  obs::Recorder::set_enabled(mode != RecMode::kOff);
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  constexpr std::size_t kBatch = 32;
  auto run = [&](std::size_t events) {
    std::size_t done = 0;
    std::size_t cursor = 0;
    std::uint64_t trace = 0;
    while (done < events) {
      const std::size_t nb = std::min(kBatch, msgs.size() - cursor);
      const obs::TraceId tid = mode == RecMode::kOnTraced ? ++trace : 0;
      {
        obs::ScopedSpan span(batch_name, tid, nb);
        hits.clear();
        offsets.clear();
        index.match_batch({msgs.data() + cursor, nb}, hits, offsets, wc,
                          scratch);
      }
      for (std::size_t i = 0; i < nb; ++i) {
        obs::Recorder::instant(done_name, tid, done + i);
      }
      done += nb;
      cursor += nb;
      if (cursor >= msgs.size()) cursor = 0;
    }
    return done;
  };
  run(target_events / 10 + 1);  // warmup
  const double t0 = now_sec();
  const std::size_t events = run(target_events);
  const double tput = static_cast<double>(events) / (now_sec() - t0);
  obs::Recorder::set_enabled(true);
  return tput;
}

/// Counts received publications; the loopback wire throughput receiver.
class CountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId, Envelope env) override {
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      received_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<std::uint64_t> received_{0};
};

/// Loopback TCP blast (micro_wire shape: batch 8, 64 B payloads, queue
/// sized to the whole run). The wire threads emit their own recorder
/// events (frame instants, flush spans), so toggling the global enable
/// flag is the entire difference between rows.
double wire_throughput(bool recorder_on, std::uint64_t n) {
  obs::Recorder::set_enabled(recorder_on);
  auto recv_node = std::make_unique<CountingNode>();
  CountingNode* recv = recv_node.get();
  net::TcpHost receiver(1, 0, std::move(recv_node));
  receiver.start();

  net::WireConfig wire;
  wire.batch = 8;
  wire.queue_capacity = static_cast<std::size_t>(n) + 64;
  auto send_node = std::make_unique<CountingNode>();
  CountingNode* send = send_node.get();
  net::TcpHost sender(2, 0, std::move(send_node), 42, wire);
  sender.add_peer(1, {"127.0.0.1", receiver.port()});
  sender.start();
  while (send->ctx() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string payload(64, 'x');
  const double t0 = now_sec();
  for (std::uint64_t i = 1; i <= n; ++i) {
    Message msg;
    msg.id = i;
    msg.values = {1.0, 2.0, 3.0, 4.0};
    msg.payload = payload;
    send->ctx()->send(1, Envelope::of(ClientPublish{std::move(msg)}));
  }
  const double deadline = now_sec() + 60.0;
  while (recv->received() < n && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = recv->received();
  sender.stop();
  receiver.stop();
  obs::Recorder::set_enabled(true);
  if (got < n) {
    std::fprintf(stderr, "overhead_table: only %llu/%llu delivered\n",
                 (unsigned long long)got, (unsigned long long)n);
  }
  return static_cast<double>(got) / elapsed;
}

double overhead_pct(double base, double with) {
  return base > 0.0 ? (base - with) / base * 100.0 : 0.0;
}

/// Rounds per recorder comparison (see the header comment).
constexpr int kRounds = 7;

double median(const std::vector<double>& v) {
  return benchutil::quantile(v, 0.5);
}

void print_header() {
  std::printf("%-28s %14s %10s %10s %10s\n", "configuration",
              "median msg/s", "overhead", "q1", "q3");
}

void print_base(const char* name, const std::vector<double>& tput) {
  std::printf("%-28s %14.0f %10s\n", name, median(tput), "-");
}

/// Prints one recorder-on row and records its median throughput as
/// obs.<path>_tput_recorder_<mode> and its overhead spread as
/// obs.<path>_overhead_pct_<mode> with _q1/_q3.
void report_row(const char* name, const std::string& path,
                const std::string& mode, const std::vector<double>& base,
                const std::vector<double>& with, obs::MetricsSnapshot& snap) {
  std::vector<double> pct;
  for (std::size_t r = 0; r < base.size(); ++r) {
    pct.push_back(overhead_pct(base[r], with[r]));
  }
  const double q1 = benchutil::quantile(pct, 0.25);
  const double q3 = benchutil::quantile(pct, 0.75);
  std::printf("%-28s %14.0f %9.2f%% %9.2f%% %9.2f%%\n", name, median(with),
              median(pct), q1, q3);
  const std::string pct_key = "obs." + path + "_overhead_pct_" + mode;
  snap.gauges["obs." + path + "_tput_recorder_" + mode] = median(with);
  snap.gauges[pct_key] = median(pct);
  snap.gauges[pct_key + "_q1"] = q1;
  snap.gauges[pct_key + "_q3"] = q3;
}

void recorder_overhead_section() {
  std::printf("\n");
  benchutil::header("Flight recorder (DESIGN.md sec 13)",
                    "overhead of the always-on recorder");
  obs::MetricsSnapshot snap;
  snap.gauges["obs.rounds"] = kRounds;

  // --- full-match probe loop (micro_index configuration) -------------------
  const AttributeSchema schema = AttributeSchema::uniform(4);
  SubscriptionWorkload swl;
  swl.schema = schema;
  SubscriptionGenerator sgen(swl, 99);
  auto index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  for (std::size_t i = 0; i < 8000; ++i) {
    index->insert(sgen.next());
  }
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  for (int i = 0; i < 4096; ++i) msgs.push_back(mgen.next());

  constexpr std::size_t kTarget = 400000;
  constexpr RecMode kModes[] = {RecMode::kOff, RecMode::kOn,
                                RecMode::kOnTraced};
  std::vector<double> m_tput[3];
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 3; ++i) {
      const int m = (r + i) % 3;
      m_tput[m].push_back(match_throughput(*index, msgs, kModes[m], kTarget));
    }
  }

  std::printf("\nfull-match probe throughput (FlatBucket, 8000 subs, "
              "batch 32), %d rounds:\n", kRounds);
  print_header();
  print_base("recorder off", m_tput[0]);
  report_row("recorder on", "match", "on", m_tput[0], m_tput[1], snap);
  report_row("recorder on + traced spans", "match", "on_spans", m_tput[0],
             m_tput[2], snap);
  snap.gauges["obs.match_tput_recorder_off"] = median(m_tput[0]);

  // --- loopback wire path (micro_wire configuration) -----------------------
  // ~0.5 s per configuration at the ~1.4 M msgs/s this blast reaches on a
  // 4-vCPU host: long enough that a round's overhead resolves the 5 % bar.
  constexpr std::uint64_t kWireMsgs = 800000;
  wire_throughput(false, kWireMsgs / 10);  // warm the stack / page cache
  std::vector<double> w_tput[2];
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 2; ++i) {
      const int m = (r + i) % 2;
      w_tput[m].push_back(wire_throughput(m == 1, kWireMsgs));
    }
  }

  std::printf("\nloopback TCP blast (WireConfig batch 8, 64 B payloads), "
              "%d rounds:\n", kRounds);
  print_header();
  print_base("recorder off", w_tput[0]);
  report_row("recorder on", "wire", "on", w_tput[0], w_tput[1], snap);
  snap.gauges["obs.wire_tput_recorder_off"] = median(w_tput[0]);
  std::printf("\nbudget: median <= 5%% for the recorder-on rows (negative\n"
              "overheads are run-to-run noise; the recorder never speeds\n"
              "anything up).\n");
  benchutil::write_bench_json("obs", snap);
}

}  // namespace

int main() {
  benchutil::header("Overhead (sec IV-C)",
                    "control-plane bytes per matcher per second");

  std::printf("\n%6s %6s %16s %16s %16s\n", "N", "D", "sent B/s", "recv B/s",
              "total B/s");
  for (std::size_t n : {5, 10, 20}) {
    for (std::size_t d : {2, 4}) {
      ExperimentConfig cfg = benchutil::default_config();
      cfg.system = SystemKind::kBlueDove;
      cfg.matchers = n;
      cfg.dispatchers = d;
      cfg.subscriptions = 4000;
      Deployment dep(cfg);
      dep.start();
      // Steady moderate load so load reports fire realistically.
      dep.set_rate(2000.0);
      dep.run_for(5.0);

      // Measure over a 60 s window.
      std::uint64_t sent0 = 0, recv0 = 0;
      for (NodeId id : dep.matcher_ids()) {
        sent0 += dep.sim().traffic(id).bytes_sent;
        recv0 += dep.sim().traffic(id).bytes_received;
      }
      const double window = 60.0;
      dep.run_for(window);
      std::uint64_t sent1 = 0, recv1 = 0;
      for (NodeId id : dep.matcher_ids()) {
        sent1 += dep.sim().traffic(id).bytes_sent;
        recv1 += dep.sim().traffic(id).bytes_received;
      }
      const double per_matcher = static_cast<double>(n) * window;
      const double sent = static_cast<double>(sent1 - sent0) / per_matcher;
      const double recv = static_cast<double>(recv1 - recv0) / per_matcher;
      std::printf("%6zu %6zu %16.0f %16.0f %16.0f\n", n, d, sent, recv,
                  sent + recv);
    }
  }
  std::printf(
      "\npaper: ~2.9 KB/s gossip + 6D B/s pulls + 20D B/s load pushes per\n"
      "matcher — a few KB/s, negligible on gigabit links. Expected shape:\n"
      "roughly flat in N (gossip fanout grows log N but the table grows\n"
      "linearly), slightly increasing with D.\n");

  recorder_overhead_section();
  return 0;
}
