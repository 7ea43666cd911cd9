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
// Each comparison is one benchutil::Rounds: benchutil::kRounds rounds, each
// running every configuration once in an order rotated per round, and one
// overhead per recorder-on cell against that round's recorder-off run. The
// bench prints the median and quartiles of those per-round overheads and
// the rounds' host steal, since one run per configuration swings wider
// than the bar. Emits BENCH_obs.json; the acceptance bar is a median <= 5%
// overhead for the recorder-on rows.

#include <cstdio>
#include <string>
#include <vector>

#include "attr/schema.h"
#include "bench_util.h"
#include "index/subscription_index.h"
#include "loopback.h"
#include "obs/recorder.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

using benchutil::now_sec;

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

/// Prints and records one comparison: obs.<path>_steal_s is the rounds'
/// host steal, obs.<path>_tput_recorder_<mode> each cell's median
/// throughput and obs.<path>_overhead_pct_<mode> (with _q1/_q3) each
/// recorder-on cell's per-round overhead, 100 * (1 - ratio to the same
/// round's recorder-off run).
void report(const benchutil::Rounds& rounds, const std::string& path,
            const std::vector<std::string>& on_modes,
            obs::MetricsSnapshot& snap) {
  rounds.print("msg/s");
  snap.gauges["obs." + path + "_steal_s"] = rounds.steal_total();
  snap.gauges["obs." + path + "_tput_recorder_off"] = rounds.cell("off").median;
  for (const std::string& mode : on_modes) {
    const benchutil::Quartiles r = rounds.ratio(mode);
    const benchutil::Quartiles pct{(1.0 - r.median) * 100.0,
                                   (1.0 - r.q3) * 100.0, (1.0 - r.q1) * 100.0};
    std::printf("recorder %-9s overhead %6.2f%% [q1 %6.2f%%, q3 %6.2f%%]\n",
                mode.c_str(), pct.median, pct.q1, pct.q3);
    snap.gauges["obs." + path + "_tput_recorder_" + mode] =
        rounds.cell(mode).median;
    benchutil::put(snap, "obs." + path + "_overhead_pct_" + mode, pct);
  }
}

void recorder_overhead_section() {
  std::printf("\n");
  benchutil::header("Flight recorder (DESIGN.md sec 13)",
                    "overhead of the always-on recorder");
  obs::MetricsSnapshot snap;
  snap.gauges["obs.rounds"] = benchutil::kRounds;

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
  auto match_cell = [&](RecMode mode) {
    return [&, mode] { return match_throughput(*index, msgs, mode, kTarget); };
  };
  const benchutil::Rounds match_rounds(
      {{"off", match_cell(RecMode::kOff)},
       {"on", match_cell(RecMode::kOn)},
       {"on_spans", match_cell(RecMode::kOnTraced)}},
      "off");
  std::printf("\nfull-match probe throughput (FlatBucket, 8000 subs, "
              "batch 32):\n");
  report(match_rounds, "match", {"on", "on_spans"}, snap);

  // --- loopback wire path (micro_wire configuration) -----------------------
  // The micro_wire blast at batch 8 and 64 B payloads. The wire threads
  // emit their own recorder events (frame instants, flush spans), so
  // toggling the global enable flag is the entire difference between cells.
  // ~0.5 s per blast at the ~1.4 M msgs/s it reaches on a 4-vCPU host.
  constexpr std::uint64_t kWireMsgs = 800000;
  net::WireConfig wire;
  wire.batch = 8;
  auto wire_cell = [&](bool recorder_on) {
    return [&, recorder_on] {
      obs::Recorder::set_enabled(recorder_on);
      const double tput = benchutil::blast(wire, 64, kWireMsgs).tput;
      obs::Recorder::set_enabled(true);
      return tput;
    };
  };
  benchutil::blast(wire, 64, kWireMsgs / 10);  // warm the stack / page cache
  const benchutil::Rounds wire_rounds(
      {{"off", wire_cell(false)}, {"on", wire_cell(true)}}, "off");
  std::printf("\nloopback TCP blast (WireConfig batch 8, 64 B payloads):\n");
  report(wire_rounds, "wire", {"on"}, snap);
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
