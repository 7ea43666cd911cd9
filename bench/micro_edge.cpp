// micro_edge — the million-connection edge-layer benchmark.
//
// Stands up a real single-process deployment (EdgeFrontend + DispatcherNode
// + two MatcherNodes over loopback TCP) and drives it with an edge::Swarm:
//
//   ramp       open sessions in waves until `--connections` cumulative
//              client connections have handshaken through one dispatcher's
//              edge (conn/s). Every wave except the last is then dropped —
//              connections close, sessions stay resident server-side — so
//              total sessions are NOT capped by the process fd budget.
//   sustain    benchutil::kRounds rounds (benchutil::Rounds), each
//              publishing `--publishes` messages through edge ingress, each
//              matched to exactly one live session (disjoint unit-width
//              subscriptions), and timing until the swarm has received them
//              all: sustained msgs/s as the median and quartiles of the
//              rounds, with their host steal, plus p50/p95/p99 end-to-end
//              delivery latency over every round's deliveries (publisher
//              send -> subscriber socket).
//   resume     hard-drop `--resume` live sessions, publish into the
//              detached sessions (events buffer in their replay rings),
//              resume them, and verify sequence-continuity: zero gaps, zero
//              duplicates, zero lost sessions — the acked-session zero-loss
//              guarantee.
//   verify     wire.payload_copies must be 0 on every host: the payload
//              bytes were never copied between the client frame and the
//              subscriber sockets.
//
// Scale notes: the fd budget bounds *concurrent* connections (this process
// holds both ends of every live client socket), so the ramp reports
// cumulative connections at a bounded live count — the limit and the wave
// size are printed honestly. Client source binds rotate across 127.0.0.x
// so neither the ~28k ephemeral-port tuple space nor client-side TIME_WAIT
// caps the cumulative count. Emits BENCH_edge.json.
//
// CI and tools/check_all.sh smoke: micro_edge --connections 5000
// --live 2500 --publishes 5000 --resume 250

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "edge/edge_frontend.h"
#include "edge/edge_swarm.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"

using namespace bluedove;

namespace {

using benchutil::now_sec;

/// Session `idx` owns the unit-width predicate [idx, idx+1): every publish
/// at idx+0.5 matches exactly one session, so delivered counts are an exact
/// oracle and latency is not smeared by fan-out size.
std::vector<Range> sub_for(int idx, void*) {
  const double lo = static_cast<double>(idx);
  return {Range{lo, lo + 1.0}};
}

std::uint64_t wire_copies(const net::TcpHost& host) {
  return host.wire_metrics().snapshot().counters["wire.payload_copies"];
}

std::uint64_t edge_deliveries(const edge::EdgeFrontend& fe) {
  return fe.metrics().snapshot().counters["edge.deliveries"];
}

bool wait_for(const std::function<bool()>& pred, double seconds) {
  const double deadline = now_sec() + seconds;
  while (now_sec() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

long arg_long(int argc, char** argv, const char* name, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const long total = arg_long(argc, argv, "--connections", 100000);
  long live = arg_long(argc, argv, "--live", 5000);
  const long publishes = arg_long(argc, argv, "--publishes", 20000);
  const long payload_bytes = arg_long(argc, argv, "--payload", 128);
  long resume_count = arg_long(argc, argv, "--resume", 500);
  const long resume_pubs_each = arg_long(argc, argv, "--resume-pubs", 8);
  const int reactors = static_cast<int>(arg_long(argc, argv, "--reactors", 2));
  const int drivers = static_cast<int>(arg_long(argc, argv, "--drivers", 2));
  const int sources = static_cast<int>(arg_long(argc, argv, "--sources", 8));

  std::setvbuf(stdout, nullptr, _IONBF, 0);  // progress survives a pipe
  benchutil::header("micro_edge", "epoll edge layer: connection ramp, "
                    "sustained fan-out, resume zero-loss");

  // Satellite: best-effort fd-limit raise, outcome logged. Both ends of
  // every live client socket live in this process, so the usable live-wave
  // size is roughly (soft_limit - slack) / 2.
  const std::size_t fd_limit = net::raise_fd_limit(1u << 20);
  std::printf("fd limit: soft limit now %zu (asked for %u)\n", fd_limit,
              1u << 20);
  const long max_live = static_cast<long>((fd_limit - 512) / 2);
  if (live > max_live) {
    std::printf("note: --live %ld capped to %ld by the fd budget\n", live,
                max_live);
    live = max_live;
  }
  if (resume_count > live) resume_count = live / 2;

  // --- single-process deployment -----------------------------------------
  constexpr NodeId kDispatcher = 1;
  const std::vector<NodeId> matcher_ids{100, 101};
  const std::vector<Range> domains{Range{0.0, static_cast<double>(total) + 1}};

  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 5.0;
  auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
  dnode->set_bootstrap(bootstrap_table(matcher_ids, domains));
  net::TcpHost dispatcher_host(kDispatcher, 0, std::move(dnode));
  auto* dispatcher = dispatcher_host.node_as<DispatcherNode>();

  edge::EdgeConfig ecfg;
  ecfg.host = "127.0.0.1";
  ecfg.reactors = reactors;
  ecfg.session_timeout = 3600.0;  // nothing reaped mid-bench
  edge::EdgeFrontend fe(ecfg, kDispatcher, [&](Envelope&& env) {
    dispatcher_host.inject(kInvalidNode, std::move(env));
  });
  dispatcher->on_delivery = [&](const Delivery& d) { fe.deliver(d); };
  dispatcher->add_stats_registry(&fe.metrics());

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.load_report_interval = 1.0;
  mcfg.gossip.round_interval = 1.0;
  mcfg.dispatchers = {kDispatcher};
  mcfg.metrics_sink = kDispatcher;
  mcfg.delivery_sink = kDispatcher;
  std::vector<std::unique_ptr<net::TcpHost>> matcher_hosts;
  for (NodeId id : matcher_ids) {
    auto node = std::make_unique<MatcherNode>(id, mcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids, domains));
    matcher_hosts.push_back(
        std::make_unique<net::TcpHost>(id, 0, std::move(node)));
  }
  std::map<NodeId, net::TcpEndpoint> directory;
  directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
  for (std::size_t i = 0; i < matcher_ids.size(); ++i) {
    directory[matcher_ids[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
  }
  for (auto& host : matcher_hosts) {
    for (const auto& [id, ep] : directory) {
      if (id != host->id()) host->add_peer(id, ep);
    }
  }
  for (const auto& [id, ep] : directory) {
    if (id != kDispatcher) dispatcher_host.add_peer(id, ep);
  }
  dispatcher_host.start();
  for (auto& host : matcher_hosts) host->start();
  fe.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  edge::SwarmConfig scfg;
  scfg.endpoint = {"127.0.0.1", fe.port()};
  scfg.drivers = drivers;
  scfg.source_addrs = sources;
  scfg.ack_every = 32;
  edge::Swarm swarm(scfg);

  // --- phase 1: connection ramp in waves ----------------------------------
  std::printf("\nramp: %ld cumulative connections, waves of %ld live "
              "(fd-budget bound), %d source addrs\n",
              total, live, sources);
  const double ramp_t0 = now_sec();
  long opened = 0;
  while (opened < total) {
    const long wave = std::min(live, total - opened);
    const int got = swarm.open(static_cast<int>(wave), sub_for, nullptr,
                               120.0);
    opened += got;
    if (got < wave) {
      std::printf("ramp: wave stalled at %d/%ld (opened %ld) — aborting "
                  "ramp honestly\n", got, wave, opened);
      break;
    }
    if (opened < total) swarm.drop(got, 60.0);
    std::printf("  %ld/%ld sessions (live %" PRIu64 ")\n", opened, total,
                swarm.live());
  }
  const double ramp_dt = now_sec() - ramp_t0;
  const double conn_per_sec = static_cast<double>(opened) / ramp_dt;
  // Every handshake ever made must be resident as a session server-side.
  wait_for([&] { return fe.sessions() >= static_cast<std::uint64_t>(opened); },
           30.0);
  std::printf("ramp: %ld connections in %.2f s = %.0f conn/s; "
              "%" PRIu64 " sessions resident, %" PRIu64 " live\n",
              opened, ramp_dt, conn_per_sec, fe.sessions(), swarm.live());

  // --- phase 2: sustained publish/deliver through live sessions -----------
  const long live_now = static_cast<long>(swarm.live());
  if (live_now == 0) {
    // Nothing to publish into: the round-robin below would divide by zero.
    std::printf("\nsustain: the live wave is empty (%ld sessions opened, "
                "none live)\n\nmicro_edge: FAIL\n", opened);
    return 1;
  }
  const long base = opened - live_now;  // first idx of the live wave
  std::printf("\nsustain: %d rounds of %ld publishes, payload %ld B, 1:1 "
              "fan-out into the %ld live sessions\n",
              benchutil::kRounds, publishes, payload_bytes, live_now);
  // Closed loop with a bounded outstanding window: throughput stays at
  // pipeline capacity but latency measures the pipeline, not an unbounded
  // publisher backlog.
  const long window = arg_long(argc, argv, "--window", 256);
  bool sustained_ok = true;
  auto sustain = [&] {
    if (!sustained_ok) return 0.0;  // a failed round already failed the run
    const std::uint64_t pre_sustain = swarm.delivered();
    const double pub_t0 = now_sec();
    bool stalled = false;
    for (long i = 0; i < publishes && !stalled; ++i) {
      const double wait_start = now_sec();
      while (static_cast<long>(swarm.delivered() - pre_sustain) + window <=
             i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (now_sec() - wait_start > 30.0) {  // no delivery progress in 30 s
          std::printf("sustain: STALLED at publish %ld (delivered %" PRIu64
                      ")\n", i, swarm.delivered() - pre_sustain);
          stalled = true;
          break;
        }
      }
      const double v = static_cast<double>(base + (i % live_now)) + 0.5;
      swarm.publish({v}, static_cast<std::size_t>(payload_bytes));
    }
    if (stalled) {
      auto dump = [](const char* who, const obs::MetricsSnapshot& s) {
        for (const auto& [name, v] : s.counters) {
          std::fprintf(stderr, "  %s %s %llu\n", who, name.c_str(),
                       (unsigned long long)v);
        }
      };
      dump("edge", fe.metrics().snapshot());
      dump("dispatcher", dispatcher->metrics().snapshot());
      for (auto& host : matcher_hosts) {
        dump("matcher", host->node_as<MatcherNode>()->metrics().snapshot());
      }
    }
    sustained_ok = swarm.wait_delivered(
        pre_sustain + static_cast<std::uint64_t>(publishes), 300.0);
    return static_cast<double>(publishes) / (now_sec() - pub_t0);
  };
  const benchutil::Rounds rounds({{"sustain", sustain}}, "sustain");
  // Snapshot latency before the resume phase: replayed deliveries would
  // otherwise smear detach time into the percentiles.
  const obs::HistogramSnapshot lat = swarm.latency().snapshot();
  rounds.print("msg/s");
  if (!sustained_ok) std::printf("sustain: INCOMPLETE\n");
  std::printf("latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  (n=%" PRIu64
              ")\n", lat.quantile(0.5) * 1e3, lat.quantile(0.95) * 1e3,
              lat.quantile(0.99) * 1e3, lat.count);

  // --- phase 3: disconnect / buffered publish / resume --------------------
  std::printf("\nresume: dropping %ld live sessions, %ld buffered publishes "
              "each, then resuming\n", resume_count, resume_pubs_each);
  const std::uint64_t pre_resume = swarm.delivered();
  const int dropped = swarm.drop(static_cast<int>(resume_count), 60.0);
  // drop() culls the most recent live peers: idx in [opened-dropped, opened).
  const long dbase = opened - dropped;
  const std::uint64_t fe_pre = edge_deliveries(fe);
  const long buffered = dropped * resume_pubs_each;
  for (long i = 0; i < buffered; ++i) {
    const double v = static_cast<double>(dbase + (i % dropped)) + 0.5;
    swarm.publish({v}, static_cast<std::size_t>(payload_bytes));
  }
  // The events land in detached sessions' replay rings (edge.deliveries
  // counts them even with no connection attached).
  wait_for([&] {
    return edge_deliveries(fe) >= fe_pre + static_cast<std::uint64_t>(buffered);
  }, 120.0);
  const int resumed = swarm.resume(dropped, 120.0);
  const bool resume_ok = swarm.wait_delivered(
      pre_resume + static_cast<std::uint64_t>(buffered), 120.0);
  swarm.drain(0.3, 30.0);
  const bool zero_loss = resume_ok && swarm.gaps() == 0 && swarm.dups() == 0 &&
                         swarm.sessions_lost() == 0 && resumed == dropped;
  std::printf("resume: %d dropped, %d resumed, %ld buffered events replayed; "
              "gaps=%" PRIu64 " dups=%" PRIu64 " lost=%" PRIu64 "  [%s]\n",
              dropped, resumed, buffered, swarm.gaps(), swarm.dups(),
              swarm.sessions_lost(), zero_loss ? "ZERO LOSS" : "LOSS");

  // --- phase 4: zero-copy verification ------------------------------------
  std::uint64_t copies = wire_copies(dispatcher_host);
  for (auto& host : matcher_hosts) copies += wire_copies(*host);
  std::printf("\nwire.payload_copies across all hosts: %" PRIu64 "  [%s]\n",
              copies, copies == 0 ? "ZERO COPY" : "COPIED");

  // --- emit ----------------------------------------------------------------
  obs::MetricsSnapshot snap;
  snap.gauges["edge.connections_total"] = static_cast<double>(opened);
  snap.gauges["edge.conn_per_sec"] = conn_per_sec;
  snap.gauges["edge.live_connections"] = static_cast<double>(live_now);
  snap.gauges["edge.sessions_resident"] = static_cast<double>(fe.sessions());
  benchutil::put(snap, "edge.msgs_per_sec", rounds.cell("sustain"));
  snap.gauges["edge.sustain_steal_s"] = rounds.steal_total();
  snap.gauges["edge.latency_p50_ms"] = lat.quantile(0.5) * 1e3;
  snap.gauges["edge.latency_p95_ms"] = lat.quantile(0.95) * 1e3;
  snap.gauges["edge.latency_p99_ms"] = lat.quantile(0.99) * 1e3;
  snap.gauges["edge.resume_dropped"] = static_cast<double>(dropped);
  snap.gauges["edge.resume_resumed"] = static_cast<double>(resumed);
  snap.gauges["edge.resume_replayed"] = static_cast<double>(buffered);
  snap.gauges["edge.resume_gaps"] = static_cast<double>(swarm.gaps());
  snap.gauges["edge.resume_dups"] = static_cast<double>(swarm.dups());
  snap.gauges["edge.resume_sessions_lost"] =
      static_cast<double>(swarm.sessions_lost());
  snap.gauges["edge.payload_copies"] = static_cast<double>(copies);
  snap.gauges["edge.hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  snap.histograms["edge.delivery_latency"] = lat;
  snap.merge(fe.metrics().snapshot());
  benchutil::write_bench_json("edge", snap);

  fe.stop();
  for (auto& host : matcher_hosts) host->stop();
  dispatcher_host.stop();

  const bool pass = opened >= total && sustained_ok && zero_loss && copies == 0;
  std::printf("\nmicro_edge: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
