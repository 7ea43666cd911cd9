// bluedove_cli — run BlueDove experiments from the command line.
//
// Subcommands:
//   saturate   find the saturation message rate of a configuration
//   run        steady-state run at a fixed rate; prints rt windows, the
//              CPU-load summary and the per-stage latency rows
//              (sink.response_seconds, matcher.queue_seconds,
//              matcher.match_seconds)
//   crash      fault-injection run (kill matchers periodically)
//   scale      elasticity run (auto-scaler on, rising rate)
//   stats      scrape a live bluedove_noded over TCP and print its metrics
//   trace-dump pull a live noded's flight recorder as Perfetto JSON
//   trace-selftest  traced match traffic through an in-process ThreadCluster
//              matcher, then dump this process's recorder as Perfetto JSON
//              (--out=PATH, --subs=N, --count=N, --cores=N; CI validates
//              the dump with tools/trace_check.py)
//   blast      TCP traffic generator: publish a burst of messages at a live
//              dispatcher as fast as the wire path allows
//   edge-blast drive a live edge listener (bluedove_noded --edge-port) with
//              a swarm of persistent client connections: open sessions with
//              random subscriptions, publish through them, report conn/s,
//              msg/s, delivery latency percentiles and sequence continuity
//
// An option the subcommand does not read, a typo or another subcommand's,
// is printed and exits 2 before the subcommand does any work; so is a
// numeric option whose value is not wholly a number (--id=abc, --rate=5k).
//
// Common options (defaults mirror the paper's §IV-B setup, scaled):
//   --system=bluedove|p2p|full-rep     --matchers=N        --dispatchers=N
//   --subs=N          --dims=K         --sigma=S           --width=W
//   --policy=adaptive|response-time|sub-count|random
//   --index=linear-scan|flat-bucket   (default linear-scan; any other name
//                     is an error)
//   --match-batch=N   --msg-skew=J     --seed=N
//   --reliable        --cores=N
//   --cover           enable subscription covering (DESIGN.md §15): matchers
//                     aggregate near-duplicate predicates behind covering
//                     representatives and expand at delivery
//   --cover-budget=F  covering false-positive volume budget (default 0.05)
//   --duplicate-skew=R  fraction of subscriptions drawn from a reused Zipf
//                     template pool (default 0 = all fresh)
//   --duplicate-jitter=J  per-bound jitter on reused templates (domain units)
//   --simd=auto|scalar|off|avx2|avx512|neon   match-probe kernel (auto:
//                                      widest ISA the CPU supports; scalar
//                                      and vector paths produce identical
//                                      results — DESIGN.md §12)
//
// run output: --stats-json=PATH additionally writes the merged cluster
// metrics snapshot as JSON. --digest hashes the sim's delivered event
// stream and prints determinism_digest=0x... at the end
// (tools/determinism_check.sh compares two same-seed runs).
//
// stats options:
//   --peer=host:port   the noded to scrape (required)
//   --prom             print Prometheus text exposition instead of a table
//   --json             print the raw JSON snapshot
//   --timeout=SEC      reply wait (default 5)
//   --watch=SEC        re-scrape every SEC seconds and print per-interval
//                      delta rates (counter deltas divided by the interval)
//   --watch-count=N    stop after N intervals (default 0 = run until ^C)
//
// trace-dump options:
//   --peer=host:port   the noded to dump (required)
//   --out=PATH         write the Perfetto JSON there (default: stdout)
//   --timeout=SEC      reply wait (default 10)
//
// blast options:
//   --peer=host:port   the dispatcher noded to publish at (required)
//   --target-id=N      the dispatcher's node id (default 10)
//   --count=N          messages to publish (default 100000)
//   --subs=N           ClientSubscribes to file before publishing (default 0;
//                      without subscriptions nothing matches or delivers)
//   --payload=BYTES    message payload size (default 64)
//   --wire-batch=N     envelopes per frame (default 32; 1 = one per frame)
//   --wire-queue=N     per-peer bound on unwritten envelopes (default 65536)
//
// edge-blast options:
//   --peer=host:port   the edge listener to connect to (required)
//   --conns=N          persistent client sessions to open (default 1000)
//   --count=N          messages to publish through them (default 10000)
//   --payload=BYTES    message payload size (default 64; min 8 — the
//                      payload carries the publish timestamp the latency
//                      percentiles are computed from)
//   --dims=K --domain=L --sub-width=W   per-session random subscriptions
//   --drivers=N        receive-side epoll driver threads (default 2)
//   --sub-settle=SEC   wait after subscribing before the publish storm
//   --timeout=SEC      per-phase wait bound (default 60)
//
// Examples:
//   bluedove_cli saturate --system=p2p --matchers=10
//   bluedove_cli run --rate=20000 --duration=60
//   bluedove_cli crash --rate=10000 --kill-every=60 --kills=4
//   bluedove_cli scale --step=500 --step-secs=30 --steps=12
//   bluedove_cli stats --peer=127.0.0.1:8000

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/rng.h"
#include "edge/edge_swarm.h"
#include "harness/experiment.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "node/matcher_node.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/segment_load.h"
#include "obs/trace_export.h"
#include "runtime/thread_cluster.h"
#include "simd/range_kernel.h"

using namespace bluedove;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bluedove_cli "
               "<saturate|run|crash|scale|stats|trace-dump|trace-selftest|"
               "blast|edge-blast> [--options]\n"
               "see the header of tools/bluedove_cli.cpp for the full list\n");
  return 2;
}

/// Prints each option not read so far, and each numeric option whose value
/// is not a number, and returns true when there was one. Every subcommand
/// calls this after reading its options and before any work, so a
/// mistyped option or value exits 2 instead of running with defaults.
bool rejected_options(const CliArgs& args) {
  const std::vector<std::string> unknown = args.unconsumed();
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "bluedove_cli: unknown option --%s\n", key.c_str());
  }
  const std::vector<std::string> malformed = args.malformed();
  for (const std::string& key : malformed) {
    std::fprintf(stderr, "bluedove_cli: --%s=%s is not a number\n",
                 key.c_str(), args.get(key).c_str());
  }
  return !unknown.empty() || !malformed.empty();
}

ExperimentConfig config_from(const CliArgs& args) {
  ExperimentConfig cfg;
  const std::string system = args.get("system", "bluedove");
  if (system == "p2p") {
    cfg.system = SystemKind::kP2P;
  } else if (system == "full-rep") {
    cfg.system = SystemKind::kFullReplication;
  } else {
    cfg.system = SystemKind::kBlueDove;
  }
  cfg.matchers = static_cast<std::size_t>(args.get_int("matchers", 20));
  cfg.dispatchers = static_cast<std::size_t>(args.get_int("dispatchers", 2));
  cfg.subscriptions = static_cast<std::size_t>(args.get_int("subs", 8000));
  cfg.dims = static_cast<std::size_t>(args.get_int("dims", 4));
  cfg.sub_sigma = args.get_double("sigma", 250.0);
  cfg.predicate_width = args.get_double("width", 250.0);
  cfg.msg_skewed_dims =
      static_cast<std::size_t>(args.get_int("msg-skew", 0));
  cfg.cores = static_cast<int>(args.get_int("cores", 4));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  cfg.reliable_delivery = args.get_bool("reliable", false);
  cfg.searchable_dims =
      static_cast<std::size_t>(args.get_int("searchable-dims", 0));

  const std::string policy = args.get("policy", "adaptive");
  if (policy == "random") {
    cfg.policy = PolicyKind::kRandom;
  } else if (policy == "sub-count") {
    cfg.policy = PolicyKind::kSubscriptionCount;
  } else if (policy == "response-time") {
    cfg.policy = PolicyKind::kResponseTime;
  } else {
    cfg.policy = PolicyKind::kAdaptive;
  }

  // main() has already rejected any other name.
  cfg.index_kind = *index_kind_from_string(args.get("index", "linear-scan"));
  cfg.match_batch = static_cast<int>(args.get_int("match-batch", 1));
  cfg.cover = args.get_bool("cover", false);
  cfg.cover_budget = args.get_double("cover-budget", 0.05);
  cfg.duplicate_skew = args.get_double("duplicate-skew", 0.0);
  cfg.duplicate_jitter = args.get_double("duplicate-jitter", 0.0);
  return cfg;
}

/// The histogram table `stats` and `run` print: one row per histogram,
/// count then p50/p95/p99/mean in milliseconds.
void print_histogram_header() {
  std::printf("histograms (ms):%37s %10s %10s %10s %10s\n", "count", "p50",
              "p95", "p99", "mean");
}

void print_histogram_row(const std::string& name,
                         const obs::HistogramSnapshot& h) {
  std::printf("  %-40s %10llu %10.3f %10.3f %10.3f %10.3f\n", name.c_str(),
              (unsigned long long)h.count, h.quantile(0.50) * 1e3,
              h.quantile(0.95) * 1e3, h.quantile(0.99) * 1e3, h.mean() * 1e3);
}

void print_window(Deployment& dep, Timestamp t0) {
  const OnlineStats w = dep.responses().window();
  std::size_t alive = 0;
  for (NodeId id : dep.matcher_ids()) {
    if (dep.sim().alive(id)) ++alive;
  }
  std::printf("t=%7.1fs rt=%9.2fms p99(run)=%9.2fms backlog=%8zu "
              "completed=%10llu alive=%zu\n",
              dep.now() - t0, w.mean() * 1e3,
              dep.responses().quantile(0.99) * 1e3, dep.backlog(),
              (unsigned long long)dep.completed(), alive);
}

int cmd_saturate(const CliArgs& args) {
  ExperimentConfig cfg = config_from(args);
  Deployment::ProbeOptions probe;
  probe.start_rate = args.get_double("start-rate", 2000.0);
  probe.growth = args.get_double("growth", 1.7);
  probe.warmup = args.get_double("warmup", 2.0);
  probe.measure = args.get_double("measure", 6.0);
  probe.refine_steps = static_cast<int>(args.get_int("refine", 3));
  if (rejected_options(args)) return 2;
  Deployment dep(cfg);
  dep.start();
  const double sat = dep.find_saturation_rate(probe);
  std::printf("%s matchers=%zu subs=%zu policy=%s -> saturation %.0f msg/s\n",
              to_string(cfg.system), cfg.matchers, cfg.subscriptions,
              to_string(cfg.policy), sat);
  return 0;
}

int cmd_run(const CliArgs& args) {
  ExperimentConfig cfg = config_from(args);
  cfg.sim.digest = args.get_bool("digest", false);
  const double rate = args.get_double("rate", 10000.0);
  const double duration = args.get_double("duration", 60.0);
  const std::string stats_path = args.get("stats-json", "");
  if (rejected_options(args)) return 2;
  Deployment dep(cfg);
  dep.start();
  dep.set_rate(rate);
  const Timestamp t0 = dep.now();
  const int ticks = static_cast<int>(duration / 5.0);
  for (int i = 0; i < ticks; ++i) {
    dep.run_for(5.0);
    print_window(dep, t0);
  }
  dep.sample_loads();
  dep.run_for(10.0);
  dep.sample_loads();
  const OnlineStats loads = dep.loads().distribution(dep.matcher_ids());
  std::printf("\nCPU load: mean=%.1f%% normalized stdev=%.2f\n",
              100.0 * loads.mean(), loads.normalized_stdev());
  const obs::MetricsSnapshot snap = dep.cluster_snapshot();
  std::printf("\n");
  print_histogram_header();
  for (const char* name : {"sink.response_seconds", "matcher.queue_seconds",
                           "matcher.match_seconds"}) {
    const auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) print_histogram_row(name, it->second);
  }
  if (!stats_path.empty()) {
    if (obs::write_json_file(stats_path, snap)) {
      std::printf("cluster metrics snapshot written to %s\n",
                  stats_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", stats_path.c_str());
    }
  }
  if (cfg.sim.digest) {
    std::printf("determinism_digest=0x%016llx\n",
                (unsigned long long)dep.digest());
  }
  return 0;
}

/// Parses "host:port" into `ep`; prints a usage error under `cmd` otherwise.
bool parse_peer(const CliArgs& args, const char* cmd, net::TcpEndpoint& ep) {
  const std::string peer = args.get("peer", "");
  const auto colon = peer.rfind(':');
  if (peer.empty() || colon == std::string::npos) {
    std::fprintf(stderr, "%s: --peer=host:port is required\n", cmd);
    return false;
  }
  const std::optional<std::uint64_t> port =
      parse_uint(std::string_view(peer).substr(colon + 1), 1, 65535);
  if (!port) {
    std::fprintf(stderr, "%s: --peer=%s: port must be 1..65535\n", cmd,
                 peer.c_str());
    return false;
  }
  ep.host = peer.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(*port);
  return true;
}

/// One StatsRequest scrape, parsed into `snap`. Returns false (with a
/// message on stderr) on transport failure or a malformed reply.
bool scrape_stats(const net::TcpEndpoint& ep, NodeId self, double timeout,
                  obs::MetricsSnapshot& snap) {
  Envelope resp;
  if (!net::TcpHost::request_reply(ep, self, Envelope::of(StatsRequest{}),
                                   &resp, timeout)) {
    std::fprintf(stderr, "stats: no response from %s:%u\n", ep.host.c_str(),
                 ep.port);
    return false;
  }
  const auto* sr = std::get_if<StatsResponse>(&resp.payload);
  if (sr == nullptr) {
    std::fprintf(stderr, "stats: unexpected reply %s\n", payload_name(resp));
    return false;
  }
  if (!obs::from_json(sr->json, snap)) {
    std::fprintf(stderr, "stats: malformed snapshot JSON:\n%s\n",
                 sr->json.c_str());
    return false;
  }
  return true;
}

/// --watch mode: scrape every `interval` seconds and print the per-interval
/// rate of every counter that moved (delta / interval).
int stats_watch(const net::TcpEndpoint& ep, NodeId self, double timeout,
                double interval, int watch_count) {
  obs::MetricsSnapshot prev;
  bool have_prev = false;
  for (int iter = 0; watch_count <= 0 || iter <= watch_count; ++iter) {
    obs::MetricsSnapshot snap;
    if (!scrape_stats(ep, self, timeout, snap)) return 1;
    if (have_prev) {
      std::printf("-- interval %.1fs --\n", interval);
      for (const auto& [name, v] : snap.counters) {
        const auto it = prev.counters.find(name);
        const std::uint64_t before = it != prev.counters.end() ? it->second
                                                               : 0;
        if (v <= before) continue;  // idle (or reset): nothing to rate
        std::printf("  %-40s %12.1f /s  (total %llu)\n", name.c_str(),
                    static_cast<double>(v - before) / interval,
                    (unsigned long long)v);
      }
      std::fflush(stdout);
    }
    prev = std::move(snap);
    have_prev = true;
    if (watch_count > 0 && iter == watch_count) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

int cmd_stats(const CliArgs& args) {
  net::TcpEndpoint ep;
  if (!parse_peer(args, "stats", ep)) return 2;
  const auto self = static_cast<NodeId>(args.get_int("id", 999999));
  const double timeout = args.get_double("timeout", 5.0);
  const double watch = args.get_double("watch", 0.0);
  const int watch_count = static_cast<int>(args.get_int("watch-count", 0));
  const bool json = args.get_bool("json", false);
  const bool prom = args.get_bool("prom", false);
  if (rejected_options(args)) return 2;
  if (watch > 0.0) return stats_watch(ep, self, timeout, watch, watch_count);
  Envelope resp;
  if (!net::TcpHost::request_reply(ep, self, Envelope::of(StatsRequest{}),
                                   &resp, timeout)) {
    std::fprintf(stderr, "stats: no response from %s:%u\n", ep.host.c_str(),
                 ep.port);
    return 1;
  }
  const auto* sr = std::get_if<StatsResponse>(&resp.payload);
  if (sr == nullptr) {
    std::fprintf(stderr, "stats: unexpected reply %s\n", payload_name(resp));
    return 1;
  }
  if (json) {
    std::printf("%s\n", sr->json.c_str());
    return 0;
  }
  obs::MetricsSnapshot snap;
  if (!obs::from_json(sr->json, snap)) {
    std::fprintf(stderr, "stats: malformed snapshot JSON:\n%s\n",
                 sr->json.c_str());
    return 1;
  }
  if (prom) {
    std::fputs(obs::to_prometheus(snap).c_str(), stdout);
    return 0;
  }
  for (const obs::SegmentLoadTable& table :
       obs::SegmentLoadTable::from_snapshot(snap)) {
    std::fputs(table.format().c_str(), stdout);
  }
  if (snap.counters.count("edge.accepts") != 0) {
    const auto counter = [&](const char* name) {
      const auto it = snap.counters.find(name);
      return it != snap.counters.end() ? (unsigned long long)it->second : 0ull;
    };
    const auto gauge = [&](const char* name) {
      const auto it = snap.gauges.find(name);
      return it != snap.gauges.end() ? it->second : 0.0;
    };
    std::printf(
        "edge: %.0f connections over %.0f sessions (%llu resumed, "
        "%llu reaped), %llu deliveries (%llu replayed, %llu gapped), "
        "%llu evictions\n",
        gauge("edge.connections"), gauge("edge.sessions"),
        counter("edge.sessions_resumed"), counter("edge.sessions_reaped"),
        counter("edge.deliveries"), counter("edge.replay_hits"),
        counter("edge.replay_gaps"), counter("edge.evictions"));
  }
  if (snap.gauges.count("cover.compression_ratio") != 0) {
    const auto counter = [&](const char* name) {
      const auto it = snap.counters.find(name);
      return it != snap.counters.end() ? static_cast<double>(it->second) : 0.0;
    };
    const double expansions = counter("cover.expansions");
    std::printf("cover: %.0f raw subscriptions behind %.0f indexed entries "
                "(%.2fx compression), expansion fan-out %.2f members/hit\n",
                snap.gauges.at("cover.raw_subscriptions"),
                snap.gauges.at("cover.representatives"),
                snap.gauges.at("cover.compression_ratio"),
                expansions > 0.0
                    ? counter("cover.expanded_members") / expansions
                    : 0.0);
  }
  if (!snap.counters.empty()) std::printf("counters:\n");
  for (const auto& [name, v] : snap.counters) {
    std::printf("  %-40s %llu\n", name.c_str(), (unsigned long long)v);
  }
  if (!snap.gauges.empty()) std::printf("gauges:\n");
  for (const auto& [name, v] : snap.gauges) {
    std::printf("  %-40s %.6g\n", name.c_str(), v);
  }
  if (!snap.histograms.empty()) print_histogram_header();
  for (const auto& [name, h] : snap.histograms) print_histogram_row(name, h);
  return 0;
}

int cmd_trace_dump(const CliArgs& args) {
  net::TcpEndpoint ep;
  if (!parse_peer(args, "trace-dump", ep)) return 2;
  const auto self = static_cast<NodeId>(args.get_int("id", 999999));
  const double timeout = args.get_double("timeout", 10.0);
  const std::string out = args.get("out", "");
  if (rejected_options(args)) return 2;
  Envelope resp;
  if (!net::TcpHost::request_reply(ep, self, Envelope::of(TraceDumpRequest{}),
                                   &resp, timeout)) {
    std::fprintf(stderr, "trace-dump: no response from %s:%u\n",
                 ep.host.c_str(), ep.port);
    return 1;
  }
  const auto* tr = std::get_if<TraceDumpResponse>(&resp.payload);
  if (tr == nullptr) {
    std::fprintf(stderr, "trace-dump: unexpected reply %s\n",
                 payload_name(resp));
    return 1;
  }
  if (out.empty()) {
    std::fputs(tr->json.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(tr->json.data(), 1, tr->json.size(), f) != tr->json.size()) {
    std::fprintf(stderr, "trace-dump: failed to write %s\n", out.c_str());
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::printf("trace-dump: %zu bytes of Perfetto JSON written to %s\n",
              tr->json.size(), out.c_str());
  return 0;
}

/// trace-selftest: drives a live ThreadCluster (real node threads + offload
/// workers) with traced match traffic, then dumps this process's flight
/// recorder as Perfetto JSON. CI validates the output with
/// tools/trace_check.py — the single-process half of the acceptance story
/// (tools/trace_smoke.sh covers the multi-process TCP half).
int cmd_trace_selftest(const CliArgs& args) {
  const std::string out = args.get("out", "cli_trace.json");
  const auto subs = static_cast<SubscriptionId>(args.get_int("subs", 500));
  const auto count = static_cast<MessageId>(args.get_int("count", 2000));
  const int cores = static_cast<int>(args.get_int("cores", 2));
  const std::int64_t seed = args.get_int("seed", 2011);
  if (rejected_options(args)) return 2;

  constexpr NodeId kMatcher = 100;
  constexpr NodeId kSink = 7;
  constexpr std::size_t kDims = 4;
  const std::vector<Range> domains(kDims, Range{0.0, 1000.0});

  obs::Recorder::set_enabled(true);
  obs::Recorder::bind_node(1);  // play the dispatcher role on this thread
  obs::Recorder::label_thread("cli.dispatch");
  static const std::uint16_t publish_name =
      obs::Recorder::intern("selftest.publish");
  static const std::uint16_t arrive_name =
      obs::Recorder::intern("deliver.arrive");

  runtime::ThreadCluster cluster;
  std::atomic<std::uint64_t> completed{0};
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [&](NodeId, const Envelope& env, Timestamp) {
                                if (const auto* d =
                                        std::get_if<Delivery>(&env.payload)) {
                                  if (d->trace_id != 0) {
                                    obs::Recorder::instant(arrive_name,
                                                           d->trace_id,
                                                           d->msg_id);
                                  }
                                } else if (std::holds_alternative<
                                               MatchCompleted>(env.payload)) {
                                  completed.fetch_add(
                                      1, std::memory_order_relaxed);
                                }
                              }));
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = cores;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher->set_bootstrap(bootstrap_table({kMatcher}, domains));
  cluster.add_node(kMatcher, std::move(matcher));
  cluster.start_all();

  Rng rng(seed);
  for (SubscriptionId id = 1; id <= subs; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 750.0);
      sub.ranges.push_back(Range{lo, lo + 250.0});
    }
    cluster.inject(kMatcher,
                   Envelope::of(StoreSubscription{
                       sub, static_cast<DimId>(id % kDims)}));
  }
  for (MessageId id = 1; id <= count; ++id) {
    MatchRequest req;
    req.msg.id = id;
    for (std::size_t d = 0; d < kDims; ++d) {
      req.msg.values.push_back(rng.uniform(0.0, 1000.0));
    }
    req.dim = static_cast<DimId>(id % kDims);
    req.trace_id = (std::uint64_t{1} << 40) | id;
    req.parent_span = (std::uint64_t{1} << 40) | id;
    obs::ScopedSpan span(publish_name, req.trace_id, id);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load(std::memory_order_relaxed) < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  cluster.shutdown();

  const std::uint64_t done = completed.load(std::memory_order_relaxed);
  if (done < count) {
    std::fprintf(stderr, "trace-selftest: only %llu/%llu matches completed\n",
                 (unsigned long long)done, (unsigned long long)count);
    return 1;
  }
  if (!obs::write_perfetto_file(out)) {
    std::fprintf(stderr, "trace-selftest: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("trace-selftest: %llu traced matches through a %d-core "
              "ThreadCluster matcher; Perfetto dump in %s (%zu threads "
              "recorded)\n",
              (unsigned long long)done, cores, out.c_str(),
              obs::Recorder::thread_count());
  return 0;
}

/// Node behind `blast`: publishes from the main thread through its context
/// (TcpHost hands such sends to its node thread) and ignores whatever comes
/// back.
class BlastNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId, Envelope) override {}
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
};

int cmd_blast(const CliArgs& args) {
  net::TcpEndpoint ep;
  if (!parse_peer(args, "blast", ep)) return 2;
  const auto target = static_cast<NodeId>(args.get_int("target-id", 10));
  const auto count = static_cast<std::uint64_t>(args.get_int("count", 100000));
  const auto dims = static_cast<std::size_t>(args.get_int("dims", 4));
  const double domain_len = args.get_double("domain", 1000.0);
  const std::string payload(
      static_cast<std::size_t>(args.get_int("payload", 64)), 'x');

  net::WireConfig wire;
  wire.batch = static_cast<int>(args.get_int("wire-batch", 32));
  wire.queue_capacity =
      static_cast<std::size_t>(args.get_int("wire-queue", 65536));
  const auto self = static_cast<NodeId>(args.get_int("id", 999998));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto subs = static_cast<std::uint64_t>(args.get_int("subs", 0));
  const double sub_width = args.get_double("sub-width", domain_len / 4.0);
  const double sub_settle = args.get_double("sub-settle", 0.5);
  const double timeout = args.get_double("timeout", 30.0);
  if (rejected_options(args)) return 2;

  auto node = std::make_unique<BlastNode>();
  BlastNode* blast = node.get();
  net::TcpHost host(self, 0, std::move(node), seed, wire);
  if (host.port() == 0) {
    std::fprintf(stderr, "blast: failed to bind a local port\n");
    return 1;
  }
  host.add_peer(target, ep);
  host.start();
  while (blast->ctx() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Rng rng(seed);
  // Optional pre-load: file subscriptions so the publish storm actually
  // matches and delivers something downstream.
  for (std::uint64_t s = 1; s <= subs; ++s) {
    Subscription sub;
    sub.id = s;
    sub.subscriber = s;
    sub.ranges.resize(dims);
    for (Range& r : sub.ranges) {
      const double center = rng.uniform(0.0, domain_len);
      r.lo = std::max(0.0, center - sub_width / 2.0);
      r.hi = std::min(domain_len, center + sub_width / 2.0);
    }
    blast->ctx()->send(target, Envelope::of(ClientSubscribe{std::move(sub)}));
  }
  if (subs > 0) {
    // Let the stores propagate dispatcher -> matchers before publishing.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(sub_settle * 1e3)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 1; i <= count; ++i) {
    Message msg;
    msg.id = i;
    msg.values.resize(dims);
    for (auto& v : msg.values) v = rng.uniform(0.0, domain_len);
    msg.payload = payload;
    blast->ctx()->send(target, Envelope::of(ClientPublish{std::move(msg)}));
  }
  // Wait for the send queues to drain (everything either hit the wire or
  // was dropped by backpressure), then report.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout);
  std::uint64_t sent = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    sent = host.wire_metrics().snapshot().counters.at("wire.envelopes_sent");
    if (sent + host.dropped_sends() >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::MetricsSnapshot snap = host.wire_metrics().snapshot();
  const auto frames = snap.counters.at("wire.frames_sent");
  std::printf(
      "blast: %llu msgs in %.3fs -> %.0f msg/s  wire.batch=%d  frames=%llu "
      "(%.1f env/frame)  bytes=%llu  dropped=%llu\n",
      (unsigned long long)sent, secs, static_cast<double>(sent) / secs,
      wire.batch, (unsigned long long)frames,
      frames > 0 ? static_cast<double>(sent) / static_cast<double>(frames)
                 : 0.0,
      (unsigned long long)snap.counters.at("wire.bytes_sent"),
      (unsigned long long)host.dropped_sends());
  host.stop();
  return 0;
}

struct EdgeBlastGen {
  std::size_t dims;
  double domain;
  double width;
  std::uint64_t seed;
};

std::vector<Range> edge_blast_sub(int idx, void* arg) {
  const auto* g = static_cast<const EdgeBlastGen*>(arg);
  Rng rng(g->seed + static_cast<std::uint64_t>(idx));
  std::vector<Range> ranges(g->dims);
  for (Range& r : ranges) {
    const double center = rng.uniform(0.0, g->domain);
    r.lo = std::max(0.0, center - g->width / 2.0);
    r.hi = std::min(g->domain, center + g->width / 2.0);
  }
  return ranges;
}

/// Drive a live edge listener (bluedove_noded --edge-port) with a swarm of
/// persistent client connections: open sessions, subscribe, publish, and
/// report throughput, delivery latency, and sequence continuity.
int cmd_edge_blast(const CliArgs& args) {
  net::TcpEndpoint ep;
  if (!parse_peer(args, "edge-blast", ep)) return 2;
  const int conns = static_cast<int>(args.get_int("conns", 1000));
  const auto count = static_cast<std::uint64_t>(args.get_int("count", 10000));
  const auto payload =
      static_cast<std::size_t>(args.get_int("payload", 64));
  EdgeBlastGen gen;
  gen.dims = static_cast<std::size_t>(args.get_int("dims", 4));
  gen.domain = args.get_double("domain", 1000.0);
  gen.width = args.get_double("sub-width", gen.domain / 4.0);
  gen.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  edge::SwarmConfig scfg;
  scfg.endpoint = ep;
  scfg.drivers = static_cast<int>(args.get_int("drivers", 2));
  const double timeout = args.get_double("timeout", 60.0);
  const double sub_settle = args.get_double("sub-settle", 0.5);
  if (rejected_options(args)) return 2;
  const std::size_t fd_limit = net::raise_fd_limit(1u << 20);
  std::printf("edge-blast: RLIMIT_NOFILE soft limit %zu\n", fd_limit);

  edge::Swarm swarm(scfg);
  const auto t0 = std::chrono::steady_clock::now();
  const int opened = swarm.open(conns, edge_blast_sub, &gen, timeout);
  const double conn_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("edge-blast: %d/%d sessions in %.3fs -> %.0f conn/s\n", opened,
              conns, conn_secs, static_cast<double>(opened) / conn_secs);
  if (opened == 0) return 1;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(sub_settle * 1e3)));

  Rng rng(gen.seed);
  std::vector<Value> values(gen.dims);
  const auto p0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    for (auto& v : values) v = rng.uniform(0.0, gen.domain);
    swarm.publish(values, payload);
  }
  swarm.drain(0.5, timeout);
  const double pub_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
          .count();
  const obs::HistogramSnapshot lat = swarm.latency().snapshot();
  std::printf(
      "edge-blast: %llu publishes in %.3fs -> %.0f msg/s, "
      "%llu deliveries (%.2f per msg)\n",
      (unsigned long long)count, pub_secs,
      static_cast<double>(count) / pub_secs,
      (unsigned long long)swarm.delivered(),
      static_cast<double>(swarm.delivered()) / static_cast<double>(count));
  std::printf(
      "edge-blast: delivery latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
      "gaps=%llu dups=%llu\n",
      lat.quantile(0.50) * 1e3, lat.quantile(0.95) * 1e3,
      lat.quantile(0.99) * 1e3, (unsigned long long)swarm.gaps(),
      (unsigned long long)swarm.dups());
  return swarm.gaps() == 0 && swarm.dups() == 0 ? 0 : 1;
}

int cmd_crash(const CliArgs& args) {
  ExperimentConfig cfg = config_from(args);
  const double rate = args.get_double("rate", 10000.0);
  const double kill_every = args.get_double("kill-every", 60.0);
  const int kills = static_cast<int>(args.get_int("kills", 4));
  if (rejected_options(args)) return 2;
  Deployment dep(cfg);
  dep.start();
  dep.set_rate(rate);
  dep.run_for(10.0);
  const Timestamp t0 = dep.now();
  for (int k = 0; k < kills; ++k) {
    const NodeId victim =
        dep.matcher_ids()[static_cast<std::size_t>(k) %
                          dep.matcher_ids().size()];
    if (dep.sim().alive(victim)) {
      dep.kill_matcher(victim);
      std::printf("-- killed matcher %u at t=%.0fs\n", victim,
                  dep.now() - t0);
    }
    const int ticks = static_cast<int>(kill_every / 5.0);
    for (int i = 0; i < ticks; ++i) {
      dep.run_for(5.0);
      print_window(dep, t0);
    }
  }
  std::printf("\nmessages lost to dead matchers: %llu of %llu\n",
              (unsigned long long)dep.sim().lost_match_requests(),
              (unsigned long long)dep.published());
  return 0;
}

int cmd_scale(const CliArgs& args) {
  ExperimentConfig cfg = config_from(args);
  cfg.auto_scale = true;
  cfg.table_pull_interval = 5.0;
  const double step = args.get_double("step", 500.0);
  const double step_secs = args.get_double("step-secs", 30.0);
  const int steps = static_cast<int>(args.get_int("steps", 12));
  if (rejected_options(args)) return 2;
  Deployment dep(cfg);
  dep.start();
  double rate = step;
  dep.set_rate(rate);
  const Timestamp t0 = dep.now();
  for (int s = 0; s < steps; ++s) {
    const int ticks = static_cast<int>(step_secs / 5.0);
    for (int i = 0; i < ticks; ++i) {
      dep.run_for(5.0);
      print_window(dep, t0);
    }
    rate += step;
    dep.set_rate(rate);
    std::printf("-- rate now %.0f msg/s\n", rate);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.positional().size() != 1) return usage();
  const std::string simd_mode = args.get("simd", "auto");
  if (!simd::set_kernel(simd_mode)) {
    std::fprintf(stderr,
                 "bluedove_cli: --simd=%s not available on this build/CPU "
                 "(try auto, scalar, off)\n",
                 simd_mode.c_str());
    return 2;
  }
  const std::string index = args.get("index", "linear-scan");
  if (!index_kind_from_string(index)) {
    std::fprintf(stderr,
                 "bluedove_cli: unknown --index=%s (linear-scan|flat-bucket)\n",
                 index.c_str());
    return 2;
  }
  const std::string cmd = args.positional()[0];
  if (cmd == "saturate") return cmd_saturate(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "crash") return cmd_crash(args);
  if (cmd == "scale") return cmd_scale(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "trace-dump") return cmd_trace_dump(args);
  if (cmd == "trace-selftest") return cmd_trace_selftest(args);
  if (cmd == "blast") return cmd_blast(args);
  if (cmd == "edge-blast") return cmd_edge_blast(args);
  return usage();
}
