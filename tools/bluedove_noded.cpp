// bluedove_noded — run one BlueDove server as an OS process, talking real
// TCP to its peers. Lets a cluster be deployed as N processes (or hosts).
//
// Every role takes --role, --id, --port, --peers, --seed, --simd,
// --wire-batch, --wire-queue and --trace-json. --cluster, --dims, --domain,
// --stats-json and --stats-interval are for matchers and dispatchers;
// --dispatchers, --sink, --index, --match-batch, --cover, --cover-budget
// and --cores for matchers; --reliable, --trace-sample, --edge-port and
// --edge-reactors for dispatchers. Any other flag, including one of
// another role's, is reported and exits 2 before the node starts, as is a
// numeric flag whose value is not wholly a number (--wire-queue=abc).
//
//   --role=matcher|dispatcher|sink   what this process is
//   --id=N                           this node's id
//   --port=P                         listen port (default 7000+id)
//   --peers=id@host:port,...         address directory for the other nodes
//   --cluster=id,id,...              matcher ids in segment order (bootstrap)
//   --dispatchers=id,...             dispatcher ids (matchers report to them)
//   --sink=id                        delivery/metrics sink node id
//   --dims=K --domain=L              schema (default 4 x [0,1000))
//   --index=flat-bucket|linear-scan  matcher index (default flat-bucket);
//                                    any other name is an error
//   --match-batch=N                  matcher batch drain depth (default 1)
//   --cover                          matcher subscription covering
//                                    (DESIGN.md §15): near-duplicate
//                                    predicates are aggregated behind
//                                    covering representatives and expanded
//                                    at delivery
//   --cover-budget=F                 covering false-positive volume budget
//                                    (default 0.05)
//   --cores=N                        matcher cores (default 4): for
//                                    N >= 2, index probes run on a pool
//                                    of N work-stealing threads off the
//                                    node thread, one lane per dimension;
//                                    N = 1 probes on the node thread and
//                                    starts no pool (DESIGN.md §10)
//   --simd=auto|scalar|off|avx2|avx512|neon  match-probe kernel (matcher;
//                                    default auto: widest ISA the CPU
//                                    supports, scalar/vector results are
//                                    identical — DESIGN.md §12). The
//                                    BLUEDOVE_SIMD env var sets the same
//                                    default for every process.
//   --edge-port=P                    (dispatcher) also open a client edge
//                                    listener: an epoll reactor front end
//                                    multiplexing persistent client
//                                    connections with resumable sessions
//                                    (DESIGN.md §16). 0 = disabled.
//   --edge-reactors=N                edge reactor threads (default 2)
//   --trace-sample=R                 dispatcher trace sampling rate [0,1]
//   --wire-batch=N                   envelopes coalesced per TCP frame
//                                    (default 64: a loop pass's envelopes
//                                    to one peer share frames)
//   --wire-queue=N                   per-peer bound on unwritten envelopes;
//                                    the newest is dropped beyond it
//   --stats-json=PATH                periodically write the node's metrics
//                                    snapshot as JSON to PATH
//   --stats-interval=SEC             snapshot cadence (default 5 s)
//   --trace-json=PATH                where SIGUSR2 (and exit) dump the
//                                    flight recorder as Perfetto JSON
//                                    (default bluedove_trace_<id>.json)
//
// Live scraping: matchers and dispatchers answer StatsRequest envelopes
// with a StatsResponse carrying their metrics registry as JSON; use
// `bluedove_cli stats --peer=host:port` against any of them. They also
// answer TraceDumpRequest (`bluedove_cli trace-dump`) with their current
// flight-recorder contents; SIGUSR2 dumps the same trace to --trace-json
// for roles that cannot answer envelopes (the sink).
//
// Example 3-matcher cluster on one machine, one command per process (an
// indented line continues the command above it):
//   bluedove_noded --role=sink       --id=2    --port=7002 &
//   bluedove_noded --role=dispatcher --id=10   --port=7010
//       --cluster=1000,1001,1002 --peers=1000@127.0.0.1:8000,... &
//   bluedove_noded --role=matcher    --id=1000 --port=8000
//       --cluster=1000,1001,1002 --dispatchers=10 --sink=2 --peers=... &
//   ... then publish with any TCP client that speaks the frame format
//   (tests/test_tcp.cpp shows one).

#include <csignal>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "edge/edge_frontend.h"
#include "net/tcp_transport.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"
#include "simd/range_kernel.h"

using namespace bluedove;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

volatile std::sig_atomic_t g_trace_dump = 0;
void on_trace_signal(int) { g_trace_dump = 1; }

/// A node id: 1 up to, not including, kInvalidNode.
std::optional<NodeId> parse_id(std::string_view text) {
  const std::optional<std::uint64_t> v = parse_uint(text, 1, kInvalidNode - 1);
  if (!v) return std::nullopt;
  return static_cast<NodeId>(*v);
}

/// "id,id,..." (empty items skipped) -> ids; prints an error under `flag`
/// and returns nullopt on an item that is not an id.
std::optional<std::vector<NodeId>> parse_ids(const std::string& csv,
                                             const char* flag) {
  std::vector<NodeId> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::optional<NodeId> id = parse_id(item);
    if (!id) {
      std::fprintf(stderr, "bluedove_noded: --%s: bad node id '%s'\n", flag,
                   item.c_str());
      return std::nullopt;
    }
    out.push_back(*id);
  }
  return out;
}

/// "id@host:port,id@host:port" -> directory; prints an error and returns
/// nullopt on an entry that does not have that shape, or whose id or port
/// (1..65535) does not parse.
std::optional<std::map<NodeId, net::TcpEndpoint>> parse_peers(
    const std::string& csv) {
  std::map<NodeId, net::TcpEndpoint> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::string_view view(item);
    const auto at = view.find('@');
    const auto colon = view.rfind(':');
    const std::optional<NodeId> id =
        at == std::string::npos ? std::nullopt : parse_id(view.substr(0, at));
    const std::optional<std::uint64_t> port =
        colon == std::string::npos || colon < at
            ? std::nullopt
            : parse_uint(view.substr(colon + 1), 1, 65535);
    if (!id || !port) {
      std::fprintf(stderr,
                   "bluedove_noded: --peers: bad entry '%s' (want "
                   "id@host:port, port 1..65535)\n",
                   item.c_str());
      return std::nullopt;
    }
    out[*id] = {item.substr(at + 1, colon - at - 1),
                static_cast<std::uint16_t>(*port)};
  }
  return out;
}

/// The schema: --dims dimensions, each [0, --domain).
std::vector<Range> schema_domains(const CliArgs& args) {
  const auto dims = static_cast<std::size_t>(args.get_int("dims", 4));
  return std::vector<Range>(dims, Range{0, args.get_double("domain", 1000.0)});
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const std::string simd_mode = args.get("simd", "auto");
  if (!simd::set_kernel(simd_mode)) {
    std::fprintf(stderr,
                 "bluedove_noded: --simd=%s not available on this build/CPU "
                 "(try auto, scalar, off)\n",
                 simd_mode.c_str());
    return 2;
  }
  const std::string role = args.get("role", "");
  const std::optional<std::uint64_t> id_arg =
      args.get_uint("id", 0, 1, kInvalidNode - 1);
  if (role.empty() || !id_arg || *id_arg == 0) {
    std::fprintf(stderr,
                 "usage: bluedove_noded --role=matcher|dispatcher|sink "
                 "--id=N [--port=P] [--peers=...] [--cluster=...]\n");
    return 2;
  }
  // Best-effort fd-limit raise (an edge dispatcher holds one fd per client
  // connection); the achieved soft limit is logged so deployments can see
  // how many clients this process can actually take.
  const std::size_t fd_limit = net::raise_fd_limit(1u << 20);
  std::fprintf(stderr, "bluedove_noded: RLIMIT_NOFILE soft limit %zu\n",
               fd_limit);
  const auto id = static_cast<NodeId>(*id_arg);
  const std::optional<std::uint64_t> port_arg =
      args.get_uint("port", 7000 + id % 1000, 0, 65535);
  if (!port_arg) {
    std::fprintf(stderr, "bluedove_noded: --port must be 0..65535\n");
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(*port_arg);

  // Each role reads only the flags it uses, so a flag meant for another
  // role is reported like a typo.
  std::unique_ptr<Node> node;
  std::uint16_t edge_port = 0;
  int edge_reactors = 2;
  if (role == "matcher") {
    const std::vector<Range> domains = schema_domains(args);
    MatcherConfig cfg;
    cfg.domains = domains;
    cfg.cores = static_cast<int>(args.get_int("cores", 4));
    const std::string index = args.get("index", "flat-bucket");
    const std::optional<IndexKind> kind = index_kind_from_string(index);
    if (!kind) {
      std::fprintf(stderr,
                   "bluedove_noded: unknown --index=%s "
                   "(flat-bucket|linear-scan)\n",
                   index.c_str());
      return 2;
    }
    cfg.index_kind = *kind;
    cfg.match_batch = static_cast<int>(args.get_int("match-batch", 1));
    cfg.cover.enabled = args.get_bool("cover", false);
    cfg.cover.fp_volume_budget = args.get_double("cover-budget", 0.05);
    const auto dispatchers =
        parse_ids(args.get("dispatchers", ""), "dispatchers");
    const auto cluster = parse_ids(args.get("cluster", ""), "cluster");
    const std::optional<std::uint64_t> sink_arg =
        args.get_uint("sink", 0, 0, kInvalidNode - 1);
    if (!sink_arg) {
      std::fprintf(stderr, "bluedove_noded: --sink: bad node id\n");
      return 2;
    }
    if (!dispatchers || !cluster) return 2;
    cfg.dispatchers = *dispatchers;
    const auto sink = static_cast<NodeId>(*sink_arg);
    cfg.metrics_sink = sink != 0 ? sink : kInvalidNode;
    cfg.delivery_sink = sink != 0 ? sink : kInvalidNode;
    auto matcher = std::make_unique<MatcherNode>(id, cfg);
    if (!cluster->empty()) {
      matcher->set_bootstrap(bootstrap_table(*cluster, domains));
    }
    node = std::move(matcher);
  } else if (role == "dispatcher") {
    const std::vector<Range> domains = schema_domains(args);
    DispatcherConfig cfg;
    cfg.domains = domains;
    cfg.reliable_delivery = args.get_bool("reliable", false);
    cfg.trace_sample_rate = args.get_double("trace-sample", 0.0);
    const auto cluster = parse_ids(args.get("cluster", ""), "cluster");
    if (!cluster) return 2;
    auto dispatcher = std::make_unique<DispatcherNode>(id, cfg);
    if (!cluster->empty()) {
      dispatcher->set_bootstrap(bootstrap_table(*cluster, domains));
    }
    node = std::move(dispatcher);
    const std::optional<std::uint64_t> edge_port_arg =
        args.get_uint("edge-port", 0, 0, 65535);
    if (!edge_port_arg) {
      std::fprintf(stderr, "bluedove_noded: --edge-port must be 0..65535\n");
      return 2;
    }
    edge_port = static_cast<std::uint16_t>(*edge_port_arg);
    edge_reactors = static_cast<int>(args.get_int("edge-reactors", 2));
  } else if (role == "sink") {
    node = std::make_unique<FunctionNode>(
        [](NodeId, const Envelope& env, Timestamp) {
          if (const auto* d = std::get_if<Delivery>(&env.payload)) {
            if (d->trace_id != 0) {
              // Third pid on the causal trace: dispatch -> match -> deliver.
              static const std::uint16_t arrive =
                  obs::Recorder::intern("deliver.arrive");
              obs::Recorder::instant(arrive, d->trace_id, d->msg_id);
            }
            std::printf("delivery: msg=%llu sub=%llu subscriber=%llu\n",
                        (unsigned long long)d->msg_id,
                        (unsigned long long)d->sub_id,
                        (unsigned long long)d->subscriber);
            std::fflush(stdout);
          }
        });
  } else {
    std::fprintf(stderr, "unknown role '%s'\n", role.c_str());
    return 2;
  }

  net::WireConfig wire;
  wire.batch = static_cast<int>(args.get_int("wire-batch", wire.batch));
  wire.queue_capacity = static_cast<std::size_t>(args.get_int(
      "wire-queue", static_cast<std::int64_t>(wire.queue_capacity)));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto peers = parse_peers(args.get("peers", ""));
  if (!peers) return 2;
  // The sink answers no StatsRequest and writes no stats file.
  const std::string stats_path =
      role == "sink" ? "" : args.get("stats-json", "");
  const double stats_interval =
      role == "sink" ? 0.0 : args.get_double("stats-interval", 5.0);
  const std::string trace_arg = args.get("trace-json", "");

  const std::vector<std::string> unknown = args.unconsumed();
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "bluedove_noded: unknown option --%s for --role=%s\n",
                 key.c_str(), role.c_str());
  }
  const std::vector<std::string> malformed = args.malformed();
  for (const std::string& key : malformed) {
    std::fprintf(stderr, "bluedove_noded: --%s=%s is not a number\n",
                 key.c_str(), args.get(key).c_str());
  }
  if (!unknown.empty() || !malformed.empty()) return 2;

  net::TcpHost host(id, port, std::move(node), seed, wire);
  if (host.port() == 0) {
    std::fprintf(stderr, "failed to bind port %u\n", port);
    return 1;
  }
  for (const auto& [peer, ep] : *peers) host.add_peer(peer, ep);

  // Client edge layer (dispatcher only): epoll reactor front end with
  // resumable sessions, feeding client ops into this dispatcher's ingress
  // and fanning deliveries back out over the persistent client sockets.
  std::unique_ptr<edge::EdgeFrontend> edge_fe;
  std::string edge_host;
  if (edge_port != 0) {
    edge::EdgeConfig ecfg;
    ecfg.port = edge_port;
    ecfg.reactors = edge_reactors;
    edge_host = ecfg.host;
    edge_fe = std::make_unique<edge::EdgeFrontend>(
        ecfg, id, [&host](Envelope&& env) {
          host.inject(kInvalidNode, std::move(env));
        });
    auto* dispatcher = host.node_as<DispatcherNode>();
    dispatcher->on_delivery = [fe = edge_fe.get()](const Delivery& d) {
      fe->deliver(d);
    };
    dispatcher->add_stats_registry(&edge_fe->metrics());
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR2, on_trace_signal);
  host.start();
  if (edge_fe) edge_fe->start();
  std::printf("bluedove_noded role=%s id=%u listening on 127.0.0.1:%u\n",
              role.c_str(), id, host.port());
  if (edge_fe) {
    std::printf("bluedove_noded id=%u edge listening on %s:%u "
                "(%d reactors)\n",
                id, edge_host.c_str(), edge_fe->port(), edge_reactors);
  }
  std::fflush(stdout);

  // Periodic machine-readable export: write the node's metrics registry to
  // --stats-json every --stats-interval seconds (snapshots read the
  // registry's atomics, so scraping never blocks the node thread).
  auto snapshot_now = [&]() -> obs::MetricsSnapshot {
    obs::MetricsSnapshot snap;
    if (role == "matcher") {
      snap = host.node_as<MatcherNode>()->metrics().snapshot();
    } else if (role == "dispatcher") {
      snap = host.node_as<DispatcherNode>()->metrics().snapshot();
    }
    // Transport-level instrumentation rides along in the same export
    // (wire.* names never collide with node-level ones).
    snap.merge(host.wire_metrics().snapshot());
    if (edge_fe) snap.merge(edge_fe->metrics().snapshot());
    return snap;
  };
  const std::string trace_path =
      trace_arg.empty() ? "bluedove_trace_" + std::to_string(id) + ".json"
                        : trace_arg;
  auto dump_trace = [&] {
    if (obs::write_perfetto_file(trace_path)) {
      std::printf("flight-recorder trace written to %s\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
    }
    std::fflush(stdout);
  };
  double since_stats = 0.0;
  while (!g_stop) {
    struct timespec ts{0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    if (g_trace_dump) {
      g_trace_dump = 0;
      dump_trace();
    }
    if (stats_path.empty()) continue;
    since_stats += 0.1;
    if (since_stats >= stats_interval) {
      since_stats = 0.0;
      if (!obs::write_json_file(stats_path, snapshot_now())) {
        std::fprintf(stderr, "failed to write %s\n", stats_path.c_str());
      }
    }
  }
  if (!stats_path.empty()) {
    obs::write_json_file(stats_path, snapshot_now());  // final snapshot
  }
  if (edge_fe) edge_fe->stop();
  host.stop();
  if (!trace_arg.empty()) {
    // Post-stop dump so the trace covers the node's full lifetime (nothing
    // writes events after the host joined its threads). Opt-in via
    // --trace-json so plain runs leave no files behind.
    dump_trace();
  }
  return 0;
}
