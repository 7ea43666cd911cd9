// micro_parallel — loopback parallel-matching benchmark.
//
// One net::TcpHost matcher (flat-bucket index, match_batch=32) is preloaded
// with N subscriptions over the wire, then blasted with plain MatchRequest
// envelopes from a client host, which its transport coalesces into frames
// of up to 32 (WireConfig::batch). At cores >= 2 that many offload workers
// drain the per-dimension lanes; at cores = 1 the matcher's node thread
// probes inline and no pool exists (exec.jobs reads 0). A cell times from
// first blast send until matcher.matched has counted every request.
// benchutil::Rounds runs benchutil::kRounds rounds of one cell per cores
// value in {1, 2, 4, 8}, in an order rotated per round, so the speedup of
// a pool is read against the same round's cores = 1 cell; one sweep per
// invocation swings too widely to say whether a pool pays.
//
// Emits BENCH_parallel.json (obs JSON schema): per (cores, subs) cell the
// median msgs/sec and the median per-round speedup vs cores=1, each with
// its quartiles, the rounds it beat cores=1, the median executor job/steal
// counts, the rounds' host steal seconds per subscription count, and the
// host's hardware_concurrency (speedups can only materialize when the
// machine actually has the cores). Exits nonzero when any cell leaves a
// request unmatched, so a reduced-scale run doubles as a smoke test of the
// inline and the pool paths over real TCP (tools/check_all.sh and CI).
//
// Flags: --subs N (default 100000), --requests N (default 40000),
//        --large (adds a 1,000,000-subscription sweep).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "loopback.h"
#include "net/cluster_table.h"
#include "node/matcher_node.h"

using namespace bluedove;

namespace {

constexpr NodeId kMatcher = 1000;
constexpr NodeId kClient = 2;
constexpr std::size_t kDims = 4;
constexpr double kDomainHi = 100.0;

using benchutil::now_sec;

std::uint64_t matched_count(const MatcherNode* matcher) {
  return matcher->metrics().snapshot().counters["matcher.matched"];
}

struct CellResult {
  double tput = 0.0;       ///< msgs/sec counted at the matcher
  double exec_jobs = 0.0;  ///< offload pool jobs (0 on the inline path)
  double exec_steals = 0.0;
  bool complete = false;   ///< every request was matched
};

/// One (cores, subs) cell: fresh hosts, preload, blast, teardown.
CellResult run_cell(int cores, std::uint64_t subs, std::uint64_t requests) {
  const std::vector<Range> domains(kDims, Range{0.0, kDomainHi});

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = cores;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 32;
  mcfg.match_mode = MatcherConfig::MatchMode::kFull;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher_node = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher_node->set_bootstrap(bootstrap_table({kMatcher}, domains));
  const MatcherNode* matcher = matcher_node.get();
  net::TcpHost matcher_host(kMatcher, 0, std::move(matcher_node));

  net::WireConfig wire;
  wire.batch = 32;
  wire.queue_capacity = static_cast<std::size_t>(subs + requests) + 1024;
  net::TcpHost client_host(kClient, 0,
                           std::make_unique<benchutil::CountingNode>(), 42,
                           wire);
  const auto* client = client_host.node_as<benchutil::CountingNode>();

  matcher_host.add_peer(kClient, {"127.0.0.1", client_host.port()});
  client_host.add_peer(kMatcher, {"127.0.0.1", matcher_host.port()});
  matcher_host.start();
  client_host.start();
  NodeContext* ctx = client->wait_ctx();

  // Preload: `subs` subscriptions, round-robin across the dimension sets,
  // each a 1%-wide predicate per dimension.
  Rng rng(7);
  for (std::uint64_t i = 1; i <= subs; ++i) {
    Subscription sub;
    sub.id = i;
    sub.subscriber = i;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, kDomainHi - 1.0);
      sub.ranges.push_back(Range{lo, lo + 1.0});
    }
    ctx->send(kMatcher, Envelope::of(StoreSubscription{
                            std::move(sub), static_cast<DimId>(i % kDims)}));
  }
  // Barrier: the wire is FIFO per link, so once this request is acked every
  // store above has been applied.
  {
    MatchRequest barrier;
    barrier.msg.id = 1;
    barrier.msg.values.assign(kDims, 0.0);
    barrier.dim = 0;
    barrier.reply_to = kClient;
    ctx->send(kMatcher, Envelope::of(std::move(barrier)));
  }
  const double preload_deadline = now_sec() + 300.0;
  while (client->acks() < 1 && now_sec() < preload_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (client->acks() < 1) {
    std::fprintf(stderr, "micro_parallel: preload barrier timed out\n");
    client_host.stop();
    matcher_host.stop();
    return {};
  }
  const std::uint64_t base_matched = matched_count(matcher);

  // Blast `requests` messages, cycling the serviced dimension so all lanes
  // carry work.
  const double t0 = now_sec();
  std::uint64_t next_id = 2;
  for (std::uint64_t i = 0; i < requests; ++i) {
    MatchRequest req;
    req.msg.id = next_id++;
    req.msg.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      req.msg.values.push_back(rng.uniform(0.0, kDomainHi));
    }
    req.dim = static_cast<DimId>(i % kDims);
    ctx->send(kMatcher, Envelope::of(std::move(req)));
  }
  const std::uint64_t want = base_matched + requests;
  const double deadline = now_sec() + 300.0;
  while (matched_count(matcher) < want && now_sec() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t got = matched_count(matcher) - base_matched;

  CellResult result;
  result.tput = static_cast<double>(got) / elapsed;
  result.complete = got >= requests;
  obs::MetricsSnapshot host_snap = matcher_host.wire_metrics().snapshot();
  result.exec_jobs = static_cast<double>(host_snap.counters["exec.jobs"]);
  result.exec_steals = static_cast<double>(host_snap.counters["exec.steals"]);
  client_host.stop();
  matcher_host.stop();
  if (!result.complete) {
    std::fprintf(stderr, "micro_parallel: only %llu/%llu matched (cores=%d)\n",
                 (unsigned long long)got, (unsigned long long)requests, cores);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t subs = 100000;
  std::uint64_t requests = 40000;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subs") == 0 && i + 1 < argc) {
      subs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    }
  }

  benchutil::header("parallel",
                    "parallel match execution: msgs/sec vs matcher cores");
  const unsigned hw = std::thread::hardware_concurrency();
  benchutil::note("hardware_concurrency=" + std::to_string(hw) +
                  " — speedup over cores=1 is bounded by the machine's real "
                  "core count");
  // A 1-core box cannot measure parallel speedup — every multi-worker cell
  // just timeslices one CPU. Flag the run as degraded and skip the
  // speedup_* gauges entirely rather than recording sub-1.0 "speedups" as
  // if they were measurements.
  const bool degraded = hw <= 1;
  if (degraded) {
    benchutil::note(
        "degraded: 1 hardware thread — speedup gauges suppressed");
  }

  obs::MetricsSnapshot snap;
  snap.gauges["parallel.hardware_concurrency"] = static_cast<double>(hw);
  snap.gauges["parallel.requests"] = static_cast<double>(requests);
  snap.gauges["parallel.rounds"] = benchutil::kRounds;
  if (degraded) snap.gauges["parallel.degraded"] = 1.0;

  std::vector<std::uint64_t> sizes{subs};
  if (large) sizes.push_back(1000000);
  constexpr int kCores[] = {1, 2, 4, 8};
  bool complete = true;
  for (const std::uint64_t n : sizes) {
    // Executor counts per cell, by round.
    std::map<std::string, std::vector<double>> jobs, steals;
    std::vector<benchutil::Cell> cells;
    for (const int cores : kCores) {
      const std::string name = "cores" + std::to_string(cores);
      cells.push_back({name, [&, cores, name] {
        const CellResult cell = run_cell(cores, n, requests);
        complete = complete && cell.complete;
        jobs[name].push_back(cell.exec_jobs);
        steals[name].push_back(cell.exec_steals);
        return cell.tput;
      }});
    }
    std::printf("\nsubscriptions=%llu, requests=%llu:\n",
                (unsigned long long)n, (unsigned long long)requests);
    const benchutil::Rounds rounds(std::move(cells), "cores1");
    rounds.print("msg/s");
    std::printf("%6s %12s %12s\n", "cores", "exec.jobs", "exec.steals");
    for (const int cores : kCores) {
      const std::string name = "cores" + std::to_string(cores);
      const auto med_jobs =
          static_cast<std::uint64_t>(benchutil::quantile(jobs[name], 0.5));
      const auto med_steals =
          static_cast<std::uint64_t>(benchutil::quantile(steals[name], 0.5));
      std::printf("%6d %12llu %12llu\n", cores, (unsigned long long)med_jobs,
                  (unsigned long long)med_steals);
      const std::string suffix = name + "_subs" + std::to_string(n);
      benchutil::put(snap, "parallel.tput_" + suffix, rounds.cell(name));
      if (!degraded) {
        benchutil::put(snap, "parallel.speedup_" + suffix, rounds.ratio(name));
        snap.counters["parallel.wins_" + suffix] =
            static_cast<std::uint64_t>(rounds.wins(name));
      }
      snap.counters["parallel.jobs_" + suffix] = med_jobs;
      snap.counters["parallel.steals_" + suffix] = med_steals;
    }
    snap.gauges["parallel.steal_s_subs" + std::to_string(n)] =
        rounds.steal_total();
  }

  benchutil::write_bench_json("parallel", snap);
  if (!complete) {
    std::fprintf(stderr, "micro_parallel: FAIL (unmatched requests)\n");
    return 1;
  }
  return 0;
}
