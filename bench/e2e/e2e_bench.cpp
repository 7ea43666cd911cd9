// e2e_bench — real-TCP publish -> deliver benchmark with a per-layer ledger.
//
//   e2e_bench --workload paper|probe|covered|churn --seed N --seconds S
//             --trace 0|1
//   e2e_bench --smoke
//
// One run builds the seeded inputs and their oracle delivery sets once. Then
// it sets a deployment up (deployment.h), warms it up with a 0.5 s closed
// loop, measures, verifies and tears it down: three times with --trace 0,
// each deployment measuring a third of S seconds, and once with --trace 1:
//
//   --trace 0   saturation: a closed loop of 256 messages in flight, then a
//               drain; the service CPU it used over the messages it sent
//   --trace 1   rounds of quarter-second open-loop windows at the
//               workload's rate, untraced and traced in turn; then 1000
//               verified subscriptions are unsubscribed (timed)
//
// The end-to-end metrics are the set-up time (median of the three
// set-ups), the CPU time the deployment's own threads spend per message at
// saturation (all three deployments pooled), and the peak RSS through the
// first deployment. Wall-clock
// throughput and latency are on the report lines and in the ledger, but on
// a host shared with other guests they follow the host's load several-fold
// from one minute to the next, while the CPU cost of a message at
// saturation moves by about a tenth. Threads of a fresh deployment settle
// on the cores differently each time, so the run pools several.
//
// Every message is checked against the oracle. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
// every other line is a human-readable report. --smoke runs each workload
// at reduced scale with tracing and exits non-zero when a delivered set is
// wrong, a payload was copied, a session was evicted, or the ledger leaves
// messages unattributed, gives them negative stages or does not sum to
// e2e.complete.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "deployment.h"
#include "ledger.h"
#include "workload.h"

using namespace bluedove;
using namespace bluedove::e2e;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 2011;
  double seconds = 18.0;
  bool trace = false;
  bool smoke = false;
};

/// Knobs that differ between recorded runs and the smoke test.
struct Scale {
  std::size_t pool = 16384;        ///< message pool size
  double warmup_s = 0.5;           ///< per deployment
  std::size_t removes = 1000;      ///< traced run: timed unsubscribes
};

/// Deployments per untraced run; setup_s is the median of their set-ups.
constexpr int kDeployments = 3;
/// Closed loops keep this many messages outstanding: deep enough that every
/// stage works on a queue, shallow enough that `paper`'s 32 deliveries per
/// message stay well inside an edge session's write queue.
constexpr std::size_t kInFlight = 256;
/// Drain timeout.
constexpr double kDrainS = 10.0;

/// Target window length of the traced run; its phase of P seconds gets
/// round(P / kWindowS) windows.
constexpr double kWindowS = 0.25;
/// Latency percentiles are taken within slices of this much of an open-loop
/// schedule. The host takes the machine's cores away for a few milliseconds
/// a few times a second; a short slice keeps most percentiles clear of those
/// stalls, so the median over slices is the latency of the system itself
/// and does not swing with how many stalls a window happened to catch.
constexpr double kSliceS = 0.05;

double median(std::vector<double> v) { return quantile(v, 0.5); }

double seconds_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds the deployment's own threads have used: the process's CPU
/// time less that of the load generator (the calling thread) and of the
/// client readers, which stand in for machines of their own.
double service_cpu_seconds(const Receiver& rx) {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
         cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - rx.client_cpu_s();
}

/// The process's peak resident set so far (ru_maxrss), in MB.
double peak_rss_mb_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU seconds a hypervisor has run other guests on the virtual cores since
/// boot (the steal column of /proc/stat); 0 where it cannot be read.
/// Printed so a reader can tell a run the host slowed.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

/// One window of an open-loop phase: the messages it published.
struct Window {
  std::uint64_t begin = 0, end = 0;
  double seconds = 0.0;
  std::vector<double> late_ms;  ///< publish time - due time
};
using Phase = std::vector<Window>;

/// The load generator: the main thread publishing through the sessions in
/// turn, with one churn replacement before every `churn_every`-th message
/// when the workload churns.
class Generator {
 public:
  Generator(Deployment& dep, Receiver& rx, Tracer& tracer,
            const WorkloadSpec& spec)
      : dep_(dep), rx_(rx), tracer_(tracer), churn_every_(spec.churn_every) {}

  std::uint64_t published() const { return seq_; }

  /// Keeps `in_flight` messages outstanding for `seconds`; a message is done
  /// when its last expected delivery arrives.
  void closed_loop(double seconds, std::size_t in_flight) {
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t now = t0; now < end; now = now_ns()) {
      if (seq_ - rx_.completed() < in_flight &&
          seq_ < Receiver::kMaxMessages) {
        publish(now);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// Publishes at `rate` on a fixed schedule, however late the system runs.
  /// With `traced`, the tracer records the sampled messages.
  Window open_loop(double seconds, double rate, bool traced) {
    Window w;
    w.begin = seq_;
    w.seconds = seconds;
    const std::int64_t t0 = now_ns() + 1000000;  // first due in 1 ms
    const auto n = static_cast<std::uint64_t>(seconds * rate);
    const double period = 1e9 / rate;
    w.late_ms.reserve(n);
    for (std::uint64_t i = 0; i < n && seq_ < Receiver::kMaxMessages; ++i) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(std::llround(period * i));
      for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const std::int64_t now = now_ns();
      w.late_ms.push_back(1e-6 * static_cast<double>(now - due));
      if (traced) tracer_.trace_message(seq_, due, now);
      publish(due);
    }
    w.end = seq_;
    return w;
  }

  /// Waits until every published message has completed.
  bool drain(double timeout_s) {
    const std::int64_t t0 = now_ns();
    while (rx_.completed() < seq_) {
      if (seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

 private:
  void publish(std::int64_t due) {
    if (churn_every_ != 0 && seq_ % churn_every_ == 0) dep_.churn_step();
    dep_.publish(seq_++, due);
  }

  Deployment& dep_;
  Receiver& rx_;
  Tracer& tracer_;
  const std::size_t churn_every_;
  std::uint64_t seq_ = 0;
};

/// One deployment plus the client-side state that outlives its threads.
struct World {
  explicit World(const Inputs& in)
      : tracer(kMatchers, kSessions, Receiver::kMaxMessages),
        rx(in, tracer),
        dep(in, tracer, rx) {}
  Tracer tracer;
  Receiver rx;
  Deployment dep;
};

// --- per-layer counts --------------------------------------------------------

std::uint64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

double delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
             const std::string& name) {
  return static_cast<double>(counter(b, name) - counter(a, name));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double value_of(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

/// Counts from the layers' own metrics between two snapshots, normalised
/// per published message where the name says so.
Metrics layer_counts(const Snapshot& a, const Snapshot& b, double msgs) {
  const auto hist = [](const obs::MetricsSnapshot& s) {
    const auto it = s.histograms.find("edge.fanout_batch");
    return it == s.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  const obs::HistogramSnapshot fa = hist(a.edge), fb = hist(b.edge);
  double seg_max = 0.0, seg_sum = 0.0, deliveries = 0.0, work = 0.0;
  double high_water = 0.0, raw = 0.0, reps = 0.0, checks = 0.0, rejects = 0.0;
  std::size_t segments = 0;
  for (std::size_t i = 0; i < b.matchers.size(); ++i) {
    const obs::MetricsSnapshot& ma = a.matchers[i];
    const obs::MetricsSnapshot& mb = b.matchers[i];
    for (std::size_t d = 0; d < kDims; ++d) {
      const std::string seg = "segload.dim" + std::to_string(d);
      const double reqs = delta(ma, mb, seg + ".requests");
      seg_max = std::max(seg_max, reqs);
      seg_sum += reqs;
      ++segments;
      work += gauge(mb, seg + ".work_units") - gauge(ma, seg + ".work_units");
      high_water = std::max(
          high_water,
          gauge(mb, "matcher.dim" + std::to_string(d) + ".queue_high_water"));
    }
    deliveries += delta(ma, mb, "matcher.deliveries");
    raw += gauge(mb, "cover.raw_subscriptions");
    reps += gauge(mb, "cover.representatives");
    checks += delta(ma, mb, "cover.residual_checks");
    rejects += delta(ma, mb, "cover.residual_rejects");
  }
  const auto edge = [&](const std::string& name) {
    return delta(a.edge, b.edge, name) / msgs;
  };
  const auto wire = [&](const std::string& name) {
    return delta(a.wire, b.wire, name) / msgs;
  };
  const auto total = [](const obs::MetricsSnapshot& s, const std::string& n) {
    return static_cast<double>(counter(s, n));
  };
  return {
      {"edge.frames_out_per_msg", edge("edge.frames_out"), "1/msg"},
      {"edge.bytes_out_per_msg", edge("edge.bytes_out"), "B/msg"},
      {"edge.fanout_batch_mean",
       ratio(static_cast<double>(fb.sum_units - fa.sum_units),
             static_cast<double>(fb.count - fa.count)),
       "count"},
      {"edge.evictions", total(b.edge, "edge.evictions"), "count"},
      {"net.envelopes_per_msg", wire("wire.envelopes_sent"), "1/msg"},
      {"net.frames_per_msg", wire("wire.frames_sent"), "1/msg"},
      {"net.bytes_per_msg", wire("wire.bytes_sent"), "B/msg"},
      {"net.payload_copies", total(b.wire, "wire.payload_copies"), "count"},
      {"net.send_drops", static_cast<double>(b.dropped_sends), "count"},
      {"core.segment_skew",
       ratio(seg_max, seg_sum / static_cast<double>(segments)), "ratio"},
      {"node.deliveries_per_msg", deliveries / msgs, "1/msg"},
      {"node.queue_high_water", high_water, "count"},
      {"index.work_units_per_msg", work / msgs, "units/msg"},
      {"cover.compression_ratio", ratio(raw, reps), "ratio"},
      {"cover.residual_reject_rate", ratio(rejects, checks), "ratio"},
      {"runtime.exec_jobs_per_msg", wire("exec.jobs"), "1/msg"},
      {"runtime.steals", delta(a.wire, b.wire, "exec.steals"), "count"},
  };
}

// --- one run -----------------------------------------------------------------

struct Result {
  bool ok = false;  ///< the run completed (set-up, phases, verification)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  ///< what the final JSON line reports
  Metrics extra;    ///< reported on the human-readable lines only
};

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s:\n", title);
  for (const Metric& x : m) {
    std::printf("  %-34s %-12.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

/// Per-delivery latency of an open-loop phase: p50 and p99 within each
/// slice, and the samples behind them.
struct WindowLatency {
  std::vector<double> p50, p99;
  std::size_t samples = 0;
  std::size_t fewest = ~std::size_t{0};  ///< samples in the smallest slice

  /// Prints the medians over slices with the sample counts.
  void print(const char* label) const {
    std::vector<double> sorted = p99;
    std::sort(sorted.begin(), sorted.end());
    std::printf("  %-9s p50 %.4f ms  p99 %.4f ms  (median of %zu slices; "
                "n=%zu, >= %zu per slice); slice p99 quartiles %.3g %.3g "
                "%.3g, max %.3g\n",
                label, median(p50), median(p99), p99.size(), samples, fewest,
                quantile(sorted, 0.25), quantile(sorted, 0.5),
                quantile(sorted, 0.75), sorted.empty() ? 0.0 : sorted.back());
  }
};

WindowLatency window_latency(const std::vector<LatencySample>& sorted,
                             const Phase& phase) {
  WindowLatency out;
  const auto by_seq = [](const LatencySample& s, std::uint64_t seq) {
    return s.seq < seq;
  };
  for (const Window& w : phase) {
    const auto slices = static_cast<std::uint64_t>(
        std::max(1.0, std::round(w.seconds / kSliceS)));
    const std::uint64_t n = w.end - w.begin;
    for (std::uint64_t k = 0; k < slices; ++k) {
      const std::uint64_t end = w.begin + n * (k + 1) / slices;
      auto it = std::lower_bound(sorted.begin(), sorted.end(),
                                 w.begin + n * k / slices, by_seq);
      std::vector<double> ms;
      for (; it != sorted.end() && it->seq < end; ++it) {
        ms.push_back(1e-6 * static_cast<double>(it->ns));
      }
      out.samples += ms.size();
      out.fewest = std::min(out.fewest, ms.size());
      out.p50.push_back(quantile(ms, 0.5));
      out.p99.push_back(quantile(ms, 0.99));
    }
  }
  return out;
}

/// Generator lateness (publish - due, per message) of an open-loop phase.
std::vector<double> lateness(const Phase& phase) {
  std::vector<double> late;
  for (const Window& w : phase) {
    late.insert(late.end(), w.late_ms.begin(), w.late_ms.end());
  }
  return late;
}

double late_p99(const char* label, std::vector<double> late) {
  const double p99 = quantile(late, 0.99);
  std::printf("  %-9s gen.late p99 %.4f ms  (n=%zu)\n", label, p99,
              late.size());
  return p99;
}

std::vector<LatencySample> sorted_latency(Receiver& rx) {
  std::vector<LatencySample> all = rx.take_latency();
  std::sort(all.begin(), all.end(),
            [](const LatencySample& a, const LatencySample& b) {
              return a.seq < b.seq;
            });
  return all;
}

/// One deployment's share of an untraced run.
struct Saturation {
  double cpu_s = 0.0;          ///< service CPU, first publish to drained
  std::uint64_t messages = 0;  ///< published in the phase
  double msgs_per_s = 0.0;     ///< completions per second of the loop
};

/// Keeps kInFlight messages outstanding for `seconds`, then drains. The
/// phase starts drained too, so the service CPU it used is all spent on the
/// messages it published.
Saturation saturate(Generator& gen, const Receiver& rx, double seconds,
                    bool* drained) {
  Saturation s;
  const double cpu0 = service_cpu_seconds(rx);
  const std::uint64_t first = gen.published();
  const std::int64_t t0 = now_ns();
  gen.closed_loop(seconds, kInFlight);
  s.msgs_per_s =
      static_cast<double>(rx.completed() - first) / seconds_since(t0);
  *drained = gen.drain(kDrainS) && *drained;
  s.cpu_s = service_cpu_seconds(rx) - cpu0;
  s.messages = gen.published() - first;
  return s;
}

double cpu_us_per_msg(const Saturation& s) {
  return 1e6 * s.cpu_s /
         static_cast<double>(std::max<std::uint64_t>(s.messages, 1));
}

/// Traced run: rounds of an untraced and a traced open-loop window; the
/// ledger of the traced messages and the overhead of tracing them.
Metrics traced_phases(Generator& gen, World& w, const WorkloadSpec& spec,
                      double mean_expected, double seconds, bool* drained,
                      Metrics* extra) {
  const std::size_t rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / 2.0 / kWindowS)));
  const double window_s = seconds / 2.0 / static_cast<double>(rounds);
  w.tracer.arm(static_cast<std::size_t>(seconds / 2.0 * spec.rate /
                                        Tracer::kEvery) + 64,
               mean_expected);
  w.rx.prefault_latency(
      static_cast<std::size_t>(1.25 * seconds * spec.rate * mean_expected));
  w.rx.sample_latency(true);
  Phase base, traced;
  for (std::size_t r = 0; r < rounds; ++r) {
    base.push_back(gen.open_loop(window_s, spec.rate, false));
    *drained = gen.drain(kDrainS) && *drained;
    w.tracer.set_tracing(true);
    w.tracer.set_write_tracing(true);
    traced.push_back(gen.open_loop(window_s, spec.rate, true));
    *drained = gen.drain(kDrainS) && *drained;
    w.tracer.set_tracing(false);
    w.tracer.set_write_tracing(false);
  }
  w.rx.sample_latency(false);

  const std::vector<LatencySample> lat = sorted_latency(w.rx);
  std::printf("open loop at %.0f msgs/s (due time -> client receipt, per "
              "delivery):\n", spec.rate);
  const WindowLatency base_lat = window_latency(lat, base);
  const WindowLatency traced_lat = window_latency(lat, traced);
  base_lat.print("untraced");
  traced_lat.print("traced");
  const double base50 = median(base_lat.p50);
  const double traced50 = median(traced_lat.p50);
  std::vector<SeqRange> ranges;
  for (const Window& win : traced) ranges.push_back({win.begin, win.end});
  const Ledger lg = assemble_ledger(w.tracer, ranges, w.dep.sessions());

  Metrics m;
  double sum = 0.0;
  for (std::size_t s = 0; s < kStages; ++s) {
    const std::string stage = kStageNames[s];
    m.push_back({stage + ".mean_ms", lg.mean_ms[s], "ms"});
    m.push_back({stage + ".p99_ms", lg.p99_ms[s], "ms"});
    sum += lg.mean_ms[s];
  }
  m.push_back({"e2e.complete.mean_ms", lg.complete_mean_ms, "ms"});
  m.push_back({"e2e.complete.p99_ms", lg.complete_p99_ms, "ms"});
  m.push_back({"trace.overhead", base50 > 0.0 ? traced50 / base50 : 0.0,
               "ratio"});
  const auto mean_of = [&lg](std::string_view stage) {
    for (std::size_t s = 0; s < kStages; ++s) {
      if (stage == kStageNames[s]) return lg.mean_ms[s];
    }
    return 0.0;
  };
  // Matcher time: node.match_queue through node.fanout. Matcher work
  // leaves out the waits (for the core, and the hand-offs to and from the
  // pool worker).
  const double probe = mean_of("index.probe");
  double matcher = 0.0;
  for (const char* s : {"node.match_queue", "runtime.offload_wait",
                        "index.probe", "runtime.complete_wait",
                        "cover.expand", "node.fanout"}) {
    matcher += mean_of(s);
  }
  const double work = probe + mean_of("cover.expand") + mean_of("node.fanout");
  const double egress = mean_of("node.fanout") +
                        mean_of("net.delivery_wire") + mean_of("edge.egress");
  const auto n = static_cast<double>(std::max<std::size_t>(lg.messages, 1));
  *extra = {
      {"ledger.messages", static_cast<double>(lg.messages), "count"},
      {"ledger.unattributed", static_cast<double>(lg.unattributed), "count"},
      {"ledger.negative_frac", static_cast<double>(lg.negative) / n, "ratio"},
      {"ledger.sum_error",
       ratio(std::fabs(sum - lg.complete_mean_ms), lg.complete_mean_ms),
       "ratio"},
      {"index.probe_share_of_matcher", ratio(probe, matcher), "ratio"},
      {"index.probe_share_of_matcher_work", ratio(probe, work), "ratio"},
      {"egress_share_of_e2e", ratio(egress, lg.complete_mean_ms), "ratio"},
      {"gen.late.p99_ms", late_p99("traced", lateness(traced)), "ms"},
  };
  return m;
}

Result run(const WorkloadSpec& spec, const Options& opt, const Scale& scale) {
  Result res;
  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::int64_t t0 = now_ns();
  const Inputs in = make_inputs(spec, opt.seed, scale.pool);
  std::printf("inputs: %zu subscriptions + %zu churn, pool %zu messages, "
              "%.2f expected deliveries/msg, oracle %.2f s\n",
              in.subs.size(), in.side.size(), in.pool_size(),
              in.mean_expected(), seconds_since(t0));

  const double steal0 = steal_seconds();
  const std::int64_t run0 = now_ns();
  const int deployments = opt.trace ? 1 : kDeployments;
  std::vector<double> setups;
  std::vector<Saturation> sats;
  double peak_rss_mb = 0.0;
  Metrics extra, counts;
  bool drained = true;
  std::uint64_t failed = 0, gaps = 0, malformed = 0, evictions = 0;
  for (int d = 0; d < deployments; ++d) {
    // Set-up: cluster start, session connects, every subscription
    // installed. The traced run times the write-path handlers while it
    // installs. Memory the oracle freed goes back to the kernel first, and
    // peak_rss_mb is read while the first deployment still runs: the heap a
    // torn-down deployment leaves behind is not all returned, so later
    // deployments start from a footprint that varies from run to run.
    malloc_trim(0);
    t0 = now_ns();
    World world(in);
    world.tracer.set_write_tracing(opt.trace);
    if (!world.dep.start(60.0)) {
      std::fprintf(stderr, "e2e: set-up failed\n");
      return res;
    }
    setups.push_back(seconds_since(t0));
    world.tracer.set_write_tracing(false);
    std::printf("deployment %d/%d: setup %.4f s\n", d + 1, deployments,
                setups.back());

    // Favoured from warm-up to verification: every cluster thread exists
    // by now, and none is created until the next deployment.
    const char* priority = favour_current_thread();
    if (d == 0) std::printf("generator priority: %s\n", priority);
    Generator gen(world.dep, world.rx, world.tracer, spec);
    gen.closed_loop(scale.warmup_s, kInFlight);
    drained = gen.drain(kDrainS) && drained;

    const Snapshot before = world.dep.snapshot();
    const std::uint64_t first = gen.published();
    if (opt.trace) {
      res.metrics = traced_phases(gen, world, spec, in.mean_expected(),
                                  opt.seconds, &drained, &extra);
    } else {
      sats.push_back(
          saturate(gen, world.rx, opt.seconds / deployments, &drained));
      std::printf("  saturation: service CPU %.2f us/msg, %.0f msgs/s "
                  "(%llu messages, %zu in flight)\n",
                  cpu_us_per_msg(sats.back()), sats.back().msgs_per_s,
                  static_cast<unsigned long long>(sats.back().messages),
                  kInFlight);
    }
    if (d == 0) peak_rss_mb = peak_rss_mb_now();
    if (!world.dep.refresh_matcher_gauges()) return res;
    const Snapshot after = world.dep.snapshot();
    counts = layer_counts(
        before, after,
        std::max(1.0, static_cast<double>(gen.published() - first)));

    const Receiver::Check c = world.rx.verify(gen.published());
    std::printf("  verify: %llu messages, %llu failed (%llu missing, %llu "
                "extra), %llu edge gaps, %llu unverified churn deliveries%s\n",
                static_cast<unsigned long long>(gen.published()),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.missing),
                static_cast<unsigned long long>(c.extra),
                static_cast<unsigned long long>(world.rx.gaps()),
                static_cast<unsigned long long>(world.rx.unverified()),
                drained ? "" : ", drain timed out");
    ordinary_thread();
    res.attempted += gen.published();
    failed += c.failed;
    gaps += world.rx.gaps();
    malformed += world.rx.malformed();
    evictions += static_cast<std::uint64_t>(value_of(counts, "edge.evictions"));

    if (opt.trace) {
      world.tracer.set_write_tracing(true);
      const bool removed = world.dep.unsubscribe_verified(scale.removes, 30.0);
      world.tracer.set_write_tracing(false);
      if (!removed) return res;
      const Tracer& tr = world.tracer;
      res.metrics.push_back(
          {"node.store_ms", tr.write_mean_ms(WriteOp::kStore), "ms"});
      res.metrics.push_back(
          {"node.remove_ms", tr.write_mean_ms(WriteOp::kRemove), "ms"});
      res.metrics.push_back(
          {"core.subscribe_ms", tr.write_mean_ms(WriteOp::kSubscribe), "ms"});
      res.metrics.insert(res.metrics.end(), counts.begin(), counts.end());
    }
  }

  if (!opt.trace) {
    // The deployments pooled: all their service CPU over all their messages.
    Saturation all;
    std::vector<double> per_dep, rates;
    for (const Saturation& s : sats) {
      all.cpu_s += s.cpu_s;
      all.messages += s.messages;
      per_dep.push_back(cpu_us_per_msg(s));
      rates.push_back(s.msgs_per_s);
    }
    std::sort(per_dep.begin(), per_dep.end());
    std::printf("all %d deployments:\n  saturation: service CPU %.2f us/msg "
                "over %llu messages; per deployment %.4g .. %.4g; median "
                "%.0f msgs/s\n",
                deployments, cpu_us_per_msg(all),
                static_cast<unsigned long long>(all.messages),
                per_dep.front(), per_dep.back(), median(rates));
    const double setup_s = median(setups);
    std::printf("  setup: %.4f s (median of %zu)\n", setup_s, setups.size());
    res.metrics = {{"setup_s", setup_s, "s"},
                   {"sat_cpu_us_per_msg", cpu_us_per_msg(all), "us"},
                   {"peak_rss_mb", peak_rss_mb, "MB"}};
    extra = {{"sat_msgs_per_s", median(rates), "msg/s"}};
    extra.insert(extra.end(), counts.begin(), counts.end());
  }
  std::printf("host steal: %.2f s of CPU over %.1f s\n",
              steal_seconds() - steal0, seconds_since(run0));
  // A message fails when its delivered set is wrong; a session gap, an
  // eviction or an undrained window fails the run as a whole.
  res.failed = failed;
  if (gaps != 0 || malformed != 0 || evictions != 0 || !drained) {
    res.failed = std::max<std::uint64_t>(res.failed, 1);
  }
  extra.push_back(
      {"failed_frac",
       static_cast<double>(res.failed) /
           static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
       "ratio"});
  res.extra = std::move(extra);
  res.ok = true;
  return res;
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      opt->workload = v;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt->seconds = std::atof(v);
    } else if (a == "--trace") {
      opt->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return opt->smoke || (!opt->workload.empty() && opt->seconds > 0.0);
}

/// Every workload at reduced scale, traced; no timing thresholds.
int smoke() {
  Options opt;
  opt.trace = true;
  opt.seconds = 1.0;
  Scale scale;
  scale.pool = 2048;
  scale.warmup_s = 0.3;
  scale.removes = 200;
  bool pass = true;
  for (const WorkloadSpec& w : workloads()) {
    opt.workload = w.name;
    const Result r = run(smoke_scale(w), opt, scale);
    print_metrics("checks", r.extra);
    // Stages are differences of consecutive stamps, so they add up to
    // e2e.complete by construction (the sum check only guards that); a
    // broken attribution shows as a message with a missing stamp or a stage
    // that runs backwards.
    const double messages = value_of(r.extra, "ledger.messages");
    const bool ok = r.ok && r.failed == 0 &&
                    value_of(r.metrics, "net.payload_copies") == 0.0 &&
                    value_of(r.metrics, "edge.evictions") == 0.0 &&
                    messages > 0.0 &&
                    value_of(r.extra, "ledger.unattributed") <= 0.01 * messages &&
                    value_of(r.extra, "ledger.negative_frac") < 0.001 &&
                    value_of(r.extra, "ledger.sum_error") <= 0.01;
    std::printf("smoke %s: %s\n\n", w.name.c_str(), ok ? "PASS" : "FAIL");
    pass = pass && ok;
  }
  std::printf("e2e_smoke: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 | --smoke\n");
    return 2;
  }
  // Tight sleep-until-due wakeups for the open-loop schedule.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  if (opt.smoke) return smoke();
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2e: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Result r = run(*spec, opt, Scale{});
  if (!r.ok) return 1;
  print_metrics(opt.trace ? "per-layer" : "end-to-end", r.metrics);
  print_metrics("also", r.extra);
  print_json(r);
  return 0;
}
