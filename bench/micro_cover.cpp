// Subscription-covering microbenchmark (ISSUE 8, real wall-clock time):
// sweeps duplicate/containment skew x subscription count and compares the
// covered pipeline (CoverTable + compressed FlatBucketIndex + delivery-time
// expansion with residual filters) against the uncovered baseline index.
//
// Reported per cell (cover.subs<N>.skew<P>.*):
//   compression_ratio        raw subscriptions / indexed entries
//   ns_uncovered/ns_covered  ns per probed event, end to end (covered
//                            includes expansion + residual filtering)
//   tput_ratio               uncovered ns / covered ns (>1 == covering wins)
//   work_saved_ratio         probe work-units saved vs the baseline
//   residual_checks_per_event, residual_reject_rate
//   identical                1 iff delivered (id, subscriber) sets are
//                            byte-identical to the baseline on every message
// plus cover.hardware_concurrency, the host's core count.
//
// The skew=0 cells double as the no-regression guard: covering with no
// duplicates must stay within a few percent of the raw index.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attr/schema.h"
#include "bench_util.h"
#include "cover/cover_table.h"
#include "index/subscription_index.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Keeps the optimizer from deleting the probe loops.
volatile std::uint64_t g_sink = 0;

struct CoveredSet {
  std::unique_ptr<SubscriptionIndex> index;
  std::unique_ptr<CoverTable> cover;
};

std::vector<Subscription> make_subs(std::size_t n, double skew,
                                    const AttributeSchema& schema) {
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.duplicate_skew = skew;
  wl.duplicate_templates = 4096;
  wl.duplicate_jitter = 2.0;
  SubscriptionGenerator gen(wl, 99);
  return gen.batch(n);
}

std::unique_ptr<SubscriptionIndex> build_uncovered(
    const std::vector<Subscription>& subs, const AttributeSchema& schema) {
  auto index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  for (const Subscription& s : subs) index->insert(s);
  return index;
}

CoveredSet build_covered(const std::vector<Subscription>& subs,
                         const AttributeSchema& schema, double budget) {
  CoveredSet out;
  out.index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  CoverConfig cfg;
  cfg.enabled = true;
  cfg.fp_volume_budget = budget;
  std::vector<Range> domains;
  for (std::size_t d = 0; d < schema.dimensions(); ++d) {
    domains.push_back(schema.domain(static_cast<DimId>(d)));
  }
  out.cover = std::make_unique<CoverTable>(cfg, domains);
  for (const Subscription& s : subs) {
    CoverTable::AddResult ops = out.cover->add(s);
    if (ops.erase) out.index->erase(ops.erase_id);
    if (ops.insert) out.index->insert(ops.insert_sub);
  }
  return out;
}

/// ns/event of the uncovered baseline: chunked match_batch.
double time_uncovered_ns(SubscriptionIndex& index,
                         const std::vector<Message>& msgs, std::size_t batch,
                         std::size_t target_events, double* work_units) {
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  MatchScratch scratch;
  WorkCounter wc;
  auto run = [&](std::size_t events, WorkCounter& w) {
    std::size_t done = 0, cursor = 0;
    while (done < events) {
      const std::size_t nb = std::min(batch, msgs.size() - cursor);
      hits.clear();
      offsets.clear();
      index.match_batch({msgs.data() + cursor, nb}, hits, offsets, w, scratch);
      g_sink = g_sink + hits.size();
      done += nb;
      cursor = cursor + nb >= msgs.size() ? 0 : cursor + nb;
    }
    return done;
  };
  WorkCounter warm;
  run(target_events / 10 + 1, warm);
  wc = WorkCounter{};
  const double t0 = now_ns();
  const std::size_t events = run(target_events, wc);
  const double ns = (now_ns() - t0) / static_cast<double>(events);
  *work_units = wc.total() / static_cast<double>(events);
  return ns;
}

/// ns/event of the covered pipeline: compressed probe + delivery-time
/// expansion with residual filters — the honest end-to-end cost.
double time_covered_ns(CoveredSet& set, const std::vector<Message>& msgs,
                       std::size_t batch, std::size_t target_events,
                       double* work_units, double* checks_per_event,
                       double* reject_rate) {
  std::vector<MatchHit> hits, expanded;
  std::vector<std::uint32_t> offsets;
  MatchScratch scratch;
  std::uint64_t checks = 0, rejects = 0;
  auto run = [&](std::size_t events, WorkCounter& w, bool count) {
    std::size_t done = 0, cursor = 0;
    while (done < events) {
      const std::size_t nb = std::min(batch, msgs.size() - cursor);
      hits.clear();
      offsets.clear();
      set.index->match_batch({msgs.data() + cursor, nb}, hits, offsets, w,
                             scratch);
      for (std::size_t i = 0; i < nb; ++i) {
        expanded.clear();
        CoverTable::ExpandStats es;
        for (std::uint32_t h = offsets[i]; h < offsets[i + 1]; ++h) {
          if (CoverTable::is_rep(hits[h].id)) {
            set.cover->expand(hits[h].id, msgs[cursor + i].values, expanded,
                              &es);
          } else {
            expanded.push_back(hits[h]);
          }
        }
        g_sink = g_sink + expanded.size();
        if (count) {
          checks += es.checks;
          rejects += es.rejects;
        }
      }
      done += nb;
      cursor = cursor + nb >= msgs.size() ? 0 : cursor + nb;
    }
    return done;
  };
  WorkCounter warm;
  run(target_events / 10 + 1, warm, false);
  WorkCounter wc;
  const double t0 = now_ns();
  const std::size_t events = run(target_events, wc, true);
  const double ns = (now_ns() - t0) / static_cast<double>(events);
  // Residual comparisons are real per-event work; charge them like the
  // matcher does (1 work unit per member check).
  *work_units = (wc.total() + static_cast<double>(checks)) /
                static_cast<double>(events);
  *checks_per_event =
      static_cast<double>(checks) / static_cast<double>(events);
  *reject_rate = checks > 0 ? static_cast<double>(rejects) /
                                  static_cast<double>(checks)
                            : 0.0;
  return ns;
}

/// Compares delivered (id, subscriber) sets message by message and folds
/// both sides into order-sensitive digests (sorted per message, so any
/// probe-order difference inside one message is immaterial — exactly the
/// guarantee the matcher makes).
bool verify_identical(SubscriptionIndex& raw, CoveredSet& covered,
                      const std::vector<Message>& msgs,
                      std::uint64_t* digest_raw,
                      std::uint64_t* digest_covered) {
  obs::DeterminismDigest dr, dc;
  std::vector<MatchHit> a, b, reps;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  bool identical = true;
  auto by_id = [](const MatchHit& x, const MatchHit& y) {
    return x.id != y.id ? x.id < y.id : x.subscriber < y.subscriber;
  };
  for (const Message& msg : msgs) {
    a.clear();
    b.clear();
    reps.clear();
    const std::span<const Message> one(&msg, 1);
    offsets.clear();
    raw.match_batch(one, a, offsets, wc, scratch);
    offsets.clear();
    covered.index->match_batch(one, reps, offsets, wc, scratch);
    for (const MatchHit& hit : reps) {
      if (CoverTable::is_rep(hit.id)) {
        covered.cover->expand(hit.id, msg.values, b);
      } else {
        b.push_back(hit);
      }
    }
    std::sort(a.begin(), a.end(), by_id);
    std::sort(b.begin(), b.end(), by_id);
    identical = identical && a.size() == b.size() &&
                std::equal(a.begin(), a.end(), b.begin(),
                           [](const MatchHit& x, const MatchHit& y) {
                             return x.id == y.id &&
                                    x.subscriber == y.subscriber;
                           });
    for (const MatchHit& h : a) {
      dr.mix(h.id);
      dr.mix(h.subscriber);
    }
    for (const MatchHit& h : b) {
      dc.mix(h.id);
      dc.mix(h.subscriber);
    }
  }
  *digest_raw = dr.value();
  *digest_covered = dc.value();
  return identical && dr.value() == dc.value();
}

void run_cell(obs::MetricsSnapshot& snap, std::size_t subs, double skew,
              double budget, const std::vector<Message>& msgs,
              std::size_t target_events) {
  const AttributeSchema schema = AttributeSchema::uniform(4);
  const std::vector<Subscription> population = make_subs(subs, skew, schema);
  auto raw = build_uncovered(population, schema);
  CoveredSet covered = build_covered(population, schema, budget);

  const double compression =
      static_cast<double>(subs) /
      static_cast<double>(std::max<std::size_t>(covered.index->size(), 1));

  std::uint64_t digest_raw = 0, digest_covered = 0;
  const bool identical =
      verify_identical(*raw, covered, msgs, &digest_raw, &digest_covered);

  double work_raw = 0.0, work_cov = 0.0, checks = 0.0, reject_rate = 0.0;
  const double ns_raw =
      time_uncovered_ns(*raw, msgs, 32, target_events, &work_raw);
  const double ns_cov = time_covered_ns(covered, msgs, 32, target_events,
                                        &work_cov, &checks, &reject_rate);

  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "cover.subs%zu.skew%02d", subs,
                static_cast<int>(skew * 100.0 + 0.5));
  const std::string p(prefix);
  snap.gauges[p + ".compression_ratio"] = compression;
  snap.gauges[p + ".ns_uncovered"] = ns_raw;
  snap.gauges[p + ".ns_covered"] = ns_cov;
  snap.gauges[p + ".tput_ratio"] = ns_cov > 0.0 ? ns_raw / ns_cov : 0.0;
  snap.gauges[p + ".work_uncovered"] = work_raw;
  snap.gauges[p + ".work_covered"] = work_cov;
  snap.gauges[p + ".work_saved_ratio"] =
      work_cov > 0.0 ? work_raw / work_cov : 0.0;
  snap.gauges[p + ".residual_checks_per_event"] = checks;
  snap.gauges[p + ".residual_reject_rate"] = reject_rate;
  snap.gauges[p + ".identical"] = identical ? 1.0 : 0.0;

  std::printf(
      "%-24s compression %7.2fx  tput %6.2fx  work %6.2fx  "
      "resid/evt %8.1f  identical %s\n",
      prefix, compression, ns_cov > 0.0 ? ns_raw / ns_cov : 0.0,
      work_cov > 0.0 ? work_raw / work_cov : 0.0, checks,
      identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "micro_cover: delivered sets diverged at subs=%zu skew=%g "
                 "(digest %016llx vs %016llx)\n",
                 subs, skew, (unsigned long long)digest_raw,
                 (unsigned long long)digest_covered);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t subs = 100000;
  std::size_t n_msgs = 2048;
  double budget = 0.05;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subs") == 0 && i + 1 < argc) {
      subs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--msgs") == 0 && i + 1 < argc) {
      n_msgs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    }
  }

  benchutil::header("cover",
                    "subscription covering: compressed probe + delivery-time "
                    "expansion vs the uncovered baseline");
  benchutil::note("fp_volume_budget=" + std::to_string(budget) +
                  ", duplicate templates=4096, jitter=2.0");

  const AttributeSchema schema = AttributeSchema::uniform(4);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  msgs.reserve(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) msgs.push_back(mgen.next());

  obs::MetricsSnapshot snap;
  snap.gauges["cover.fp_volume_budget"] = budget;
  snap.gauges["cover.hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());

  std::vector<std::size_t> sizes{subs};
  if (large) sizes.push_back(1000000);
  for (const std::size_t n : sizes) {
    const std::size_t target = n >= 1000000 ? 2000 : 20000;
    for (const double skew : {0.0, 0.5, 0.95}) {
      run_cell(snap, n, skew, budget, msgs, target);
    }
  }

  // Headline guards, mirroring the acceptance criteria: the largest
  // population's high-skew cell and the skew-0 overhead.
  const std::size_t big = sizes.back();
  const std::string hi =
      "cover.subs" + std::to_string(big) + ".skew95";
  snap.gauges["cover.headline_compression"] =
      snap.gauges[hi + ".compression_ratio"];
  snap.gauges["cover.headline_tput_ratio"] = snap.gauges[hi + ".tput_ratio"];
  const std::string zero = "cover.subs" + std::to_string(big) + ".skew00";
  const double overhead =
      snap.gauges[zero + ".tput_ratio"] > 0.0
          ? 1.0 / snap.gauges[zero + ".tput_ratio"]
          : 0.0;
  snap.gauges["cover.skew0_overhead"] = overhead;
  std::printf("headline: compression %.2fx, tput %.2fx, skew0 overhead %.3f\n",
              snap.gauges["cover.headline_compression"],
              snap.gauges["cover.headline_tput_ratio"], overhead);

  benchutil::write_bench_json("cover", snap);

  // CI gate: a covered cell whose delivered multiset (or digest) diverged
  // from the uncovered baseline is a correctness bug, not a perf result.
  for (const auto& [key, value] : snap.gauges) {
    const std::string suffix = ".identical";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        value != 1.0) {
      std::fprintf(stderr, "FAIL %s: covered deliveries diverged\n",
                   key.c_str());
      return 1;
    }
  }
  return 0;
}
